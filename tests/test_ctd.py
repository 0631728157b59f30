"""Engagement feature pipeline vs. naive oracles, plus its edge-case contracts."""

import sys
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _eventgen import WINDOW, random_event_log, random_track_artist, write_log_file
from _oracles import (
    naive_artist_features,
    naive_counts,
    naive_ctd_matrix,
    naive_ols_slope,
    naive_track_year,
)
from popgate.ctd import build_ctd_dataset, default_schema, ingest_events
from popgate.ctd import events
from popgate.ctd.events import parse_timestamp_year
from popgate.ctd.features import _ols_slopes
from popgate.exceptions import ConfigError, MissingInputError


def _ts(year: int, month: int = 6) -> str:
    return str(int(datetime(year, month, 1, tzinfo=timezone.utc).timestamp()))


def _plays(track: str, year: int, per_user: dict) -> list:
    """Log rows giving each user the stated number of plays of `track` in `year`."""
    return [(u, track, _ts(year)) for u, n in per_user.items() for _ in range(n)]


def _listeners(track: str, unique_repeat_by_year: dict) -> list:
    """Per year (u, r): u listeners, of whom r play twice and the rest once."""
    rows = []
    for y, (u, r) in unique_repeat_by_year.items():
        rows += _plays(track, y, {f"{track}-u{i}": 2 if i < r else 1 for i in range(u)})
    return rows


def _features(rows, mode="temporal", artist=None, window=WINDOW, years=WINDOW) -> dict:
    """{track_id: {feature name: value}} through ingest and build."""
    res = ingest_events(rows, window=window)
    artist = artist or {t: "a" for t in res.track_ids}
    ids, X, schema = build_ctd_dataset(res, artist, mode, years)
    return {t: dict(zip(schema.names, row.tolist())) for t, row in zip(ids, X)}


def _year(f: dict, y: int) -> tuple:
    return tuple(f[f"y{y}_{m}"] for m in ("total_plays", "unique_listeners", "repeat_listeners", "median_plays"))


_ARTIST = ("artist_loyalty_rate", "artist_loyalty_growth", "artist_reach_growth",
           "artist_loyalty_consistency", "artist_engagement_consistency")

# a window that also holds 2015, so a track can have events but none in WINDOW
_WIDE = (2015, *WINDOW)


# --- ingestion ----------------------------------------------------------------


def test_empty_stream_gives_empty_map():
    res = ingest_events([])
    assert res.counts == {} and res.n_events == 0


def test_single_event():
    res = ingest_events([("u1", "t1", "2018-06-01T12:00:00Z")])
    assert res.counts == {("t1", 2018): {"u1": 1}}
    assert res.n_events == 1


def test_timestamp_formats_agree():
    # same instant four ways
    epoch = 1514764800  # 2018-01-01T00:00:00Z
    assert parse_timestamp_year(str(epoch)) == 2018
    assert parse_timestamp_year(f"{epoch}.0") == 2018
    assert parse_timestamp_year("2018-01-01T00:00:00Z") == 2018
    assert parse_timestamp_year("2018-01-01T00:00:00+00:00") == 2018
    assert parse_timestamp_year("2018-01-01 00:00:00") == 2018
    # offset shifts the UTC year
    assert parse_timestamp_year("2018-01-01T00:00:00+02:00") == 2017


def test_malformed_and_out_of_window_are_tallied():
    rows = [
        ("u1", "t1", "2018-01-05T00:00:00Z"),
        ("", "t1", "2018-01-05T00:00:00Z"),  # missing user
        ("u1", "t1", "whenever"),  # bad timestamp
        ("u1", "t1", "2009-01-05T00:00:00Z"),  # outside 2016–2020
    ]
    res = ingest_events(rows, window=WINDOW)
    assert res.n_events == 1
    assert res.n_malformed == 2
    assert res.n_out_of_window == 1
    assert res.counts == {("t1", 2018): {"u1": 1}}


def test_file_ingestion_csv_and_tsv(tmp_path):
    rows = [("u1", "t1", "2017-03-01T00:00:00Z"), ("u2", "t1", "2017-04-01T00:00:00Z")]
    for delim, name in ((",", "log.csv"), ("\t", "log.tsv")):
        path = write_log_file(tmp_path / name, rows, delimiter=delim)
        res = ingest_events(path)
        assert res.counts == {("t1", 2017): {"u1": 1, "u2": 1}}


def test_file_ingestion_handles_short_rows_and_column_order(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "timestamp,user_id,track_id\n"
        "2018-01-01T00:00:00Z,u1,t1\n"
        "2018-01-01T00:00:00Z,u1\n"  # short row -> malformed
    )
    res = ingest_events(path)
    assert res.counts == {("t1", 2018): {"u1": 1}}
    assert res.n_malformed == 1


def test_plain_lines_with_extra_and_missing_cells(tmp_path):
    """Comma counts that balance over a block still send it to csv.reader
    when some line does not hold exactly three cells."""
    path = tmp_path / "log.csv"
    path.write_text(
        "user_id,track_id,timestamp\n"
        "u1,t1,1514764800,extra\n"  # an extra cell is ignored
        "u2,t2\n"  # a missing timestamp is malformed
        "u3,t3,1514764800\n"
    )
    res = ingest_events(path)
    assert res.counts == {("t1", 2018): {"u1": 1}, ("t3", 2018): {"u3": 1}}
    assert res.n_malformed == 1


def test_missing_file_and_missing_columns(tmp_path):
    with pytest.raises(MissingInputError):
        ingest_events(tmp_path / "absent.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("who,what\nx,y\n")
    with pytest.raises(ConfigError, match="lacks columns"):
        ingest_events(bad)


def test_log_with_utf8_bom_is_read(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("\ufeffuser_id,track_id,timestamp\nu1,t1,1514764800\n", encoding="utf-8")
    res = ingest_events(path)
    assert res.counts == {("t1", 2018): {"u1": 1}}


def test_ingest_matches_bruteforce_scan_10k(tmp_path):
    rng = np.random.default_rng(123)
    rows, truth, n_mal, n_out = random_event_log(rng, 10_000)
    res = ingest_events(rows, window=WINDOW)
    assert res.counts == naive_counts(truth, WINDOW)
    assert len(res.counts) == len(naive_counts(truth, WINDOW))
    assert res.n_malformed == n_mal
    assert res.n_out_of_window == n_out
    assert res.n_events == len(truth)
    # same result through the file reader, in every file style
    for style in ("csv", "plain", "quoted", "messy"):
        path = write_log_file(tmp_path / f"{style}.csv", rows, style=style)
        assert ingest_events(path).counts == res.counts, style


_STYLES = [(",", "plain"), (",", "quoted"), (",", "messy"), (",", "csv"), ("\t", "plain")]


@pytest.mark.parametrize("delim,style", _STYLES)
@pytest.mark.parametrize("block", [1, 61, 4096])
def test_exotic_logs_match_bruteforce_across_block_sizes(tmp_path, monkeypatch, delim, style, block):
    """Blocks cut mid-log (down to one character plus the rest of its line)
    mix the split-by-position path and the csv fallback; quoted fields with
    newlines run across block ends. Counts and tallies never change."""
    monkeypatch.setattr(events, "BLOCK_CHARS", block)
    rng = np.random.default_rng(block)
    rows, truth, n_mal, n_out = random_event_log(rng, 1500, n_tracks=30, n_users=50, exotic=True)
    res = ingest_events(write_log_file(tmp_path / "log.txt", rows, delimiter=delim, style=style))
    assert res.counts == naive_counts(truth, WINDOW)
    assert (res.n_events, res.n_malformed, res.n_out_of_window) == (len(truth), n_mal, n_out)


@given(seed=st.integers(0, 2**16), batch=st.integers(1, 300))
@settings(max_examples=30, deadline=None)
def test_exotic_triples_match_bruteforce_in_any_batch_size(seed, batch):
    rng = np.random.default_rng(seed)
    rows, truth, n_mal, n_out = random_event_log(rng, 400, n_tracks=12, n_users=30, exotic=True)
    old = events.BATCH_ROWS
    events.BATCH_ROWS = batch
    try:
        res = ingest_events(rows, window=WINDOW)
    finally:
        events.BATCH_ROWS = old
    assert res.counts == naive_counts(truth, WINDOW)
    assert (res.n_events, res.n_malformed, res.n_out_of_window) == (len(truth), n_mal, n_out)


def test_plain_blocks_skip_the_csv_reader(tmp_path, monkeypatch):
    calls = []
    real = events._add_csv_block
    monkeypatch.setattr(events, "_add_csv_block", lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(events, "BLOCK_CHARS", 200)
    rows, truth, _, _ = random_event_log(np.random.default_rng(5), 2000)
    rows = [(u, t, ts.replace(" ", "T")) for u, t, ts in rows]  # naive ISO without a space
    plain = ingest_events(write_log_file(tmp_path / "p.csv", rows, style="plain"))
    assert calls == [] and plain.counts == naive_counts(truth, WINDOW)
    quoted = ingest_events(write_log_file(tmp_path / "q.csv", rows, style="quoted"))
    assert len(calls) > 10 and quoted.counts == plain.counts


def test_plain_path_excludes_exactly_the_characters_csv_and_strip_treat_specially():
    special = {chr(c) for c in range(sys.maxunicode + 1) if events._SPECIAL.match(chr(c))}
    spaces = {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    assert special == (spaces - {"\n"}) | {'"', "\x00"}
    assert set(events._ASCII_SPECIAL) == {c for c in special if c.isascii()}


def test_timestamp_digit_boundary():
    """Up to 11 digits are read as epoch seconds directly, longer ones parsed;
    both agree, and out-of-range values stay malformed."""
    rows = [
        ("u", "t", "01514764800"),  # 11 chars, 2018
        ("u", "t", "001514764800"),  # 12 chars, 2018
        ("u", "t", "99999999999"),  # 11 digits, year 5138: out of window
        ("u", "t", "253402300799"),  # 9999-12-31: out of window
        ("u", "t", "1514764800000"),  # milliseconds: year 49970 is malformed
        ("u", "t", "-31536000"),  # 1969
        ("u", "t", "1514764800.5"),
        ("u", "t", "inf"),
        ("u", "t", "nan"),
        ("u", "t", "１５１４７６４８００"),  # full-width digits: float() reads them
    ]
    res = ingest_events(rows, window=WINDOW)
    assert res.counts == {("t", 2018): {"u": 4}}
    assert (res.n_events, res.n_out_of_window, res.n_malformed) == (4, 3, 3)


def test_ids_are_compared_as_whole_strings():
    ts = "1514764800"
    rows = [("u", "t", ts), ("u\x00", "t", ts), ("u\x00\x00", "t", ts), ("u" * 9, "t", ts),
            ("u" * 8, "t", ts), ("\ud800", "t", ts), ("ü", "t", ts), ("ü", "t", ts)]
    res = ingest_events(rows, window=WINDOW)
    assert res.counts == {("t", 2018): {"u": 1, "u\x00": 1, "u\x00\x00": 1, "u" * 9: 1,
                                        "u" * 8: 1, "\ud800": 1, "ü": 2}}


# --- track-year stats -----------------------------------------------------------


def test_stats_single_play():
    f = _features([("u", "t", _ts(2018))])["t"]
    assert _year(f, 2018) == (1, 1, 0, 1.0)


def test_stats_two_user_example():
    f = _features(_plays("t", 2018, {"u1": 3, "u2": 1}))["t"]
    assert _year(f, 2018) == (4, 2, 1, 2.0)


def test_stats_empty_is_zero():
    f = _features(_plays("t", 2018, {"u1": 3, "u2": 1}))["t"]
    for y in WINDOW:
        if y != 2018:
            assert _year(f, y) == (0, 0, 0, 0.0)


def test_yearly_stats_keep_repeat_below_unique_below_total():
    rng = np.random.default_rng(4)
    rows, _, _, _ = random_event_log(rng, 3000, n_tracks=10, n_users=15)
    for f in _features(rows).values():
        for y in WINDOW:
            total, unique, repeat, median = _year(f, y)
            assert repeat <= unique <= total
            assert (median >= 1.0) == (unique > 0)


@given(
    st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=3),
        st.integers(min_value=1, max_value=50),
        min_size=1,
        max_size=100,
    )
)
@settings(deadline=None)
def test_stats_match_sort_based_oracle(user_counts):
    f = _features(_plays("t", 2019, user_counts))["t"]
    total, unique, repeat, median = naive_track_year(user_counts)
    assert _year(f, 2019) == (total, unique, repeat, median)
    assert repeat <= unique <= total
    assert median >= 1.0


# --- song features -----------------------------------------------------------


def test_song_all_zero_years():
    f = _features(_plays("t", 2015, {"u1": 2}), window=_WIDE)["t"]
    assert f["song_total_plays"] == 0 and f["song_loyalty_rate"] == 0.0 and f["song_repeat_ratio"] == 0.0
    assert f["song_median_plays"] == 0.0
    assert len(f) == 31 and all(_year(f, y) == (0, 0, 0, 0.0) for y in WINDOW)


def test_song_single_year_ratios():
    f = _features(_plays("t", 2018, {"u1": 3, "u2": 1}))["t"]
    assert f["song_loyalty_rate"] == 0.5  # 1 repeat / 2 unique
    assert f["song_repeat_ratio"] == 0.5  # (4-2)/4


def test_song_two_identical_years_keep_ratios():
    per_user = {"u1": 3, "u2": 1}
    one = _features(_plays("t", 2018, per_user))["t"]
    two = _features(_plays("t", 2018, per_user) + _plays("t", 2019, per_user))["t"]
    assert two["song_loyalty_rate"] == one["song_loyalty_rate"]
    assert two["song_repeat_ratio"] == one["song_repeat_ratio"]
    assert two["song_total_plays"] == 2 * one["song_total_plays"]


# --- artist features ----------------------------------------------------------


def test_artist_constant_loyalty_is_flat_and_consistent():
    f = _features(_listeners("t0", {y: (10, 3) for y in WINDOW}))["t0"]
    assert f["artist_loyalty_rate"] == pytest.approx(0.3)
    assert f["artist_loyalty_growth"] == 0.0
    assert f["artist_loyalty_consistency"] == 1.0
    assert f["artist_engagement_consistency"] == 1.0  # constant E_y


def test_artist_linear_loyalty_slope():
    # L_y = 0.2, 0.3, 0.4, 0.5, 0.6 -> slope 0.1 per year
    by_year = {y: (10, 2 + i) for i, y in enumerate(WINDOW)}
    f = _features(_listeners("t0", by_year))["t0"]
    assert f["artist_loyalty_growth"] == pytest.approx(0.1, abs=1e-12)


def test_artist_random_series_matches_ols_oracle():
    rng = np.random.default_rng(7)
    rows = []
    for t in range(3):
        by_year = {
            y: (int(rng.integers(1, 40)), 0) for y in WINDOW if rng.random() < 0.8
        }
        by_year = {y: (u, int(rng.integers(0, u + 1))) for y, (u, _) in by_year.items()}
        rows += _listeners(f"t{t}", by_year)
    f = _features(rows)
    tuples = {}
    for (t, y), uc in naive_counts([(u, t, int(parse_timestamp_year(ts))) for u, t, ts in rows], WINDOW).items():
        tuples.setdefault(t, {})[y] = naive_track_year(uc)
    ref = naive_artist_features(tuples, WINDOW)
    for t in tuples:
        assert tuple(f[t][n] for n in _ARTIST) == pytest.approx(ref, abs=1e-12)


def test_artist_loyalty_rate_skips_years_without_listeners():
    # L = 0.2 in 2017 and 0.4 in 2019, no listeners in the other years
    f = _features(_listeners("t0", {2017: (10, 2), 2019: (10, 4)}))["t0"]
    assert f["artist_loyalty_rate"] == pytest.approx(0.3, abs=1e-12)


def test_artist_with_no_events_is_neutral():
    f = _features(_plays("t0", 2015, {"u1": 1}), window=_WIDE)["t0"]
    assert tuple(f[n] for n in _ARTIST) == (0.0, 0.0, 0.0, 1.0, 1.0)


def test_ols_slope_oracle_agreement():
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(20, 5))
    for vals, got in zip(rows.tolist(), _ols_slopes(rows)):
        assert got == pytest.approx(naive_ols_slope(vals), abs=1e-12)
    assert _ols_slopes(np.array([[3.0]])).tolist() == [0.0]


# --- schema and vectors --------------------------------------------------------


def test_default_schema_lengths_and_extension():
    agg = default_schema("aggregate", WINDOW)
    tmp = default_schema("temporal", WINDOW)
    assert len(agg) == 11
    assert len(tmp) == 31
    assert tmp.names[:11] == agg.names
    assert len(set(tmp.names)) == 31  # no duplicate names
    with pytest.raises(ConfigError):
        default_schema("yearly")


def test_all_zero_vector_except_consistencies():
    f = _features(_plays("t", 2015, {"u1": 1}), mode="aggregate", window=_WIDE)["t"]
    assert len(f) == 11
    for name, v in f.items():
        if name.endswith("consistency"):
            assert v == 1.0
        else:
            assert v == 0.0


def test_build_rejects_unknown_mode():
    res = ingest_events(_plays("t", 2018, {"u1": 1}), WINDOW)
    with pytest.raises(ConfigError, match="mode"):
        build_ctd_dataset(res, {"t": "a"}, "yearly", WINDOW)


# --- end-to-end oracle equivalence ---------------------------------------------


@pytest.mark.parametrize("seed,mode", [(0, "aggregate"), (1, "temporal"), (2, "temporal")])
def test_pipeline_matches_naive_recompute(seed, mode):
    rng = np.random.default_rng(seed)
    rows, truth, _, _ = random_event_log(rng, 4000, n_tracks=15, n_users=40)
    track_artist = random_track_artist(rng, n_tracks=15)
    res = ingest_events(rows, window=WINDOW)
    ids, X, schema = build_ctd_dataset(res, track_artist, mode, WINDOW)
    ref_ids, ref_rows = naive_ctd_matrix(truth, track_artist, mode, WINDOW)
    assert ids == ref_ids
    assert X.shape == (len(ref_ids), len(schema))
    ref = np.array(ref_rows)
    # integer-derived columns exact, ratio/slope columns to 1e-12
    assert np.allclose(X, ref, rtol=0, atol=1e-12)
    int_cols = [i for i, n in enumerate(schema.names) if "median" not in n and "rate" not in n
                and "growth" not in n and "consistency" not in n and "ratio" not in n]
    assert np.array_equal(X[:, int_cols], ref[:, int_cols])


@pytest.mark.parametrize("years", [tuple(range(2009, 2021)), WINDOW[::-1], (2016, 2018, 2018, 2020)])
def test_pipeline_matches_naive_recompute_on_other_windows(years):
    """Long (pairwise-summed), reversed and repeated windows."""
    rng = np.random.default_rng(len(years))
    rows, truth, _, _ = random_event_log(rng, 4000, n_tracks=15, n_users=40, window=sorted(set(years)))
    track_artist = random_track_artist(rng, n_tracks=15)
    ids, X, schema = build_ctd_dataset(ingest_events(rows, years), track_artist, "temporal", years)
    ref_ids, ref_rows = naive_ctd_matrix(truth, track_artist, "temporal", years)
    assert ids == ref_ids and schema.years == years
    assert np.allclose(X, np.array(ref_rows), rtol=0, atol=1e-12)


def test_tracks_without_artist_metadata_are_excluded():
    rows = [("u1", "t_known", "2018-02-01T00:00:00Z"), ("u1", "t_unknown", "2018-02-01T00:00:00Z")]
    res = ingest_events(rows, window=WINDOW)
    ids, X, _ = build_ctd_dataset(res, {"t_known": "a1"}, "aggregate", WINDOW)
    assert ids == ["t_known"]
    assert X.shape[0] == 1


# --- structural properties -----------------------------------------------------


@given(st.permutations(list(range(12))))
@settings(max_examples=25, deadline=None)
def test_event_order_never_matters(order):
    base = [
        (f"u{i % 4}", f"t{i % 3}", f"201{6 + (i % 5)}-06-01T00:00:00Z") for i in range(12)
    ]
    shuffled = [base[i] for i in order]
    assert ingest_events(shuffled, WINDOW).counts == ingest_events(base, WINDOW).counts


def test_new_user_event_is_monotone():
    rows = [("u1", "t1", "2018-01-01T00:00:00Z"), ("u1", "t1", "2018-05-01T00:00:00Z")]
    before = _year(_features(rows)["t1"], 2018)
    rows.append(("u2", "t1", "2018-07-01T00:00:00Z"))
    after = _year(_features(rows)["t1"], 2018)
    assert after[0] > before[0]
    assert after[1] > before[1]


def test_duplicating_every_event_doubles_plays_and_saturates_repeat():
    rng = np.random.default_rng(3)
    rows, truth, _, _ = random_event_log(rng, 500, malformed_frac=0, out_of_window_frac=0)
    once = _features(rows)
    twice = _features(rows + rows)
    assert once.keys() == twice.keys()
    for t, f1 in once.items():
        for y in WINDOW:
            (total1, unique1, _, _), (total2, unique2, repeat2, _) = _year(f1, y), _year(twice[t], y)
            assert total2 == 2 * total1
            assert unique2 == unique1
            assert repeat2 == unique2


def test_no_nonfinite_values_anywhere():
    rng = np.random.default_rng(9)
    rows, _, _, _ = random_event_log(rng, 3000, n_tracks=25, n_users=10)
    res = ingest_events(rows, WINDOW)
    _, X, _ = build_ctd_dataset(res, random_track_artist(rng, 25), "temporal", WINDOW)
    assert np.all(np.isfinite(X))
