"""Engagement feature pipeline vs. naive oracles, plus its edge-case contracts."""

import os
import re
import shutil
import signal
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _chain import _workloads, chain_config, run_chain, write_config
from _eventgen import WINDOW, random_event_log, random_track_artist, write_log_file
from _oracles import (
    naive_artist_features,
    naive_counts,
    naive_ctd_matrix,
    naive_ols_slope,
    naive_track_year,
)
from popgate.ctd import events
from popgate.ctd.events import ingest_events
from popgate.ctd.features import build_ctd_dataset, default_schema
from popgate.ctd.events import parse_timestamp_year
from popgate import lanes, tabular
from popgate.cli import main
from popgate.ctd.features import _ols_slopes
from popgate.exceptions import ConfigError, MissingInputError, PopgateError


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


@given(st.lists(st.text("0123456789+-. \x00aé\ud800", min_size=1, max_size=14), min_size=1,
                max_size=40))
@settings(max_examples=200, deadline=None)
def test_word_kernels_match_a_reading_of_each_field(values):
    """The 8-byte word reads of `_keys` and `_epoch_years` agree with the
    bytes of each field, wherever it lies in the batch's buffer."""
    f = events._pack(values)
    year, usable = events._epoch_years(f)
    keys = events._Accumulator(WINDOW)._keys(f)
    for v, y, ok, key in zip(values, year.tolist(), usable.tolist(), keys.tolist()):
        digits = len(v) <= 11 and all(c in "0123456789" for c in v)
        assert ok == digits
        if digits:
            assert y == datetime.fromtimestamp(int(v), tz=timezone.utc).year
        raw = v.encode("utf-8", "surrogatepass")
        if len(raw) <= 8 and b"\0" not in raw:
            assert key == int.from_bytes(raw, "little")
        else:
            assert key & 0xFF == 0xFF


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


# --- a log in byte ranges over the cores ---------------------------------------


@pytest.fixture
def forced_lanes(request, monkeypatch):
    """Cut every log into one byte range per core, whatever its size, with
    `request.param` cores, whatever this machine has."""
    monkeypatch.setattr(events, "PARALLEL_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param


@pytest.fixture
def pids(monkeypatch):
    """The pid of every process forked while the test runs: lanes and
    matrix CSV workers."""
    pids = []
    for module in (lanes, tabular):
        def recording(*args, fork=module._fork):
            proc, pipe = fork(*args)
            pids.append(proc.pid)
            return proc, pipe

        monkeypatch.setattr(module, "_fork", recording)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _assert_ingests_like_the_truth(path, truth, n_mal, n_out, lanes_forked, pids):
    res = ingest_events(path)
    assert res.counts == naive_counts(truth, WINDOW)
    assert (res.n_events, res.n_malformed, res.n_out_of_window) == (len(truth), n_mal, n_out)
    assert len(pids) == lanes_forked
    _assert_reaped(pids)


@pytest.mark.parametrize("forced_lanes", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("delim,style", _STYLES)
@pytest.mark.parametrize("block", [1, 61, 4096])
def test_exotic_logs_match_bruteforce_in_every_lane_count(
        tmp_path, monkeypatch, forced_lanes, pids, delim, style, block):
    test_exotic_logs_match_bruteforce_across_block_sizes(tmp_path, monkeypatch, delim, style, block)
    assert len(pids) == forced_lanes - 1
    _assert_reaped(pids)


def _random_log(tmp_path, seed=7, style="plain", bom=False, **kw):
    rows, truth, n_mal, n_out = random_event_log(np.random.default_rng(seed), 900, **kw)
    path = write_log_file(tmp_path / "log.csv", rows, style=style)
    if bom:
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return path, truth, n_mal, n_out


def _newline_at_every_cut(tmp_path, k):
    """Long quoted track ids made of newlines: each nominal cut point of the
    log, b/k of its size, falls inside one of them, before a newline."""
    rows, truth, n_mal, n_out = random_event_log(np.random.default_rng(13), 300, n_tracks=9)
    rows = [(u, t and "x" + "\n" * 40 + t, ts) for u, t, ts in rows]
    truth = [(u, "x" + "\n" * 40 + t, y) for u, t, y in truth]
    path = write_log_file(tmp_path / "log.csv", rows, style="quoted")
    data = path.read_bytes()
    for b in range(1, k):
        cut = len(data) * b // k
        assert data.count(b'"', 0, cut) % 2 and data.find(b"\n", cut) < data.find(b'"', cut)
    return path, truth, n_mal, n_out


def _long_and_nul_ids(tmp_path):
    """Ids of more than 8 bytes and ids holding a NUL, kept in the long-id
    table; the later rows bring new ones and repeat earlier ones."""
    ts, rows = "1514764800", []
    for i in range(600):
        n = i // 2 + i % 7  # rows of the later ranges meet earlier ids and new ones
        rows.append((f"listener-{n % 40:06d}", f"t\x00{n % 25}" if i % 3 else f"t{n % 25}", ts))
    path = tmp_path / "log.csv"
    path.write_text("user_id,track_id,timestamp\n" + "".join(f"{u},{t},{s}\n" for u, t, s in rows))
    return path, [(u, t, 2018) for u, t, _ in rows], 0, 0


_LANE_CASES = {
    "bom": lambda tmp_path, k: _random_log(tmp_path, bom=True),
    "bom-quoted": lambda tmp_path, k: _random_log(tmp_path, style="quoted", bom=True, exotic=True),
    "newline-at-the-cut": _newline_at_every_cut,
    "long-and-nul-ids": lambda tmp_path, k: _long_and_nul_ids(tmp_path),
    "iso-and-out-of-window": lambda tmp_path, k: _random_log(tmp_path, out_of_window_frac=0.3),
    "malformed": lambda tmp_path, k: _random_log(tmp_path, style="messy", malformed_frac=0.3,
                                                 exotic=True),
}


@pytest.mark.parametrize("forced_lanes", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("case", list(_LANE_CASES))
def test_logs_in_lanes_match_bruteforce(tmp_path, forced_lanes, pids, case):
    path, truth, n_mal, n_out = _LANE_CASES[case](tmp_path, forced_lanes)
    _assert_ingests_like_the_truth(path, truth, n_mal, n_out, forced_lanes - 1, pids)


@pytest.mark.parametrize("forced_lanes", [2, 3], indirect=True)
def test_log_with_irregular_quotes_or_cr_line_ends_stays_one_range(tmp_path, forced_lanes, pids):
    rows, truth, n_mal, n_out = random_event_log(np.random.default_rng(9), 600)
    path = tmp_path / "log.csv"
    body = "".join(f"{u},{t},{ts}\n" for u, t, ts in rows)
    path.write_text('user_id,track_id,timestamp\nu"0,t0,1514764800\n' + body)
    _assert_ingests_like_the_truth(path, [("u\"0", "t0", 2018), *truth], n_mal, n_out, 0, pids)
    path.write_text("user_id,track_id,timestamp\r" + body.replace("\n", "\r"))
    _assert_ingests_like_the_truth(path, truth, n_mal, n_out, 0, pids)


@pytest.mark.parametrize("forced_lanes", [1, 2, 3], indirect=True)
def test_id_tables_list_each_range_after_the_ones_before(tmp_path, monkeypatch, forced_lanes):
    """With one-line blocks, range 0's ids come in the order the log first
    lists them, and each later range's new ids follow the ranges before."""
    monkeypatch.setattr(events, "BLOCK_CHARS", 1)
    path = tmp_path / "log.csv"
    path.write_text("user_id,track_id,timestamp\n"
                    + "".join(f"u{i % 7},t{i},1514764800\n" for i in range(90)))
    data, (_, edges) = path.read_bytes(), tabular._scan(path, forced_lanes)
    ranges = [[line.split(b",")[1].decode() for line in data[a:b].splitlines()]
              for a, b in zip(edges, edges[1:])]
    ranges[0] = ranges[0][1:]  # the header
    assert len(ranges) == forced_lanes
    ids = ingest_events(path).track_ids
    assert ids[:len(ranges[0])] == ranges[0]
    at = 0
    for tracks in ranges:
        assert set(ids[at:at + len(tracks)]) == set(tracks)
        at += len(tracks)
    assert at == len(ids) == 90


def test_quoted_header_is_read(tmp_path):
    path = tmp_path / "qh.csv"
    path.write_text('﻿"user_id" ,"track_id","timestamp"\r\nu1,t1,1514764800\r\n',
                    encoding="utf-8")
    assert ingest_events(path).counts == {("t1", 2018): {"u1": 1}}


def _latin1(path, rows: int, at: int) -> int:
    """A log of `rows` plain rows whose row `at` holds a Latin-1 é -> its offset."""
    tracks = ["t\xe9" if i == at else "t" for i in range(rows)]
    lines = ["user_id,track_id,timestamp\n"]
    lines += [f"u{i},{t}{i},1514764800\n" for i, t in enumerate(tracks)]
    data = "".join(lines).encode("latin-1")
    path.write_bytes(data)
    return data.index(b"\xe9")


@pytest.mark.parametrize("forced_lanes", [1, 2], indirect=True)
@pytest.mark.parametrize("block", [61, 1 << 20])
def test_log_that_is_not_utf8_names_the_file_and_the_byte(tmp_path, monkeypatch, forced_lanes,
                                                          pids, block):
    monkeypatch.setattr(events, "BLOCK_CHARS", block)
    path = tmp_path / "log.csv"
    offset = _latin1(path, 2000, 1800)  # past the first 8 kB that the header's read decodes
    with pytest.raises(PopgateError) as err:
        ingest_events(path)
    assert str(err.value) == (
        f"{path} is not UTF-8: byte {offset} is 0xe9 (invalid continuation byte)")
    assert len(pids) == forced_lanes - 1
    _assert_reaped(pids)


# --- ctd-extract in lanes -------------------------------------------------------


@pytest.fixture(scope="module")
def readme_ws(tmp_path_factory):
    """The README chain through ctd-extract, run with the shipped constants."""
    ws = tmp_path_factory.mktemp("ctd")
    run_chain(ws, chain_config(), ("synth", "clean", "ctd-extract"))
    return ws


_CTD_FILES = ("data/ctd.csv", "manifests/ctd-extract.manifest.json")


def _ctd_extract(base: Path, dest: Path, config: dict | None = None) -> int:
    shutil.copytree(base, dest)
    if config is not None:
        write_config(dest, config)
    return main(["ctd-extract", "--config", str(dest / "run.json")])


@pytest.mark.parametrize("forced_lanes", [1, 2, 3], indirect=True)
def test_ctd_csv_and_manifest_are_byte_equal_at_every_lane_count(
        readme_ws, tmp_path, forced_lanes, pids):
    assert _ctd_extract(readme_ws, tmp_path / "ws") == 0
    assert len(pids) == forced_lanes - 1
    _assert_reaped(pids)
    for rel in _CTD_FILES:
        assert (tmp_path / "ws" / rel).read_bytes() == (readme_ws / rel).read_bytes(), rel


@pytest.mark.parametrize("forced_lanes", [2, 3], indirect=True)
def test_killed_lane_exits_1_naming_ctd_extract(readme_ws, tmp_path, monkeypatch, capsys,
                                               forced_lanes, pids):
    real, parent = events._feed, os.getpid()

    def feed(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(events, "_feed", feed)
    assert _ctd_extract(readme_ws, tmp_path / "ws") == PopgateError.exit_code
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: ctd-extract: the worker process running bytes \d+-\d+ of "
                        rf"{re.escape(str(tmp_path / 'ws/data/events.csv'))} "
                        r"exited with code -9\n", err), err
    assert len(pids) == forced_lanes - 1
    _assert_reaped(pids)


def test_ctd_extract_forks_nothing_on_the_readme_and_chain_small_logs(readme_ws, tmp_path, pids):
    assert _ctd_extract(readme_ws, tmp_path / "readme") == 0
    ws = tmp_path / "chain-small"
    ws.mkdir()
    run_chain(ws, _workloads.chain_config("chain-small", 701), ("synth", "clean", "ctd-extract"))
    assert 0 < (ws / "data/events.csv").stat().st_size < events.PARALLEL_BYTES
    assert pids == []


@pytest.mark.parametrize("forced_lanes", [1, 2], indirect=True)
def test_ctd_extract_on_a_log_that_is_not_utf8_exits_1_naming_it(
        readme_ws, tmp_path, capsys, forced_lanes):
    ws = tmp_path / "ws"
    shutil.copytree(readme_ws, ws)
    offset = _latin1(ws / "data/events.csv", 2000, 1800)
    assert main(["ctd-extract", "--config", str(ws / "run.json")]) == PopgateError.exit_code
    assert capsys.readouterr().err == (f"error: {ws / 'data/events.csv'} is not UTF-8: byte "
                                       f"{offset} is 0xe9 (invalid continuation byte)\n")


def test_ctd_extract_on_a_directory_exits_2_naming_it_as_not_a_file(readme_ws, tmp_path, capsys):
    config = chain_config()
    config["ctd"]["events"] = "data"
    assert _ctd_extract(readme_ws, tmp_path / "ws", config) == MissingInputError.exit_code
    assert capsys.readouterr().err == f"error: cannot hash {tmp_path / 'ws/data'}: not a file\n"
