"""Cleaning, lyric normalization, stratified splitting, scaling, synthesis."""

from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popgate.config import DEFAULT_WINDOW, CleaningConfig, SynthSpec
from popgate.data.cleaning import TrackRecord, clean, normalize_lyrics
from popgate.data.scaling import ScalerParams, scaler_apply, scaler_fit, scaler_invert
from popgate.data.split import stratified_split
from popgate.data.synth import _WORD_ARRAY, _WORDS, _unix_seconds, synth_generate
from popgate.codec import from_json, to_json
from popgate.exceptions import ConfigError, ShapeError
from popgate.metrics import compute_metrics
from popgate.seeding import rng_for


def _rec(track="t1", year=2000, lang="en", lyrics="la la", pop=50):
    return TrackRecord(track, "a1", year, lang, lyrics, pop)


# --- cleaning -----------------------------------------------------------------


def test_popularity_bounds_enforced():
    with pytest.raises(ValueError):
        _rec(pop=101)
    with pytest.raises(ValueError):
        _rec(pop=-1)


def test_year_floor_is_inclusive():
    kept, tally = clean([_rec(year=1959), _rec(year=1960)], CleaningConfig())
    assert [r.release_year for r in kept] == [1960]
    assert tally["year"] == 1 and tally["kept"] == 1


def test_language_allowlist():
    kept, tally = clean([_rec(lang="zz"), _rec(lang="en")], CleaningConfig())
    assert len(kept) == 1
    assert tally["language"] == 1


def test_lyric_length_bounds():
    cfg = CleaningConfig(lyric_bounds=(5, 10))
    kept, tally = clean([_rec(lyrics="abc"), _rec(lyrics="abcdef"), _rec(lyrics="x" * 11)], cfg)
    assert [r.lyrics for r in kept] == ["abcdef"]
    assert tally["lyric_length"] == 2


def test_clean_matches_naive_predicate_scan():
    rng = np.random.default_rng(0)
    cfg = CleaningConfig(min_year=1970, languages=("en", "fr"), lyric_bounds=(3, 40))
    recs = [
        _rec(
            track=f"t{i}",
            year=int(rng.integers(1950, 2020)),
            lang=("en", "fr", "zz")[int(rng.integers(3))],
            lyrics="x" * int(rng.integers(1, 60)),
        )
        for i in range(300)
    ]
    kept, tally = clean(recs, cfg)
    ref = [
        r
        for r in recs
        if r.release_year >= 1970 and r.language in ("en", "fr") and 3 <= len(r.lyrics) <= 40
    ]
    assert kept == ref
    assert tally["kept"] == len(ref)
    assert sum(tally.values()) == len(recs)  # every record lands in exactly one bucket


def test_cleaning_config_validation():
    with pytest.raises(ValueError):
        CleaningConfig(lyric_bounds=(10, 10))
    with pytest.raises(ValueError):
        CleaningConfig(lyric_bounds=(0, 10))


# --- lyric normalization --------------------------------------------------------


def test_repetition_marker_expands():
    assert normalize_lyrics("la la [x2]") == "la la\nla la"


def test_annotation_line_removed():
    assert normalize_lyrics("[Instrumental]") == ""
    assert normalize_lyrics("[ spoken ]") == ""
    assert normalize_lyrics("[Verse 1]") == "[Verse 1]"  # not in the default set


def test_whitespace_and_newline_canonicalization():
    assert normalize_lyrics("a \t b\r\nc\rd") == "a b\nc\nd"
    assert normalize_lyrics("  hello   world  ") == "hello world"


def test_stacked_markers_multiply_with_cap():
    assert normalize_lyrics("go [x2] [x3]") == "\n".join(["go"] * 6)
    assert normalize_lyrics("go [x9] [x9]") == "\n".join(["go"] * 16)  # capped
    assert normalize_lyrics("go [x40]") == "\n".join(["go"] * 16)


def test_marker_needs_n_at_least_2():
    assert normalize_lyrics("la [x1]") == "la [x1]"
    assert normalize_lyrics("la [x0]") == "la [x0]"


def test_marker_mid_line_untouched():
    assert normalize_lyrics("la [x2] la") == "la [x2] la"


def test_annotated_marker_line_fully_removed():
    assert normalize_lyrics("[Instrumental] [x3]") == ""


@given(
    st.text(
        alphabet=st.sampled_from(list("ab []x123\t\r\n")),
        max_size=80,
    )
)
@settings(max_examples=300, deadline=None)
def test_normalization_is_idempotent(text):
    once = normalize_lyrics(text)
    assert normalize_lyrics(once) == once


@given(st.text(max_size=120))
@settings(max_examples=100, deadline=None)
def test_normalization_never_emits_annotation_lines(text):
    out = normalize_lyrics(text)
    for line in out.split("\n"):
        assert line.strip().lower() not in ("[instrumental]", "[spoken]", "[guitar solo]")


# --- stratified split -----------------------------------------------------------


def test_split_uniform_100_rows_exact():
    pop = np.arange(100, dtype=float)
    a = stratified_split(pop, bins=5, test_fraction=0.2, seed=42)
    assert a.test_mask.sum() == 20
    for b in range(5):
        in_bin = a.bin_ids == b
        assert in_bin.sum() == 20
        assert a.test_mask[in_bin].sum() == 4


def test_split_is_deterministic_and_seed_sensitive():
    pop = np.random.default_rng(1).integers(0, 101, size=500).astype(float)
    a = stratified_split(pop, seed=42)
    b = stratified_split(pop, seed=42)
    c = stratified_split(pop, seed=43)
    assert np.array_equal(a.test_mask, b.test_mask)
    assert np.array_equal(a.bin_ids, b.bin_ids)
    assert not np.array_equal(a.test_mask, c.test_mask)


def test_split_edge_ties_go_to_lower_bin():
    # 10 rows of value 1 and 40 of value 2: the 0.2-quantile edge is 1
    pop = np.array([1.0] * 10 + [2.0] * 40)
    a = stratified_split(pop, bins=5, seed=0)
    assert np.all(a.bin_ids[:10] == 0)
    assert np.all(a.bin_ids[10:] >= 1)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_split_per_bin_fraction_within_one_row(seed):
    rng = np.random.default_rng(seed)
    pop = rng.integers(0, 101, size=int(rng.integers(40, 400))).astype(float)
    a = stratified_split(pop, bins=5, test_fraction=0.2, seed=seed)
    for b in range(5):
        in_bin = a.bin_ids == b
        n_bin = int(in_bin.sum())
        if n_bin == 0:
            continue
        n_test = int(a.test_mask[in_bin].sum())
        assert abs(n_test - 0.2 * n_bin) <= 1.0


def test_split_rejects_tiny_or_bad_input():
    with pytest.raises(ValueError):
        stratified_split(np.array([1.0, 2.0]), bins=5)
    with pytest.raises(ValueError):
        stratified_split(np.arange(10.0), test_fraction=0.0)
    with pytest.raises(ValueError):
        stratified_split(np.zeros((5, 2)))


def test_split_labels_and_indices_consistent():
    a = stratified_split(np.arange(50, dtype=float), seed=7)
    assert set(np.unique(a.labels)) == {"train", "test"}
    assert len(np.flatnonzero(~a.test_mask)) + len(np.flatnonzero(a.test_mask)) == 50
    assert np.all(a.labels[np.flatnonzero(a.test_mask)] == "test")


# --- scaling --------------------------------------------------------------------


def test_minmax_basic():
    params = scaler_fit(np.array([[0.0], [50.0], [100.0]]), "minmax")
    out = scaler_apply(params, np.array([[0.0], [50.0], [100.0]]))
    assert np.allclose(out.ravel(), [0.0, 0.5, 1.0])


def test_zscore_constant_column_maps_to_zero():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    params = scaler_fit(X, "zscore")
    out = scaler_apply(params, X)
    assert np.all(np.isfinite(out))
    assert np.all(out[:, 1] == 0.0)
    assert params.degenerate.tolist() == [False, True]
    # the varying column is standardized
    assert np.isclose(out[:, 0].mean(), 0.0) and np.isclose(out[:, 0].std(), 1.0)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        scaler_fit(np.zeros((2, 2)), "robust")


def test_scaler_width_mismatch():
    params = scaler_fit(np.zeros((3, 4)), "zscore")
    with pytest.raises(ShapeError):
        scaler_apply(params, np.zeros((3, 5)))


def test_fit_never_touches_test_rows():
    rng = np.random.default_rng(2)
    train, test = rng.normal(size=(50, 3)), rng.normal(size=(20, 3))
    params = scaler_fit(train, "zscore")
    before = (params.center.copy(), params.scale.copy())
    test[:] = 1e9  # mutating test data must not affect fitted params
    scaler_apply(params, test)
    assert np.array_equal(params.center, before[0])
    assert np.array_equal(params.scale, before[1])


def test_scaler_round_trip_inverse():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 4)) * 7 + 3
    for kind in ("zscore", "minmax"):
        params = scaler_fit(X, kind)
        back = scaler_invert(params, scaler_apply(params, X))
        assert np.allclose(back, X, atol=1e-10)


def test_scaler_params_json_round_trip():
    params = scaler_fit(np.array([[1.0, 5.0], [2.0, 5.0]]), "zscore")
    rt = from_json(ScalerParams, to_json(params))
    assert rt.kind == params.kind
    assert np.array_equal(rt.center, params.center)
    assert np.array_equal(rt.degenerate, params.degenerate)
    assert rt.degenerate.dtype == bool and rt.center.dtype == np.float64


# --- synthetic data -------------------------------------------------------------


def _r2_linear(X, y):
    """Train/test linear-regression oracle R² (fit on even rows, eval odd)."""
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    w, *_ = np.linalg.lstsq(Xb[0::2], y[0::2], rcond=None)
    return compute_metrics(y[1::2], Xb[1::2] @ w).r2


def test_synth_single_predictive_modality():
    spec = SynthSpec(n_samples=2000, coeffs=(1.0, 0.0, 0.0), noise=0.1)
    data = synth_generate(spec, seed=46)
    y = data.popularity / 100.0
    assert _r2_linear(data.latents["audio"], y) >= 0.9
    assert _r2_linear(data.latents["lyrics"], y) <= 0.05
    assert _r2_linear(data.latents["social"], y) <= 0.05


def test_synth_all_noise_dataset():
    spec = SynthSpec(n_samples=2000, coeffs=(0.0, 0.0, 0.0), noise=0.1)
    data = synth_generate(spec, seed=46)
    y = data.popularity / 100.0
    Z = np.hstack([data.latents[m] for m in ("audio", "lyrics", "social")])
    assert abs(_r2_linear(Z, y)) < 0.05


def test_synth_fixed_seed_reproducible():
    spec = SynthSpec(n_samples=100)
    a = synth_generate(spec, seed=7)
    b = synth_generate(spec, seed=7)
    assert np.array_equal(a.popularity, b.popularity)
    assert a.events == b.events
    assert a.lyrics == b.lyrics
    for m in a.features:
        assert np.array_equal(a.features[m], b.features[m])
    c = synth_generate(spec, seed=8)
    assert not np.array_equal(a.popularity, c.popularity)


def test_synth_shapes_and_ranges():
    spec = SynthSpec(n_samples=150, dims=(32, 48, 8), latent_dim=4)
    data = synth_generate(spec, seed=0)
    assert data.features["audio"].shape == (150, 32)
    assert data.features["lyrics"].shape == (150, 48)
    assert data.features["social"].shape == (150, 8)
    assert data.popularity.min() >= 0 and data.popularity.max() <= 100
    assert len(data.track_ids) == len(set(data.track_ids)) == 150
    assert all(u and t and ts.isdigit() for u, t, ts in data.events)


def test_synth_catalog_exercises_cleaning():
    data = synth_generate(SynthSpec(n_samples=2000), seed=1)
    assert (data.release_years < 1960).any()
    assert any(l == "xx" for l in data.languages)
    assert any("[x" in t for t in data.lyrics)


def test_word_indexing_draws_what_choice_draws():
    # `_make_lyrics` indexes `_WORD_ARRAY` where it called rng.choice(_WORDS):
    # the same words, and the generator left in the same state
    for seed in range(200):
        a, b = rng_for(seed, "synth-catalog"), rng_for(seed, "synth-catalog")
        for k in range(3, 8):
            assert list(a.choice(_WORDS, size=k)) == list(
                _WORD_ARRAY[b.integers(0, len(_WORDS), size=k)])
            assert a.random() == b.random()
        assert a.bit_generator.state == b.bit_generator.state


def test_unix_seconds_equal_an_aware_datetime_over_the_window():
    # every (year, month, day, hour) that `_make_events` can draw
    for year in DEFAULT_WINDOW:
        for month in range(1, 13):
            for day in range(1, 29):
                for hour in range(24):
                    expect = datetime(year, month, day, hour, tzinfo=timezone.utc).timestamp()
                    assert _unix_seconds(year, month, day, hour) == int(expect)


# --- metrics ---------------------------------------------------------------------


def test_metrics_perfect_prediction():
    y = np.array([1.0, 2.0, 3.0])
    rep = compute_metrics(y, y)
    assert rep.r2 == 1.0 and rep.mae == 0.0 and rep.mse == 0.0 and rep.relmse == 0.0


def test_metrics_mean_baseline():
    y = np.array([0.0, 1.0, 2.0, 3.0])
    rep = compute_metrics(y, np.full(4, y.mean()))
    assert np.isclose(rep.r2, 0.0) and np.isclose(rep.relmse, 1.0)


def test_metrics_analytic_example():
    rep = compute_metrics(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert np.isclose(rep.mae, 0.5) and np.isclose(rep.mse, 0.25) and np.isclose(rep.r2, 0.0)


def test_metrics_r2_plus_relmse_is_one():
    rng = np.random.default_rng(5)
    y, yh = rng.normal(size=100), rng.normal(size=100)
    rep = compute_metrics(y, yh)
    assert np.isclose(rep.r2 + rep.relmse, 1.0, atol=1e-12)


def test_metrics_constant_target_flagged_not_raised():
    rep = compute_metrics(np.full(5, 2.0), np.arange(5.0))
    assert rep.constant_target
    assert np.isnan(rep.r2) and np.isnan(rep.relmse)
    assert rep.mae > 0


def test_metrics_r2_scale_invariance_and_mae_scaling():
    rng = np.random.default_rng(6)
    y, yh = rng.normal(size=50), rng.normal(size=50)
    a = compute_metrics(y, yh)
    b = compute_metrics(y * 100, yh * 100)
    assert np.isclose(a.r2, b.r2)
    assert np.isclose(b.mae, 100 * a.mae)


def test_metrics_input_validation():
    with pytest.raises(ShapeError):
        compute_metrics(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        compute_metrics(np.zeros(1), np.zeros(1))
