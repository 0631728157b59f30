"""Acceptance gates for the whole package, one test per criterion.

Each test prints a single `[acceptance NN] ... PASS` line (visible with -s;
under plain pytest the test's own PASSED/FAILED line carries the verdict).
Tolerances are pinned here and nowhere else:

  01 gradient fidelity        max relative error < 1e-4, runtime < 120 s
  02 CTD oracle equivalence   integers exact, reals atol 1e-12, < 60 s
  03 architecture planner     widths pinned per tier; decoder mirrors encoder
  04 bottleneck penalty       lambda_for(128) == 0.001, strictly decreasing
  05 gating invariants        row sums atol 1e-6, convexity atol 1e-12,
                              zeroed gate head -> exact thirds
  06 planted-signal recovery  social val R^2 >= 0.8, others <= 0.1,
                              mean social gate weight > 0.5, < 600 s
  07 ensemble improves        joint val MSE <= 0.98 x best single branch
  08 compression sanity       rank-4 RelMSE < 0.05 and <= 2 x PCA oracle;
                              white-noise RelMSE > 0.8
  09 reproducibility          two CLI runs byte-identical (predictions,
                              manifests, and every other artifact)
  10 split stratification     per-bin test count within 1 row of 20%
"""

import hashlib
import time

import numpy as np

from popgate.autoenc.model import Autoencoder, ae_loss, lambda_for, plan_architecture
from popgate.autoenc.train import train_group_autoencoder
from popgate.config import (DEFAULT_WINDOW, MODALITIES, AETrainConfig, BranchConfig, Elu,
                            FeatureGroup, GateConfig, Identity, LeakyRelu, LossWeights,
                            Phase1Config, Phase2Config, Sigmoid, SynthSpec, default_registry)
from popgate.ctd.events import ingest_events
from popgate.ctd.features import build_ctd_dataset
from popgate.data.scaling import scaler_apply, scaler_fit
from popgate.data.split import stratified_split
from popgate.data.synth import synth_generate
from popgate.fusion.model import GatedEnsemble, ensemble_loss
from popgate.fusion.train import phase1_train, phase2_train
from popgate.metrics import compute_metrics, gate_report
from popgate.nn.layers import MLP, DenseLayerSpec
from popgate.nn.losses import mse_loss
from popgate.seeding import rng_for

from _chain import CHAIN, run_chain
from _eventgen import random_event_log, random_track_artist, write_log_file
from _gradcheck import check_gradients, zero_grads
from _oracles import naive_ctd_matrix, pca_holdout_relmse

GRAD_TOL = 1e-4


def _report(num: int, detail: str) -> None:
    print(f"[acceptance {num:02d}] {detail} -- PASS", flush=True)


# -- shared builders ----------------------------------------------------------


def _tiny_fused_model(seed: int = 46) -> tuple[GatedEnsemble, dict[str, int]]:
    dims = {"audio": 9, "lyrics": 11, "social": 5}
    cfgs = {
        "audio": BranchConfig("audio", 9, (8, 4), Elu(0.1), (0.2, 0.1)),
        "lyrics": BranchConfig("lyrics", 11, (8, 4), Elu(0.1), (0.2, 0.1)),
        "social": BranchConfig("social", 5, (6, 4), LeakyRelu(0.05), (0.1, 0.0)),
    }
    gate = GateConfig(repr_dim=4, hidden=(8,), dropout_p=0.01)
    model = GatedEnsemble.build(cfgs, gate, rng_for(seed, "acc-model"))
    return model, dims


def _rand_inputs(dims: dict[str, int], n: int, seed: int) -> dict[str, np.ndarray]:
    return {
        m: rng_for(seed, f"acc-x-{m}").normal(size=(n, d)) for m, d in dims.items()
    }


def _planted_dataset(coeffs, n, noise, seed=46):
    spec = SynthSpec(
        n_samples=n, dims=(64, 128, 16), latent_dim=8,
        coeffs=coeffs, noise=noise, feature_noise=0.05,
    )
    data = synth_generate(spec, seed)
    asg = stratified_split(data.popularity.astype(float), seed=42)
    tr, va = np.flatnonzero(~asg.test_mask), np.flatnonzero(asg.test_mask)
    y = data.popularity.astype(float) / 100.0
    xs = {}
    for m in MODALITIES:
        sc = scaler_fit(data.features[m][tr], "zscore")
        xs[m] = scaler_apply(sc, data.features[m])
    return xs, y, tr, va


def _planted_model(xs) -> GatedEnsemble:
    cfgs = {
        m: BranchConfig(m, xs[m].shape[1], (32, 16), LeakyRelu(0.05), (0.1, 0.1))
        for m in MODALITIES
    }
    return GatedEnsemble.build(
        cfgs, GateConfig(repr_dim=16, hidden=(32,)), rng_for(46, "model-init")
    )


_P1 = Phase1Config(lr=3e-3, batch_size=256, max_epochs=80, patience=20,
                   plateau_patience=8)


# -- 01 gradient fidelity ------------------------------------------------------


def test_criterion_01_gradient_fidelity():
    """Hand-derived backprop matches central finite differences everywhere:
    a mixed-activation network, the autoencoder composite loss, the
    standardize->gate->softmax->convex path, and the joint two-term loss."""
    t0 = time.monotonic()
    worst: dict[str, float] = {}

    # (a) one network touching every layer flavor: ELU/LeakyReLU/Sigmoid
    # hidden blocks with batchnorm + dropout, identity output
    mlp = MLP(
        [
            DenseLayerSpec(9, 8, Elu(0.1), batchnorm=True, dropout_p=0.2),
            DenseLayerSpec(8, 7, LeakyRelu(0.05), batchnorm=True, dropout_p=0.1),
            DenseLayerSpec(7, 6, Sigmoid(), batchnorm=True, dropout_p=0.0),
            DenseLayerSpec(6, 1, Identity(), batchnorm=False, dropout_p=0.0),
        ],
        rng_for(46, "acc-mlp"),
        name="acc",
    )
    x = rng_for(47, "acc-mlp-x").normal(size=(7, 9))
    y = rng_for(48, "acc-mlp-y").normal(size=(7, 1))

    def mlp_loss_only():
        return mse_loss(mlp.forward(x, train=True, rng=rng_for(49, "acc-drop")), y)[0]

    def mlp_loss_and_backward():
        zero_grads(mlp.params())
        loss, d = mse_loss(mlp.forward(x, train=True, rng=rng_for(49, "acc-drop")), y)
        mlp.backward(d)
        return loss

    errs = check_gradients(mlp_loss_and_backward, mlp.params(), mlp_loss_only)
    worst["layers"] = max(errs.values())

    # (b) autoencoder reconstruction + bottleneck-activity penalty
    ae = Autoencoder(10, 3, rng_for(50, "acc-ae"), name="acc_ae")
    xa = rng_for(51, "acc-ae-x").normal(size=(8, 10))
    lam = lambda_for(3)

    def ae_loss_only():
        x_hat, z = ae.forward(xa, train=True, rng=rng_for(52, "acc-ae-drop"))
        return ae_loss(xa, x_hat, z, lam)[0].total

    def ae_loss_and_backward():
        zero_grads(ae.params())
        x_hat, z = ae.forward(xa, train=True, rng=rng_for(52, "acc-ae-drop"))
        terms, d_xhat, d_z = ae_loss(xa, x_hat, z, lam)
        ae.backward(d_xhat, d_z)
        return terms.total

    errs = check_gradients(ae_loss_and_backward, ae.params(), ae_loss_only)
    worst["ae_loss"] = max(errs.values())

    # (c) gate path alone: standardize -> MLP -> softmax -> convex mix,
    # final-prediction loss, gradients only into the gate
    model, dims = _tiny_fused_model()
    prng = rng_for(53, "acc-perturb")
    for p in model.gate.params():
        p.value += prng.normal(0.0, 0.3, p.shape)
    xs = _rand_inputs(dims, n=6, seed=54)
    yv = rng_for(55, "acc-y").uniform(0.1, 0.9, size=6)
    final_only = LossWeights(1.0, 0.0)

    def gate_loss_only():
        out = model.forward(xs, train=True, rng=rng_for(56, "acc-drop2"))
        return ensemble_loss(yv, out, final_only)[0].total

    def gate_loss_and_backward():
        zero_grads(model.params())
        out = model.forward(xs, train=True, rng=rng_for(56, "acc-drop2"))
        breakdown, d_yhat, _ = ensemble_loss(yv, out, final_only)
        model.backward(d_yhat, None, into_branches=False)
        return breakdown.total

    errs = check_gradients(gate_loss_and_backward, model.gate.params(), gate_loss_only)
    worst["gate_path"] = max(errs.values())

    # (d) the full joint objective: final + per-branch terms through every
    # parameter of branches and gate at once
    params = model.params()
    n_params = sum(p.value.size for p in params)
    assert n_params <= 5000, n_params
    joint = LossWeights(1.0, 0.3)

    def joint_loss_only():
        out = model.forward(xs, train=True, rng=rng_for(57, "acc-drop3"))
        return ensemble_loss(yv, out, joint)[0].total

    def joint_loss_and_backward():
        zero_grads(params)
        out = model.forward(xs, train=True, rng=rng_for(57, "acc-drop3"))
        breakdown, d_yhat, d_branch = ensemble_loss(yv, out, joint)
        model.backward(d_yhat, d_branch)
        return breakdown.total

    errs = check_gradients(joint_loss_and_backward, params, joint_loss_only)
    worst["joint_loss"] = max(errs.values())

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s"
    peak = max(worst.values())
    assert peak < GRAD_TOL, worst
    _report(1, f"gradient fidelity: worst rel err {peak:.2e} over "
               f"{sorted(worst)} in {elapsed:.1f}s ({n_params} params max)")


# -- 02 CTD oracle equivalence ---------------------------------------------------


def test_criterion_02_ctd_matches_naive_oracle(tmp_path):
    """Fifty randomized event log files, both feature modes, both parsers:
    the streaming extractor agrees with a naive recomputation — counts
    exactly, ratios and slopes to 1e-12. Logs 0, 1, 4, 5, … are plain lines,
    split by byte position; the others quote every cell, for csv.reader."""
    t0 = time.monotonic()
    rng = np.random.default_rng(12)
    total_events = 0
    logs = 0
    for i in range(50):
        n_events = 100_000 if i == 0 else (20_000 if i < 3 else int(rng.integers(100, 3000)))
        total_events += n_events
        rows, truth, _, _ = random_event_log(rng, n_events, n_tracks=25, n_users=80)
        track_artist = random_track_artist(rng, n_tracks=25)
        mode = "temporal" if i % 2 else "aggregate"
        if i // 2 % 2:
            path = write_log_file(tmp_path / f"log{i}.csv", rows, style="quoted")
        else:  # "T" for the space of naive ISO times, which would send a block to csv.reader
            rows = [(u, t, ts.replace(" ", "T")) for u, t, ts in rows]
            path = write_log_file(tmp_path / f"log{i}.csv", rows, style="plain")
        ingest = ingest_events(path, window=DEFAULT_WINDOW)
        ids, X, schema = build_ctd_dataset(ingest, track_artist, mode, DEFAULT_WINDOW)
        ref_ids, ref_rows = naive_ctd_matrix(truth, track_artist, mode, DEFAULT_WINDOW)
        assert ids == ref_ids, f"log {i}: track set diverged"
        ref = np.array(ref_rows)
        assert np.allclose(X, ref, rtol=0, atol=1e-12), f"log {i} ({mode})"
        int_cols = [
            j for j, name in enumerate(schema.names)
            if not any(k in name for k in ("median", "rate", "growth", "consistency", "ratio"))
        ]
        assert np.array_equal(X[:, int_cols], ref[:, int_cols]), f"log {i}: count columns"
        logs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"CTD oracle suite took {elapsed:.0f}s"
    _report(2, f"CTD oracle: {logs} logs / {total_events} events equal in {elapsed:.1f}s")


# -- 03 architecture planner -----------------------------------------------------


def test_criterion_03_architecture_planner():
    """Planned encoder widths hit the pinned values for all seven default
    group widths, and the decoder mirrors the encoder across a 2..1e5 sweep."""
    expected = {
        439: [219],
        1000: [500],
        1034: [517],
        1400: [700],
        1700: [850],
        2800: [1400, 700],
        4478: [2239, 1492, 895],
    }
    registry = {g.d: g for g in default_registry()}
    assert sorted(registry) == sorted(expected)
    for d, widths in expected.items():
        assert plan_architecture(d) == widths, d

    # the tier rule itself over the full sweep
    for d in range(2, 100_001):
        plan = plan_architecture(d)
        if d > 4000:
            assert plan == [d // 2, d // 3, d // 5]
        elif d >= 2000:
            assert plan == [d // 2, d // 4]
        else:
            assert plan == [d // 2]
        assert all(a > b for a, b in zip([d, *plan], plan))  # strictly tapering

    # decoder mirroring, instantiated at the seven defaults plus tier edges
    mirror_dims = sorted({*expected, 2, 3, 10, 64, 1999, 2000, 2001, 3999, 4000, 4001})
    for d in mirror_dims:
        d_enc = registry[d].d_enc if d in registry else max(1, d // 8)
        ae = Autoencoder(d, d_enc, np.random.default_rng(0))
        enc = [(layer.spec.in_dim, layer.spec.out_dim) for layer in ae.encoder.layers]
        dec = [(layer.spec.in_dim, layer.spec.out_dim) for layer in ae.decoder.layers]
        assert dec == [(b, a) for a, b in reversed(enc)], d
        assert enc[0][0] == d and enc[-1][1] == d_enc
    _report(3, f"architecture planner: 7 pinned widths, sweep 2..100000, "
               f"{len(mirror_dims)} mirrored builds")


# -- 04 bottleneck penalty schedule ---------------------------------------------


def test_criterion_04_penalty_schedule():
    """The bottleneck-activity weight is 0.001 at width 128 exactly and
    strictly decreasing in the encoding width."""
    assert lambda_for(128) == 0.001
    widths = range(1, 5001)
    lams = [lambda_for(k) for k in widths]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    _report(4, "penalty schedule: lambda(128) == 0.001, strictly decreasing on 1..5000")


# -- 05 gating invariants ---------------------------------------------------------


def test_criterion_05_gating_invariants():
    """10^4 random samples through a randomly initialized model: mixture
    weights are a distribution, predictions stay inside the branch envelope,
    and a zeroed gate head gives exact uniform thirds."""
    model, dims = _tiny_fused_model(seed=99)
    prng = rng_for(100, "acc-c5-perturb")
    for p in model.params():
        p.value += prng.normal(0.0, 0.5, p.shape)
    xs = _rand_inputs(dims, n=10_000, seed=101)
    out = model.predict(xs)
    assert np.abs(out.alpha.sum(axis=1) - 1.0).max() < 1e-6
    assert (out.alpha > 0.0).all()
    lo = out.branch_yhat.min(axis=1)
    hi = out.branch_yhat.max(axis=1)
    assert (out.yhat >= lo - 1e-12).all() and (out.yhat <= hi + 1e-12).all()

    final = model.gate.mlp.layers[-1]
    final.W.value[...] = 0.0
    final.b.value[...] = 0.0
    out = model.predict(xs)
    assert (out.alpha == 1.0 / 3.0).all()  # softmax of exact zeros
    _report(5, "gating invariants: 10000 samples, row sums within 1e-6, "
               "convex envelope held, zeroed head -> exact thirds")


# -- 06 planted-signal recovery ---------------------------------------------------


def test_criterion_06_planted_social_signal_recovery():
    """With only the social latent driving the target, the social expert
    learns it, the others don't, and the gate finds out."""
    t0 = time.monotonic()
    xs, y, tr, va = _planted_dataset(coeffs=(0.0, 0.0, 1.0), n=5000, noise=0.2)
    model = _planted_model(xs)
    r2 = {}
    for m in MODALITIES:
        phase1_train(model.branches[m], xs[m][tr], y[tr], xs[m][va], y[va], _P1, 46)
        pred = model.branches[m].forward(xs[m][va], train=False, rng=rng_for(0, "na"))[1]
        r2[m] = compute_metrics(y[va], pred.reshape(-1)).r2
    assert r2["social"] >= 0.8, r2
    assert r2["audio"] <= 0.1 and r2["lyrics"] <= 0.1, r2

    p2 = Phase2Config(lr=3e-3, batch_size=256, max_epochs=60, patience=15,
                      plateau_patience=6, freeze_branches=True)
    phase2_train(model, {m: xs[m][tr] for m in MODALITIES}, y[tr],
                 {m: xs[m][va] for m in MODALITIES}, y[va], LossWeights(), p2, 46)
    report = gate_report(model.predict({m: xs[m][va] for m in MODALITIES}).alpha)
    assert report.means["social"] > 0.5, report.means
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"planted-signal run took {elapsed:.0f}s"
    _report(6, f"planted signal: social R2 {r2['social']:.3f}, others "
               f"{r2['audio']:.3f}/{r2['lyrics']:.3f}, social gate "
               f"{report.means['social']:.3f} in {elapsed:.0f}s")


# -- 07 ensemble improves on the best expert ---------------------------------------


def test_criterion_07_ensemble_beats_best_single_branch():
    """When every modality carries signal, joint fine-tuning ends at least
    2% below the best individually trained expert's validation MSE."""
    xs, y, tr, va = _planted_dataset(coeffs=(0.6, 0.6, 0.8), n=2500, noise=0.15)
    model = _planted_model(xs)
    best = {}
    for m in MODALITIES:
        hist = phase1_train(model.branches[m], xs[m][tr], y[tr], xs[m][va], y[va], _P1, 46)
        best[m] = hist["best_val_mse"]
    p2 = Phase2Config(lr=1e-3, batch_size=256, max_epochs=60, patience=15,
                      plateau_patience=6, freeze_branches=False)
    hist2 = phase2_train(model, {m: xs[m][tr] for m in MODALITIES}, y[tr],
                         {m: xs[m][va] for m in MODALITIES}, y[va], LossWeights(), p2, 46)
    single = min(best.values())
    assert hist2["best_val_mse"] <= 0.98 * single, (hist2["best_val_mse"], best)
    _report(7, f"ensemble improves: joint val MSE {hist2['best_val_mse']:.5f} vs "
               f"best single {single:.5f} "
               f"({hist2['best_val_mse'] / single:.2f}x, needs <= 0.98x)")


# -- 08 compression sanity ---------------------------------------------------------


def test_criterion_08_autoencoder_compression_sanity(tmp_path):
    """A 64-wide rank-4 signal compresses to 4 dims nearly losslessly and
    competitively with PCA; white noise at the same shape does not."""
    rng = np.random.default_rng(8)
    n, d, r = 2500, 64, 4
    X = rng.normal(size=(n, r)) @ rng.normal(size=(r, d)) + 0.3 * rng.normal(size=(n, d))
    cfg = AETrainConfig(max_epochs=2600, batch_size=64, patience=150, plateau_patience=60)
    _, _, hist = train_group_autoencoder(FeatureGroup("rank4", 0, d, r), X, cfg, 46,
                                         tmp_path / "rank4.npz")
    pca = pca_holdout_relmse(X, "rank4", r)
    assert hist["val_relmse"] < 0.05, hist["val_relmse"]
    assert hist["val_relmse"] <= 2.0 * pca, (hist["val_relmse"], pca)

    Xw = np.random.default_rng(9).normal(size=(n, d))
    wcfg = AETrainConfig(max_epochs=300, batch_size=64, patience=60, plateau_patience=25)
    _, _, whist = train_group_autoencoder(FeatureGroup("noise", 0, d, r), Xw, wcfg, 46,
                                          tmp_path / "noise.npz")
    assert whist["val_relmse"] > 0.8, whist["val_relmse"]
    _report(8, f"compression: rank-4 RelMSE {hist['val_relmse']:.4f} "
               f"(PCA {pca:.4f}), white noise {whist['val_relmse']:.4f}")


# -- 09 pipeline reproducibility ---------------------------------------------------


def test_criterion_09_end_to_end_byte_reproducibility(tmp_path):
    """Two full CLI runs with the same config and seed, in different
    directories, write byte-identical predictions, manifests, and every
    other artifact."""
    digests = []
    for run in ("one", "two"):
        ws = tmp_path / run
        ws.mkdir()
        run_chain(ws, commands=CHAIN)
        digests.append({
            str(p.relative_to(ws)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(ws.rglob("*")) if p.is_file()
        })
    d1, d2 = digests
    assert d1.keys() == d2.keys(), sorted(d1.keys() ^ d2.keys())
    diff = sorted(k for k in d1 if d1[k] != d2[k])
    assert not diff, f"artifacts differ between runs: {diff}"
    assert "out/predictions.csv" in d1
    manifests = [k for k in d1 if k.startswith("manifests/")]
    assert len(manifests) == len(CHAIN)
    _report(9, f"reproducibility: {len(d1)} artifacts byte-identical across "
               f"two runs ({len(manifests)} manifests)")


# -- 10 split stratification -------------------------------------------------------


def test_criterion_10_split_stratification():
    """For assorted popularity shapes, every quantile bin's test count stays
    within one row of 20%."""
    rng = np.random.default_rng(5)
    vectors = {
        "uniform": rng.integers(0, 101, size=1000).astype(float),
        "skewed": np.floor(100 * rng.beta(0.6, 3.0, size=777)),
        "heavy_ties": rng.integers(0, 5, size=503).astype(float),
        "tiny": np.arange(10, dtype=float),
        "normalish": np.clip(rng.normal(55, 15, size=2048), 0, 100).round(),
    }
    checked = 0
    for name, pop in vectors.items():
        asg = stratified_split(pop, bins=5, test_fraction=0.2, seed=42)
        for b in np.unique(asg.bin_ids):
            in_bin = asg.bin_ids == b
            n_b = int(in_bin.sum())
            k = int(asg.test_mask[in_bin].sum())
            assert abs(k - 0.2 * n_b) <= 1.0, (name, b, k, n_b)
            checked += 1
    _report(10, f"stratified split: {checked} bins across {len(vectors)} "
                "popularity shapes, all within one row of 20%")
