"""Expert branches, gating, the mixed ensemble, and two-phase training.

Gradient correctness is checked against central finite differences on a
tiny (<5k param) model with batchnorm and dropout active. Training behavior
is checked on planted-signal data where the right answer (which modality
the gate should favor) is known by construction.
"""

import re

import numpy as np
import pytest

from popgate.codec import from_json, to_json
from popgate.config import (MODALITIES, BranchConfig, Elu, GateConfig, LeakyRelu, LossWeights,
                            Phase1Config, Phase2Config, default_branch_config)
from popgate.exceptions import ConfigError, MissingInputError, PopgateError, ShapeError
from popgate.fusion.branches import ExpertBranch
from popgate.fusion.gate import GatingNetwork, LearnableStandardize
from popgate.fusion.model import GatedEnsemble, ensemble_loss, load_ensemble, save_ensemble
from popgate.fusion.train import phase1_train, phase2_train
from popgate.metrics import compute_metrics, gate_report
from popgate.nn.layers import BatchNorm, Dense, Module, Param
from popgate.nn.optim import Adam
from popgate.seeding import rng_for

from _gradcheck import check_gradients, zero_grads

TOL = 1e-4

TINY_DIMS = {"audio": 5, "lyrics": 7, "social": 3}


def tiny_configs(dropout=0.2):
    hidden = {"audio": (6, 4), "lyrics": (6, 4), "social": (5, 4)}
    acts = {"audio": Elu(0.1), "lyrics": Elu(0.1), "social": LeakyRelu(0.05)}
    return {
        m: BranchConfig(
            m, TINY_DIMS[m], hidden[m], acts[m], tuple(dropout for _ in hidden[m])
        )
        for m in MODALITIES
    }


def tiny_model(seed=0, dropout=0.2, gate_dropout=0.01):
    gate_cfg = GateConfig(repr_dim=4, hidden=(6,), dropout_p=gate_dropout)
    return GatedEnsemble.build(tiny_configs(dropout), gate_cfg, rng_for(seed, "tiny-model"))


def rand_inputs(n=8, seed=1):
    rng = rng_for(seed, "inputs")
    return {m: rng.normal(size=(n, TINY_DIMS[m])) for m in MODALITIES}


def _perturb(params, rng, scale=0.3):
    for p in params:
        p.value += rng.normal(0.0, scale, p.value.shape)


# ---------------------------------------------------------------------------
# branches


class TestExpertBranch:
    def test_zero_head_predicts_half(self):
        cfg = BranchConfig("audio", 5, (6, 4), Elu(0.1), (0.0, 0.0))
        branch = ExpertBranch(cfg, rng_for(0, "zero-head"))
        branch.head.W.value[...] = 0.0
        branch.head.b.value[...] = 0.0
        _, y_hat = branch.forward(rng_for(1, "x").normal(size=(9, 5)))
        assert np.all(y_hat == 0.5)

    def test_eval_mode_is_deterministic(self):
        branch = ExpertBranch(tiny_configs()["lyrics"], rng_for(2, "det"))
        x = rng_for(3, "x").normal(size=(11, 7))
        h1, y1 = branch.forward(x)
        h2, y2 = branch.forward(x)
        assert np.array_equal(h1, h2) and np.array_equal(y1, y2)

    def test_extreme_inputs_stay_inside_unit_interval(self):
        branch = ExpertBranch(tiny_configs()["audio"], rng_for(4, "extreme"))
        for sign in (1.0, -1.0):
            _, y_hat = branch.forward(np.full((4, 5), sign * 1e6))
            assert np.all(np.isfinite(y_hat))
            assert np.all((y_hat > 0.0) & (y_hat < 1.0))

    def test_wrong_width_error_names_modality(self):
        branch = ExpertBranch(tiny_configs()["lyrics"], rng_for(5, "width"))
        with pytest.raises(ShapeError, match="lyrics"):
            branch.forward(np.zeros((3, 9)))

    def test_wrong_width_error_names_the_first_trunk_layer(self):
        branch = ExpertBranch(tiny_configs()["audio"], rng_for(5, "width"))
        with pytest.raises(ShapeError, match=r"layer 'audio\.trunk\.0' expects input \(batch, 5\)"):
            branch.forward(np.zeros((3, 6)))
        with pytest.raises(ShapeError, match=r"layer 'audio\.trunk\.0'"):
            branch.forward(np.zeros(5))  # one row, not a batch

    def test_default_architectures(self):
        audio = default_branch_config("audio", 2352)
        lyrics = default_branch_config("lyrics", 768)
        social = default_branch_config("social", 42)
        assert audio.hidden == (512, 256, 128, 64)
        assert audio.activation == Elu(0.1)
        assert audio.dropout == (0.3, 0.2, 0.2, 0.1)
        assert lyrics.hidden == (1024, 512, 256, 128, 64)
        assert lyrics.dropout == (0.3, 0.2, 0.2, 0.1, 0.1)
        assert social.activation == LeakyRelu(0.05)
        assert social.dropout == (0.1, 0.1, 0.05, 0.0)
        # every trunk ends in the shared representation width
        assert {c.repr_dim for c in (audio, lyrics, social)} == {64}

    def test_backward_skips_only_the_input_gradient(self):
        # the first trunk layer no longer computes d(loss)/dx, which no
        # caller reads; every grad, and the Adam step taken from them, stays
        # bit for bit what the full backward gives
        x = rand_inputs(n=8)["audio"]
        d_h = rng_for(9, "d_h").normal(size=(8, 4))
        twins = [ExpertBranch(tiny_configs()["audio"], rng_for(6, "twin")) for _ in range(2)]
        for skip, branch in zip((True, False), twins):
            _, y_hat = branch.forward(x, train=True, rng=rng_for(7, "drop"))
            d_yhat = y_hat - 0.5
            if skip:
                assert branch.backward(d_h, d_yhat) is None
            else:
                full = branch.trunk.backward(branch.head.backward(d_yhat) + d_h)
                assert full.shape == x.shape
            Adam(branch.params(), lr=1e-2).step()
        for a, b in zip(*(t.params() for t in twins)):
            assert a.grad.tobytes() == b.grad.tobytes(), a.name
            assert a.value.tobytes() == b.value.tobytes(), a.name

    def test_config_json_round_trip(self):
        cfg = default_branch_config("social", 17)
        again = from_json(BranchConfig, to_json(cfg))
        assert again == cfg

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="dropout"):
            BranchConfig("audio", 5, (6, 4), Elu(0.1), (0.1,))
        with pytest.raises(ConfigError, match="modality"):
            BranchConfig("video", 5, (6,), Elu(0.1), (0.1,))
        with pytest.raises(ConfigError):
            default_branch_config("video", 10)


# ---------------------------------------------------------------------------
# learnable standardization


class TestLearnableStandardize:
    def test_shift_equal_to_input_gives_zero(self):
        std = LearnableStandardize(4)
        std.shift.value[...] = [1.0, -2.0, 3.0, 0.5]
        h = np.tile([1.0, -2.0, 3.0, 0.5], (6, 1))
        assert np.all(std.forward(h) == 0.0)

    def test_zero_scale_unit_eps_is_identity(self):
        std = LearnableStandardize(3, eps=1.0)
        std.scale.value[...] = 0.0
        h = rng_for(0, "ident").normal(size=(5, 3))
        assert np.array_equal(std.forward(h), h)

    def test_gradients_match_finite_differences(self):
        # mixed-sign scale exercises the |scale| kink handling away from 0
        std = LearnableStandardize(5, name="std")
        std.shift.value[...] = rng_for(1, "shift").normal(size=5)
        std.scale.value[...] = [0.7, -1.3, 0.4, -0.2, 2.0]
        h = rng_for(2, "h").normal(size=(4, 5))
        weights = rng_for(3, "w").normal(size=(4, 5))
        hp = Param(h.copy(), name="input")

        def loss_only():
            return float(np.sum(weights * std.forward(hp.value)))

        def loss_and_backward():
            zero_grads((std.shift, std.scale, hp))
            out = std.forward(hp.value, train=True)
            hp.grad += std.backward(weights)
            return float(np.sum(weights * out))

        errors = check_gradients(loss_and_backward, [std.shift, std.scale, hp], loss_only)
        assert max(errors.values()) < TOL, errors

    def test_zero_scale_uses_zero_subgradient(self):
        std = LearnableStandardize(2, eps=0.5)
        std.scale.value[...] = 0.0
        out = std.forward(np.array([[1.0, -2.0]]), train=True)
        assert np.all(np.isfinite(out))
        std.backward(np.ones((1, 2)))
        assert np.all(std.scale.grad == 0.0)
        assert np.any(std.shift.grad != 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="eps"):
            LearnableStandardize(3, eps=0.0)
        std = LearnableStandardize(3)
        with pytest.raises(ShapeError):
            std.forward(np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# gating network


class TestGatingNetwork:
    def test_fresh_gate_is_exactly_uniform(self):
        gate = GatingNetwork(GateConfig(repr_dim=4, hidden=(6,)), rng_for(0, "uniform"))
        hs = {m: rng_for(1, f"h-{m}").normal(size=(7, 4)) for m in MODALITIES}
        alpha = gate.forward(hs)
        assert np.all(alpha == 1.0 / 3.0)

    def test_rows_sum_to_one_and_are_positive(self):
        gate = GatingNetwork(GateConfig(repr_dim=4, hidden=(6,)), rng_for(2, "sums"))
        _perturb(gate.params(), rng_for(3, "perturb"), scale=0.8)
        hs = {m: rng_for(4, f"h-{m}").normal(size=(50, 4)) for m in MODALITIES}
        alpha = gate.forward(hs)
        assert np.max(np.abs(alpha.sum(axis=1) - 1.0)) < 1e-6
        assert np.all(alpha > 0.0)

    def test_batch_mismatch_raises(self):
        gate = GatingNetwork(GateConfig(repr_dim=4, hidden=(6,)), rng_for(5, "batch"))
        hs = {m: np.zeros((3, 4)) for m in MODALITIES}
        hs["social"] = np.zeros((2, 4))
        with pytest.raises(ShapeError, match="batch"):
            gate.forward(hs)

    def test_permuted_wiring_permutes_alpha_columns(self):
        # rewiring the gate to read modalities in a rotated order must
        # rotate the output columns the same way
        r = 4
        cfg = GateConfig(repr_dim=r, hidden=(6,))
        gate_a = GatingNetwork(cfg, rng_for(6, "gate-a"))
        _perturb(gate_a.params(), rng_for(7, "perturb"), scale=0.5)
        hs = {m: rng_for(8, f"h-{m}").normal(size=(10, r)) for m in MODALITIES}
        alpha_a = gate_a.forward(hs)

        src = {"audio": "lyrics", "lyrics": "social", "social": "audio"}
        idx = {m: i for i, m in enumerate(MODALITIES)}
        arrays = gate_a.state_arrays()
        rewired = {k: v.copy() for k, v in arrays.items()}
        for m in MODALITIES:
            rewired[f"std.{m}.shift"] = arrays[f"std.{src[m]}.shift"].copy()
            rewired[f"std.{m}.scale"] = arrays[f"std.{src[m]}.scale"].copy()
        w0, w1 = arrays["mlp.layer0.W"], arrays["mlp.layer1.W"]
        b1 = arrays["mlp.layer1.b"]
        w0_new, w1_new, b1_new = w0.copy(), w1.copy(), b1.copy()
        for m in MODALITIES:
            i, j = idx[m], idx[src[m]]
            w0_new[i * r : (i + 1) * r, :] = w0[j * r : (j + 1) * r, :]
            w1_new[:, i] = w1[:, j]
            b1_new[i] = b1[j]
        rewired["mlp.layer0.W"] = w0_new
        rewired["mlp.layer1.W"] = w1_new
        rewired["mlp.layer1.b"] = b1_new

        gate_b = GatingNetwork(cfg, rng_for(9, "gate-b"))
        gate_b.load_state(rewired)
        alpha_b = gate_b.forward({m: hs[src[m]] for m in MODALITIES})
        for m in MODALITIES:
            assert np.allclose(alpha_b[:, idx[m]], alpha_a[:, idx[src[m]]], atol=1e-12)

    def test_state_round_trip_is_bitwise(self):
        gate = GatingNetwork(GateConfig(repr_dim=4, hidden=(6,)), rng_for(10, "rt"))
        _perturb(gate.params(), rng_for(11, "perturb"))
        saved = {k: v.copy() for k, v in gate.state_arrays().items()}
        hs = {m: rng_for(12, f"h-{m}").normal(size=(5, 4)) for m in MODALITIES}
        before = gate.forward(hs)
        _perturb(gate.params(), rng_for(13, "scramble"))
        gate.load_state(saved)
        assert np.array_equal(gate.forward(hs), before)


# ---------------------------------------------------------------------------
# ensemble forward semantics


class TestGatedEnsemble:
    def test_prediction_is_convex_combination(self):
        model = tiny_model(dropout=0.0)
        _perturb(model.params(), rng_for(20, "perturb"), scale=0.4)
        out = model.predict(rand_inputs(n=50, seed=21))
        lo = out.branch_yhat.min(axis=1)
        hi = out.branch_yhat.max(axis=1)
        assert np.all(out.yhat >= lo - 1e-12)
        assert np.all(out.yhat <= hi + 1e-12)
        assert np.all((out.yhat > 0.0) & (out.yhat < 1.0))

    def test_saturated_gate_selects_single_branch(self):
        model = tiny_model(dropout=0.0)
        _perturb(model.params(), rng_for(22, "perturb"), scale=0.4)
        final = model.gate.mlp.layers[-1]
        final.W.value[...] = 0.0
        final.b.value[...] = [800.0, 0.0, 0.0]  # exp(-800) underflows to 0
        out = model.predict(rand_inputs(n=9, seed=23))
        assert np.array_equal(out.alpha, np.tile([1.0, 0.0, 0.0], (9, 1)))
        assert np.array_equal(out.yhat, out.branch_yhat[:, 0])

    def test_identical_branches_make_alpha_irrelevant(self):
        model = tiny_model(dropout=0.0)
        _perturb(model.gate.params(), rng_for(24, "gate-only"), scale=0.8)
        for m in MODALITIES:
            model.branches[m].head.W.value[...] = 0.0
            model.branches[m].head.b.value[...] = 0.0
        out = model.predict(rand_inputs(n=12, seed=25))
        assert not np.allclose(out.alpha, 1.0 / 3.0)  # gate is non-trivial
        assert np.allclose(out.yhat, 0.5, atol=1e-12)

    def test_missing_modality_is_an_error(self):
        model = tiny_model()
        xs = rand_inputs(n=4)
        del xs["social"]
        with pytest.raises(MissingInputError, match="social"):
            model.forward(xs)

    def test_batch_mismatch_is_an_error(self):
        model = tiny_model()
        xs = rand_inputs(n=4)
        xs["lyrics"] = xs["lyrics"][:3]
        with pytest.raises(ShapeError, match="batch"):
            model.forward(xs)

    def test_repr_dim_mismatch_rejected_at_build(self):
        gate = GatingNetwork(GateConfig(repr_dim=8, hidden=(6,)), rng_for(26, "mismatch"))
        branches = {m: ExpertBranch(c, rng_for(27, m)) for m, c in tiny_configs().items()}
        with pytest.raises(ConfigError, match="gate expects"):
            GatedEnsemble(branches, gate)

    def test_adversarial_inputs_keep_unit_range(self):
        model = tiny_model(dropout=0.0)
        _perturb(model.params(), rng_for(28, "perturb"))
        xs = {m: np.full((5, TINY_DIMS[m]), 1e6) for m in MODALITIES}
        out = model.predict(xs)
        assert np.all(np.isfinite(out.yhat))
        assert np.all((out.yhat > 0.0) & (out.yhat < 1.0))

    def test_an_eval_forward_keeps_no_cache_and_a_backward_then_raises(self):
        model = tiny_model()
        xs = rand_inputs(n=6, seed=29)
        model.forward(xs, train=True, rng=rng_for(30, "dropout"))
        cached = [m for m in _modules(model) if hasattr(m, "_cache") or hasattr(m, "_probs")]
        assert {type(m) for m in cached} == {Dense, BatchNorm, LearnableStandardize,
                                             GatingNetwork, GatedEnsemble}
        assert all(_cache_of(m) is not None for m in cached)
        model.forward(xs, train=False)
        for module in cached:
            name = _error_name(module)
            assert _cache_of(module) is None, name
            # each raises before it reads the gradient
            with pytest.raises(RuntimeError,
                               match=re.escape(f"{name}: backward needs a train-mode forward")):
                module.backward(np.ones((6, 3)))


def _modules(module):
    yield module
    for _, part in module.parts():
        if isinstance(part, Module):
            yield from _modules(part)


def _cache_of(module):
    return module._probs if isinstance(module, GatingNetwork) else module._cache


def _error_name(module) -> str:
    """How a module's backward error names it."""
    kinds = {Dense: "layer", BatchNorm: "batchnorm", LearnableStandardize: "standardize"}
    if type(module) in kinds:
        return f"{kinds[type(module)]} {module.name!r}"
    return {GatingNetwork: "gate", GatedEnsemble: "ensemble"}[type(module)]


# ---------------------------------------------------------------------------
# composite loss


class TestEnsembleLoss:
    def test_final_only_reduces_to_plain_mse(self):
        model = tiny_model(dropout=0.0)
        _perturb(model.params(), rng_for(30, "perturb"))
        out = model.predict(rand_inputs(n=10, seed=31))
        y = rng_for(32, "y").uniform(0, 1, size=10)
        breakdown, d_yhat, d_branch = ensemble_loss(y, out, LossWeights(1.0, 0.0))
        assert breakdown.total == pytest.approx(np.mean((out.yhat - y) ** 2), rel=1e-12)
        assert np.all(d_branch == 0.0)
        assert np.allclose(d_yhat, 2.0 * (out.yhat - y) / 10)

    def test_perfect_agreement_gives_zero_loss(self):
        model = tiny_model(dropout=0.0)
        for m in MODALITIES:
            model.branches[m].head.W.value[...] = 0.0
            model.branches[m].head.b.value[...] = 0.0
        out = model.predict(rand_inputs(n=6, seed=33))
        y = np.full(6, 0.5)
        breakdown, d_yhat, d_branch = ensemble_loss(y, out, LossWeights(1.0, 0.3))
        assert breakdown.total == 0.0
        assert np.all(d_yhat == 0.0) and np.all(d_branch == 0.0)

    def test_breakdown_adds_up(self):
        model = tiny_model(dropout=0.0)
        _perturb(model.params(), rng_for(34, "perturb"))
        out = model.predict(rand_inputs(n=14, seed=35))
        y = rng_for(36, "y").uniform(0, 1, size=14)
        w = LossWeights(0.7, 0.2)
        breakdown, _, _ = ensemble_loss(y, out, w)
        assert breakdown.total == pytest.approx(
            0.7 * breakdown.final + 0.2 * breakdown.individual, rel=1e-12
        )

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="both"):
            LossWeights(0.0, 0.0)
        with pytest.raises(ValueError):
            LossWeights(-1.0, 0.3)
        assert from_json(LossWeights, to_json(LossWeights(1.0, 0.3))) == LossWeights(1.0, 0.3)

    def test_target_length_mismatch(self):
        model = tiny_model(dropout=0.0)
        out = model.predict(rand_inputs(n=4))
        with pytest.raises(ShapeError):
            ensemble_loss(np.zeros(5), out, LossWeights())


# ---------------------------------------------------------------------------
# end-to-end gradients


class TestEndToEndGradients:
    def test_full_model_matches_finite_differences(self):
        # batchnorm and dropout both active; dropout masks are reproduced
        # inside each evaluation by reseeding, so the FD quotient sees a
        # deterministic loss
        model = tiny_model(dropout=0.2, gate_dropout=0.01)
        prng = rng_for(40, "fd-perturb")
        final = model.gate.mlp.layers[-1]
        final.W.value += prng.normal(0.0, 0.3, final.W.shape)
        final.b.value += prng.normal(0.0, 0.3, final.b.shape)
        xs = rand_inputs(n=6, seed=41)
        y = rng_for(42, "fd-y").uniform(0.1, 0.9, size=6)
        weights = LossWeights(1.0, 0.3)
        params = model.params()
        assert sum(p.value.size for p in params) <= 5000

        def run_forward():
            return model.forward(xs, train=True, rng=rng_for(43, "fd-dropout"))

        def loss_only():
            return ensemble_loss(y, run_forward(), weights)[0].total

        def loss_and_backward():
            zero_grads(params)
            breakdown, d_yhat, d_branch = ensemble_loss(y, run_forward(), weights)
            model.backward(d_yhat, d_branch)
            return breakdown.total

        errors = check_gradients(loss_and_backward, params, loss_only)
        worst = max(errors, key=errors.get)
        assert errors[worst] < TOL, f"worst gradient mismatch at {worst}: {errors[worst]:.3e}"

    def test_gate_only_backward_leaves_branch_grads_zero(self):
        # phase 2's frozen pass: eval-mode branches, a train-mode gate
        model = tiny_model(dropout=0.0)
        _perturb(model.params(), rng_for(44, "perturb"))
        zero_grads(model.params())
        out = model.forward(rand_inputs(n=8, seed=45), train=True, branch_train=False,
                            rng=rng_for(47, "dropout"))
        y = rng_for(46, "y").uniform(0, 1, size=8)
        _, d_yhat, d_branch = ensemble_loss(y, out, LossWeights(1.0, 0.3))
        model.backward(d_yhat, d_branch, into_branches=False)
        for m in MODALITIES:
            assert all(np.all(p.grad == 0.0) for p in model.branches[m].params())
        assert any(np.any(p.grad != 0.0) for p in model.gate.params())


# ---------------------------------------------------------------------------
# phase 1


def _linear_target(x, noise, rng):
    w = rng.normal(size=x.shape[1])
    w /= np.linalg.norm(w)
    raw = x @ w + noise * rng.normal(size=x.shape[0])
    return (raw - raw.min()) / (raw.max() - raw.min())


class TestPhase1:
    def test_recovers_linear_signal(self):
        rng = rng_for(50, "p1-data")
        x = rng.normal(size=(420, 6))
        y = _linear_target(x, 0.05, rng)
        x_tr, y_tr, x_va, y_va = x[:340], y[:340], x[340:], y[340:]
        branch = ExpertBranch(
            BranchConfig("social", 6, (16, 8), LeakyRelu(0.05), (0.0, 0.0)),
            rng_for(51, "p1-branch"),
        )
        hist = phase1_train(
            branch, x_tr, y_tr, x_va, y_va,
            Phase1Config(lr=3e-3, batch_size=64, max_epochs=200, patience=40), 46,
        )
        _, yv = branch.forward(x_va)
        assert compute_metrics(y_va, yv.reshape(-1)).r2 > 0.9
        assert branch.trained
        assert hist["best_val_mse"] == pytest.approx(min(hist["val_mse"]))

    def test_noise_target_learns_nothing(self):
        rng = rng_for(52, "p1-noise")
        x = rng.normal(size=(420, 6))
        y = rng.uniform(0, 1, size=420)  # independent of x
        branch = ExpertBranch(
            BranchConfig("social", 6, (16, 8), LeakyRelu(0.05), (0.0, 0.0)),
            rng_for(53, "p1-branch"),
        )
        phase1_train(
            branch, x[:340], y[:340], x[340:], y[340:],
            Phase1Config(lr=3e-3, batch_size=64, max_epochs=60, patience=15), 46,
        )
        _, yv = branch.forward(x[340:])
        assert compute_metrics(y[340:], yv.reshape(-1)).r2 <= 0.05

    def test_rejects_unscaled_targets(self):
        branch = ExpertBranch(tiny_configs()["social"], rng_for(54, "p1-range"))
        x = np.zeros((20, 3))
        y = np.linspace(0, 100, 20)
        with pytest.raises(ValueError, match="min-max"):
            phase1_train(branch, x, y, x, y / 100.0, Phase1Config(max_epochs=1), 46)

    def test_history_bookkeeping(self):
        rng = rng_for(55, "p1-hist")
        x = rng.normal(size=(120, 3))
        y = _linear_target(x, 0.1, rng)
        branch = ExpertBranch(tiny_configs()["social"], rng_for(56, "p1-branch"))
        hist = phase1_train(
            branch, x[:96], y[:96], x[96:], y[96:],
            Phase1Config(lr=1e-3, batch_size=32, max_epochs=12, patience=25), 46,
        )
        assert len(hist["train_loss"]) == hist["epochs_run"] == 12
        assert len(hist["val_mse"]) == 12
        assert hist["best_val_mse"] <= min(hist["val_mse"]) + 1e-15


# ---------------------------------------------------------------------------
# phase 2


def _planted_social_data(n=900, dims=(6, 8, 4), noise=0.1, seed=9):
    rng = rng_for(seed, "p2-data")
    xs = {m: rng.normal(size=(n, d)) for m, d in zip(MODALITIES, dims)}
    y = _linear_target(xs["social"], noise, rng)
    return xs, y


def _split(xs, y, n_tr):
    return (
        {m: xs[m][:n_tr] for m in MODALITIES},
        y[:n_tr],
        {m: xs[m][n_tr:] for m in MODALITIES},
        y[n_tr:],
    )


def _planted_model(seed=0):
    cfgs = {
        "audio": BranchConfig("audio", 6, (12, 6), Elu(0.1), (0.1, 0.1)),
        "lyrics": BranchConfig("lyrics", 8, (12, 6), Elu(0.1), (0.1, 0.1)),
        "social": BranchConfig("social", 4, (12, 6), LeakyRelu(0.05), (0.0, 0.0)),
    }
    gate_cfg = GateConfig(repr_dim=6, hidden=(12,))
    return GatedEnsemble.build(cfgs, gate_cfg, rng_for(seed, "p2-model"))


P1 = Phase1Config(lr=3e-3, batch_size=64, max_epochs=150, patience=30)
P2_FROZEN = Phase2Config(lr=3e-3, batch_size=64, max_epochs=120, patience=30, freeze_branches=True)


class TestPhase2:
    def test_requires_trained_branches(self):
        model = tiny_model()
        xs, y = _planted_social_data(n=60, dims=(5, 7, 3))
        with pytest.raises(PopgateError, match="phase"):
            phase2_train(model, xs, y, xs, y, LossWeights(), Phase2Config(max_epochs=1), 46)

    def test_planted_signal_routes_gate_and_freezes_branches(self):
        xs, y = _planted_social_data()
        xs_tr, y_tr, xs_va, y_va = _split(xs, y, 720)
        model = _planted_model()
        for m in MODALITIES:
            phase1_train(model.branches[m], xs_tr[m], y_tr, xs_va[m], y_va, P1, 46)

        branch_val = {}
        for m in MODALITIES:
            _, yv = model.branches[m].forward(xs_va[m])
            branch_val[m] = float(np.mean((yv.reshape(-1) - y_va) ** 2))
        assert branch_val["social"] == min(branch_val.values())

        before = {k: v.copy() for k, v in model.state_arrays().items()}
        hist = phase2_train(model, xs_tr, y_tr, xs_va, y_va, LossWeights(1.0, 0.3), P2_FROZEN, 46)
        after = model.state_arrays()

        # frozen branches are bitwise untouched; the gate moved
        for m in MODALITIES:
            for k, v in model.branches[m].state_arrays(f"{m}.").items():
                assert np.array_equal(v, before[k]), f"frozen branch array changed: {k}"
        assert any(
            not np.array_equal(after[k], before[k]) for k in after if k.startswith("gate.")
        )

        # the gate discovers which modality carries the signal
        report = gate_report(model.predict(xs_va).alpha)
        assert report.means["social"] > 0.5

        # and the mixture ends at least as good as the best single expert
        out = model.predict(xs_va)
        val_mse = float(np.mean((out.yhat - y_va) ** 2))
        assert val_mse <= min(branch_val.values()) * (1.0 + 1e-9)
        assert hist["best_val_mse"] <= hist["initial_val_mse"] + 1e-15

    def test_gate_only_training_never_ends_worse_than_uniform(self):
        xs, y = _planted_social_data(n=300, seed=57)
        xs_tr, y_tr, xs_va, y_va = _split(xs, y, 240)
        model = _planted_model(seed=58)
        quick = Phase1Config(lr=3e-3, batch_size=64, max_epochs=25, patience=25)
        for m in MODALITIES:
            phase1_train(model.branches[m], xs_tr[m], y_tr, xs_va[m], y_va, quick, 46)
        # fresh gate => the initial candidate is exactly the uniform mixture
        assert np.all(model.predict(xs_va).alpha == 1.0 / 3.0)
        hist = phase2_train(
            model, xs_tr, y_tr, xs_va, y_va, LossWeights(1.0, 0.3),
            Phase2Config(lr=1e-3, batch_size=64, max_epochs=30, patience=30,
                         freeze_branches=True), 46,
        )
        assert hist["best_val_mse"] <= hist["initial_val_mse"] + 1e-15
        out = model.predict(xs_va)
        val_mse = float(np.mean((out.yhat - y_va) ** 2))
        assert val_mse == pytest.approx(hist["best_val_mse"], rel=1e-12)

    def test_unscaled_targets_rejected(self):
        model = tiny_model()
        for m in MODALITIES:
            model.branches[m].trained = True
        xs = rand_inputs(n=10)
        y = np.linspace(-1, 2, 10)
        with pytest.raises(ValueError, match="min-max"):
            phase2_train(model, xs, y, xs, y, LossWeights(), Phase2Config(max_epochs=1), 46)


# ---------------------------------------------------------------------------
# gate report


class TestGateReport:
    def test_uniform_model_reports_thirds(self):
        model = tiny_model(dropout=0.0)
        xs = rand_inputs(n=20, seed=60)
        report = gate_report(model.predict(xs).alpha, group_labels=["a"] * 10 + ["b"] * 10)
        assert all(v == pytest.approx(1.0 / 3.0, abs=1e-15) for v in report.means.values())
        assert set(report.groups) == {"a", "b"}
        for g in report.groups.values():
            assert all(v == pytest.approx(1.0 / 3.0, abs=1e-15) for v in g.values())

    def test_group_means_aggregate_to_overall_mean(self):
        model = tiny_model(dropout=0.0)
        _perturb(model.params(), rng_for(61, "perturb"), scale=0.6)
        xs = rand_inputs(n=30, seed=62)
        labels = [str(v) for v in rng_for(63, "labels").integers(0, 3, size=30)]
        report = gate_report(model.predict(xs).alpha, group_labels=labels)
        n = len(labels)
        for i, m in enumerate(MODALITIES):
            weighted = sum(
                labels.count(g) * report.groups[g][m] for g in report.groups
            )
            assert weighted / n == pytest.approx(report.means[m], rel=1e-12)

    def test_label_length_mismatch(self):
        model = tiny_model(dropout=0.0)
        with pytest.raises(ShapeError):
            gate_report(model.predict(rand_inputs(n=5)).alpha, group_labels=["x"] * 4)

    def test_json_projection(self):
        model = tiny_model(dropout=0.0)
        report = gate_report(model.predict(rand_inputs(n=5)).alpha)
        d = to_json(report)
        assert d["n"] == 5 and set(d["means"]) == set(MODALITIES)
        assert "groups" not in d

    def test_alpha_needs_one_column_per_modality(self):
        with pytest.raises(ShapeError):
            gate_report(np.full((4, 2), 0.5))


# ---------------------------------------------------------------------------
# determinism and persistence


def _quick_trained_model(seed=70):
    xs, y = _planted_social_data(n=300, seed=seed)
    xs_tr, y_tr, xs_va, y_va = _split(xs, y, 240)
    model = _planted_model(seed=seed)
    quick1 = Phase1Config(lr=3e-3, batch_size=64, max_epochs=20, patience=25)
    for m in MODALITIES:
        phase1_train(model.branches[m], xs_tr[m], y_tr, xs_va[m], y_va, quick1, 46)
    quick2 = Phase2Config(lr=1e-3, batch_size=64, max_epochs=15, patience=25, freeze_branches=True)
    phase2_train(model, xs_tr, y_tr, xs_va, y_va, LossWeights(1.0, 0.3), quick2, 46)
    return model, xs_va


class TestPersistenceAndDeterminism:
    def test_two_phase_training_is_bitwise_reproducible(self):
        model_a, xs_va = _quick_trained_model()
        model_b, _ = _quick_trained_model()
        state_a, state_b = model_a.state_arrays(), model_b.state_arrays()
        assert state_a.keys() == state_b.keys()
        for k in state_a:
            assert np.array_equal(state_a[k], state_b[k]), f"state diverged at {k}"
        out_a, out_b = model_a.predict(xs_va), model_b.predict(xs_va)
        assert np.array_equal(out_a.yhat, out_b.yhat)
        assert np.array_equal(out_a.alpha, out_b.alpha)

    def test_save_load_round_trip(self, tmp_path):
        model, xs_va = _quick_trained_model(seed=71)
        extra = {"target_scale": {"lo": 0.0, "hi": 100.0}, "seed": 46}
        save_ensemble(model, tmp_path / "bundle", extra=extra)
        loaded, got_extra = load_ensemble(tmp_path / "bundle")
        assert got_extra == extra
        assert all(loaded.branches[m].trained for m in MODALITIES)
        out_a, out_b = model.predict(xs_va), loaded.predict(xs_va)
        assert np.array_equal(out_a.yhat, out_b.yhat)
        assert np.array_equal(out_a.alpha, out_b.alpha)
        assert np.array_equal(out_a.branch_yhat, out_b.branch_yhat)

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(MissingInputError, match="manifest"):
            load_ensemble(tmp_path / "nowhere")
