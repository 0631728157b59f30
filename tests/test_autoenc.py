"""Architecture planning, latent-penalty loss, group registry, and
compression training against PCA oracles."""

import json
import os

import numpy as np
import pytest

import popgate.autoenc.train
import popgate.nn.optim
from _gradcheck import check_gradients, zero_grads
from _oracles import (
    naive_rel_mse,
    pca_holdout_relmse,
    pca_relmse,
    ref_save_group_checkpoint,
    ref_train_group_autoencoder,
)
from popgate.autoenc.model import Autoencoder, ae_loss, lambda_for, n_params, plan_architecture
from popgate.autoenc.train import (
    CompressorEnsemble,
    registry_hash,
    rel_mse,
    train_group_autoencoder,
)
from popgate.codec import from_json, to_json
from popgate.config import AETrainConfig, FeatureGroup, default_registry, validate_registry
from popgate.data.scaling import scaler_apply
from popgate.exceptions import ConfigError, MissingInputError, ShapeError
from popgate.nn.control import TrainControl
from popgate.nn.layers import SMALL_PRODUCT, Weight
from popgate.nn.optim import Adam
from popgate.seeding import rng_for


# --- architecture planning ------------------------------------------------------


def test_plan_published_examples():
    assert plan_architecture(4478) == [2239, 1492, 895]
    assert plan_architecture(2800) == [1400, 700]
    assert plan_architecture(439) == [219]


def test_plan_boundaries():
    assert plan_architecture(4001) == [2000, 1333, 800]
    assert plan_architecture(4000) == [2000, 1000]  # inclusive middle band
    assert plan_architecture(2000) == [1000, 500]
    assert plan_architecture(1999) == [999]
    assert plan_architecture(2) == [1]
    with pytest.raises(ValueError):
        plan_architecture(1)


def test_plan_rule_for_all_registry_dims():
    for g in default_registry():
        hidden = plan_architecture(g.d)
        if g.d > 4000:
            assert hidden == [g.d // 2, g.d // 3, g.d // 5]
        elif g.d >= 2000:
            assert hidden == [g.d // 2, g.d // 4]
        else:
            assert hidden == [g.d // 2]


@pytest.mark.parametrize("d, d_enc", [(2, 1), (17, 3), (2048, 64), (4478, 510)])
def test_n_params_counts_every_trainable_value(d, d_enc):
    ae = Autoencoder(d, d_enc, None)
    assert n_params(d, d_enc) == sum(p.value.size for p in ae.params())


def test_decoder_mirrors_encoder_across_sweep():
    # the rule itself over the full advertised range
    for d in range(2, 100_001):
        hidden = plan_architecture(d)
        assert all(h >= 1 for h in hidden)
        assert hidden[::-1][::-1] == hidden  # trivially reversible structure
    # and on concrete models: layer dims must mirror exactly
    rng = np.random.default_rng(0)
    for d in (2, 17, 64, 439, 2048):
        ae = Autoencoder(d, 1, rng)
        enc_dims = [(l.spec.in_dim, l.spec.out_dim) for l in ae.encoder.layers]
        dec_dims = [(l.spec.out_dim, l.spec.in_dim) for l in ae.decoder.layers]
        assert enc_dims == dec_dims[::-1]
        assert enc_dims[0][0] == d and dec_dims[-1][0] == d


def test_bottleneck_and_output_layers_are_plain_linear():
    ae = Autoencoder(64, 4, np.random.default_rng(1))
    bottleneck = ae.encoder.layers[-1].spec
    output = ae.decoder.layers[-1].spec
    for spec in (bottleneck, output):
        assert type(spec.activation).__name__ == "Identity"
        assert not spec.batchnorm and spec.dropout_p == 0.0
    hidden = ae.encoder.layers[0].spec
    assert type(hidden.activation).__name__ == "Elu"
    assert hidden.activation.alpha == 0.1
    assert hidden.batchnorm and hidden.dropout_p == 0.05


# --- lambda schedule -------------------------------------------------------------


def test_lambda_anchor_and_values():
    assert lambda_for(128) == 0.001
    assert lambda_for(64) == 0.002
    assert lambda_for(256) == 0.0005


def test_lambda_strictly_decreasing():
    vals = [lambda_for(d) for d in range(1, 3000)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        lambda_for(0)


# --- loss ------------------------------------------------------------------------


def test_ae_loss_zero_case():
    x = np.ones((3, 4))
    terms, d_xhat, d_z = ae_loss(x, x.copy(), np.zeros((3, 2)), 0.001)
    assert terms.total == 0.0
    assert np.all(d_xhat == 0) and np.all(d_z == 0)


def test_ae_loss_single_row_penalty():
    x = np.zeros((1, 2))
    terms, _, _ = ae_loss(x, x.copy(), np.array([[1.0, 1.0]]), 0.001)
    assert terms.recon == 0.0
    assert np.isclose(terms.latent_penalty, 0.002)
    assert np.isclose(terms.total, 0.002)


def test_ae_loss_decomposition_and_batch_invariance():
    rng = np.random.default_rng(2)
    x, xh, z = rng.normal(size=(8, 5)), rng.normal(size=(8, 5)), rng.normal(size=(8, 3))
    terms, _, _ = ae_loss(x, xh, z, 0.01)
    assert terms.total == terms.recon + terms.latent_penalty
    # duplicating the batch leaves both terms unchanged
    terms2, _, _ = ae_loss(np.vstack([x, x]), np.vstack([xh, xh]), np.vstack([z, z]), 0.01)
    assert np.isclose(terms2.recon, terms.recon)
    assert np.isclose(terms2.latent_penalty, terms.latent_penalty)


def test_ae_loss_shape_errors():
    with pytest.raises(ShapeError):
        ae_loss(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 1)), 0.1)
    with pytest.raises(ShapeError):
        ae_loss(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 1)), 0.1)


def test_ae_composite_loss_gradient_check():
    rng = np.random.default_rng(3)
    ae = Autoencoder(6, 2, rng, name="tiny")
    x = rng.normal(size=(7, 6))
    lam = lambda_for(2)

    def loss_only():
        x_hat, z = ae.forward(x, train=True, rng=np.random.default_rng(77))
        terms, _, _ = ae_loss(x, x_hat, z, lam)
        return terms.total

    def loss_and_backward():
        zero_grads(ae.params())
        x_hat, z = ae.forward(x, train=True, rng=np.random.default_rng(77))
        terms, d_xhat, d_z = ae_loss(x, x_hat, z, lam)
        ae.backward(d_xhat, d_z)
        return terms.total

    errors = check_gradients(loss_and_backward, ae.params(), loss_only)
    assert max(errors.values()) < 1e-4, errors


def test_backward_skips_only_the_input_gradient():
    # the encoder's first layer no longer computes d(loss)/dx, which the
    # trainer never read; every grad, and the Adam step taken from them,
    # stays bit for bit what the full backward gives
    x = np.random.default_rng(4).normal(size=(9, 6))
    lam = lambda_for(2)
    twins = [Autoencoder(6, 2, np.random.default_rng(5), name="twin") for _ in range(2)]
    for skip, ae in zip((True, False), twins):
        x_hat, z = ae.forward(x, train=True, rng=np.random.default_rng(78))
        _, d_xhat, d_z = ae_loss(x, x_hat, z, lam)
        if skip:
            assert ae.backward(d_xhat, d_z) is None
        else:
            full = ae.encoder.backward(ae.decoder.backward(d_xhat) + d_z)
            assert full.shape == x.shape
        Adam(ae.params(), lr=1e-2).step()
    for a, b in zip(*(t.params() for t in twins)):
        assert a.grad.tobytes() == b.grad.tobytes(), a.name
        assert a.value.tobytes() == b.value.tobytes(), a.name


# --- registry ---------------------------------------------------------------------


def test_default_registry_arithmetic():
    reg = default_registry()
    assert len(reg) == 7
    assert sum(g.d for g in reg) == 12851
    assert sum(g.d_enc for g in reg) == 2352
    by_name = {g.name: g for g in reg}
    assert by_name["small_combined"].d_enc == 128 == round(0.292 * 439)
    assert by_name["blf"].d_enc == 510 == round(0.114 * 4478)
    # contiguous, disjoint slices covering the full width
    validate_registry(reg)
    assert reg[0].start == 0
    for a, b in zip(reg, reg[1:]):
        assert b.start == a.start + a.d
    for g in reg:
        assert g.d_enc < g.d


def test_registry_json_round_trip_and_hash():
    reg = default_registry()
    rt = from_json(tuple[FeatureGroup, ...], to_json(reg))
    assert rt == reg
    assert registry_hash(rt) == registry_hash(reg)
    # order matters for the hash (concatenation order is load-bearing)
    assert registry_hash(reg[::-1]) != registry_hash(reg)


def test_registry_validation():
    g1 = FeatureGroup("a", 0, 10, 2)
    overlapping = FeatureGroup("b", 5, 10, 2)
    with pytest.raises(ConfigError, match="overlap"):
        validate_registry([g1, overlapping])
    with pytest.raises(ConfigError, match="duplicate"):
        validate_registry([g1, FeatureGroup("a", 10, 10, 2)])
    with pytest.raises(ConfigError):
        FeatureGroup("bad", 0, 10, 10)  # bottleneck not smaller
    with pytest.raises(ConfigError):
        FeatureGroup("bad", 0, 1, 1)  # too narrow


# --- rel_mse ----------------------------------------------------------------------


def test_rel_mse_perfect_and_mean_baseline():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(20, 6))
    assert rel_mse(x, x.copy()) == 0.0
    means = np.tile(x.mean(axis=0), (20, 1))
    assert np.isclose(rel_mse(x, means), 1.0)


def test_rel_mse_matches_direct_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 3))
    xh = rng.normal(size=(7, 3))
    assert np.isclose(rel_mse(x, xh), naive_rel_mse(x.tolist(), xh.tolist()), atol=1e-12)


def test_rel_mse_errors():
    with pytest.raises(ShapeError):
        rel_mse(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        rel_mse(np.ones((4, 2)), np.zeros((4, 2)))


# --- training ---------------------------------------------------------------------


def _low_rank_data(rng, n, d, rank, noise):
    z = rng.normal(size=(n, rank))
    A = rng.normal(size=(rank, d))
    return z @ A + noise * rng.normal(size=(n, d))


def test_rank1_data_compresses_to_small_relmse(tmp_path):
    rng = np.random.default_rng(6)
    u = rng.normal(size=(300, 1))
    v = rng.normal(size=(1, 64))
    X = u @ v + 0.05 * rng.normal(size=(300, 64))
    group = FeatureGroup("rank1", 0, 64, 4)
    # defaults stay at lr 1e-4 / batch 256; at 300 rows that is 2 steps per
    # epoch, so the test budgets steps via a smaller batch and more epochs
    cfg = AETrainConfig(max_epochs=2200, batch_size=32, patience=150, plateau_patience=60)
    seed = 46
    model, scaler, history = train_group_autoencoder(group, X, cfg, seed, tmp_path / "g.npz")
    assert history["val_relmse"] < 0.05
    # within 2x of the linear (PCA) oracle on the identical split/scaling
    oracle = pca_holdout_relmse(X, "rank1", 4, seed=seed)
    assert history["val_relmse"] < 2.0 * oracle


def test_white_noise_is_incompressible(tmp_path):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(400, 64))
    group = FeatureGroup("noise", 0, 64, 4)
    model, scaler, history = train_group_autoencoder(group, X, AETrainConfig(max_epochs=60), 46,
                                                     tmp_path / "g.npz")
    assert history["val_relmse"] > 0.8
    assert pca_relmse(X, 4) > 0.8  # the oracle bound itself


def test_loss_decreases_over_first_epochs(tmp_path):
    rng = np.random.default_rng(8)
    X = _low_rank_data(rng, 300, 32, 3, 0.1)
    group = FeatureGroup("g", 0, 32, 3)
    _, _, history = train_group_autoencoder(group, X, AETrainConfig(max_epochs=5), 46,
                                            tmp_path / "g.npz")
    assert history["train_loss"][-1] < history["train_loss"][0]


def test_training_is_deterministic(tmp_path):
    rng = np.random.default_rng(9)
    X = _low_rank_data(rng, 120, 16, 2, 0.1)
    group = FeatureGroup("g", 0, 16, 2)
    cfg = AETrainConfig(max_epochs=12)
    m1, s1, h1 = train_group_autoencoder(group, X, cfg, 3, tmp_path / "1.npz")
    m2, s2, h2 = train_group_autoencoder(group, X, cfg, 3, tmp_path / "2.npz")
    assert h1["train_loss"] == h2["train_loss"]
    assert h1["val_relmse"] == h2["val_relmse"]
    for a, b in zip(m1.params(), m2.params()):
        assert np.array_equal(a.value, b.value)
    assert (tmp_path / "1.npz").read_bytes() == (tmp_path / "2.npz").read_bytes()


# (max_epochs, batch_size, lr, patience, plateau_patience) for each way an
# epoch loop can end; the test checks that each case happens
ORACLE_CASES = {
    "best-is-last": (6, 32, 3e-3, 25, 10),
    "best-is-earlier": (11, 16, 0.3, 20, 20),
    "stops-early": (30, 16, 0.1, 3, 20),
    "cuts-lr": (30, 16, 0.1, 20, 1),
    "never-improves": (5, 32, 3e-3, 3, 2),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_trainer_matches_the_in_memory_oracle(tmp_path, monkeypatch, case):
    # every weight here is made file-resident, so the best epoch's weights
    # live in the best region of the optimizer's scratch file: the model, the
    # history and the file's bytes are those of the trainer that kept a RAM
    # copy of the whole state, on stored gradients, and saved the checkpoint
    # after training
    max_epochs, batch_size, lr, patience, plateau_patience = ORACLE_CASES[case]
    cfg = AETrainConfig(lr=lr, batch_size=batch_size, max_epochs=max_epochs, patience=patience,
                        plateau_patience=plateau_patience)
    group = FeatureGroup("g", 0, 16, 3)
    X = _low_rank_data(np.random.default_rng(21), 120, 16, 2, 0.3)
    if case == "never-improves":
        # validation rows so far out of scale that every validation loss
        # overflows to inf, while training runs on finite losses
        n_val = int(round(cfg.val_fraction * len(X)))
        X[rng_for(46, "ae-val-g").permutation(len(X))[:n_val]] *= 1e200
    copies = []
    copy_best = popgate.nn.optim._ScratchFile.copy_best
    with np.errstate(over="ignore", invalid="ignore"):
        ref_model, ref_scaler, ref_history = ref_train_group_autoencoder(group, X, cfg, 46)
        monkeypatch.setattr(popgate.nn.optim, "SMALL_PRODUCT", 1)
        monkeypatch.setattr(popgate.nn.optim._ScratchFile, "copy_best",
                            lambda self, w, keep: copies.append(keep) or copy_best(self, w, keep))
        model, _, history = train_group_autoencoder(group, X, cfg, 46, tmp_path / "g.npz")
    weights = [p for p in model.params() if isinstance(p, Weight)]
    assert all(w.store is not None for w in weights)

    best, ran = history["best_epoch"], history["epochs_run"]
    control = TrainControl.from_config(cfg)
    improved = 0
    for val_loss in history["val_loss"]:
        control.update(val_loss)
        improved += control.improved
    assert {
        "best-is-last": best == ran - 1 and ran == max_epochs,
        "best-is-earlier": 0 <= best < ran - 1 and ran == max_epochs,
        "stops-early": ran < max_epochs,
        "cuts-lr": control.num_reductions > 0,
        "never-improves": best == -1,
    }[case], (best, ran, control.num_reductions)
    # a snapshot before the first epoch and on each improving one; restored
    # from the file exactly when a later epoch ran, the initial state when
    # no epoch improved
    assert copies.count(True) == len(weights) * (1 + improved)
    assert copies.count(False) == len(weights) * (best < ran - 1)
    assert copies[-len(weights):] == [best == ran - 1] * len(weights)

    assert json.dumps(history, sort_keys=True) == json.dumps(ref_history, sort_keys=True)
    ref_state, state = ref_model.state_arrays(), model.state_arrays()
    assert list(state) == list(ref_state)
    for key in state:
        assert state[key].view(np.uint64).tobytes() == ref_state[key].view(np.uint64).tobytes(), key
    ref_save_group_checkpoint(tmp_path / "ref.npz", group, ref_model, ref_scaler, 46)
    assert (tmp_path / "g.npz").read_bytes() == (tmp_path / "ref.npz").read_bytes()


def test_the_trainer_never_writes_its_rows(tmp_path):
    # ae-train's gather is the only copy of a group's rows: each batch and
    # validation pass scales a copy of the rows it reads
    group = FeatureGroup("g", 0, 16, 3)
    X = _low_rank_data(np.random.default_rng(22), 120, 16, 2, 0.3)
    given = X.copy()
    X.flags.writeable = False
    train_group_autoencoder(group, X, AETrainConfig(max_epochs=4, batch_size=32), 46,
                            tmp_path / "g.npz")
    assert np.array_equal(X, given)


def test_training_holds_at_most_four_param_copies(tmp_path):
    # values, grads, m and v: 4 copies of the params. The best epoch goes to
    # the optimizer's scratch file, not to a fifth copy, and stepping in
    # chunks keeps the peak there, plus two largest-param temporaries from
    # backward and clipping, plus a quarter copy of slack.
    tracemalloc = pytest.importorskip("tracemalloc")
    rng = np.random.default_rng(12)
    X = rng.normal(size=(60, 2000))
    group = FeatureGroup("wide", 0, 2000, 400)
    sizes = [p.value.nbytes for p in Autoencoder(2000, 400, rng).params()]
    P, L = sum(sizes), max(sizes)
    cfg = AETrainConfig(max_epochs=3)
    tracemalloc.start()
    try:
        _, _, history = train_group_autoencoder(group, X, cfg, 5, tmp_path / "wide.npz")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert history["epochs_run"] == 3
    assert peak <= 4 * P + 2 * L + 0.25 * P, f"peak {peak / P:.2f}·P ({(peak - 2 * L) / P:.2f}·P + 2·L)"


def test_training_holds_no_moments_of_wide_weights(tmp_path):
    # the wide weights (99.8% of P here) keep m and v in the optimizer's
    # scratch file, so only their values and grads are traced: each param's
    # initial zeros grad counts in full until the first zero_grad defers it.
    # Measured: 2.26·P + 2·L; with both moments in RAM, 3.31·P + 2·L
    tracemalloc = pytest.importorskip("tracemalloc")
    rng = np.random.default_rng(12)
    X = rng.normal(size=(60, 2000))
    group = FeatureGroup("wide", 0, 2000, 400)
    params = Autoencoder(2000, 400, rng).params()
    sizes = [p.value.nbytes for p in params]
    P, L = sum(sizes), max(sizes)
    assert sum(s for p, s in zip(params, sizes) if p.value.size >= SMALL_PRODUCT) > 0.99 * P
    fds = sorted(os.listdir("/proc/self/fd"))
    tracemalloc.start()
    try:
        _, _, history = train_group_autoencoder(group, X, AETrainConfig(max_epochs=3), 5,
                                                tmp_path / "wide.npz")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert history["epochs_run"] == 3
    assert peak <= 2.5 * P + 2 * L, f"peak {(peak - 2 * L) / P:.2f}·P + 2·L"
    # the scratch file went with the model and its optimizer
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_trained_model_keeps_no_view_of_the_grad_arena(tmp_path):
    # the optimizer's grad arena is written during training and read by no
    # later step; each param gets its own zeros so the arena can be freed
    rng = np.random.default_rng(13)
    X = _low_rank_data(rng, 80, 16, 2, 0.1)
    model, _, _ = train_group_autoencoder(FeatureGroup("g", 0, 16, 2), X,
                                          AETrainConfig(max_epochs=3), 46, tmp_path / "g.npz")
    params = model.params()
    assert all(p.grad.base is None and p.grad.shape == p.value.shape for p in params)
    assert not any(p.grad.any() for p in params)
    # the values stay in their (value) arena: one buffer shared by all params
    assert len({id(p.value.base) for p in params}) == 1


def test_train_rejects_wrong_width(tmp_path):
    group = FeatureGroup("g", 0, 16, 2)
    with pytest.raises(ShapeError):
        train_group_autoencoder(group, np.zeros((10, 8)), AETrainConfig(), 46, tmp_path / "g.npz")
    assert not (tmp_path / "g.npz").exists()


# --- ensemble ---------------------------------------------------------------------


def _tiny_trained_ensemble(out_dir, seed=0):
    """Two groups trained with their checkpoints in `out_dir`."""
    rng = np.random.default_rng(seed)
    g1 = FeatureGroup("left", 0, 8, 3)
    g2 = FeatureGroup("right", 8, 12, 5)
    X = np.hstack([_low_rank_data(rng, 150, 8, 2, 0.1), _low_rank_data(rng, 150, 12, 2, 0.1)])
    cfg = AETrainConfig(max_epochs=8)
    trained = {g.name: train_group_autoencoder(g, X[:, g.cols], cfg, 46, out_dir / f"{g.name}.npz")
               for g in (g1, g2)}
    return (g1, g2), trained, X


def _histories(trained):
    return {name: history for name, (_, _, history) in trained.items()}


def _saved(out_dir, registry, trained, seed=46):
    """The ensemble that `save` writes to `out_dir`, read back by `load`."""
    CompressorEnsemble.save(out_dir, registry, _histories(trained), seed)
    return CompressorEnsemble.load(out_dir)


def _encode(trained, g, X):
    """Group g's codes from its in-memory model and scaler."""
    model, scaler, _ = trained[g.name]
    return model.encoder.forward(scaler_apply(scaler, X[:, g.cols]))


def test_ensemble_concatenation_order_and_dims(tmp_path):
    (g1, g2), trained, X = _tiny_trained_ensemble(tmp_path)
    ens = _saved(tmp_path, [g1, g2], trained)
    Z = ens.compress(X)
    assert Z.shape == (150, 8)
    # first 3 columns come from group 1 alone
    assert np.array_equal(Z[:, :3], _encode(trained, g1, X))
    # permuting the registry permutes the blocks and nothing else
    swapped = _saved(tmp_path, [g2, g1], trained).compress(X)
    assert np.array_equal(swapped[:, :5], Z[:, 3:])
    assert np.array_equal(swapped[:, 5:], Z[:, :3])


def test_ensemble_eval_determinism(tmp_path):
    (g1, g2), trained, X = _tiny_trained_ensemble(tmp_path)
    ens = _saved(tmp_path, [g1, g2], trained)
    assert np.array_equal(ens.compress(X), ens.compress(X))


def test_ensemble_missing_columns_names_group(tmp_path):
    (g1, g2), trained, X = _tiny_trained_ensemble(tmp_path)
    ens = _saved(tmp_path, [g1, g2], trained)
    with pytest.raises(ShapeError, match="right"):
        ens.compress(X[:, :10])


def test_ensemble_requires_all_groups(tmp_path):
    (g1, g2), trained, _ = _tiny_trained_ensemble(tmp_path)
    with pytest.raises(ConfigError, match="missing"):
        CompressorEnsemble.save(tmp_path, [g1, g2], {"left": trained["left"][2]}, 46)
    assert not (tmp_path / "ensemble.json").exists()


def test_ensemble_save_load_round_trip(tmp_path):
    (g1, g2), trained, X = _tiny_trained_ensemble(tmp_path)
    loaded = _saved(tmp_path, [g1, g2], trained, seed=46)
    assert np.array_equal(loaded.compress(X),
                          np.hstack([_encode(trained, g, X) for g in (g1, g2)]))
    assert loaded.seed == 46
    assert [g.name for g in loaded.registry] == ["left", "right"]


@pytest.mark.parametrize("readable", [True, False], ids=["readable", "unreadable"])
def test_discard_deletes_the_ensemble_and_only_the_dropped_checkpoints(tmp_path, readable):
    (g1, g2), trained, _ = _tiny_trained_ensemble(tmp_path)
    CompressorEnsemble.save(tmp_path, [g1, g2], _histories(trained), 46)
    (tmp_path / "other.npz").write_bytes(b"not named")
    if not readable:
        (tmp_path / "ensemble.json").write_text("{")
    CompressorEnsemble.discard(tmp_path, [g1])
    kept = ["left.npz", "other.npz"] if readable else ["left.npz", "other.npz", "right.npz"]
    assert sorted(p.name for p in tmp_path.iterdir()) == kept


def _rewrite_checkpoint(path, keep):
    """Rewrite a saved group checkpoint keeping only the entries `keep` accepts."""
    with np.load(path) as data:
        kept = {k: data[k] for k in data.files if keep(k)}
    np.savez(path, **kept)


def test_loaded_ensemble_never_reads_decoders(tmp_path):
    (g1, g2), trained, X = _tiny_trained_ensemble(tmp_path)
    CompressorEnsemble.save(tmp_path, [g1, g2], _histories(trained), 46)
    for g in (g1, g2):
        _rewrite_checkpoint(tmp_path / f"{g.name}.npz", lambda k: not k.startswith("dec."))
    expected = np.hstack([_encode(trained, g, X) for g in (g1, g2)])
    assert np.array_equal(CompressorEnsemble.load(tmp_path).compress(X), expected)


def test_loaded_ensemble_builds_no_autoencoder(tmp_path, monkeypatch):
    (g1, g2), trained, X = _tiny_trained_ensemble(tmp_path)
    CompressorEnsemble.save(tmp_path, [g1, g2], _histories(trained), 46)
    expected = np.hstack([_encode(trained, g, X) for g in (g1, g2)])

    def no_autoencoder(*args, **kwargs):
        raise AssertionError("compress built a full autoencoder")

    monkeypatch.setattr(popgate.autoenc.train, "Autoencoder", no_autoencoder)
    loaded = CompressorEnsemble.load(tmp_path)
    assert np.array_equal(loaded.compress(X), expected)


def test_loaded_ensemble_missing_encoder_array_names_path_and_key(tmp_path):
    (g1, g2), trained, X = _tiny_trained_ensemble(tmp_path)
    CompressorEnsemble.save(tmp_path, [g1, g2], _histories(trained), 46)
    ckpt = tmp_path / "right.npz"
    _rewrite_checkpoint(ckpt, lambda k: k != "enc.layer0.W")
    loaded = CompressorEnsemble.load(tmp_path)
    with pytest.raises(MissingInputError) as err:
        loaded.compress(X)
    assert str(err.value) == f"{ckpt}: no array 'enc.layer0.W'"


def test_load_checks_every_checkpoint_exists(tmp_path):
    (g1, g2), trained, _ = _tiny_trained_ensemble(tmp_path)
    CompressorEnsemble.save(tmp_path, [g1, g2], _histories(trained), 46)
    (tmp_path / "right.npz").unlink()
    with pytest.raises(MissingInputError, match="right.npz"):
        CompressorEnsemble.load(tmp_path)
