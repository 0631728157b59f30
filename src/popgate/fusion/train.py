"""Two-phase training: experts first, then the gate (optionally jointly).

Phase 1 fits each branch alone on MSE against the scaled target. Phase 2
loads the trained branches and optimizes the composite loss with AdamW;
branches can be frozen (eval mode, no updates) or fine-tuned alongside the
gate. Both phases, and each audio group's autoencoder
(`popgate.autoenc.train`), run one epoch loop, `fit`, which early-stops on
a validation loss and restores the best weights seen, so phase 2 can never
end worse than it started.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..config import MODALITIES, LossWeights, Phase1Config, Phase2Config, TrainConfig
from ..exceptions import PopgateError, ShapeError
from ..nn.control import TrainControl
from ..nn.layers import Module, snapshot_state
from ..nn.losses import mse_loss
from ..nn.optim import Adam, AdamW, clip_grad_norm
from ..seeding import rng_for
from .branches import ExpertBranch
from .model import GatedEnsemble, ensemble_loss


def _unit_targets(y: np.ndarray, where: str) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.size == 0:
        raise ValueError(f"{where}: empty target vector")
    lo, hi = float(y.min()), float(y.max())
    if lo < 0.0 or hi > 1.0:
        raise ValueError(
            f"{where}: targets must be min-max scaled to [0,1], got range [{lo:.4g}, {hi:.4g}]"
        )
    return y


def fit(
    module: Module,
    opt: Adam,
    cfg: TrainConfig,
    control: TrainControl,
    n: int,
    batch_loss: Callable[[np.ndarray, np.random.Generator], float],
    val_loss: Callable[[], float],
    labels: Callable[[int], tuple[str, str]],
    seed: int,
) -> dict:
    """The epoch loop of every trainer. Each epoch shuffles the `n` training
    rows and draws dropout from the run `seed`'s streams that
    `labels(epoch)` names, as (shuffle label, dropout label), with the epoch
    counted from 1; `batch_loss(rows, rng)` runs one batch's forward and
    backward and returns its mean loss, then the grads are clipped and
    stepped. After each epoch `val_loss()` drives `control`. The state is
    snapshotted (`snapshot_state`) before the first epoch and on each
    improving one, and restored at the end when a later epoch ran. Returns
    the history, each epoch's validation loss under `val_mse`."""
    best = snapshot_state(module)
    history: dict = {"train_loss": [], "val_mse": []}
    epochs_run = 0
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        shuffle_label, dropout_label = labels(epoch)
        order = rng_for(seed, shuffle_label).permutation(n)
        drop_rng = rng_for(seed, dropout_label)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            opt.zero_grad()
            loss = batch_loss(idx, drop_rng)
            clip_grad_norm(opt.params, cfg.clip_norm)
            opt.step()
            epoch_loss += loss * idx.size
        history["train_loss"].append(epoch_loss / n)

        val = val_loss()
        history["val_mse"].append(val)
        opt.lr = control.update(val)
        if control.improved:
            snapshot_state(module, into=best)
        if control.should_stop:
            break

    if control.best_epoch < control.epoch:
        best.restore()
    history.update(
        best_epoch=control.best_epoch,
        best_val_mse=control.best_metric,
        epochs_run=epochs_run,
        lr_reductions=control.num_reductions,
    )
    return history


def _labels(tag: str) -> Callable[[int], tuple[str, str]]:
    """A phase's stream labels: `{tag}-shuffle-{epoch}` and
    `{tag}-dropout-{epoch}`."""
    return lambda epoch: (f"{tag}-shuffle-{epoch}", f"{tag}-dropout-{epoch}")


def phase1_train(
    branch: ExpertBranch,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    cfg: Phase1Config,
    seed: int,
) -> dict:
    """Fit one expert on MSE with the run's `seed`; restores the
    best-validation weights."""
    y_train = _unit_targets(y_train, f"{branch.modality} phase 1 train")
    y_val = _unit_targets(y_val, f"{branch.modality} phase 1 val")
    x_train = np.asarray(x_train, dtype=np.float64)
    x_val = np.asarray(x_val, dtype=np.float64)
    if x_train.shape[0] != y_train.shape[0]:
        raise ShapeError(f"train rows {x_train.shape[0]} != targets {y_train.shape[0]}")
    if x_val.shape[0] != y_val.shape[0]:
        raise ShapeError(f"val rows {x_val.shape[0]} != targets {y_val.shape[0]}")

    yt_col = y_train.reshape(-1, 1)
    yv_col = y_val.reshape(-1, 1)

    def batch_loss(idx, rng):
        _, y_hat = branch.forward(x_train[idx], train=True, rng=rng)
        loss, d_yhat = mse_loss(y_hat, yt_col[idx])
        branch.backward(None, d_yhat)
        return loss

    def val_mse():
        _, yv_hat = branch.forward(x_val, train=False)
        return mse_loss(yv_hat, yv_col)[0]

    history = fit(branch, Adam(branch.params(), lr=cfg.lr), cfg, TrainControl.from_config(cfg),
                  x_train.shape[0], batch_loss, val_mse, _labels(f"phase1-{branch.modality}"), seed)
    branch.trained = True
    return history


def phase2_train(
    model: GatedEnsemble,
    xs_train: dict[str, np.ndarray],
    y_train: np.ndarray,
    xs_val: dict[str, np.ndarray],
    y_val: np.ndarray,
    weights: LossWeights,
    cfg: Phase2Config,
    seed: int,
) -> dict:
    """Train the gate (and optionally fine-tune branches) on the composite
    loss, with the run's `seed`. Early stopping watches the plain ensemble
    MSE on validation, and the initial state counts as a candidate, so the
    returned model is never worse on validation than the phase-1 ensemble it
    started from."""
    untrained = [m for m in MODALITIES if not model.branches[m].trained]
    if untrained:
        raise PopgateError(
            f"phase 2 requires phase-1-trained branches; untrained: {untrained}"
        )
    y_train = _unit_targets(y_train, "phase 2 train")
    y_val = _unit_targets(y_val, "phase 2 val")
    tune = not cfg.freeze_branches

    groups: list = [(model.gate.params(), 0.0)]
    if tune:
        for m in MODALITIES:
            # the social inputs are narrow engagement counts; decaying that
            # branch hurts, so it trains decay-free
            wd = 0.0 if m == "social" else cfg.weight_decay
            groups.append((model.branches[m].params(), wd))

    def batch_loss(idx, rng):
        xb = {m: xs_train[m][idx] for m in MODALITIES}
        out = model.forward(xb, train=True, rng=rng, branch_train=tune)
        breakdown, d_yhat, d_branch = ensemble_loss(y_train[idx], out, weights)
        model.backward(d_yhat, d_branch, into_branches=tune)
        return breakdown.total

    def val_mse():
        return mse_loss(model.forward(xs_val, train=False).yhat, y_val)[0]

    opt = AdamW(groups, lr=cfg.lr)
    control = TrainControl.from_config(cfg)
    initial_val = val_mse()
    control.update(initial_val)
    history = fit(model, opt, cfg, control, y_train.shape[0], batch_loss, val_mse, _labels("phase2"),
                  seed)
    history["initial_val_mse"] = initial_val
    return history
