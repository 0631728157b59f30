"""Gated ensemble: three expert branches mixed by learned attention.

Prediction is the convex combination y_hat = sum_i alpha_i * y_hat_i, so the
ensemble output always lies between the smallest and largest branch output
(and therefore in (0, 1), since each branch ends in a sigmoid). A saved
ensemble's `model.json` and checkpoint metadata are written and read with
`popgate.codec`, the reader that also checks run configs.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field
from pathlib import Path

import numpy as np

from ..codec import from_json, reading, write_json
from ..config import MODALITIES, BranchConfig, GateConfig, LossWeights
from ..exceptions import ConfigError, MissingInputError, ShapeError
from ..nn.checkpoint import load_checkpoint, save_checkpoint
from ..nn.layers import Module
from ..nn.losses import mse_loss
from .branches import ExpertBranch
from .gate import GatingNetwork


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    final: float
    individual: float


@dataclass(frozen=True)
class EnsembleOutput:
    """One forward pass: mixture prediction, weights, per-branch predictions.

    `branch_yhat` columns follow MODALITIES order.
    """

    yhat: np.ndarray  # (n,)
    alpha: np.ndarray  # (n, 3)
    branch_yhat: np.ndarray  # (n, 3)


class GatedEnsemble(Module):
    def __init__(self, branches: dict[str, ExpertBranch], gate: GatingNetwork):
        if set(branches) != set(MODALITIES):
            raise ConfigError(f"ensemble needs branches {MODALITIES}, got {sorted(branches)}")
        for m in MODALITIES:
            if branches[m].repr_dim != gate.repr_dim:
                raise ConfigError(
                    f"{m} branch representation is {branches[m].repr_dim}-dim "
                    f"but the gate expects {gate.repr_dim}"
                )
        self.branches = branches
        self.gate = gate
        self._cache = None

    @staticmethod
    def build(
        branch_configs: dict[str, BranchConfig],
        gate_config: GateConfig,
        rng: np.random.Generator,
    ) -> "GatedEnsemble":
        branches = {m: ExpertBranch(branch_configs[m], rng) for m in MODALITIES}
        return GatedEnsemble(branches, GatingNetwork(gate_config, rng))

    def forward(
        self,
        xs: dict[str, np.ndarray],
        train: bool = False,
        rng: np.random.Generator | None = None,
        branch_train: bool | None = None,
    ) -> EnsembleOutput:
        """Full forward pass. `branch_train` overrides `train` for the
        branches alone (phase 2 freezes them in eval mode while the gate
        keeps training)."""
        missing = [m for m in MODALITIES if m not in xs]
        if missing:
            raise MissingInputError(f"no input for modalities {missing}; all three are required")
        batches = {m: np.asarray(xs[m]).shape[0] for m in MODALITIES}
        if len(set(batches.values())) != 1:
            raise ShapeError(f"modality batch sizes differ: {batches}")
        if branch_train is None:
            branch_train = train
        hs, cols = {}, []
        for m in MODALITIES:
            h, y_col = self.branches[m].forward(xs[m], train=branch_train, rng=rng)
            hs[m] = h
            cols.append(y_col)
        branch_yhat = np.concatenate(cols, axis=1)
        alpha = self.gate.forward(hs, train=train, rng=rng)
        yhat = np.add.reduce(alpha * branch_yhat, axis=1)
        self._cache = (alpha, branch_yhat)
        return EnsembleOutput(yhat=yhat, alpha=alpha, branch_yhat=branch_yhat)

    def backward(
        self,
        d_yhat: np.ndarray,
        d_branch_extra: np.ndarray | None = None,
        into_branches: bool = True,
    ) -> None:
        """Backprop the mixture. `d_branch_extra` carries additional direct
        gradients on the per-branch predictions (the individual loss terms);
        `into_branches=False` stops at the gate, leaving branches untouched."""
        if self._cache is None:
            raise RuntimeError("ensemble backward called before forward")
        alpha, branch_yhat = self._cache
        d_yhat = np.asarray(d_yhat, dtype=np.float64).reshape(-1, 1)
        d_alpha = d_yhat * branch_yhat
        d_branch = d_yhat * alpha
        if d_branch_extra is not None:
            d_branch = d_branch + d_branch_extra
        d_h = self.gate.backward(d_alpha)
        if into_branches:
            for i, m in enumerate(MODALITIES):
                self.branches[m].backward(d_h[m], d_branch[:, i : i + 1])

    def predict(self, xs: dict[str, np.ndarray]) -> EnsembleOutput:
        return self.forward(xs, train=False)

    def parts(self) -> list:
        return [(m, self.branches[m]) for m in MODALITIES] + [("gate", self.gate)]


def ensemble_loss(
    y: np.ndarray, out: EnsembleOutput, weights: LossWeights
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Composite training loss and its gradients.

    Returns (breakdown, d_yhat, d_branch) where
        total = lambda_final * MSE(y, yhat)
              + lambda_individual * sum_i MSE(y, yhat_i)
    d_yhat is the gradient wrt the mixture prediction and d_branch the
    direct gradient wrt each branch prediction (n x 3).
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != out.yhat.shape[0]:
        raise ShapeError(f"targets have {y.shape[0]} rows, predictions {out.yhat.shape[0]}")
    final, d_final = mse_loss(out.yhat, y)
    d_yhat = weights.lambda_final * d_final
    individual = 0.0
    d_branch = np.zeros_like(out.branch_yhat)
    for i in range(len(MODALITIES)):
        loss_i, d_i = mse_loss(out.branch_yhat[:, i], y)
        individual += loss_i
        d_branch[:, i] = weights.lambda_individual * d_i
    total = weights.lambda_final * final + weights.lambda_individual * individual
    return LossBreakdown(total=total, final=final, individual=individual), d_yhat, d_branch


# ---------------------------------------------------------------------------
# checkpoint bundle: one file per branch, one for the gate, one manifest


@dataclass(frozen=True)
class _ModelFiles:
    """`model.json`: each branch's checkpoint and the gate's, relative to
    its directory, and what the training phase that saved them recorded."""

    branch_checkpoints: dict
    gate_checkpoint: str
    extra: dict = field(default_factory=dict)


def save_ensemble(model: GatedEnsemble, out_dir: str | Path, extra: dict | None = None) -> None:
    out_dir = Path(out_dir)
    for m in MODALITIES:
        branch = model.branches[m]
        save_checkpoint(
            out_dir / f"branch_{m}.npz",
            branch.state_arrays(),
            {"kind": "branch", "config": branch.config, "trained": branch.trained},
        )
    save_checkpoint(
        out_dir / "gate.npz",
        model.gate.state_arrays(),
        {"kind": "gate", "config": model.gate.config},
    )
    files = _ModelFiles({m: f"branch_{m}.npz" for m in MODALITIES}, "gate.npz", extra or {})
    write_json(out_dir / "model.json", files)


def load_ensemble(in_dir: str | Path) -> tuple[GatedEnsemble, dict]:
    """Rebuild a saved ensemble bit-exactly. Returns (model, extra)."""
    in_dir = Path(in_dir)
    manifest_path = in_dir / "model.json"
    if not manifest_path.exists():
        raise MissingInputError(f"no model manifest at {manifest_path}")
    with reading(manifest_path):
        files = from_json(_ModelFiles, json.loads(manifest_path.read_text()))
        ckpts = {m: from_json(str, files.branch_checkpoints.get(m, MISSING),
                              f"branch_checkpoints.{m}") for m in MODALITIES}
    # rng=None builds zero weights on unmapped pages; load_state fills them
    branches = {}
    for m in MODALITIES:
        ckpt = in_dir / ckpts[m]
        arrays, meta = load_checkpoint(ckpt)
        with reading(ckpt):
            config = from_json(BranchConfig, meta.get("config", MISSING), "config")
            branch = ExpertBranch(config, None)
            branch.trained = from_json(bool, meta.get("trained", MISSING), "trained")
        branch.load_state(arrays, ckpt)
        branches[m] = branch
    ckpt = in_dir / files.gate_checkpoint
    arrays, meta = load_checkpoint(ckpt)
    with reading(ckpt):
        gate = GatingNetwork(from_json(GateConfig, meta.get("config", MISSING), "config"), None)
    gate.load_state(arrays, ckpt)
    return GatedEnsemble(branches, gate), files.extra
