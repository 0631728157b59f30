"""Per-group autoencoder training and the trained compressor ensemble.

`ensemble.json` is written and read, and each group's checkpoint metadata
written, with `popgate.codec`, the reader that also checks run configs."""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..codec import canonical_json, from_json, reading, write_json
from ..config import AETrainConfig, FeatureGroup, validate_registry
from ..data.scaling import ScalerParams, scaler_apply, scaler_fit
from ..exceptions import ConfigError, MissingInputError, ShapeError
from ..nn.checkpoint import check_arrays, load_checkpoint, save_checkpoint
from ..nn.control import TrainControl
from ..nn.layers import MLP
# `clip_grad_norm` has no caller here: perfbench/traced_step.py patches
# this name, so it stays bound until the tracer moves into the program
# (ROADMAP item 9)
from ..nn.optim import Adam, clip_grad_norm  # noqa: F401
from ..seeding import derive_seed, rng_for
from .model import Autoencoder, ae_loss, encoder_specs, lambda_for


def rel_mse(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Unexplained-variance fraction: Σ(x−x̂)² / Σ(x−x̄)², x̄ = column means."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ShapeError(f"rel_mse shapes differ: {x.shape} vs {x_hat.shape}")
    sst = float(np.sum((x - x.mean(axis=0)) ** 2))
    if sst == 0.0:
        raise ValueError("rel_mse undefined for zero-variance input")
    return float(np.sum((x - x_hat) ** 2)) / sst


def train_group_autoencoder(
    group: FeatureGroup, data: np.ndarray, cfg: AETrainConfig, seed: int, checkpoint: str | Path
) -> tuple[Autoencoder, ScalerParams, dict]:
    """Standardize one group's columns, train its autoencoder, return the
    best-validation model plus the fitted scaler and a history dict.

    `data` holds only this group's training-split columns (width group.d);
    a fixed `cfg.val_fraction` of its rows is held out for early stopping.
    The run's `seed` names every random stream. The group trains through
    the fusion phases' epoch loop, `popgate.fusion.train.fit`, on the
    streams `ae-shuffle-<group>-<epoch>` and `ae-dropout-<group>-<epoch>`,
    with the epoch counted from 0; that loop keeps the best epoch, a wide
    weight's values within the optimizer's scratch file, and restores it.
    The group's checkpoint is written to `checkpoint` once, from that state.
    The history holds each epoch's train and validation loss (`val_loss`),
    `lambda`, the best epoch, the epochs run and the restored model's
    `val_relmse`.

    `data` is the only copy of the rows that the trainer holds: each batch
    and each validation pass scales the rows it reads, so no scaled copy of
    the whole group is kept, and `data` is left as it was.
    """
    # `compress` imports this module for `CompressorEnsemble` and loads no
    # fusion module
    from ..fusion.train import fit

    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != group.d:
        raise ShapeError(f"group {group.name!r} expects width {group.d}, got {X.shape}")
    n = X.shape[0]
    n_val = max(1, int(round(cfg.val_fraction * n)))
    if n - n_val < 1:
        raise ValueError(f"group {group.name!r}: {n} rows leave no training data")
    perm = rng_for(seed, f"ae-val-{group.name}").permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    scaler = scaler_fit(X[train_idx], "zscore")

    def scaled(idx: np.ndarray) -> np.ndarray:
        rows = X[idx]
        return scaler_apply(scaler, rows, out=rows)

    # the model is built with zero weights on unmapped pages, so the
    # optimizer's scratch file takes no values from it; then each layer's W
    # is drawn from the group's init stream, in layer order, and written
    # there before the next is drawn
    model = Autoencoder(group.d, group.d_enc, None, name=group.name)
    opt = Adam(model.params(), lr=cfg.lr)
    init_rng = rng_for(seed, f"ae-init-{group.name}")
    for layer in model.encoder.layers + model.decoder.layers:
        layer.draw(init_rng)
    lam = lambda_for(group.d_enc)

    def batch_loss(idx, rng):
        xb = scaled(train_idx[idx])
        x_hat, z = model.forward(xb, train=True, rng=rng)
        terms, d_xhat, d_z = ae_loss(xb, x_hat, z, lam)
        model.backward(d_xhat, d_z)
        return terms.total

    # neither the validation rows nor their outputs are kept into the next
    # epoch
    def val_loss():
        xv = scaled(val_idx)
        return ae_loss(xv, *model.forward(xv, train=False), lam)[0].total

    def labels(epoch):
        return f"ae-shuffle-{group.name}-{epoch - 1}", f"ae-dropout-{group.name}-{epoch - 1}"

    fitted = fit(model, opt, cfg, TrainControl.from_config(cfg), len(train_idx), batch_loss,
                 val_loss, labels, seed)
    # no step reads the moments or the grads again: m and v go with `opt`,
    # and the grad arena and the wide weights' recorded products once each
    # param has its own unmapped zeros; the wide weights' values stay in the
    # scratch file, which they hold
    del opt
    for p in model.params():
        p.release_grad()
    _save_group(checkpoint, group, model, scaler, seed)
    xv = scaled(val_idx)
    history = {"train_loss": fitted["train_loss"], "val_loss": fitted["val_mse"], "lambda": lam,
               "val_relmse": rel_mse(xv, model.forward(xv, train=False)[0]),
               "best_epoch": fitted["best_epoch"], "epochs_run": fitted["epochs_run"]}
    return model, scaler, history


def _save_group(path: str | Path, group: FeatureGroup, model: Autoencoder,
                scaler: ScalerParams, seed: int) -> None:
    """Write one group's checkpoint: the model's state (decoder included),
    read one array at a time, its scaler, and the metadata naming the
    group, its init stream's seed and its layers."""
    arrays = model.state_arrays()
    arrays["scaler.center"] = scaler.center
    arrays["scaler.scale"] = scaler.scale
    arrays["scaler.degenerate"] = scaler.degenerate.astype(np.uint8)
    meta = {
        "group": group,
        "seed": derive_seed(seed, f"ae-init-{group.name}"),
        "encoder_specs": [layer.spec for layer in model.encoder.layers],
        "decoder_specs": [layer.spec for layer in model.decoder.layers],
    }
    save_checkpoint(path, arrays, meta)


def registry_hash(groups: Sequence[FeatureGroup]) -> str:
    return hashlib.sha256(canonical_json(tuple(groups)).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class _GroupFile:
    """One group's entry in `ensemble.json`."""

    checkpoint: str  # relative to the ensemble's directory
    val_relmse: float | None = None


@dataclass(frozen=True)
class _EnsembleFiles:
    """`ensemble.json`: the registry, its hash, the seed, and each group's
    `_GroupFile` by group name."""

    registry: tuple[FeatureGroup, ...]
    registry_hash: str
    seed: int
    groups: dict


class CompressorEnsemble:
    """A saved ensemble of per-group encoders, applied slice-by-slice and
    concatenated in registry order.

    Training writes each group's checkpoint, decoder included, and `save`
    writes `ensemble.json` over them; `load` returns an ensemble that holds
    each group's checkpoint path. `compress` reads a group's encoder and
    scaler only when it reaches that group and drops them before the next,
    so at most one encoder is in memory and no decoder is ever read.
    """

    def __init__(self, registry: Sequence[FeatureGroup], seed: int,
                 checkpoints: Mapping[str, Path]):
        self.registry = tuple(registry)
        self.seed = seed
        self.checkpoints = dict(checkpoints)

    def _encode(self, g: FeatureGroup, cols: np.ndarray) -> np.ndarray:
        """Group g's codes for its columns; its encoder and scaler are read
        here and released on return."""
        ckpt = self.checkpoints[g.name]
        arrays, _ = load_checkpoint(ckpt, prefixes=("enc.", "scaler."))
        encoder = MLP(encoder_specs(g.d, g.d_enc), None, name=f"{g.name}.enc")
        encoder.load_state(arrays, ckpt, prefix="enc.", copy=False)
        check_arrays(arrays, {f"scaler.{k}": (g.d,) for k in ("center", "scale", "degenerate")},
                     ckpt)
        scaler = ScalerParams(
            kind="zscore",
            center=arrays["scaler.center"],
            scale=arrays["scaler.scale"],
            degenerate=arrays["scaler.degenerate"].astype(bool),
        )
        return encoder.forward(scaler_apply(scaler, cols), train=False)

    def compress(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        blocks = []
        for g in self.registry:
            if X.ndim != 2 or X.shape[1] < g.start + g.d:
                raise ShapeError(
                    f"group {g.name!r} needs columns [{g.start},{g.start + g.d}), "
                    f"but input has shape {X.shape}"
                )
            blocks.append(self._encode(g, X[:, g.cols]))
        return np.hstack(blocks)

    @staticmethod
    def save(
        out_dir: str | Path,
        registry: Sequence[FeatureGroup],
        histories: Mapping[str, dict],
        seed: int,
    ) -> None:
        """Write `ensemble.json` over the group checkpoints `<name>.npz`
        that `train_group_autoencoder` wrote to `out_dir`, from each group's
        history by group name."""
        missing = [g.name for g in registry if g.name not in histories]
        if missing:
            raise ConfigError(f"ensemble missing trained groups: {missing}")
        registry = tuple(registry)
        groups = {g.name: _GroupFile(f"{g.name}.npz", histories[g.name]["val_relmse"])
                  for g in registry}
        files = _EnsembleFiles(registry, registry_hash(registry), seed, groups)
        write_json(Path(out_dir) / "ensemble.json", files)

    @staticmethod
    def discard(out_dir: str | Path, registry: Sequence[FeatureGroup]) -> None:
        """Delete `out_dir`'s `ensemble.json`, and each checkpoint it names
        that is not the checkpoint of a group of `registry`, before those
        groups train: no `ensemble.json` may then name a mix of old and new
        checkpoints, and no group the registry dropped keeps its checkpoint.
        An `ensemble.json` that cannot be read names no checkpoint."""
        out_dir = Path(out_dir)
        try:
            named = _read(out_dir)[2].values()
        except MissingInputError:
            named = ()
        (out_dir / "ensemble.json").unlink(missing_ok=True)
        kept = {out_dir / f"{g.name}.npz" for g in registry}
        for ckpt in named:
            if ckpt.parent == out_dir and ckpt not in kept:
                ckpt.unlink(missing_ok=True)

    @staticmethod
    def load(in_dir: str | Path) -> "CompressorEnsemble":
        registry, seed, checkpoints = _read(Path(in_dir))
        for ckpt in checkpoints.values():
            if not ckpt.exists():
                raise MissingInputError(f"checkpoint not found: {ckpt}")
        return CompressorEnsemble(registry, seed, checkpoints)


def _read(in_dir: Path) -> tuple[tuple[FeatureGroup, ...], int, dict[str, Path]]:
    """`in_dir`'s `ensemble.json` -> (registry, seed, each group's checkpoint
    path by name)."""
    path = in_dir / "ensemble.json"
    if not path.exists():
        raise MissingInputError(f"ensemble manifest not found: {path}")
    with reading(path):
        saved = from_json(_EnsembleFiles, json.loads(path.read_text()))
        validate_registry(saved.registry)
        if registry_hash(saved.registry) != saved.registry_hash:
            raise ConfigError("registry_hash does not match the registry")
        groups = {g.name: from_json(_GroupFile, saved.groups.get(g.name, MISSING),
                                    f"groups.{g.name}") for g in saved.registry}
    return saved.registry, saved.seed, {name: in_dir / g.checkpoint for name, g in groups.items()}
