"""Early stopping and learning-rate plateau scheduling on a validation metric.

Both machines treat "improvement" as a strict decrease by more than a small
tolerance, so a metric that drifts sideways within rounding noise still
counts as stalled.
"""

from __future__ import annotations

import math

from ..config import TrainConfig


class TrainControl:
    """Tracks one validation metric and drives two coupled decisions:

    * early stopping after `patience` epochs without improvement, and
    * halving the learning rate after `plateau_patience` stalled epochs
      (never below `min_lr`), resetting the plateau wait after each cut.

    Call `update(val_metric)` once per epoch; it returns the possibly-reduced
    learning rate and sets `.should_stop`. `best_metric` / `best_epoch`
    identify the epoch whose weights the caller should retain.
    """

    plateau_factor = 0.5
    min_lr = 1e-7
    tol = 1e-8

    def __init__(self, lr: float, patience: int = 25, plateau_patience: int = 10):
        if patience < 1 or plateau_patience < 1:
            raise ValueError("patience values must be >= 1")
        self.lr = lr
        self.patience = patience
        self.plateau_patience = plateau_patience
        self.best_metric = math.inf
        self.best_epoch = -1
        self.epoch = -1
        self.epochs_since_improve = 0
        self._plateau_wait = 0
        self.num_reductions = 0
        self.should_stop = False

    @classmethod
    def from_config(cls, cfg: TrainConfig) -> TrainControl:
        """A fresh machine for the loop that `cfg` sets."""
        return cls(cfg.lr, patience=cfg.patience, plateau_patience=cfg.plateau_patience)

    def update(self, val_metric: float) -> float:
        if self.should_stop:
            raise RuntimeError("update() called after stop was signalled")
        self.epoch += 1
        if val_metric < self.best_metric - self.tol:
            self.best_metric = val_metric
            self.best_epoch = self.epoch
            self.epochs_since_improve = 0
            self._plateau_wait = 0
        else:
            self.epochs_since_improve += 1
            self._plateau_wait += 1
            if self.epochs_since_improve >= self.patience:
                self.should_stop = True
            if self._plateau_wait >= self.plateau_patience:
                reduced = max(self.lr * self.plateau_factor, self.min_lr)
                if reduced < self.lr:
                    self.num_reductions += 1
                self.lr = reduced
                self._plateau_wait = 0
        return self.lr

    @property
    def improved(self) -> bool:
        """True when the most recent update() set a new best metric."""
        return self.epochs_since_improve == 0 and self.epoch >= 0

