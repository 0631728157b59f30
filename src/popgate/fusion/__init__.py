"""Modality expert branches, learnable-standardization gating, and the
two-phase training procedure for the gated ensemble."""

from .branches import ExpertBranch
from .gate import GatingNetwork, LearnableStandardize
from .model import (
    EnsembleOutput,
    GatedEnsemble,
    LossBreakdown,
    ensemble_loss,
    load_ensemble,
    save_ensemble,
)
from .train import phase1_train, phase2_train

__all__ = [
    "ExpertBranch",
    "GatingNetwork",
    "LearnableStandardize",
    "EnsembleOutput",
    "GatedEnsemble",
    "LossBreakdown",
    "ensemble_loss",
    "save_ensemble",
    "load_ensemble",
    "phase1_train",
    "phase2_train",
]
