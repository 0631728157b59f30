"""Modality expert branches, learnable-standardization gating, and the
two-phase training procedure for the gated ensemble."""

from .branches import MODALITIES, BranchConfig, ExpertBranch, default_branch_config
from .gate import GateConfig, GatingNetwork, LearnableStandardize
from .model import (
    EnsembleOutput,
    GatedEnsemble,
    LossBreakdown,
    LossWeights,
    ensemble_loss,
    load_ensemble,
    save_ensemble,
)
from .train import Phase1Config, Phase2Config, phase1_train, phase2_train

__all__ = [
    "MODALITIES",
    "BranchConfig",
    "ExpertBranch",
    "default_branch_config",
    "GateConfig",
    "GatingNetwork",
    "LearnableStandardize",
    "EnsembleOutput",
    "GatedEnsemble",
    "LossBreakdown",
    "LossWeights",
    "ensemble_loss",
    "save_ensemble",
    "load_ensemble",
    "Phase1Config",
    "Phase2Config",
    "phase1_train",
    "phase2_train",
]
