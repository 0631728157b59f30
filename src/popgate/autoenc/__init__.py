from .groups import FeatureGroup, default_registry, registry_hash
from .model import AELossTerms, Autoencoder, ae_loss, lambda_for, plan_architecture
from .train import AETrainConfig, CompressorEnsemble, rel_mse, train_group_autoencoder

__all__ = [
    "AELossTerms",
    "AETrainConfig",
    "Autoencoder",
    "CompressorEnsemble",
    "FeatureGroup",
    "ae_loss",
    "default_registry",
    "lambda_for",
    "plan_architecture",
    "registry_hash",
    "rel_mse",
    "train_group_autoencoder",
]
