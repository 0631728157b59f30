from .model import AELossTerms, Autoencoder, ae_loss, lambda_for, plan_architecture
from .train import CompressorEnsemble, registry_hash, rel_mse, train_group_autoencoder

__all__ = [
    "AELossTerms",
    "Autoencoder",
    "CompressorEnsemble",
    "ae_loss",
    "lambda_for",
    "plan_architecture",
    "registry_hash",
    "rel_mse",
    "train_group_autoencoder",
]
