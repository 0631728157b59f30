from .layers import (
    BatchNorm,
    Dense,
    DenseLayerSpec,
    MLP,
    Module,
    Param,
    activation_forward,
    dense_stack,
)
from .losses import mse_loss, softmax, softmax_backward
from .optim import Adam, AdamW, clip_grad_norm
from .control import TrainControl
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Adam",
    "AdamW",
    "BatchNorm",
    "Dense",
    "DenseLayerSpec",
    "MLP",
    "Module",
    "Param",
    "TrainControl",
    "activation_forward",
    "clip_grad_norm",
    "dense_stack",
    "load_checkpoint",
    "mse_loss",
    "save_checkpoint",
    "softmax",
    "softmax_backward",
]
