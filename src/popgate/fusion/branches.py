"""Per-modality expert networks.

Each branch is a dense trunk ending in a fixed-width representation layer,
topped by a sigmoid head that predicts scaled popularity in (0, 1). The
trunk's final hidden output doubles as the branch's contribution to the
gating network, so `forward` returns both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigError, ShapeError
from ..nn import MLP, Activation, Dense, DenseLayerSpec, Elu, LeakyRelu, Module, Sigmoid

MODALITIES = ("audio", "lyrics", "social")


@dataclass(frozen=True)
class BranchConfig:
    """Architecture of one modality expert.

    `hidden` lists trunk widths; the last entry is the representation the
    gate consumes. `dropout` gives one rate per trunk layer.
    """

    modality: str
    in_dim: int
    hidden: tuple[int, ...]
    activation: Activation
    dropout: tuple[float, ...]
    batchnorm: bool = True

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ConfigError(f"unknown modality {self.modality!r}; expected one of {MODALITIES}")
        if self.in_dim < 1:
            raise ConfigError(f"{self.modality} branch in_dim must be >= 1, got {self.in_dim}")
        if not self.hidden:
            raise ConfigError(f"{self.modality} branch needs at least one trunk layer")
        if len(self.dropout) != len(self.hidden):
            raise ConfigError(
                f"{self.modality} branch: {len(self.hidden)} trunk layers but "
                f"{len(self.dropout)} dropout rates"
            )

    @property
    def repr_dim(self) -> int:
        return self.hidden[-1]


def default_branch_config(modality: str, in_dim: int) -> BranchConfig:
    """Full-scale architecture for each modality.

    Audio and social use a [512, 256, 128, 64] trunk; lyrics inputs are
    wider and sparser, so that branch goes one layer deeper. The social
    branch gets LeakyReLU and lighter dropout.
    """
    if modality == "audio":
        return BranchConfig(
            modality="audio",
            in_dim=in_dim,
            hidden=(512, 256, 128, 64),
            activation=Elu(0.1),
            dropout=(0.3, 0.2, 0.2, 0.1),
        )
    if modality == "lyrics":
        return BranchConfig(
            modality="lyrics",
            in_dim=in_dim,
            hidden=(1024, 512, 256, 128, 64),
            activation=Elu(0.1),
            dropout=(0.3, 0.2, 0.2, 0.1, 0.1),
        )
    if modality == "social":
        return BranchConfig(
            modality="social",
            in_dim=in_dim,
            hidden=(512, 256, 128, 64),
            activation=LeakyRelu(0.05),
            dropout=(0.1, 0.1, 0.05, 0.0),
        )
    raise ConfigError(f"unknown modality {modality!r}; expected one of {MODALITIES}")


class ExpertBranch(Module):
    """Trunk + sigmoid head for one modality.

    forward returns (h, y_hat) where h is the batch x repr_dim trunk output
    and y_hat is a batch x 1 column in (0, 1). backward accepts gradients
    for both outputs, since h also feeds the gating network.
    """

    def __init__(self, config: BranchConfig, rng: np.random.Generator | None):
        """`rng` draws the initial weights; None leaves them zero, for a
        branch whose state is loaded next."""
        self.config = config
        specs = []
        d_prev = config.in_dim
        for width, p in zip(config.hidden, config.dropout):
            specs.append(
                DenseLayerSpec(d_prev, width, config.activation, batchnorm=config.batchnorm, dropout_p=p)
            )
            d_prev = width
        self.trunk = MLP(specs, rng, name=f"{config.modality}.trunk")
        # plain sigmoid readout: no batchnorm or dropout on the prediction
        self.head = Dense(
            DenseLayerSpec(config.repr_dim, 1, Sigmoid()), rng, name=f"{config.modality}.head"
        )
        self.trained = False

    @property
    def modality(self) -> str:
        return self.config.modality

    @property
    def repr_dim(self) -> int:
        return self.config.repr_dim

    def forward(
        self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.config.in_dim:
            raise ShapeError(
                f"{self.modality} branch expects input (batch, {self.config.in_dim}), got {x.shape}"
            )
        h = self.trunk.forward(x, train=train, rng=rng)
        y_hat = self.head.forward(h, train=train, rng=rng)
        return h, y_hat

    def backward(self, d_h: np.ndarray | None, d_yhat: np.ndarray | None) -> np.ndarray:
        """Backprop through head and trunk; either gradient may be None."""
        if d_h is None and d_yhat is None:
            raise ValueError(f"{self.modality} branch backward needs at least one gradient")
        g = self.head.backward(d_yhat) if d_yhat is not None else None
        if d_h is not None:
            g = d_h if g is None else g + d_h
        return self.trunk.backward(g)

    def parts(self) -> list:
        return [("trunk", self.trunk), ("head", self.head)]
