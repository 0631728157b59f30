"""Per-modality expert networks.

Each branch is a dense trunk ending in a fixed-width representation layer,
topped by a sigmoid head that predicts scaled popularity in (0, 1). The
trunk's final hidden output doubles as the branch's contribution to the
gating network, so `forward` returns both.
"""

from __future__ import annotations

import numpy as np

from ..config import BranchConfig, Sigmoid
from ..nn import MLP, Dense, DenseLayerSpec, Module, dense_stack


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
        specs = dense_stack([config.in_dim, *config.hidden], config.activation, config.dropout,
                            config.batchnorm)
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
        h = self.trunk.forward(x, train=train, rng=rng)
        y_hat = self.head.forward(h, train=train, rng=rng)
        return h, y_hat

    def backward(self, d_h: np.ndarray | None, d_yhat: np.ndarray | None) -> None:
        """Backprop through head and trunk into the parameter gradients;
        either gradient may be None. The input's gradient is not computed."""
        if d_h is None and d_yhat is None:
            raise ValueError(f"{self.modality} branch backward needs at least one gradient")
        g = self.head.backward(d_yhat) if d_yhat is not None else None
        if d_h is not None:
            g = d_h if g is None else g + d_h
        self.trunk.backward(g, input_grad=False)

    def parts(self) -> list:
        return [("trunk", self.trunk), ("head", self.head)]
