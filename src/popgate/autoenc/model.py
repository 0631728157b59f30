"""Symmetric bottleneck autoencoders with latent-norm regularization.

Loss per group: L = MSE(x, x̂) + λ · mean_over_batch ‖z_row‖², with
λ = 0.001 · 128 / d_enc so narrower bottlenecks are regularized harder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import Elu
from ..exceptions import ShapeError
# `snapshot_state` has no caller here: perfbench/traced_step.py patches
# this name, so it stays bound until the tracer moves into the program
# (ROADMAP item 9)
from ..nn.layers import DenseLayerSpec, MLP, Module, dense_stack, snapshot_state  # noqa: F401
from ..nn.losses import mse_loss

AE_DROPOUT = 0.05
AE_ELU_ALPHA = 0.1


def plan_architecture(d: int) -> list[int]:
    """Encoder hidden widths for an input of width d.

    Wide inputs taper through three floors of [d/2, d/3, d/5]; mid-size
    (2000–4000 inclusive) through [d/2, d/4]; narrow through [d/2].
    """
    if d < 2:
        raise ValueError(f"input dim must be >= 2, got {d}")
    if d > 4000:
        return [d // 2, d // 3, d // 5]
    if d >= 2000:
        return [d // 2, d // 4]
    return [d // 2]


def lambda_for(d_enc: int) -> float:
    """Latent penalty weight, inversely proportional to bottleneck width."""
    if d_enc < 1:
        raise ValueError(f"bottleneck dim must be >= 1, got {d_enc}")
    return 0.001 * 128.0 / d_enc


def encoder_specs(d: int, d_enc: int) -> list[DenseLayerSpec]:
    """The encoder's layers: hidden blocks down to a linear bottleneck."""
    return dense_stack([d, *plan_architecture(d)], Elu(AE_ELU_ALPHA), AE_DROPOUT, out_dim=d_enc)


def decoder_specs(d: int, d_enc: int) -> list[DenseLayerSpec]:
    """The decoder's layers: the encoder's hidden blocks mirrored, then a
    linear output."""
    return dense_stack([d_enc, *plan_architecture(d)[::-1]], Elu(AE_ELU_ALPHA), AE_DROPOUT,
                       out_dim=d)


def n_params(d: int, d_enc: int) -> int:
    """The trainable values of the autoencoder of width d and bottleneck d_enc."""
    return sum(spec.n_params for spec in (*encoder_specs(d, d_enc), *decoder_specs(d, d_enc)))


class Autoencoder(Module):
    """Encoder (hiddens -> linear bottleneck) and mirrored decoder
    (hiddens reversed -> linear output). Hidden layers are ELU(0.1) with
    batchnorm and dropout; bottleneck and output are plain linear maps so
    embeddings and reconstructions span all of R."""

    def __init__(self, d: int, d_enc: int, rng: np.random.Generator | None, name: str = "ae"):
        if d_enc >= d:
            raise ValueError(f"{name}: bottleneck {d_enc} must be < input dim {d}")
        self.d = d
        self.d_enc = d_enc
        self.name = name
        self.encoder = MLP(encoder_specs(d, d_enc), rng, name=f"{name}.enc")
        self.decoder = MLP(decoder_specs(d, d_enc), rng, name=f"{name}.dec")

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> tuple[np.ndarray, np.ndarray]:
        z = self.encoder.forward(x, train=train, rng=rng)
        return self.decoder.forward(z, train=train, rng=rng), z

    def backward(self, d_xhat: np.ndarray, d_z: np.ndarray) -> None:
        """Backprop both loss paths: reconstruction through the decoder, plus
        the direct latent-penalty gradient on z. Only parameter gradients
        are kept; the one wrt the input batch is not computed."""
        gz = self.decoder.backward(d_xhat) + d_z
        self.encoder.backward(gz, input_grad=False)

    def parts(self) -> list:
        return [("enc", self.encoder), ("dec", self.decoder)]


@dataclass(frozen=True)
class AELossTerms:
    recon: float
    latent_penalty: float

    @property
    def total(self) -> float:
        return self.recon + self.latent_penalty


def ae_loss(
    x: np.ndarray, x_hat: np.ndarray, z: np.ndarray, lambda_k: float
) -> tuple[AELossTerms, np.ndarray, np.ndarray]:
    """Loss terms plus gradients (d_total/d_x̂, d_total/d_z).

    recon is the elementwise MSE; the latent penalty averages ‖z_row‖² over
    the batch so λ keeps one scale regardless of batch size.
    """
    if z.ndim != 2 or z.shape[0] != x.shape[0]:
        raise ShapeError(f"bottleneck batch {z.shape} does not match input batch {x.shape}")
    recon, d_xhat = mse_loss(x_hat, x)
    batch = z.shape[0]
    penalty = lambda_k * float(np.add.reduce(z * z, axis=None)) / batch
    d_z = 2.0 * lambda_k * z / batch
    return AELossTerms(recon, penalty), d_xhat, d_z
