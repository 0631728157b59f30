"""Every settings class of a run, with its defaults and its checks.

The steps' config sections (`popgate.pipeline.SECTIONS`) are read into these
dataclasses by `popgate.codec`, and model artifacts store some of them. A
bad value is rejected at construction, naming the field, so a config is
checked before any step reads a file. This module imports no numpy and no
package of the steps, so checking a section loads nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .exceptions import ConfigError

# the experts, in the column order of every per-modality array
MODALITIES = ("audio", "lyrics", "social")

# the calendar years whose plays the CTD features summarize
DEFAULT_WINDOW: tuple[int, ...] = (2016, 2017, 2018, 2019, 2020)


# ---------------------------------------------------------------------------
# activations


@dataclass(frozen=True)
class Elu:
    """x for x > 0, else alpha * (e^x - 1)."""

    alpha: float = 0.1

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:  # NaN fails too
            raise ValueError(f"ELU alpha must be > 0 and finite, got {self.alpha}")


@dataclass(frozen=True)
class LeakyRelu:
    """x for x > 0, else slope * x."""

    slope: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.slope < 1.0:
            raise ValueError(f"LeakyReLU slope must be in (0,1), got {self.slope}")


@dataclass(frozen=True)
class Sigmoid:
    """1 / (1 + e^-x), kept strictly inside (0, 1)."""


@dataclass(frozen=True)
class Identity:
    """x: a plain linear layer."""


# in JSON an activation is tagged with its class name in snake case, as in
# {"kind": "leaky_relu", "slope": 0.05} (see `popgate.codec`): renaming a
# class changes the checkpoints it writes and breaks reading old ones
Activation = Elu | LeakyRelu | Sigmoid | Identity


# ---------------------------------------------------------------------------
# training loops


@dataclass(frozen=True)
class TrainConfig:
    """The settings of one mini-batch training loop: the autoencoder's and
    both fusion phases' configs extend it. The seed is not a setting: each
    trainer takes the run's seed."""

    lr: float = 1e-4
    batch_size: int = 256
    max_epochs: int = 200
    patience: int = 25
    plateau_patience: int = 10
    clip_norm: float = 1.0

    def __post_init__(self):
        for name in ("lr", "batch_size", "max_epochs", "patience", "plateau_patience", "clip_norm"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be > 0 and finite, got {value!r}")


@dataclass(frozen=True)
class AETrainConfig(TrainConfig):
    """Each audio group's loop: the shared settings, and the fraction of its
    training rows held out for early stopping."""

    val_fraction: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction!r}")


@dataclass(frozen=True)
class Phase1Config(TrainConfig):
    """Each expert's loop: the shared settings and defaults."""


@dataclass(frozen=True)
class Phase2Config(TrainConfig):
    """The gate's loop: a smaller lr and fewer epochs by default, and AdamW
    decay on fine-tuned branches unless they are frozen."""

    lr: float = 5e-6
    max_epochs: int = 150
    weight_decay: float = 0.01
    freeze_branches: bool = False

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.weight_decay < math.inf:  # NaN fails too
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay!r}")


# ---------------------------------------------------------------------------
# the fused model


@dataclass(frozen=True)
class GateConfig:
    """The gating network: the width of each expert's representation, the
    MLP's hidden widths, its LeakyReLU slope and dropout rate, and the
    standardization's eps."""

    repr_dim: int = 64
    hidden: tuple[int, ...] = (128, 64)
    slope: float = 0.05
    dropout_p: float = 0.01
    eps: float = 1e-6

    def __post_init__(self):
        if self.repr_dim < 1:
            raise ValueError(f"repr_dim must be >= 1, got {self.repr_dim}")
        if not self.hidden:
            raise ValueError("gate needs at least one hidden layer")
        if min(self.hidden) < 1:
            raise ValueError(f"hidden widths must be >= 1, got {list(self.hidden)}")
        if not 0.0 < self.slope < 1.0:  # NaN fails too
            raise ValueError(f"slope must be in (0, 1), got {self.slope!r}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p!r}")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be > 0 and finite, got {self.eps!r}")


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
        if min(self.hidden) < 1:
            raise ConfigError(f"{self.modality} branch: hidden widths must be >= 1, "
                              f"got {list(self.hidden)}")
        if not all(0.0 <= p < 1.0 for p in self.dropout):
            raise ConfigError(f"{self.modality} branch: dropout rates must be in [0, 1), "
                              f"got {list(self.dropout)}")

    @property
    def repr_dim(self) -> int:
        return self.hidden[-1]


# Full-scale expert stacks, {modality: (hidden, activation, dropout)}. Audio
# and social use a [512, 256, 128, 64] trunk; lyrics inputs are wider and
# sparser, so that branch goes one layer deeper. The social branch gets
# LeakyReLU and lighter dropout.
_DEFAULT_STACKS = {
    "audio": ((512, 256, 128, 64), Elu(0.1), (0.3, 0.2, 0.2, 0.1)),
    "lyrics": ((1024, 512, 256, 128, 64), Elu(0.1), (0.3, 0.2, 0.2, 0.1, 0.1)),
    "social": ((512, 256, 128, 64), LeakyRelu(0.05), (0.1, 0.1, 0.05, 0.0)),
}


def default_branch_config(modality: str, in_dim: int) -> BranchConfig:
    """The full-scale architecture of `modality` (see `_DEFAULT_STACKS`)."""
    if modality not in _DEFAULT_STACKS:
        raise ConfigError(f"unknown modality {modality!r}; expected one of {MODALITIES}")
    return BranchConfig(modality, in_dim, *_DEFAULT_STACKS[modality])


@dataclass(frozen=True)
class LossWeights:
    """Balance between the ensemble error and the per-branch errors."""

    lambda_final: float = 1.0
    lambda_individual: float = 0.3

    def __post_init__(self):
        for name in ("lambda_final", "lambda_individual"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be >= 0 and finite, got {value!r}")
        if self.lambda_final == 0 and self.lambda_individual == 0:
            raise ValueError("loss weights must not both be zero")


# ---------------------------------------------------------------------------
# data


@dataclass(frozen=True)
class SynthSpec:
    """A synthetic catalog: its size, the feature widths and latent rank,
    each modality's share of the target, the noise levels, and the number
    of artists and listeners."""

    n_samples: int = 1000
    dims: tuple[int, int, int] = (64, 128, 16)  # audio, lyrics, social feature widths
    latent_dim: int = 8
    coeffs: tuple[float, float, float] = (1.0, 1.0, 1.0)
    noise: float = 0.1  # target noise stdev
    feature_noise: float = 0.05  # observation noise on features
    n_artists: int = 50
    n_users: int = 400

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples")
        if any(d < 1 for d in self.dims) or self.latent_dim < 1:
            raise ValueError("dims and latent_dim must be >= 1")
        for name in ("n_artists", "n_users"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("noise", "feature_noise"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be >= 0 and finite, got {value!r}")
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError(f"coeffs must be finite, got {list(self.coeffs)}")


DEFAULT_LANGUAGES = ("en", "es", "de", "fr")  # top-4 allowlist


@dataclass(frozen=True)
class CleaningConfig:
    """The catalog filters: the first release year kept, the languages kept
    and, if given, the bounds on a lyric's length in characters."""

    min_year: int = 1960
    languages: tuple[str, ...] = DEFAULT_LANGUAGES
    lyric_bounds: tuple[int, int] | None = None  # e.g. (100, 7000) for char-length gating

    def __post_init__(self):
        if self.lyric_bounds is not None:
            lo, hi = self.lyric_bounds
            if lo <= 0 or hi <= 0 or lo >= hi:
                raise ValueError(f"lyric bounds must be positive with min < max, got {self.lyric_bounds}")


# ---------------------------------------------------------------------------
# the audio feature groups


@dataclass(frozen=True)
class FeatureGroup:
    """A named column slice of the raw audio matrix, with its own
    bottleneck width."""

    name: str
    start: int  # first column of this group's slice
    d: int  # input width
    d_enc: int  # bottleneck width

    def __post_init__(self):
        if self.d < 2:
            raise ConfigError(f"group {self.name!r}: input dim must be >= 2, got {self.d}")
        if not 1 <= self.d_enc < self.d:
            raise ConfigError(
                f"group {self.name!r}: bottleneck {self.d_enc} must be in [1, {self.d})"
            )
        if self.start < 0:
            raise ConfigError(f"group {self.name!r}: negative column start {self.start}")

    @property
    def cols(self) -> slice:
        return slice(self.start, self.start + self.d)


# Seven default groups. Input widths follow the published per-group feature
# counts; the two bottlenecks with published compression ratios are
# round(0.292*439) = 128 and round(0.114*4478) = 510, and the remaining five
# are filled proportionally to input width (largest-remainder rounding) so the
# concatenated embedding is exactly 2352 wide.
_DEFAULT_GROUPS = (
    ("small_combined", 439, 128),
    ("bow_emobase_chroma", 1000, 216),
    ("blf", 4478, 510),
    ("essentia", 1034, 223),
    ("compare_spectral", 2800, 605),
    ("compare_mfcc", 1400, 303),
    ("compare_pcm", 1700, 367),
)


def default_registry() -> tuple[FeatureGroup, ...]:
    groups = []
    start = 0
    for name, d, d_enc in _DEFAULT_GROUPS:
        groups.append(FeatureGroup(name, start, d, d_enc))
        start += d
    return tuple(groups)


def validate_registry(groups: Sequence[FeatureGroup]) -> None:
    """Slices must be pairwise disjoint; names unique."""
    names = [g.name for g in groups]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate group names in registry: {names}")
    spans = sorted((g.start, g.start + g.d, g.name) for g in groups)
    for (s1, e1, n1), (s2, e2, n2) in zip(spans, spans[1:]):
        if s2 < e1:
            raise ConfigError(f"groups {n1!r} and {n2!r} overlap: [{s1},{e1}) vs [{s2},{e2})")
