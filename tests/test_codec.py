"""The one JSON codec: the bytes each persisted dataclass writes are pinned,
and decoding names the key it rejects."""

import json

import numpy as np
import pytest

from popgate.autoenc import registry_hash
from popgate.codec import from_json, to_json
from popgate.config import (Activation, BranchConfig, Elu, FeatureGroup, GateConfig, Identity,
                            LeakyRelu, LossWeights, Sigmoid)
from popgate.data import ScalerParams
from popgate.exceptions import ConfigError
from popgate.metrics import GateReport, MetricsReport
from popgate.nn import DenseLayerSpec

_BRANCH = ('"batchnorm": true, "dropout": [0.1, 0.05], "hidden": [8, 4], "in_dim": 12, '
           '"modality": "audio"}')
_REGISTRY = (FeatureGroup("aud", 0, 12, 4), FeatureGroup("b", 12, 6, 2))
_MEANS = {"audio": 0.5, "lyrics": 0.25, "social": 0.25}
_MEANS_JSON = '{"audio": 0.5, "lyrics": 0.25, "social": 0.25}'

# (instance, json.dumps(to_json(instance), sort_keys=True)) as the per-class
# encoders wrote it before the codec replaced them; artifacts depend on it
PINNED = [
    (BranchConfig("audio", 12, (8, 4), Elu(0.1), (0.1, 0.05)),
     '{"activation": {"alpha": 0.1, "kind": "elu"}, ' + _BRANCH),
    (BranchConfig("audio", 12, (8, 4), LeakyRelu(0.05), (0.1, 0.05)),
     '{"activation": {"kind": "leaky_relu", "slope": 0.05}, ' + _BRANCH),
    (BranchConfig("audio", 12, (8, 4), Sigmoid(), (0.1, 0.05)),
     '{"activation": {"kind": "sigmoid"}, ' + _BRANCH),
    (BranchConfig("audio", 12, (8, 4), Identity(), (0.1, 0.05)),
     '{"activation": {"kind": "identity"}, ' + _BRANCH),
    (GateConfig(repr_dim=4, hidden=(8,)),
     '{"dropout_p": 0.01, "eps": 1e-06, "hidden": [8], "repr_dim": 4, "slope": 0.05}'),
    (LossWeights(1.0, 0.3), '{"lambda_final": 1.0, "lambda_individual": 0.3}'),
    (ScalerParams("zscore", np.array([0.5, 2.0]), np.array([1.5, 1.0]), np.array([False, True])),
     '{"center": [0.5, 2.0], "degenerate": [false, true], "k": 1.0, "kind": "zscore", '
     '"scale": [1.5, 1.0]}'),
    (MetricsReport(0.75, 0.5, 0.25, 0.25, 4),
     '{"constant_target": false, "mae": 0.5, "mse": 0.25, "n": 4, "r2": 0.75, "relmse": 0.25}'),
    (MetricsReport(float("nan"), 0.5, 0.5, float("nan"), 2, True),
     '{"constant_target": true, "mae": 0.5, "mse": 0.5, "n": 2, "r2": NaN, "relmse": NaN}'),
    (DenseLayerSpec(3, 2, LeakyRelu(0.05), batchnorm=True, dropout_p=0.1),
     '{"activation": {"kind": "leaky_relu", "slope": 0.05}, "batchnorm": true, '
     '"dropout_p": 0.1, "in_dim": 3, "out_dim": 2}'),
    (_REGISTRY, '[{"d": 12, "d_enc": 4, "name": "aud", "start": 0}, '
                '{"d": 6, "d_enc": 2, "name": "b", "start": 12}]'),
    # a field that holds None is left out
    (GateReport(4, _MEANS, {"1990s": _MEANS}),
     f'{{"groups": {{"1990s": {_MEANS_JSON}}}, "means": {_MEANS_JSON}, "n": 4}}'),
    (GateReport(4, _MEANS, None), f'{{"means": {_MEANS_JSON}, "n": 4}}'),
]


PINNED_IDS = ["branch-elu", "branch-leaky_relu", "branch-sigmoid", "branch-identity", "gate",
              "loss_weights", "scaler", "metrics", "metrics-constant_target", "layer_spec",
              "registry", "gate_report-groups", "gate_report-no_groups"]


@pytest.mark.parametrize("obj,expected", PINNED, ids=PINNED_IDS)
def test_pinned_bytes(obj, expected):
    assert json.dumps(to_json(obj), sort_keys=True) == expected


def test_registry_hash_is_pinned():
    assert registry_hash(_REGISTRY) == (
        "c5c384b75307df6d28c357f5ed6565d52a25b14415559a1e2d52170b6d451f3a")


def test_activation_takes_only_its_kinds_fields():
    with pytest.raises(ConfigError, match=r"unknown key 'act\.slope'"):
        from_json(Activation, {"kind": "elu", "slope": 0.2}, "act")

