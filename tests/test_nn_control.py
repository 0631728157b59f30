"""Early stopping and plateau LR scheduling traces, and the shared loop settings."""

from dataclasses import asdict

import pytest

from popgate.config import AETrainConfig, Phase1Config, Phase2Config, TrainConfig
from popgate.nn.control import TrainControl


def test_early_stop_on_constant_metric():
    ctl = TrainControl(lr=0.1, patience=3, plateau_patience=100)
    ctl.update(1.0)  # epoch 0: improves over inf
    assert ctl.improved and ctl.best_epoch == 0
    for _ in range(2):
        ctl.update(1.0)
        assert not ctl.should_stop
    ctl.update(1.0)  # third stalled epoch hits patience
    assert ctl.should_stop
    assert ctl.best_metric == 1.0
    assert ctl.best_epoch == 0


def test_tiny_decreases_do_not_count_as_improvement():
    ctl = TrainControl(lr=0.1, patience=2, plateau_patience=100)
    val = 1.0
    ctl.update(val)
    val -= 1e-12  # within tolerance: stalled
    ctl.update(val)
    val -= 1e-12
    ctl.update(val)
    assert ctl.should_stop
    assert ctl.best_epoch == 0


def test_improvement_resets_counter():
    ctl = TrainControl(lr=0.1, patience=2, plateau_patience=100)
    for v in [1.0, 1.0, 0.5, 0.5]:
        ctl.update(v)
    assert not ctl.should_stop  # counter reset at 0.5
    ctl.update(0.5)
    assert ctl.should_stop
    assert ctl.best_metric == 0.5
    assert ctl.best_epoch == 2


def test_plateau_reduces_lr_once_per_window():
    ctl = TrainControl(lr=0.1, patience=100, plateau_patience=2)
    ctl.update(1.0)
    assert ctl.update(1.0) == 0.1  # wait 1
    assert ctl.update(1.0) == 0.05  # wait 2 -> cut, reset
    assert ctl.update(1.0) == 0.05  # wait 1 again
    assert ctl.update(1.0) == 0.025
    assert ctl.num_reductions == 2


def test_flat_metric_for_patience_epochs_gives_exactly_one_cut():
    ctl = TrainControl(lr=0.1, patience=100, plateau_patience=10)
    ctl.update(1.0)
    for _ in range(10):
        lr = ctl.update(1.0)
    assert lr == 0.05
    assert ctl.num_reductions == 1


def test_lr_floors_at_min_lr():
    ctl = TrainControl(lr=2e-7, patience=100, plateau_patience=1)
    ctl.update(1.0)
    assert ctl.update(1.0) == 1e-7
    assert ctl.num_reductions == 1
    assert ctl.update(1.0) == 1e-7  # already at floor: no further change
    assert ctl.num_reductions == 1


def test_improvement_resets_plateau_wait():
    ctl = TrainControl(lr=0.1, patience=100, plateau_patience=2)
    ctl.update(1.0)
    ctl.update(1.0)  # wait 1
    ctl.update(0.5)  # improvement clears wait
    ctl.update(0.5)  # wait 1
    assert ctl.lr == 0.1
    ctl.update(0.5)  # wait 2 -> cut
    assert ctl.lr == 0.05


def test_update_after_stop_raises():
    ctl = TrainControl(lr=0.1, patience=1, plateau_patience=100)
    ctl.update(1.0)
    ctl.update(1.0)
    assert ctl.should_stop
    with pytest.raises(RuntimeError):
        ctl.update(1.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        TrainControl(lr=0.1, patience=0)


LOOP_FIELDS = ("lr", "batch_size", "max_epochs", "patience", "plateau_patience", "clip_norm")


@pytest.mark.parametrize("name", LOOP_FIELDS)
@pytest.mark.parametrize("value", [0, -1, float("nan")])
def test_train_config_rejects_non_positive_setting(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be > 0"):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("cls", [AETrainConfig, Phase1Config, Phase2Config])
def test_every_trainer_config_keeps_the_shared_check(cls):
    for name in LOOP_FIELDS:
        with pytest.raises(ValueError, match=f"^{name} must be > 0"):
            cls(**{name: 0})


@pytest.mark.parametrize("value", [0.0, 1.0, -0.5])
def test_ae_val_fraction_must_be_a_fraction(value):
    with pytest.raises(ValueError, match="^val_fraction must be in"):
        AETrainConfig(val_fraction=value)


def test_loop_config_defaults():
    shared = {"lr": 1e-4, "batch_size": 256, "max_epochs": 200, "patience": 25,
              "plateau_patience": 10, "clip_norm": 1.0}
    assert asdict(TrainConfig()) == asdict(Phase1Config()) == shared
    assert asdict(AETrainConfig()) == {**shared, "val_fraction": 0.1}
    assert asdict(Phase2Config()) == {**shared, "lr": 5e-6, "max_epochs": 150,
                                      "weight_decay": 0.01, "freeze_branches": False}
    control = TrainControl.from_config(Phase2Config(patience=7, plateau_patience=3))
    assert (control.lr, control.patience, control.plateau_patience) == (5e-6, 7, 3)
