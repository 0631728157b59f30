import pytest


@pytest.fixture(autouse=True)
def _isolated_popgate_env(monkeypatch):
    """Keep ambient POPGATE_* variables from leaking into CLI tests."""
    for var in ("POPGATE_CONFIG", "POPGATE_SEED", "POPGATE_WORKSPACE"):
        monkeypatch.delenv(var, raising=False)
