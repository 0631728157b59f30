import os

# before numpy loads (neither pytest nor its plugins load it): OpenBLAS reads
# these once, when it loads, so the test process runs one BLAS thread, as
# every CLI process does, and computes the bytes they compute
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402


@pytest.fixture(autouse=True)
def _isolated_popgate_env(monkeypatch):
    """Keep ambient POPGATE_* variables from leaking into CLI tests."""
    for var in ("POPGATE_CONFIG", "POPGATE_SEED", "POPGATE_WORKSPACE"):
        monkeypatch.delenv(var, raising=False)
