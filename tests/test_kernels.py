import numpy as np
import pytest

from muellerkit import kernels


def test_python_and_compiled_paths_agree():
    if not kernels.HAS_NUMBA:
        pytest.skip("numba disabled or unavailable")
    rng = np.random.default_rng(0)
    for _ in range(50):
        kre = rng.normal(size=4)
        kim = rng.normal(size=4)
        Lp, imp = kernels.mueller_product_py(kre, kim)
        Lj, imj = kernels.mueller_product_jit(kre, kim)
        assert np.all(Lp == Lj) and imp == imj
        Ap = kernels.factor_matrix_py(kre, kim)
        Aj = kernels.factor_matrix_jit(kre, kim)
        assert np.all(Ap == Aj)


def test_disable_flag_selects_python_path(monkeypatch):
    import importlib
    import subprocess
    import sys
    code = ("import os; os.environ['MUELLERKIT_DISABLE_NUMBA']='1'; "
            "from muellerkit import kernels; "
            "assert kernels.mueller_product is kernels.mueller_product_py; "
            "assert not kernels.HAS_NUMBA; print('ok')")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0 and "ok" in out.stdout
