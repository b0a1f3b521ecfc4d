"""The factorized Mueller product A(k) conj(A(k)), with optional numba
acceleration.

Each kernel exists twice: a pure-numpy reference (`*_py`) and, when numba
is importable and not disabled, an ``@njit`` compiled twin. Set
``MUELLERKIT_DISABLE_NUMBA=1`` to force the numpy path (useful on platforms
where numba is unavailable). Both paths perform the identical arithmetic,
so results are bit-equal.
"""

import os

import numpy as np

DISABLE_NUMBA = os.environ.get("MUELLERKIT_DISABLE_NUMBA", "") in ("1", "true", "yes")


def factor_matrix_py(kre, kim):
    """Build the complex 4x4 factor matrix from parameter (k0, k1, k2, k3).

    Layout (row-major)::

        [  k0  -k1   -k2   -k3 ]
        [ -k1   k0  -ik3   ik2 ]
        [ -k2  ik3    k0  -ik1 ]
        [ -k3 -ik2   ik1    k0 ]
    """
    k0 = kre[0] + 1j * kim[0]
    k1 = kre[1] + 1j * kim[1]
    k2 = kre[2] + 1j * kim[2]
    k3 = kre[3] + 1j * kim[3]
    A = np.empty((4, 4), np.complex128)
    A[0, 0] = k0
    A[0, 1] = -k1
    A[0, 2] = -k2
    A[0, 3] = -k3
    A[1, 0] = -k1
    A[1, 1] = k0
    A[1, 2] = -1j * k3
    A[1, 3] = 1j * k2
    A[2, 0] = -k2
    A[2, 1] = 1j * k3
    A[2, 2] = k0
    A[2, 3] = -1j * k1
    A[3, 0] = -k3
    A[3, 1] = -1j * k2
    A[3, 2] = 1j * k1
    A[3, 3] = k0
    return A


def mueller_product_py(kre, kim):
    """Real part and max |imag| of A(k) @ conj(A(k))."""
    # A is rebuilt inline (not via factor_matrix_py) so numba can compile
    # this function standalone.
    k0 = kre[0] + 1j * kim[0]
    k1 = kre[1] + 1j * kim[1]
    k2 = kre[2] + 1j * kim[2]
    k3 = kre[3] + 1j * kim[3]
    A = np.empty((4, 4), np.complex128)
    A[0, 0] = k0
    A[0, 1] = -k1
    A[0, 2] = -k2
    A[0, 3] = -k3
    A[1, 0] = -k1
    A[1, 1] = k0
    A[1, 2] = -1j * k3
    A[1, 3] = 1j * k2
    A[2, 0] = -k2
    A[2, 1] = 1j * k3
    A[2, 2] = k0
    A[2, 3] = -1j * k1
    A[3, 0] = -k3
    A[3, 1] = -1j * k2
    A[3, 2] = 1j * k1
    A[3, 3] = k0
    As = np.conj(A)
    L = np.zeros((4, 4), np.complex128)
    for i in range(4):
        for j in range(4):
            acc = 0.0 + 0.0j
            for m in range(4):
                acc += A[i, m] * As[m, j]
            L[i, j] = acc
    max_im = 0.0
    for i in range(4):
        for j in range(4):
            v = abs(L[i, j].imag)
            if v > max_im:
                max_im = v
    return L.real.copy(), max_im


if DISABLE_NUMBA:
    HAS_NUMBA = False
else:
    try:
        import numba

        HAS_NUMBA = True
    except ImportError:
        HAS_NUMBA = False

if HAS_NUMBA:
    _jit = numba.njit(cache=True)
    factor_matrix_jit = _jit(factor_matrix_py)
    mueller_product_jit = _jit(mueller_product_py)
    factor_matrix = factor_matrix_jit
    mueller_product = mueller_product_jit
else:
    factor_matrix = factor_matrix_py
    mueller_product = mueller_product_py
