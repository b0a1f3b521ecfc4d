"""The factorized Mueller product L = A(k) conj(A(k)), one numpy kernel.

The complex 4x4 factor matrix of k = (k0, k1, k2, k3) is

    [  k0  -k1   -k2   -k3 ]
    [ -k1   k0  -ik3   ik2 ]
    [ -k2  ik3    k0  -ik1 ]
    [ -k3 -ik2   ik1    k0 ]

built by index: entry (i, j) is COEF[i, j] * k[SOURCE[i, j]]. The kernel
works on any stack of parameters, shape (..., 4).
"""

import numpy as np

# perfbench/run.py reads this for its context line; no compiled path exists.
HAS_NUMBA = False

SOURCE = np.array([[0, 1, 2, 3],
                   [1, 0, 3, 2],
                   [2, 3, 0, 1],
                   [3, 2, 1, 0]])
COEF = np.array([[1, -1, -1, -1],
                 [-1, 1, -1j, 1j],
                 [-1, 1j, 1, -1j],
                 [-1, -1j, 1j, 1]])


def mueller_product(K):
    """Real part (..., 4, 4) and max |imag| (...) of A(k) @ conj(A(k))
    for a complex parameter stack K of shape (..., 4).

    One k of shape (4,) gives one 4x4 matrix and a scalar.
    """
    A = np.asarray(K, complex)[..., SOURCE] * COEF
    L = A @ A.conj()
    return L.real, np.abs(L.imag).max(axis=(-2, -1))
