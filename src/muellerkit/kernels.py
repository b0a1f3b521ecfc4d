"""The factorized Mueller product L = A(k) conj(A(k)), and its action on
Stokes vectors, as numpy kernels.

The complex 4x4 factor matrix of k = (k0, k1, k2, k3) is

    [  k0  -k1   -k2   -k3 ]
    [ -k1   k0  -ik3   ik2 ]
    [ -k2  ik3    k0  -ik1 ]
    [ -k3 -ik2   ik1    k0 ]

built by index: entry (i, j) is COEF[i, j] * k[SOURCE[i, j]]. Both
kernels work on any stack of parameters, shape (..., 4). Every entry of
A(k) conj(A(k)) is a sum of conjugate pairs, so the product is real for
any complex k; its imaginary part is round-off and is dropped.
``mueller_apply`` gives L(k) v without forming L: two stacked
matrix-vector products with the factor, conj(A) v and then A times that.
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
    """A(k) @ conj(A(k)), real, shape (..., 4, 4), for a complex parameter
    stack K of shape (..., 4); one k of shape (4,) gives one 4x4 matrix."""
    A = np.asarray(K, complex)[..., SOURCE] * COEF
    return (A @ A.conj()).real


def mueller_apply(K, v):
    """L(k) v = A(k) (conj(A(k)) v), real, shape (..., 4), for a complex
    parameter stack K (..., 4) and real 4-vectors v (..., 4), the leading
    axes broadcast; it equals mueller_product(K) @ v up to round-off."""
    A = np.asarray(K, complex)[..., SOURCE] * COEF
    w = A.conj() @ np.asarray(v, float)[..., None]
    return (A @ w)[..., 0].real
