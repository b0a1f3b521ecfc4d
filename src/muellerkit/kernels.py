"""The factorized Mueller product L = A(k) conj(A(k)) as one real matmul.

The complex 4x4 factor matrix of k = (k0, k1, k2, k3) is

    [  k0  -k1   -k2   -k3 ]
    [ -k1   k0  -ik3   ik2 ]
    [ -k2  ik3    k0  -ik1 ]
    [ -k3 -ik2   ik1    k0 ]

entry (i, j) being COEF[i, j] * k[SOURCE[i, j]]. L is a real quadratic form
in v = (Re k0, Im k0, ..., Re k3, Im k3): vec(L) = kron(v, v) @ W, a 64x16
W of 128 entries +-1, W^T W = 8 I: vec(L) @ W^T / 8 is k k^H / 2 in real form.
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
# A(k) = sum_p v_p C[p], C[2i] = dA/dk_i, C[2i + 1] = i dA/dk_i; Im of
# C[p] conj(C[q]) is antisymmetric in (p, q). Column-major W makes each entry
# of L a dot product, the summation order that measured more accurate
_C = np.einsum("ip,iab->pab", np.kron(np.eye(4), [1, 1j]),
               COEF * (SOURCE == np.arange(4)[:, None, None]))
W = np.einsum("pac,qcb->pqab", _C, _C.conj()).real.reshape(64, 16).copy("F")


def mueller_product(K):
    """A(k) @ conj(A(k)), C-contiguous (..., 4, 4), for K (..., 4): each k is
    its own (1, 64) row times W, as one k alone is, so stacks round alike."""
    v = np.ascontiguousarray(K, complex).view(float)
    vv = (v[..., :, None] * v[..., None, :]).reshape(*v.shape[:-1], 1, 64)
    return (vv @ W).reshape(*v.shape[:-1], 4, 4)
