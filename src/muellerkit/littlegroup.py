"""Little group of a Stokes 4-vector.

The stabilizer of a state (s0, s) with unit direction p = s / |s| and
degree p = |s| / s0 consists of the devices whose real-split parameters
satisfy m = n x p and

    n0 = + sqrt(1 - n^2 (1 - p_deg^2) - (n . p)^2),   m0 = -(n . m) / n0.

Since n.m = n.(n x p) = 0, m0 = 0 and the two parameter constraints
reduce to the single square root above, which also covers the null
(fully polarized, p_deg = 1) case. Each valid n in the admissible region
gives one stabilizer element; the subgroup of pure rotations about p is
the n = t p line.

One stacked core maps a block of n to elements: ``little_element`` is its
one-row case, ``sample_little`` draws n in blocks (see its docstring).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation, OutOfDomain
from .lorentz import (TOL_K, ComplexParameter, MuellerMatrix, frozen,
                      mueller_from_k, unit_ok)
from .stokes import StokesVector

R_EPS = 1e-12  # keeps the sampling box finite for fully polarized states


@dataclass(frozen=True)
class LittleGroupElement:
    k: ComplexParameter
    n: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", frozen(self.n, float, (3,)))

    def matrix(self) -> MuellerMatrix:
        return mueller_from_k(self.k)


@np.errstate(invalid="ignore", over="ignore")
def _little_stack(state: StokesVector, N):
    """n0^2, k (rows, 4) and the admissible mask of a (rows, 3) block of n:
    n0^2 >= 0 and ``unit_ok(k, TOL_K)`` (the rule of ``k_from_nm``).
    Elementwise column arithmetic rounds every row the same way at any
    block size. A non-finite n raises no floating-point warning."""
    p_deg = state.degree
    p1, p2, p3 = p_deg * state.direction
    n1, n2, n3 = N.T
    m1, m2, m3 = n2 * p3 - n3 * p2, n3 * p1 - n1 * p3, n1 * p2 - n2 * p1
    nn = n1 * n1 + n2 * n2 + n3 * n3
    n_p = n1 * p1 + n2 * p2 + n3 * p3
    n0_sq = 1.0 - nn * (1.0 - p_deg * p_deg) - n_p * n_p
    n0 = np.sqrt(np.maximum(n0_sq, 0.0))
    K = np.column_stack((n0, m1 - 1j * n1, m2 - 1j * n2, m3 - 1j * n3))
    return n0_sq, K, (n0_sq >= 0.0) & unit_ok(K, TOL_K)


def _require_admissible(n0_sq, ok):
    """Raise for a row of ``_little_stack`` that is not admissible."""
    if n0_sq < 0.0:
        raise OutOfDomain(f"n0^2 = {n0_sq:.3e} < 0: n outside the admissible "
                          "region for this degree of polarization")
    if not ok:
        raise ConstraintViolation("k0^2 - k^2 = 1 violated")


def little_element(state: StokesVector, n) -> LittleGroupElement:
    """Stabilizer element of `state` generated by the 3-vector n."""
    n0_sq, K, ok = _little_stack(state, np.asarray(n, float).reshape(1, 3))
    _require_admissible(n0_sq[0], ok[0])
    return LittleGroupElement(k=ComplexParameter(K[0]), n=n)


def sample_little(state: StokesVector, count, seed=None, rng=None):
    """`count` (>= 0) stabilizer elements, deterministically for a fixed seed.

    n is rejection-sampled in the box [-R, R]^3 with
    R = min(1 / sqrt(1 - p_deg^2 + R_EPS), 10). Unclipped, the box holds
    the admissible region for every degree of polarization; the clip keeps
    rejection efficient as p_deg -> 1, where the region becomes an
    unbounded slab, so every element is a member but the tails are not
    covered. The first element is n = t * p_hat, t drawn first, so that
    the rotational subgroup is always represented.

    n is drawn in blocks of at least 64, the first one headed by the row
    t * p_hat, and the first admissible rows are kept in draw order, as one
    draw at a time would keep them; OutOfDomain is raised after
    1000 * count draws. A caller-supplied `rng` is left at the end of the
    last block, not after the last draw used.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return []
    if rng is None:
        rng = np.random.default_rng(seed)
    p_deg = state.degree
    R = min(1.0 / np.sqrt(max(1.0 - p_deg * p_deg, 0.0) + R_EPS), 10.0)

    N = (rng.uniform(-1.0, 1.0) * state.direction)[None]  # t * p_hat
    out, budget = [], 1000 * count
    while len(out) < count:
        need = count - len(out) - len(N)
        if need > 0:
            if budget <= 0:
                raise OutOfDomain("rejection sampling budget exhausted")
            block = rng.uniform(-R, R, (min(budget, max(64, 4 * need)), 3))
            budget -= len(block)
            N = np.concatenate((N, block))
        n0_sq, K, ok = _little_stack(state, N)
        if not out:
            _require_admissible(n0_sq[0], ok[0])
        K, N = K[ok], N[ok]
        K.setflags(write=False)  # read-only, so the elements view their rows
        N.setflags(write=False)
        out += [LittleGroupElement(k=ComplexParameter(k), n=n)
                for k, n in zip(K[:count - len(out)], N)]
        N = N[:0]
    return out
