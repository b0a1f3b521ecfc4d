"""Little group of a Stokes 4-vector.

The stabilizer of a state (s0, s) with unit direction p = s / |s| and
degree p = |s| / s0 consists of the devices whose real-split parameters
satisfy m = n x p and

    n0 = + sqrt(1 - n^2 (1 - p_deg^2) - (n . p)^2),   m0 = -(n . m) / n0.

Since n.m = n.(n x p) = 0, m0 = 0 and the two parameter constraints
reduce to the single square root above, which also covers the null
(fully polarized, p_deg = 1) case. Each n in the admissible region, the
ellipsoid with semi-axis 1 along p and 1 / sqrt(1 - p_deg^2) across it,
gives one stabilizer element; the pure rotations about p are the n = t p
line. ``little_element`` and ``sample_little`` share one builder on whole
rows of a block of n; its elements view frozen copies of that block and
of the block of k. ``sample_little`` draws its n directly in the ellipsoid.
"""

from collections import namedtuple

import numpy as np

from .errors import ConstraintViolation, OutOfDomain
from .lorentz import (TOL_K, ComplexParameter, MuellerMatrix, mueller_from_k,
                      records, unit_ok)
from .stokes import StokesVector, frozen


class LittleGroupElement(namedtuple("LittleGroupElement", "k n")):
    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # _replace runs __new__

    def __new__(cls, k, n):
        return super().__new__(cls, k, frozen(n, float, (3,)))

    def matrix(self) -> MuellerMatrix:
        return mueller_from_k(self.k)


# m = n x p row by row: m_i = n_(i+1) p_(i+2) - n_(i+2) p_(i+1)
_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


@np.errstate(invalid="ignore", over="ignore")
def _little_stack(state: StokesVector, N):
    """n0^2, k (rows, 4) and the admissible mask of a (rows, 3) block of n:
    n0^2 >= 0 and ``unit_ok(k, TOL_K)`` (the rule of ``k_from_nm``).
    Every step works on whole rows, so each row is rounded the same way
    at any block size. A non-finite n raises no floating-point warning."""
    p_deg = state.degree
    p = p_deg * state.direction
    n_p = np.vecdot(N, p)
    n0_sq = 1.0 - np.vecdot(N, N) * (1.0 - p_deg * p_deg) - n_p * n_p
    K = np.empty((len(N), 4), complex)
    K[:, 0] = np.sqrt(np.maximum(n0_sq, 0.0))
    K.real[:, 1:] = (N.take(_NEXT, axis=1) * p.take(_AFTER)
                     - N.take(_AFTER, axis=1) * p.take(_NEXT))
    np.subtract(0.0, N, out=K.imag[:, 1:])  # -n; a zero n gives +0
    return n0_sq, K, (n0_sq >= 0.0) & unit_ok(K, TOL_K)


def _elements(state: StokesVector, N):
    """Stabilizer elements of the rows of the (rows, 3) block N; each
    element views its rows of two read-only blocks (``records``). Raises
    for the first row that is not admissible: OutOfDomain where n0^2 < 0,
    ConstraintViolation where k is off the unit surface."""
    n0_sq, K, ok = _little_stack(state, N)
    if not ok.all():
        bad = n0_sq[np.argmin(ok)]  # of the first row not admissible
        if bad < 0.0:
            raise OutOfDomain(f"n0^2 = {bad:.3e} < 0: n outside the "
                              "admissible region of this state")
        raise ConstraintViolation("k0^2 - k^2 = 1 violated")
    return records(LittleGroupElement, records(ComplexParameter, K), N)


def little_element(state: StokesVector, n) -> LittleGroupElement:
    """Stabilizer element of `state` generated by the 3-vector n."""
    return _elements(state, np.asarray(n, float).reshape(1, 3))[0]


def sample_little(state: StokesVector, count, seed=None, rng=None):
    """`count` (>= 0) stabilizer elements, deterministically for a fixed seed.

    The first element is n = t * p_hat, t uniform in [-1, 1), so that the
    rotational subgroup is always represented. The others are uniform in
    the ellipsoid with semi-axis 1 along p_hat and c across it: the
    admissible region, c = 1 / sqrt(1 - p_deg^2), with c capped at 10 once
    1 - p_deg^2 <= 1e-2 (which covers p_deg = 1 and the round-off above 1
    that ``StokesVector`` admits). Each is a uniform point x of the unit
    ball, a Gaussian direction g / |g| times a radius with the law of
    U^(1/3) (the largest of three uniforms, which needs no cube root),
    stretched across p_hat: n = c x + (1 - c) (x . p_hat) p_hat.

    Draw order: t = rng.uniform(-1, 1), the (count - 1, 3) normals g, then
    the (count - 1, 3) radius uniforms, each row by row; a caller-supplied
    `rng` is left after exactly these draws. A row that is not admissible
    raises as ``little_element`` does for it.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return []
    if rng is None:
        rng = np.random.default_rng(seed)
    q = 1.0 - state.degree * state.degree
    c = 10.0 if q <= 1e-2 else 1.0 / np.sqrt(q)
    d = state.direction

    N = np.empty((count, 3))
    N[0] = rng.uniform(-1.0, 1.0) * d
    G = rng.standard_normal((count - 1, 3))
    r = rng.random((count - 1, 3)).max(axis=1)
    # a row sum of three adds left to right: the bits of g1 g1 + g2 g2 + g3 g3
    X = G * (r / np.sqrt((G * G).sum(axis=1)))[:, None]
    N[1:] = c * X + ((1.0 - c) * (X * d).sum(axis=1))[:, None] * d
    return _elements(state, N)
