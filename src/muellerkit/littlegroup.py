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
line. ``little_element`` and ``sample_little`` share one stacked builder;
``sample_little`` draws its n directly in the ellipsoid.
"""

from collections import namedtuple

import numpy as np

from .errors import ConstraintViolation, OutOfDomain
from .lorentz import (TOL_K, ComplexParameter, MuellerMatrix, frozen,
                      mueller_from_k, unit_ok)
from .stokes import StokesVector


class LittleGroupElement(namedtuple("LittleGroupElement", "k n")):
    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # _replace runs __new__

    def __new__(cls, k, n):
        return super().__new__(cls, k, frozen(n, float, (3,)))

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


def _elements(state: StokesVector, N):
    """Stabilizer elements of the rows of the (rows, 3) block N, which is
    made read-only so that each element views its row. Raises for the
    first row that is not admissible: OutOfDomain where n0^2 < 0,
    ConstraintViolation where k is off the unit surface."""
    n0_sq, K, ok = _little_stack(state, N)
    if not ok.all():
        bad = n0_sq[np.argmin(ok)]  # of the first row not admissible
        if bad < 0.0:
            raise OutOfDomain(f"n0^2 = {bad:.3e} < 0: n outside the "
                              "admissible region of this state")
        raise ConstraintViolation("k0^2 - k^2 = 1 violated")
    K.setflags(write=False)
    N.setflags(write=False)
    return [LittleGroupElement(k=ComplexParameter(k), n=n)
            for k, n in zip(K, N)]


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
    d1, d2, d3 = d = state.direction

    t = rng.uniform(-1.0, 1.0)
    g1, g2, g3 = rng.standard_normal((count - 1, 3)).T
    r = rng.random((count - 1, 3)).max(axis=1)
    s = r / np.sqrt(g1 * g1 + g2 * g2 + g3 * g3)
    x1, x2, x3 = g1 * s, g2 * s, g3 * s
    a = (1.0 - c) * (x1 * d1 + x2 * d2 + x3 * d3)
    N = np.column_stack((c * x1 + a * d1, c * x2 + a * d2, c * x3 + a * d3))
    return _elements(state, np.vstack((t * d, N)))
