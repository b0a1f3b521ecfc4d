"""Rotation-only Mueller devices.

A device with s0' = s0 acts as a 3-rotation on the polarization vector.
One measurement (S -> S') leaves a one-parameter family of rotations,
parametrized by an angle Gamma:

    alpha = sin(Gamma) / sqrt(2 (S^2 + S.S'))
    beta  = cos(Gamma) / (S sqrt(2 (S^2 + S.S')))
    n0 = beta (S^2 + S.S'),   n = alpha (S + S') + beta (S x S')

with n0^2 + n^2 = 1; Gamma + pi negates (n0, n), which is the same device
(double cover). Two independent measurements fix the device:
``solve_two_3d`` finds (n0, n) in closed form from the Gibbs vector
c = n / n0 and reads Gamma back on the first pair's family.

The arithmetic is on 3-vectors, so it is done in Python floats: each
vector is read once as floats and |S| once from ``StokesVector.smag``.
"""

import math
from collections import namedtuple

import numpy as np

from . import kernels
from .errors import (AntipodalInput, DegenerateGeometry, HalfTurn,
                     InconsistentPairs, LengthMismatch)
from .lorentz import (MuellerMatrix, RealParameter, k_from_nm,
                      mueller_from_k, TOL_K)
from .stokes import MeasurementPair, cross3, frozen

TOL_CONS = 1e-8
TOL_DEG = 1e-12
TOL_LEN = 1e-9   # relative s0' - s0 and |S'| - |S| of a rotation pair
TOL_MAP = 1e-7   # residual of the solved device on both unit pairs


class Family3DSolution(namedtuple(
        "Family3DSolution", "gamma alpha beta n0 n")):
    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # _replace runs __new__

    def __new__(cls, gamma, alpha, beta, n0, n):
        return super().__new__(cls, gamma, alpha, beta, n0,
                               frozen(n, float, (3,)))

    def real_parameter(self) -> RealParameter:
        return RealParameter(n0=self.n0, n=self.n, m0=0.0, m=np.zeros(3))

    def matrix(self) -> MuellerMatrix:
        return mueller_from_k(k_from_nm(self.real_parameter()))


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _rotation_floats(p: MeasurementPair):
    """(S, S', |S|, |S'|) of a rotation pair, the vectors as float lists:
    the one reader of a rotation pair. LengthMismatch unless s0' = s0 and
    |S'| = |S|, each within TOL_LEN of the larger of the two; then
    DegenerateGeometry where S = 0, which has no direction."""
    s0, t0 = p.input.s0, p.output.s0
    if abs(t0 - s0) > TOL_LEN * max(s0, t0):
        raise LengthMismatch(f"s0 = {s0} vs s0' = {t0}")
    smag, spmag = p.input.smag, p.output.smag
    if abs(smag - spmag) > TOL_LEN * max(smag, spmag):
        raise LengthMismatch(f"|S| = {smag} vs |S'| = {spmag}")
    if smag == 0.0:
        raise DegenerateGeometry("zero polarization vector: no direction")
    return p.input.s.tolist(), p.output.s.tolist(), smag, spmag


def _family_denom(s, sp, smag):
    """S^2 + S.S', which must not vanish for the family to be defined:
    scale-free, 1 + N.N' > TOL_DEG, so |S| << 1 is not antipodal."""
    denom = smag * smag + _dot(s, sp)
    if denom <= TOL_DEG * (smag * smag):
        raise AntipodalInput(
            "S' antipodal to S: family parametrization singular "
            "(solutions are half-turns about axes perpendicular to S)")
    return denom


def _member(s, sp, smag, gamma):
    """(alpha, beta, n0, n) of the family member of (S, S') at `gamma`,
    in floats."""
    denom = _family_denom(s, sp, smag)
    root = math.sqrt(2.0 * denom)
    alpha = math.sin(gamma) / root
    beta = math.cos(gamma) / (smag * root)
    n0 = beta * denom
    n = [alpha * (a + b) + beta * c for a, b, c in zip(s, sp, cross3(s, sp))]
    # n0^2 + n^2 = 1 holds exactly; in floating point it drifts by about
    # eps / denom, so near-antipodal pairs are put back on the unit sphere.
    norm = math.sqrt(n0 * n0 + _dot(n, n))
    return alpha, beta, n0 / norm, [x / norm for x in n]


def family_3d(p: MeasurementPair, gamma: float) -> Family3DSolution:
    """One-measurement rotation family at angle `gamma`."""
    s, sp, smag, _ = _rotation_floats(p)
    return Family3DSolution(float(gamma), *_member(s, sp, smag, gamma))


def gibbs_3d(p: MeasurementPair, gamma: float) -> np.ndarray:
    """Gibbs rotation vector c = n / n0 of the family member at `gamma`."""
    s, sp, smag, _ = _rotation_floats(p)
    denom = _family_denom(s, sp, smag)
    if abs(math.cos(gamma)) <= TOL_K:
        raise HalfTurn("n0 = 0: Gibbs vector undefined")
    t = math.tan(gamma) * smag
    return np.array([(t * (a + b) + c) / denom
                     for a, b, c in zip(s, sp, cross3(s, sp))])


def _unit_pair(p: MeasurementPair):
    s, sp, smag, spmag = _rotation_floats(p)
    return [x / smag for x in s], [x / spmag for x in sp]


def solve_two_3d(p1: MeasurementPair, p2: MeasurementPair,
                 tol_cons=TOL_CONS) -> Family3DSolution:
    """Unique rotation device from two independent measurements.

    A rotation keeps N1.N2: InconsistentPairs where |N1.N2 - N1'.N2'| >
    tol_cons max(1, |N1.N2|), and DegenerateGeometry for parallel probes,
    |N1 x N2| <= TOL_DEG. Each frame vector v of (N1, N2, N1 x N2) and its
    image v' obey d = c x s, with d = v' - v and s = v' + v, for the Gibbs
    vector c = n / n0 (Rodrigues). So any two of them give (n0, n)
    proportional to (s_i.d_j, -d_i x d_j). The longest of the three is
    normalized with its first nonzero entry positive (n0 >= 0, and where
    n0 = 0 the first nonzero n_j > 0); all zero is the identity. The third
    vector resolves probes on or coplanar with the axis, and nothing is
    divided by n0, so half-turns need no branch either. The device must
    map both unit pairs within TOL_MAP, else InconsistentPairs. Gamma,
    alpha and beta are read back on the first pair's family, so
    cos(Gamma) = n0 sqrt(2 / (1 + N1.N1')) >= 0; AntipodalInput where that
    pair is antipodal.
    """
    N1, N1p = _unit_pair(p1)
    N2, N2p = _unit_pair(p2)

    c, cp = _dot(N1, N2), _dot(N1p, N2p)
    if abs(c - cp) > tol_cons * max(1.0, abs(c)):
        raise InconsistentPairs(
            f"N1.N2 = {c} vs N1'.N2' = {cp}: no common rotation")
    W, Wp = cross3(N1, N2), cross3(N1p, N2p)
    if math.hypot(*W) <= TOL_DEG:
        raise DegenerateGeometry(
            "parallel probes: the pairs do not pin the axis")

    frame = ((N1, N1p), (N2, N2p), (W, Wp))
    d = [[b - a for a, b in zip(v, vp)] for v, vp in frame]
    s = [[b + a for a, b in zip(v, vp)] for v, vp in frame]
    q = max(([_dot(s[i], d[j])] + [-x for x in cross3(d[i], d[j])]
             for i, j in ((0, 1), (0, 2), (1, 2))),
            key=lambda v: math.hypot(*v))
    if not any(q):  # every d = 0: the identity
        q = [1.0, 0.0, 0.0, 0.0]
    norm = math.copysign(math.hypot(*q), next(x for x in q if x))
    n0, n = q[0] / norm, [x / norm for x in q[1:]]
    # the k of k_from_nm at (n0, n, 0, 0): R is that of sol.matrix()
    k = [complex(n0)] + [complex(0.0, 0.0 - x) for x in n]
    R = kernels.mueller_product(k)[1:, 1:].tolist()
    res = max(math.dist([_dot(r, N1) for r in R], N1p),
              math.dist([_dot(r, N2) for r in R], N2p))
    if not res <= TOL_MAP:
        raise InconsistentPairs(
            f"the device at Gamma misses a pair by {res:.3e}")

    denom = _family_denom(N1, N1p, 1.0)
    alpha = _dot(n, s[0]) / (2.0 * denom)
    beta = n0 / denom
    return Family3DSolution(math.atan2(alpha, beta), alpha, beta, n0, n)
