"""Rotation-only Mueller devices.

A device with s0' = s0 acts as a 3-rotation on the polarization vector.
One measurement (S -> S') leaves a one-parameter family of rotations,
parametrized by an angle Gamma:

    alpha = sin(Gamma) / sqrt(2 (S^2 + S.S'))
    beta  = cos(Gamma) / (S sqrt(2 (S^2 + S.S')))
    n0 = beta (S^2 + S.S'),   n = alpha (S + S') + beta (S x S')

with n0^2 + n^2 = 1. Two independent measurements pin Gamma down up to
pi; Gamma + pi negates (n0, n), which is the same device (double cover).

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
ROUND_OFF = 16 * np.finfo(float).eps  # per unit length of a ratio form


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


def _ratio(a, b, c, x):
    """(a.x, (b - a).(b + c)) for float 3-vectors."""
    return (_dot(a, x), _dot([q - p for p, q in zip(a, b)],
                             [q + r for q, r in zip(b, c)]))


def _gamma_expressions(N1, N1p, N2, N2p):
    """The four tan(Gamma) = num/den forms from the two-pair elimination:
    (A.(N2 x N2'), (B - A).(B + C)) for (A, B, C) = (N1, N2, N2') and
    (N1', N2', N2), and the same with the pairs swapped."""
    x2, x1 = cross3(N2, N2p), cross3(N1, N1p)
    return [_ratio(N1, N2, N2p, x2), _ratio(N1p, N2p, N2, x2),
            _ratio(N2, N1, N1p, x1), _ratio(N2p, N1p, N1, x1)]


def solve_two_3d(p1: MeasurementPair, p2: MeasurementPair,
                 tol_cons=TOL_CONS) -> Family3DSolution:
    """Unique rotation device from two independent measurements.

    Gamma is extracted as atan2(num, den) from the one of the four
    equivalent ratio forms with the largest |den|. Each form is a multiple
    of (sin Gamma, cos Gamma), so every form is cross-checked against it
    by direction, |n_i den - num d_i| <= tol_cons |(n_i, d_i)| |(num, den)|
    plus the round-off ROUND_OFF (|(n_i, d_i)| + |(num, den)|) of forms
    built from unit vectors; unlike a ratio test this stays resolved
    where tan Gamma diverges, at half-turns. The ratio fixes Gamma only up
    to pi, but Gamma + pi negates (n0, n) and so gives the same device:
    the one device at Gamma is built and must map both unit pairs within
    TOL_MAP, else InconsistentPairs.
    """
    N1, N1p = _unit_pair(p1)
    N2, N2p = _unit_pair(p2)

    c1, c2 = _dot(N1, N1p), _dot(N2, N2p)
    if abs(c1 - c2) > tol_cons * max(1.0, abs(c1)):
        raise InconsistentPairs(
            f"N1.N1' = {c1} vs N2.N2' = {c2}: no common rotation")

    exprs = _gamma_expressions(N1, N1p, N2, N2p)
    if all(math.hypot(num, den) <= TOL_CONS for num, den in exprs):
        raise DegenerateGeometry(
            "all ratio expressions vanish: pairs do not pin the axis")

    num, den = max(exprs, key=lambda e: abs(e[1]))
    h = math.hypot(num, den)
    for n_i, d_i in exprs:
        h_i = math.hypot(n_i, d_i)
        if not (abs(n_i * den - num * d_i)
                <= tol_cons * h_i * h + ROUND_OFF * (h_i + h)):
            raise InconsistentPairs("ratio expressions disagree")

    gamma = math.atan2(num, den)
    alpha, beta, n0, n = _member(N1, N1p, 1.0, gamma)
    # the k of k_from_nm at (n0, n, 0, 0): R is that of sol.matrix()
    k = [complex(n0)] + [complex(0.0, 0.0 - x) for x in n]
    R = kernels.mueller_product(k)[1:, 1:].tolist()
    res = max(math.dist([_dot(r, N1) for r in R], N1p),
              math.dist([_dot(r, N2) for r in R], N2p))
    if not res <= TOL_MAP:
        raise InconsistentPairs(
            f"the device at Gamma misses a pair by {res:.3e}")
    return Family3DSolution(gamma, alpha, beta, n0, n)
