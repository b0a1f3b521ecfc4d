"""Rotation-only Mueller devices.

A device with s0' = s0 acts as a 3-rotation on the polarization vector.
One measurement (S -> S') leaves a one-parameter family of rotations,
parametrized by an angle Gamma:

    alpha = sin(Gamma) / sqrt(2 (S^2 + S.S'))
    beta  = cos(Gamma) / (S sqrt(2 (S^2 + S.S')))
    n0 = beta (S^2 + S.S'),   n = alpha (S + S') + beta (S x S')

with n0^2 + n^2 = 1. Two independent measurements pin Gamma down up to
pi; Gamma + pi negates (n0, n), which is the same device (double cover).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (AntipodalInput, DegenerateGeometry, HalfTurn,
                     InconsistentPairs, LengthMismatch)
from .lorentz import (MuellerMatrix, RealParameter, k_from_nm, mueller_from_k,
                      TOL_K)
from .stokes import MeasurementPair, StokesVector, cross3

TOL_CONS = 1e-8
TOL_DEG = 1e-12
TOL_LEN = 1e-9   # relative |S| - |S'| of a rotation pair
TOL_MAP = 1e-7   # residual of the solved device on both unit pairs


@dataclass(frozen=True)
class Family3DSolution:
    gamma: float
    alpha: float
    beta: float
    n0: float
    n: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.n, dtype=float).reshape(3).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "n", arr)

    def real_parameter(self) -> RealParameter:
        return RealParameter(n0=self.n0, n=self.n, m0=0.0, m=np.zeros(3))

    def matrix(self) -> MuellerMatrix:
        return mueller_from_k(k_from_nm(self.real_parameter()))


def _rotation_vectors(p: MeasurementPair):
    smag, spmag = p.input.smag, p.output.smag
    if abs(smag - spmag) > TOL_LEN * max(1.0, smag):
        raise LengthMismatch(f"|S| = {smag} vs |S'| = {spmag}")
    return p.input.s, p.output.s, smag


def family_3d(p: MeasurementPair, gamma: float) -> Family3DSolution:
    """One-measurement rotation family at angle `gamma`."""
    s, sp, smag = _rotation_vectors(p)
    denom = smag * smag + float(s @ sp)
    if denom <= TOL_DEG:
        raise AntipodalInput(
            "S' antipodal to S: family parametrization singular "
            "(solutions are half-turns about axes perpendicular to S)")
    root = np.sqrt(2.0 * denom)
    alpha = np.sin(gamma) / root
    beta = np.cos(gamma) / (smag * root)
    n0 = beta * denom
    n = alpha * (s + sp) + beta * cross3(s, sp)
    # n0^2 + n^2 = 1 holds exactly; in floating point it drifts by about
    # eps / denom, so near-antipodal pairs are put back on the unit sphere.
    norm = np.sqrt(n0 * n0 + float(n @ n))
    n0, n = n0 / norm, n / norm
    return Family3DSolution(gamma=float(gamma), alpha=float(alpha),
                            beta=float(beta), n0=float(n0), n=n)


def gibbs_3d(p: MeasurementPair, gamma: float) -> np.ndarray:
    """Gibbs rotation vector c = n / n0 of the family member at `gamma`."""
    s, sp, smag = _rotation_vectors(p)
    denom = smag * smag + float(s @ sp)
    if denom <= TOL_DEG:
        raise AntipodalInput("S' antipodal to S")
    if abs(np.cos(gamma)) <= TOL_K:
        raise HalfTurn("n0 = 0: Gibbs vector undefined")
    return (np.tan(gamma) * smag * (s + sp) + cross3(s, sp)) / denom


def _unit_pair(p: MeasurementPair):
    _rotation_vectors(p)
    if p.input.smag == 0.0 or p.output.smag == 0.0:
        raise DegenerateGeometry("zero polarization vector: no direction")
    return p.input.s / p.input.smag, p.output.s / p.output.smag


def _gamma_expressions(N1, N1p, N2, N2p):
    """The four tan(Gamma) = num/den forms from the two-pair elimination."""
    return [
        (float(N1 @ cross3(N2, N2p)), float((N2 - N1) @ (N2 + N2p))),
        (-float(N1p @ cross3(N2p, N2)), float((N2p - N1p) @ (N2p + N2))),
        (float(N2 @ cross3(N1, N1p)), float((N1 - N2) @ (N1 + N1p))),
        (-float(N2p @ cross3(N1p, N1)), float((N1p - N2p) @ (N1p + N1))),
    ]


def solve_two_3d(p1: MeasurementPair, p2: MeasurementPair,
                 tol_cons=TOL_CONS) -> Family3DSolution:
    """Unique rotation device from two independent measurements.

    Gamma is extracted as atan2(num, den) from the best-conditioned of the
    four equivalent ratio expressions; the remaining expressions are
    cross-checked. The ratio fixes Gamma only up to pi, but Gamma + pi
    negates (n0, n) and so gives the same device: the one device at Gamma
    is built and must map both unit pairs within TOL_MAP, else
    InconsistentPairs.
    """
    N1, N1p = _unit_pair(p1)
    N2, N2p = _unit_pair(p2)

    c1, c2 = float(N1 @ N1p), float(N2 @ N2p)
    if abs(c1 - c2) > tol_cons * max(1.0, abs(c1)):
        raise InconsistentPairs(
            f"N1.N1' = {c1} vs N2.N2' = {c2}: no common rotation")

    exprs = _gamma_expressions(N1, N1p, N2, N2p)
    if all(np.hypot(num, den) <= TOL_CONS for num, den in exprs):
        raise DegenerateGeometry(
            "all ratio expressions vanish: pairs do not pin the axis")

    num, den = max(exprs, key=lambda e: abs(e[1]))
    # cross-check every non-degenerate expression against the chosen one
    tan_ref = num / den if abs(den) > TOL_CONS else np.inf
    for n_i, d_i in exprs:
        if abs(d_i) > tol_cons and abs(den) > tol_cons:
            if abs(n_i / d_i - tan_ref) > tol_cons * max(1.0, abs(tan_ref)):
                raise InconsistentPairs("ratio expressions disagree")

    gamma = np.arctan2(num, den)
    up1 = MeasurementPair(input=StokesVector(1.0, N1),
                          output=StokesVector(1.0, N1p))

    sol = family_3d(up1, gamma)
    M = sol.matrix().m
    res = max(np.linalg.norm(M[1:, 1:] @ N1 - N1p),
              np.linalg.norm(M[1:, 1:] @ N2 - N2p))
    if not res <= TOL_MAP:
        raise InconsistentPairs(
            f"the device at Gamma misses a pair by {res:.3e}")
    return sol
