"""Stokes 4-vectors, measurement pairs, and the derived pair geometry."""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvariantMismatch, MuellerKitError

TOL_INV = 1e-9
COLLINEAR_TOL = 1e-12


def cross3(a, b):
    """a x b for two 3-vectors: the arithmetic of numpy's cross product,
    without its per-call overhead on vectors this short."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


@dataclass(frozen=True)
class StokesVector:
    """A physical beam state (s0, s) with finite entries, s0 > 0 and
    s0 >= |s|.

    The Lorentz invariant s0^2 - |s|^2 vanishes exactly for fully
    polarized light. Pass ``validate=False`` to admit slightly perturbed
    vectors in synthetic tests.
    """

    s0: float
    s: np.ndarray
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "s0", float(self.s0))
        arr = np.asarray(self.s, dtype=float).reshape(3).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "s", arr)
        if self.validate:
            if not (np.isfinite(self.s0) and np.isfinite(arr).all()):
                raise MuellerKitError(
                    f"non-finite Stokes vector: s0 = {self.s0}, s = {arr}")
            if not self.s0 > 0.0:
                raise MuellerKitError(f"s0 must be positive, got {self.s0}")
            smag = float(np.linalg.norm(arr))
            if smag > self.s0 * (1.0 + 1e-12):
                raise MuellerKitError(
                    f"|s| = {smag} exceeds s0 = {self.s0} (p > 1)")

    @property
    def intensity(self):
        return self.s0

    # The vector is immutable, so its derived quantities are computed once.
    @cached_property
    def smag(self):
        return float(np.linalg.norm(self.s))

    @cached_property
    def degree(self):
        """Degree of polarization p = |s| / s0."""
        return self.smag / self.s0

    @cached_property
    def direction(self):
        """Unit polarization direction (read-only); undefined (zero) for
        |s| = 0."""
        m = self.smag
        d = np.zeros(3) if m == 0.0 else self.s / m
        d.setflags(write=False)
        return d

    def as_array(self):
        return np.concatenate(([self.s0], self.s))

    @classmethod
    def from_array(cls, v, validate=True):
        v = np.asarray(v, dtype=float).reshape(4)
        return cls(v[0], v[1:], validate=validate)


def invariant(v: StokesVector) -> float:
    """Lorentz invariant s0^2 - |s|^2; zero iff fully polarized."""
    return v.s0 * v.s0 - float(v.s @ v.s)


@dataclass(frozen=True)
class MeasurementPair:
    """An (input, output) Stokes pair produced by one device measurement."""

    input: StokesVector
    output: StokesVector

    def check(self):
        """Verify the shared invariant; a Lorentz map preserves it."""
        si, so = invariant(self.input), invariant(self.output)
        if abs(si - so) > TOL_INV * max(1.0, abs(si)):
            raise InvariantMismatch(
                f"invariants differ: {si} vs {so} (no Lorentz map exists)")


@dataclass(frozen=True)
class PairGeometry:
    """Sums/differences of a pair and their cached products.

    A = s0 + s0', B = s0 - s0', Avec = s + s', Bvec = s - s'.
    The identity A*B = Avec.Bvec holds for every genuine Lorentz pair.
    """

    A: float
    B: float
    Avec: np.ndarray
    Bvec: np.ndarray
    Avec2: float
    Bvec2: float
    AdotB: float
    cross: np.ndarray

    @property
    def cross2(self):
        return float(self.cross @ self.cross)

    @property
    def collinear(self):
        """True when the (Avec, Bvec, Avec x Bvec) basis degenerates."""
        return self.cross2 <= COLLINEAR_TOL * (self.Avec2 * self.Bvec2)


def pair_geometry(pair: MeasurementPair) -> PairGeometry:
    """Derived geometry of a measurement pair.

    Raises InvariantMismatch when input/output invariants differ beyond
    tolerance (scalar identity A*B = Avec.Bvec would fail too).
    """
    pair.check()
    vin, vout = pair.input, pair.output
    A = vin.s0 + vout.s0
    B = vin.s0 - vout.s0
    Avec = vin.s + vout.s
    Bvec = vin.s - vout.s
    return PairGeometry(
        A=A,
        B=B,
        Avec=Avec,
        Bvec=Bvec,
        Avec2=float(Avec @ Avec),
        Bvec2=float(Bvec @ Bvec),
        AdotB=float(Avec @ Bvec),
        cross=cross3(Avec, Bvec),
    )
