"""Stokes 4-vectors, measurement pairs, and the derived pair geometry."""

import math
from collections import namedtuple

import numpy as np

from .errors import InvariantMismatch, MuellerKitError, OutOfDomain

TOL_INV = 1e-9
ROUND_OFF = 64 * np.finfo(float).eps  # per unit of s0^2 in an invariant
COLLINEAR_TOL = 1e-12
S_MAX = 2.0 ** 253  # largest term (A2 + B2 - B^2) A2 <= 336 S_MAX^4 < 2^1021


def cross3(a, b):
    """a x b for two float 3-sequences, as a list of floats: the
    arithmetic of numpy's cross product, without its per-call overhead on
    vectors this short."""
    return [a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def frozen(a, dtype, shape):
    """``a`` as a record's own array of ``dtype`` and ``shape`` (a tuple):
    a fresh C-contiguous copy, read-only, as are views of it."""
    arr = np.asarray(a, dtype=dtype).reshape(shape).copy()
    arr.setflags(write=False)
    return arr


class StokesVector(namedtuple("StokesVector", "s0 s")):
    """A physical beam state (s0, s) with finite entries, s0 > 0 and
    s0 >= |s|; s is a read-only copy of the caller's 3 floats.

    The Lorentz invariant s0^2 - |s|^2 vanishes exactly for fully
    polarized light. Pass ``validate=False`` to admit slightly perturbed
    vectors in synthetic tests; it is not stored.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # _replace runs __new__

    def __new__(cls, s0, s, validate=True):
        s0, arr = float(s0), frozen(s, float, (3,))
        if validate:
            if not all(map(math.isfinite, [s0, *arr.tolist()])):
                raise MuellerKitError(
                    f"non-finite Stokes vector: s0 = {s0}, s = {arr}")
            if not s0 > 0.0:
                raise MuellerKitError(f"s0 must be positive, got {s0}")
            smag = math.sqrt(arr @ arr)  # as the property reads it
            if smag > s0 * (1.0 + 1e-12):
                raise MuellerKitError(
                    f"|s| = {smag} exceeds s0 = {s0} (p > 1)")
        return super().__new__(cls, s0, arr)

    def __getnewargs__(self):  # a copy is not checked again
        return (*self, False)

    # Derived quantities are computed on each read, so that a vector's
    # memory does not grow with the properties read from it.
    @property
    def smag(self):
        return math.sqrt(self.s @ self.s)

    @property
    def degree(self):
        """Degree of polarization p = |s| / s0."""
        return self.smag / self.s0

    @property
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
    return _invariant(v.s0, *v.s.tolist())


def _invariant(s0, s1, s2, s3):
    return s0 * s0 - (s1 * s1 + s2 * s2 + s3 * s3)


def check_invariants(s0, s, t0, t):
    """Raise InvariantMismatch unless the invariants of an input (s0, s)
    and an output (t0, t), floats and float 3-sequences, agree; a Lorentz
    map preserves them. The allowance adds their round-off
    64 eps max(s0^2, t0^2)."""
    si, so = _invariant(s0, *s), _invariant(t0, *t)
    s0_sq = max(s0 * s0, t0 * t0)
    if abs(si - so) > TOL_INV * max(1.0, abs(si)) + ROUND_OFF * s0_sq:
        raise InvariantMismatch(
            f"invariants differ: {si} vs {so} (no Lorentz map exists)")


class MeasurementPair(namedtuple("MeasurementPair", "input output")):
    """An (input, output) Stokes pair produced by one device measurement."""

    __slots__ = ()


# Columns of geometry_table: A = s0 + s0' and B = s0 - s0' first; a
# table that extends it appends from GEOMETRY_WIDTH on.
ASUM, BDIFF = 0, 1
AVEC, BVEC, CROSS = slice(2, 5), slice(5, 8), slice(8, 11)
AVEC2, BVEC2, CROSS2, ADOTB = 11, 12, 13, 14
GEOMETRY_WIDTH = 15


def geometry_table(pairs) -> np.ndarray:
    """The geometry of each checked pair, one row of 15 floats per pair:
    A, B, Avec (3), Bvec (3), Avec x Bvec (3), Avec^2, Bvec^2,
    |Avec x Bvec|^2, Avec.Bvec (column names above).

    The one definition of the per-pair arithmetic and its domain:
    ``pair_geometry`` and the pair table of the lifted solvers both read
    it. Sums, differences and cross products are taken in Python floats,
    the dot products of all pairs by ``np.vecdot``: numpy's dot kernel
    gives them the bits of ``Avec @ Avec``. Raises InvariantMismatch,
    through ``check_invariants`` on the floats the row is built from,
    then OutOfDomain for the first pair with an entry (NaN too) not
    within +-S_MAX, ahead of ``np.vecdot``.
    """
    rows, entries = [], []
    for p in pairs:
        s0, s = p.input.s0, p.input.s.tolist()
        t0, t = p.output.s0, p.output.s.tolist()
        check_invariants(s0, s, t0, t)
        entries += (s0, *s, t0, *t)
        (s1, s2, s3), (t1, t2, t3) = s, t
        a = [s1 + t1, s2 + t2, s3 + t3]
        b = [s1 - t1, s2 - t2, s3 - t3]
        rows.append([s0 + t0, s0 - t0, *a, *b, *cross3(a, b)])
    wide = [i for i, v in enumerate(entries) if not abs(v) <= S_MAX]
    if wide:
        raise OutOfDomain(f"pair {wide[0] // 8}: Stokes entry "
                          f"{entries[wide[0]]!r} is not within +-2^253 "
                          "(S_MAX): its lifted coefficients may overflow")
    R = np.array(rows).reshape(-1, CROSS.stop)  # no pairs: no rows
    V = R[:, 2:].reshape(-1, 3, 3)  # Avec, Bvec, Avec x Bvec
    return np.concatenate((R, np.vecdot(V, V),
                           np.vecdot(V[:, 0], V[:, 1])[:, None]), axis=1)


def basis_collinear(cross2, Avec2, Bvec2):
    """True when the (Avec, Bvec, Avec x Bvec) basis degenerates; takes
    floats or arrays of them."""
    return cross2 <= COLLINEAR_TOL * (Avec2 * Bvec2)


class PairGeometry(namedtuple(
        "PairGeometry", "A B Avec Bvec Avec2 Bvec2 AdotB cross cross2")):
    """Sums/differences of a pair and their cached products.

    A = s0 + s0', B = s0 - s0', Avec = s + s', Bvec = s - s'.
    The identity A*B = Avec.Bvec holds for every genuine Lorentz pair.
    """

    __slots__ = ()

    @property
    def collinear(self):
        """True when the (Avec, Bvec, Avec x Bvec) basis degenerates."""
        return basis_collinear(self.cross2, self.Avec2, self.Bvec2)


def pair_geometry(pair: MeasurementPair) -> PairGeometry:
    """Derived geometry of a measurement pair (see ``geometry_table``).

    Raises InvariantMismatch when input/output invariants differ beyond
    tolerance (scalar identity A*B = Avec.Bvec would fail too), and
    OutOfDomain for a Stokes entry not within +-S_MAX.
    """
    table = geometry_table([pair])
    table.setflags(write=False)  # the vector fields view its row
    row = table[0]
    r = row.tolist()
    return PairGeometry(A=r[ASUM], B=r[BDIFF], Avec=row[AVEC],
                        Bvec=row[BVEC], Avec2=r[AVEC2], Bvec2=r[BVEC2],
                        AdotB=r[ADOTB], cross=row[CROSS], cross2=r[CROSS2])
