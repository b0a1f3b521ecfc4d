"""Complex 4-parameter representation of Mueller matrices.

A Mueller matrix in scope is a proper orthochronous Lorentz matrix on
Stokes 4-vectors. It is parametrized by a complex 4-tuple
k = (k0, k1, k2, k3) with k0^2 - (k1^2 + k2^2 + k3^2) = 1, through the
factorized product L = A(k) conj(A(k)), where A(k) is the fixed complex
4x4 layout documented in ``kernels``. k and -k give the same matrix
(double cover). The real split

    k0 = n0 + i m0,    k_j = -i n_j + m_j

turns the unit condition into the two real constraints
n0^2 + n^2 - m0^2 - m^2 = 1 and n0 m0 + n.m = 0; rotations have
(m0, m) = 0, boosts have n = 0.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConstraintViolation, DivisionByZero, NonRealProduct
from .stokes import StokesVector

TOL_K = 1e-10
TOL_L = 1e-9
TOL_IM = 1e-10
TOL_DIV = 1e-12

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


def k_scale(k):
    """max(1, sum_i |k_i|^2) over the last axis of k.

    Round-off in k0^2 - k.k and in A(k) conj(A(k)) grows with this sum,
    so the tolerances on the unit condition and on the imaginary part of
    the product are taken relative to it. The scale is at least 1, so a
    defect within the bare tolerance needs no scale.
    """
    return np.maximum(1.0, np.sum(np.abs(k) ** 2, axis=-1))


@dataclass(frozen=True)
class ComplexParameter:
    k: np.ndarray  # complex128[4]

    def __post_init__(self):
        arr = np.asarray(self.k, dtype=complex).reshape(4).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "k", arr)

    @property
    def k0(self):
        return self.k[0]

    @property
    def kvec(self):
        return self.k[1:]

    def unit_defect(self):
        """|k0^2 - kvec^2 - 1| (complex modulus)."""
        return abs(self.k[0] ** 2 - np.sum(self.k[1:] ** 2) - 1.0)

    def require_unit(self, tol=TOL_K):
        """Raise unless the unit defect is within tol * k_scale(k)."""
        d = self.unit_defect()
        if d > tol and d > tol * k_scale(self.k):
            raise ConstraintViolation(f"k0^2 - k^2 = 1 violated by {d:.3e}")

    def __neg__(self):
        return ComplexParameter(-self.k)


@dataclass(frozen=True)
class RealParameter:
    """Real split (n0, n, m0, m) of a complex parameter."""

    n0: float
    n: np.ndarray
    m0: float
    m: np.ndarray

    def __post_init__(self):
        for name in ("n", "m"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(3).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n0", float(self.n0))
        object.__setattr__(self, "m0", float(self.m0))

    def norm_defect(self):
        return abs(self.n0 ** 2 + self.n @ self.n
                   - self.m0 ** 2 - self.m @ self.m - 1.0)

    def ortho_defect(self):
        return abs(self.n0 * self.m0 + self.n @ self.m)

    def require_valid(self, tol=TOL_K):
        """Raise unless both defects are within tol * k_scale(k); the sum
        of |k_i|^2 is n0^2 + n.n + m0^2 + m.m."""
        d = max(self.norm_defect(), self.ortho_defect())
        if d > tol and d > tol * k_scale(
                np.concatenate(([self.n0, self.m0], self.n, self.m))):
            raise ConstraintViolation(f"real-split constraints violated by {d:.3e}")


@dataclass(frozen=True)
class MuellerMatrix:
    m: np.ndarray  # float64[4,4]

    def __post_init__(self):
        arr = np.asarray(self.m, dtype=float).reshape(4, 4).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "m", arr)

    def __matmul__(self, other):
        return MuellerMatrix(self.m @ other.m)


@dataclass(frozen=True)
class GibbsVector:
    """q = kvec / k0; i*q is the real Gibbs rotation vector for pure rotations."""

    q: np.ndarray  # complex128[3]

    def __post_init__(self):
        arr = np.asarray(self.q, dtype=complex).reshape(3).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "q", arr)


@dataclass(frozen=True)
class LorentzReport:
    ok: bool
    ortho_residual: float
    det_residual: float
    m00: float


def k_from_nm(r: RealParameter, tol=TOL_K) -> ComplexParameter:
    """Assemble k0 = n0 + i m0, k_j = -i n_j + m_j from a valid real split."""
    r.require_valid(tol)
    k = np.empty(4, complex)
    k[0] = r.n0 + 1j * r.m0
    k[1:] = r.m - 1j * r.n
    return ComplexParameter(k)


def nm_from_k(k: ComplexParameter) -> RealParameter:
    """Exact inverse of k_from_nm (no constraint check)."""
    return RealParameter(
        n0=k.k[0].real,
        n=-k.k[1:].imag,
        m0=k.k[0].imag,
        m=k.k[1:].real,
    )


def mueller_from_k(k: ComplexParameter) -> MuellerMatrix:
    """L = A(k) conj(A(k)), asserted real entrywise.

    Every entry of the product is a sum of conjugate pairs, so it is real
    for any complex k; the unit condition, checked first, is what makes L
    a Lorentz matrix. A NonRealProduct flags round-off of at least
    TOL_IM * k_scale(k) in the imaginary parts.
    """
    k.require_unit()
    L, max_im = kernels.mueller_product(k.k)
    if max_im >= TOL_IM and max_im >= TOL_IM * k_scale(k.k):
        raise NonRealProduct(f"imaginary part {max_im:.3e} >= "
                             f"{TOL_IM:.0e} * {k_scale(k.k):.3e}")
    return MuellerMatrix(L)


def apply(L: MuellerMatrix, v: StokesVector) -> StokesVector:
    out = L.m @ v.as_array()
    return StokesVector.from_array(out, validate=False)


def is_lorentz(L: MuellerMatrix, tol=TOL_L) -> LorentzReport:
    """Check M^T G M = G, det = +1, and orthochronicity; report residuals.

    Both tests allow tol plus the round-off 64 eps max|M|^2 of their
    residuals; the det test is capped at 1, so det = -1 (residual 2) is
    still rejected. Where m00 > 0 the det is read as det(M[1:, 1:]) / m00,
    which L^-1 = G L^T G makes exact for a Lorentz matrix and which stays
    resolved where the LU det of a strong boost does not (cond about
    e^(2 chi)); elsewhere M already fails and the LU det is reported."""
    M = L.m
    ortho = float(np.max(np.abs(M.T @ METRIC @ M - METRIC)))
    m00 = float(M[0, 0])
    det = np.linalg.det(M[1:, 1:]) / m00 if m00 > 0.0 else np.linalg.det(M)
    det = float(abs(det - 1.0))
    allow = tol + 64 * np.finfo(float).eps * float(np.max(np.abs(M))) ** 2
    ok = ortho <= allow and det <= min(allow, 1.0) and m00 > 0.0
    return LorentzReport(ok=ok, ortho_residual=ortho, det_residual=det, m00=m00)


def gibbs_of(k: ComplexParameter) -> GibbsVector:
    """q = kvec / k0; undefined for half-turn rotations where k0 = 0."""
    if abs(k.k[0]) <= TOL_DIV:
        raise DivisionByZero("|k0| below tolerance: Gibbs vector undefined")
    return GibbsVector(k.k[1:] / k.k[0])


def rotation_k(axis, angle) -> ComplexParameter:
    """Pure rotation by `angle` about unit `axis` (half-angle parameters)."""
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    r = RealParameter(
        n0=np.cos(angle / 2.0),
        n=np.sin(angle / 2.0) * axis,
        m0=0.0,
        m=np.zeros(3),
    )
    return k_from_nm(r)


def boost_k(axis, rapidity) -> ComplexParameter:
    """Pure boost of given rapidity along unit `axis`.

    The sign convention is pinned by the factorized product: the m-part
    -sinh(chi/2) * axis yields L with +sinh(chi) entries mixing S0 into
    the axis component.
    """
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    r = RealParameter(
        n0=np.cosh(rapidity / 2.0),
        n=np.zeros(3),
        m0=0.0,
        m=-np.sinh(rapidity / 2.0) * axis,
    )
    return k_from_nm(r)
