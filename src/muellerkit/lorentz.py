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
(m0, m) = 0, boosts have n = 0. They are the real and imaginary parts
of k0^2 - k.k = 1, so ``unit_ok`` is the one validity rule for k.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConstraintViolation, DivisionByZero
from .stokes import StokesVector

TOL_K = 1e-10
TOL_L = 1e-9
TOL_DIV = 1e-12

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


@np.errstate(invalid="ignore", over="ignore")
def unit_ok(K, tol):
    """True where |k0^2 - k.k - 1| <= tol * max(1, sum_i |k_i|^2), the scale
    its round-off grows with, over the last axis of a stack K (..., 4);
    False where k is not finite. A defect within the bare tol needs no
    scale. Elementwise column arithmetic rounds every row the same way at
    any stack shape. A non-finite k raises no floating-point warning."""
    k0, k1, k2, k3 = K.T  # leading axes come out reversed; .T restores them
    d = abs(k0 * k0 - k1 * k1 - k2 * k2 - k3 * k3 - 1.0)
    ok = d <= tol
    if not ok.all():  # inf / inf is NaN, so a non-finite k is rejected
        scale = np.maximum(1.0, np.sum(np.abs(K.T) ** 2, axis=0))
        ok = ok | (d / scale <= tol)
    return ok.T


def frozen(a, dtype, shape):
    """``a`` as a read-only array of ``dtype`` and ``shape`` (a tuple). It
    is copied only where its memory can still be written from outside: an
    input array that is writeable or views writeable memory. A list, or an
    array of another dtype, is converted into new memory, which is not
    copied again."""
    arr = np.asarray(a, dtype=dtype)
    if arr is a or arr.base is not None:  # memory the caller may hold
        base = arr
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is not None:  # writeable, or a foreign buffer
            arr = arr.copy()
    if arr.flags.writeable:
        arr.setflags(write=False)  # before reshape: views inherit it
    return arr if arr.shape == shape else arr.reshape(shape)


@dataclass(frozen=True)
class ComplexParameter:
    k: np.ndarray  # complex128[4]

    def __post_init__(self):
        object.__setattr__(self, "k", frozen(self.k, complex, (4,)))

    @property
    def k0(self):
        return self.k[0]

    @property
    def kvec(self):
        return self.k[1:]

    @np.errstate(invalid="ignore", over="ignore")
    def unit_defect(self):
        """|k0^2 - kvec^2 - 1| (complex modulus); NaN or inf, without a
        floating-point warning, for a non-finite k."""
        return abs(self.k[0] ** 2 - np.sum(self.k[1:] ** 2) - 1.0)

    def require_unit(self, tol=TOL_K):
        """Raise unless ``unit_ok(k, tol)``."""
        if not unit_ok(self.k, tol):
            raise ConstraintViolation(
                f"k0^2 - k^2 = 1 violated by {self.unit_defect():.3e}")

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
            object.__setattr__(self, name, frozen(getattr(self, name),
                                                  float, (3,)))
        object.__setattr__(self, "n0", float(self.n0))
        object.__setattr__(self, "m0", float(self.m0))

    # Diagnostics: the real and half the imaginary part of k0^2 - k.k - 1.
    def norm_defect(self):
        return abs(self.n0 ** 2 + self.n @ self.n
                   - self.m0 ** 2 - self.m @ self.m - 1.0)

    def ortho_defect(self):
        return abs(self.n0 * self.m0 + self.n @ self.m)


@dataclass(frozen=True)
class MuellerMatrix:
    m: np.ndarray  # float64[4,4]

    def __post_init__(self):
        object.__setattr__(self, "m", frozen(self.m, float, (4, 4)))

    def __matmul__(self, other):
        return MuellerMatrix(self.m @ other.m)


@dataclass(frozen=True)
class GibbsVector:
    """q = kvec / k0; i*q is the real Gibbs rotation vector for pure rotations."""

    q: np.ndarray  # complex128[3]

    def __post_init__(self):
        object.__setattr__(self, "q", frozen(self.q, complex, (3,)))


@dataclass(frozen=True)
class LorentzReport:
    ok: bool
    ortho_residual: float
    det_residual: float
    m00: float


def k_from_nm(r: RealParameter, tol=TOL_K) -> ComplexParameter:
    """Assemble k0 = n0 + i m0, k_j = -i n_j + m_j from a real split and
    require it on the unit surface (``unit_ok`` at tol)."""
    k = np.empty(4, complex)
    k[0] = r.n0 + 1j * r.m0
    k[1:] = r.m - 1j * r.n
    kp = ComplexParameter(k)
    kp.require_unit(tol)
    return kp


def nm_from_k(k: ComplexParameter) -> RealParameter:
    """Exact inverse of k_from_nm (no constraint check)."""
    return RealParameter(
        n0=k.k[0].real,
        n=-k.k[1:].imag,
        m0=k.k[0].imag,
        m=k.k[1:].real,
    )


def mueller_from_k(k: ComplexParameter) -> MuellerMatrix:
    """L = A(k) conj(A(k)); the unit condition, checked first, is what
    makes L a Lorentz matrix (the product is real for any k)."""
    k.require_unit()
    return MuellerMatrix(kernels.mueller_product(k.k))


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
