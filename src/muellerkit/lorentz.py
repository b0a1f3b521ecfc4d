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
of q = k0^2 - k.k = 1: q is ``minkowski_square``, the rule ``unit_ok_q``.
"""

from collections import namedtuple

import numpy as np

from . import kernels
from .errors import ConstraintViolation, DivisionByZero
from .stokes import StokesVector, frozen

TOL_K = 1e-10
TOL_L = 1e-9
TOL_DIV = 1e-12

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


def minkowski_square(K):
    """q = k0^2 - k.k over the last axis of a stack K (..., 4) in column
    arithmetic, which rounds each row alike at any stack shape, one k
    included; a non-finite k raises no floating-point warning."""
    with np.errstate(invalid="ignore", over="ignore"):
        s0, s1, s2, s3 = (K * K).T  # leading axes come out reversed
        return (s0 - s1 - s2 - s3).T


def unit_ok_q(q, K, tol):
    """True where |q - 1| <= tol * max(1, sum_i |k_i|^2), the scale its
    round-off grows with, for q = minkowski_square(K); False where k is not
    finite. A defect within the bare tol needs no scale."""
    d = abs(q - 1.0)
    ok = d <= tol
    if not ok.all():  # inf / inf is NaN, so a non-finite k is rejected
        with np.errstate(invalid="ignore", over="ignore"):
            scale = np.maximum(1.0, np.sum(np.abs(K) ** 2, axis=-1))
            ok = ok | (d / scale <= tol)
    return ok


def unit_ok(K, tol):
    """``unit_ok_q`` of a stack K (..., 4) and its own Minkowski square."""
    return unit_ok_q(minkowski_square(K), K, tol)


def records(cls, *blocks):
    """One ``cls`` record per row of the blocks, unchecked: each array
    block is copied once by ``frozen`` and its records view that copy; a
    list block (of finished records) is taken as it is."""
    blocks = [frozen(b, b.dtype, b.shape) if isinstance(b, np.ndarray) else b
              for b in blocks]
    return [tuple.__new__(cls, row) for row in zip(*blocks)]


class ComplexParameter(namedtuple("ComplexParameter", "k")):
    """k = (k0, k1, k2, k3), complex128[4]."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # _replace runs __new__

    def __new__(cls, k):
        return super().__new__(cls, frozen(k, complex, (4,)))

    def unit_defect(self):
        """|k0^2 - kvec^2 - 1| (complex modulus); NaN or inf, without a
        floating-point warning, for a non-finite k."""
        return abs(minkowski_square(self.k) - 1.0)

    def require_unit(self, tol=TOL_K):
        """Raise unless ``unit_ok(k, tol)``."""
        if not unit_ok(self.k, tol):
            raise ConstraintViolation(
                f"k0^2 - k^2 = 1 violated by {self.unit_defect():.3e}")

    def __neg__(self):
        return ComplexParameter(-self.k)


class RealParameter(namedtuple("RealParameter", "n0 n m0 m")):
    """Real split (n0, n, m0, m) of a complex parameter."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # _replace runs __new__

    def __new__(cls, n0, n, m0, m):
        return super().__new__(cls, float(n0), frozen(n, float, (3,)),
                               float(m0), frozen(m, float, (3,)))

    # Diagnostics: the real and half the imaginary part of k0^2 - k.k - 1.
    def norm_defect(self):
        return abs(self.n0 ** 2 + self.n @ self.n
                   - self.m0 ** 2 - self.m @ self.m - 1.0)

    def ortho_defect(self):
        return abs(self.n0 * self.m0 + self.n @ self.m)


class MuellerMatrix(namedtuple("MuellerMatrix", "m")):
    """m, float64[4, 4]."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # _replace runs __new__

    def __new__(cls, m):
        return super().__new__(cls, frozen(m, float, (4, 4)))

    def __matmul__(self, other):
        return MuellerMatrix(self.m @ other.m)


class GibbsVector(namedtuple("GibbsVector", "q")):
    """q = kvec / k0, complex128[3]; i*q is the real Gibbs rotation vector
    for pure rotations."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # _replace runs __new__

    def __new__(cls, q):
        return super().__new__(cls, frozen(q, complex, (3,)))


class LorentzReport(namedtuple(
        "LorentzReport", "ok ortho_residual det_residual m00")):
    __slots__ = ()


def k_from_nm(r: RealParameter) -> ComplexParameter:
    """Assemble k0 = n0 + i m0, k_j = -i n_j + m_j from a real split and
    require it on the unit surface (``unit_ok`` at TOL_K)."""
    k = np.empty(4, complex)
    k[0] = r.n0 + 1j * r.m0
    k[1:] = r.m - 1j * r.n
    kp = ComplexParameter(k)
    kp.require_unit()
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


def transit_residuals(M, S, T):
    """|M s - t|, the one transitivity residual, over stacks M (..., 4, 4),
    S and T (..., 4). M is made C-contiguous: matmul rounds a strided view
    (the real part of a complex product) differently."""
    d = (np.ascontiguousarray(M) @ S[..., None])[..., 0] - T
    return np.sqrt(np.vecdot(d, d))


def residuals(L: MuellerMatrix, pairs) -> list:
    """``transit_residuals`` of a matrix on each pair, as floats."""
    S = np.array([p.input.as_array() for p in pairs]).reshape(-1, 4)
    T = np.array([p.output.as_array() for p in pairs]).reshape(-1, 4)
    return transit_residuals(L.m, S, T).tolist()


@np.errstate(over="ignore", invalid="ignore")
def is_lorentz(L: MuellerMatrix) -> LorentzReport:
    """Check M^T G M = G, det = +1, and orthochronicity; report residuals.

    Both tests allow TOL_L plus the round-off 64 eps max|M|^2 of their
    residuals; the det test is capped at 1, so det = -1 (residual 2) is
    still rejected. Where m00 > 0 the det is read as det(M[1:, 1:]) / m00,
    which L^-1 = G L^T G makes exact for a Lorentz matrix and which stays
    resolved where the LU det of a strong boost does not (cond about
    e^(2 chi)); elsewhere M already fails and the LU det is reported.
    A finite M with max|M| above about 1.3e154 overflows: it raises and
    warns nothing, and it is not Lorentz (its ortho residual is inf or
    NaN, and an infinite allowance admits nothing)."""
    M = L.m
    ortho = float(np.max(np.abs(M.T @ METRIC @ M - METRIC)))
    m00 = float(M[0, 0])
    det = np.linalg.det(M[1:, 1:]) / m00 if m00 > 0.0 else np.linalg.det(M)
    det = float(abs(det - 1.0))
    allow = TOL_L + 64 * np.finfo(float).eps * float(np.max(M * M))
    ok = bool(ortho <= allow < np.inf and det <= min(allow, 1.0)
              and m00 > 0.0)
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
