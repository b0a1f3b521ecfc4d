"""Principal-axis analysis of the per-pair quadratic constraint.

The (x, y) block a x^2 + 2b xy + c y^2 rotates to F X^2 + G Y^2 with

    phi = atan2(2b, c - a) / 2,
    F = (a + c)/2 - sqrt((a - c)^2 + 4 b^2)/2,
    G = (a + c)/2 + sqrt((a - c)^2 + 4 b^2)/2      (F <= G always).

The (z, w) block -alpha z^2 - 2 beta zw - sigma w^2 is handled by
diagonalizing (alpha, beta, sigma) with the same convention and negating
the eigenvalues, so the full surface type follows from the two signatures.
"""

from collections import namedtuple

import numpy as np

TOL_ZERO = 1e-10


class DiagResult(namedtuple("DiagResult", "F G phi")):
    """Eigenvalues F <= G and principal angle phi of one 2x2 block."""

    __slots__ = ()


def diagonalize2(a: float, b: float, c: float) -> DiagResult:
    """Closed-form eigendecomposition of [[a, b], [b, c]].

    The angle is phi = atan2(2b, c - a) / 2; for the doubly degenerate
    case a = c, b = 0 the angle is 0 by convention.
    """
    h = np.hypot(a - c, 2.0 * b)
    if h == 0.0:
        return DiagResult(F=float(a), G=float(c), phi=0.0)
    mean = 0.5 * (a + c)
    return DiagResult(F=float(mean - 0.5 * h), G=float(mean + 0.5 * h),
                      phi=float(0.5 * np.arctan2(2.0 * b, c - a)))


class SignatureReport(namedtuple(
        "SignatureReport", "xy zw signs boundary definite_xy definite_zw")):
    """The DiagResult of the xy and zw blocks; signs, the sign pattern of
    the four diagonal coefficients; boundary, any eigenvalue within
    TOL_ZERO of zero; and the sufficient conditions a > 0, c > 0,
    ac > b^2 (definite_xy) and alpha < 0, sigma < 0, a*s > b^2
    (definite_zw)."""

    __slots__ = ()


def classify_signature(a, b, c, alpha, beta, sigma) -> SignatureReport:
    """Signature of the full quadratic in principal axes.

    The diagonal form is F X^2 + G Y^2 - F' Z^2 - G' W^2 where (F', G')
    diagonalize the (alpha, beta, sigma) block; the reported signs are of
    (F, G, -F', -G'). Eigenvalues within TOL_ZERO of zero (relative to
    the largest) flag a boundary (degenerate) surface.
    """
    dxy = diagonalize2(a, b, c)
    dzw = diagonalize2(alpha, beta, sigma)
    diag = (dxy.F, dxy.G, -dzw.F, -dzw.G)
    scale = max(1.0, max(abs(v) for v in diag))
    boundary = any(abs(v) <= TOL_ZERO * scale for v in diag)
    signs = tuple(0 if abs(v) <= TOL_ZERO * scale else (1 if v > 0 else -1)
                  for v in diag)
    return SignatureReport(
        xy=dxy, zw=dzw, signs=signs, boundary=boundary,
        definite_xy=bool(a > 0 and c > 0 and a * c > b * b),
        definite_zw=bool(alpha < 0 and sigma < 0 and alpha * sigma > beta * beta),
    )
