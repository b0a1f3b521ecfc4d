"""Full relativistic Mueller devices.

One measurement pair leaves a 3-parameter family of devices. Expanding the
real-split vectors over the pair basis (Avec, Bvec, Avec x Bvec),

    n0 = A x - Avec^2 y        n = z Avec - w A Bvec + y Avec x Bvec
    m0 = -B z + Bvec^2 w       m = x Bvec - y B Avec + w Avec x Bvec

the orthogonality constraint n0 m0 + n.m = 0 holds identically and the
normalization constraint becomes one quadratic in (x, y, z, w):

    a x^2 + 2b xy + c y^2 - alpha z^2 - 2 beta zw - sigma w^2 = 1.

All constraints are linear in the lifted monomials
u = (x^2, xy, y^2, z^2, zw, w^2). Six pairs make the lifted system square;
four pairs leave a 2-D family of u, on which the two rank-1 conditions
u_xy^2 = u_xx u_yy and u_zw^2 = u_zz u_ww are conics solved in closed form
through their resultant.

Both solvers read each lifted point back the same way: each block is split
by the root of its larger square, the point is polished by Gauss-Newton on
the lifted system, one SVD of the Jacobian per step, until its residual
reaches evaluation round-off and the caller's tolerance (or stops falling),
both (z, w)-block signs are emitted (no constraint sees that sign), every
point gets one canonical global sign, and all candidates are checked
against all pairs in one stacked pass.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (ConstraintViolation, DegenerateGeometry,
                     InconsistentPairs, NoConvergedRoot, NoRealRoot,
                     NoValidCandidate, Rank1Violation, SingularSystem)
from . import kernels
from .lorentz import (TOL_K, ComplexParameter, RealParameter, apply,
                      k_from_nm, mueller_from_k, unit_ok)
from .stokes import MeasurementPair, PairGeometry, pair_geometry

TOL_CONS = 1e-8
TOL_DEG = 1e-12
TOL_R1 = 1e-6
COND_MAX = 1e10
TOL_K_RAW = 1e-8   # unit defect of k assembled from e, before normalizing
POLISH_STEPS = 8
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ExpansionCoeffs:
    """Expansion scalars (x, y, z, w)."""

    x: float
    y: float
    z: float
    w: float

    def __iter__(self):
        return iter((self.x, self.y, self.z, self.w))

    def as_array(self):
        return np.array([self.x, self.y, self.z, self.w])


@dataclass(frozen=True)
class QuadCoeffs:
    """Coefficients of a x^2 + 2b xy + c y^2 - alpha z^2 - 2 beta zw
    - sigma w^2 = 1."""

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    sigma: float

    def as_row(self):
        return np.array([self.a, self.b, self.c, self.alpha, self.beta,
                         self.sigma])


def quad_coeffs(p: MeasurementPair) -> QuadCoeffs:
    g = pair_geometry(p)
    return quad_coeffs_from_geometry(g)


def quad_coeffs_from_geometry(g: PairGeometry) -> QuadCoeffs:
    A, B, A2, B2 = g.A, g.B, g.Avec2, g.Bvec2
    return QuadCoeffs(
        a=A * A - B2,
        b=A * (B * B - A2),
        c=(A2 + B2 - B * B) * A2 - A * A * B * B,
        alpha=B * B - A2,
        beta=B * (A * A - B2),
        sigma=(A2 + B2 - A * A) * B2 - A * A * B * B,
    )


def quad_coeffs_polarized(p: MeasurementPair) -> QuadCoeffs:
    """Specialized coefficients for fully polarized light (invariant = 0).

    Every coefficient reduces to a multiple of S0 S0' + S.S'; used as a
    cross-check of the general formulas in tests.
    """
    vin, vout = p.input, p.output
    t = vin.s0 * vout.s0 + float(vin.s @ vout.s)
    A = vin.s0 + vout.s0
    B = vin.s0 - vout.s0
    return QuadCoeffs(
        a=2.0 * t,
        b=-2.0 * t * A,
        c=2.0 * t * A * A,
        alpha=-2.0 * t,
        beta=2.0 * t * B,
        sigma=-2.0 * t * B * B,
    )


def expansion_to_params(g: PairGeometry, e: ExpansionCoeffs,
                        require_normalized=False) -> RealParameter:
    """Real-split parameters of the family member at e.

    Orthogonality n0 m0 + n.m = 0 is an identity of the expansion and is
    asserted; the normalization constraint holds iff e lies on the
    quadratic 3-surface (checked only when ``require_normalized``, by
    ``k_from_nm``'s unit rule).
    """
    x, y, z, w = e.x, e.y, e.z, e.w
    Av, Bv, cr = g.Avec, g.Bvec, g.cross
    n0 = g.A * x - g.Avec2 * y
    n = z * Av - w * g.A * Bv + y * cr
    m0 = -g.B * z + g.Bvec2 * w
    m = x * Bv - y * g.B * Av + w * cr
    r = RealParameter(n0=n0, n=n, m0=m0, m=m)
    scale = max(1.0, abs(n0 * m0), abs(float(n @ m)))
    if r.ortho_defect() > 1e-11 * scale:
        raise ConstraintViolation(
            f"orthogonality identity violated by {r.ortho_defect():.3e}")
    if require_normalized:
        k_from_nm(r)
    return r


def params_to_expansion(g: PairGeometry, r: RealParameter) -> ExpansionCoeffs:
    """Invert the expansion by projecting n and m on the pair basis.

    The shared denominator is Avec^2 Bvec^2 - (A B)^2 = |Avec x Bvec|^2
    (using the invariant identity A B = Avec.Bvec); pairs with a collinear
    basis, including all Bvec = 0 rotation-only pairs, are rejected.
    y and w are each computable from both vectors; the duplicates are
    checked for agreement wherever their own denominators are healthy.
    """
    Av, Bv, cr = g.Avec, g.Bvec, g.cross
    A, B = g.A, g.B
    D = g.Avec2 * g.Bvec2 - (A * B) ** 2
    scale = max(g.Avec2 * g.Bvec2, 1.0)
    if D <= TOL_DEG * scale:
        raise DegenerateGeometry(
            "pair basis is collinear (|Avec x Bvec|^2 ~ 0); "
            "rotation-only pairs belong to the 3D solver")

    An, Bn = float(Av @ r.n), float(Bv @ r.n)
    Am, Bm = float(Av @ r.m), float(Bv @ r.m)
    y = float(cr @ r.n) / D
    z = -(Bn * A * B - An * g.Bvec2) / D
    w_n = -(Bn * g.Avec2 - An * A * B) / (A * D)
    w = float(cr @ r.m) / D
    x = (-Am * A * B + Bm * g.Avec2) / D

    amp = max(1.0, abs(y), abs(w))
    if abs(w - w_n) > TOL_CONS * amp:
        raise InconsistentPairs(
            f"duplicate w computations disagree: {w} vs {w_n} "
            "(parameter does not map this pair)")
    if abs(B) > TOL_DEG * max(1.0, A):
        y_m = (Bm * A * B - Am * g.Bvec2) / (B * D)
        if abs(y - y_m) > TOL_CONS * amp:
            raise InconsistentPairs(
                f"duplicate y computations disagree: {y} vs {y_m}")
    return ExpansionCoeffs(x=float(x), y=float(y), z=float(z), w=float(w))


def constraint_residual(q: QuadCoeffs, e: ExpansionCoeffs) -> float:
    x, y, z, w = e.x, e.y, e.z, e.w
    return (q.a * x * x + 2.0 * q.b * x * y + q.c * y * y
            - q.alpha * z * z - 2.0 * q.beta * z * w - q.sigma * w * w - 1.0)


def k_from_expansion(g: PairGeometry, e: ExpansionCoeffs,
                     normalize=False) -> ComplexParameter:
    """Complex parameter from the expansion scalars, ``unit_ok`` at TOL_K_RAW.

    With ``normalize`` the result is projected exactly onto the unit
    surface by dividing out sqrt(k0^2 - k.k); the defect being divided
    out must already be small relative to |k|^2, so this only absorbs
    round-off, never an off-surface e.
    """
    x, y, z, w = e.x, e.y, e.z, e.w
    Av, Bv, cr = g.Avec, g.Bvec, g.cross
    k = np.empty(4, complex)
    k[0] = (x * g.A - 1j * z * g.B) - (y * g.Avec2 - 1j * w * g.Bvec2)
    k[1:] = (-(y * g.B + 1j * z) * Av + (x + 1j * w * g.A) * Bv
             + (w - 1j * y) * cr)
    kp = ComplexParameter(k)
    kp.require_unit(TOL_K_RAW)
    if normalize:
        q = k[0] ** 2 - np.sum(k[1:] ** 2)
        if abs(q) < 1e-12:
            raise ConstraintViolation("k0^2 - k.k ~ 0: not normalizable")
        kp = ComplexParameter(k / np.sqrt(q))
    return kp


def _transitivity_residual(L, pair):
    return float(np.linalg.norm(
        apply(L, pair.input).as_array() - pair.output.as_array()))


def family_4d(p: MeasurementPair, y: float, z: float, w: float):
    """Solve the pair's quadratic for x at fixed (y, z, w).

    Returns the 0/1/2 real solutions as (ExpansionCoeffs, ComplexParameter,
    transitivity residual) triples, sorted by residual.
    """
    g = pair_geometry(p)
    q = quad_coeffs_from_geometry(g)
    # a x^2 + (2 b y) x + (constraint residual at x = 0) = 0
    ca = q.a
    cb = 2.0 * q.b * y
    cc = constraint_residual(q, ExpansionCoeffs(0.0, y, z, w))
    coeff_scale = max(abs(ca), abs(cb), abs(cc), 1.0)
    if abs(ca) <= 1e-14 * coeff_scale:
        if abs(cb) <= 1e-14 * coeff_scale:
            raise NoRealRoot("degenerate linear slice: no x solves the "
                             "constraint at this (y, z, w)")
        xs = [-cc / cb]
    else:
        disc = cb * cb - 4.0 * ca * cc
        if disc < 0.0:
            raise NoRealRoot(f"discriminant {disc:.3e} < 0: "
                             "(y, z, w) off the surface projection")
        sq = np.sqrt(disc)
        xs = [(-cb + sq) / (2.0 * ca), (-cb - sq) / (2.0 * ca)]
        if disc == 0.0:
            xs = xs[:1]

    out = []
    for x in xs:
        e = ExpansionCoeffs(x=float(x), y=float(y), z=float(z), w=float(w))
        k = k_from_expansion(g, e, normalize=True)
        out.append((e, k, _transitivity_residual(mueller_from_k(k), p)))
    out.sort(key=lambda t: t[2])
    return out


@dataclass
class Candidate:
    e: ExpansionCoeffs
    per_pair_residuals: list
    k_spread: float
    k_list: list = field(default_factory=list)

    @property
    def worst(self):
        return max(self.per_pair_residuals)


@dataclass
class SixReport:
    u: np.ndarray
    candidates: list
    cramer: dict
    rank1_defects: tuple
    condition: float
    shared_solution: bool


def lift(e) -> np.ndarray:
    """u = (x^2, xy, y^2, z^2, zw, w^2) of an ExpansionCoeffs or of an
    (x, y, z, w) array."""
    x, y, z, w = e
    return np.array([x * x, x * y, y * y, z * z, z * w, w * w])


def _lifted_system(qs):
    """Rows (a, 2b, c, -alpha, -2beta, -sigma): row . lift(e) = 1 is the
    pair's quadratic constraint."""
    return np.array([[q.a, 2.0 * q.b, q.c, -q.alpha, -2.0 * q.beta, -q.sigma]
                     for q in qs])


def _k_spread(K):
    """Max over pairs i, j of min(||ki - kj||, ||ki + kj||), K (pairs, 4)."""
    d = np.minimum(np.linalg.norm(K[:, None] - K[None], axis=-1),
                   np.linalg.norm(K[:, None] + K[None], axis=-1))
    return float(d.max())


def _split_block(sq_a, prod, sq_b, scale):
    """(a, b) with a^2 = sq_a, ab = prod, b^2 = sq_b, or None when the
    block is imaginary. The root is taken of the larger square, so the
    division is never by a small root."""
    if max(sq_a, sq_b) < -1e-9 * scale:
        return None
    r = np.sqrt(max(sq_a, sq_b, 0.0))
    if r == 0.0:
        return 0.0, 0.0
    return (r, prod / r) if sq_a >= sq_b else (prod / r, r)


def _lift_jacobian(M, e):
    """Jacobian of M @ lift(e) - 1 with respect to e = (x, y, z, w)."""
    x, y, z, w = e
    return M @ np.array([[2.0 * x, 0.0, 0.0, 0.0],
                         [y, x, 0.0, 0.0],
                         [0.0, 2.0 * y, 0.0, 0.0],
                         [0.0, 0.0, 2.0 * z, 0.0],
                         [0.0, 0.0, w, z],
                         [0.0, 0.0, 0.0, 2.0 * w]])


def _polish(M, e, tol):
    """Gauss-Newton on M @ lift(e) = 1; M has four or six rows.

    Each step is a least-squares solve through one SVD of the Jacobian J,
    dropping singular values <= eps max(J.shape) S[0]. The polish stops
    once max |residual| is within its evaluation round-off
    4 eps max_i (|M| |lift(e)|)_i and within the caller's tol, when a step
    fails to lower it, or after POLISH_STEPS steps. Where that round-off
    exceeds tol (max_i (|M| |lift(e)|)_i above about 1e5), stopping at it
    could leave a residual above tol that one more step would clear.
    Returns e, max |residual| and the singular values of J at that e.
    """
    absM = np.abs(M)
    u = lift(e)
    f = M @ u - 1.0
    fn = np.abs(f).max()
    for step in range(POLISH_STEPS + 1):
        J = _lift_jacobian(M, e)
        U, S, Vt = np.linalg.svd(J, full_matrices=False)
        if step == POLISH_STEPS or fn <= min(
                tol, 4.0 * EPS * (absM @ np.abs(u)).max()):
            break
        keep = S > EPS * max(J.shape) * S[0]
        e_new = e - Vt[keep].T @ ((U[:, keep].T @ f) / S[keep])
        u_new = lift(e_new)
        f_new = M @ u_new - 1.0
        fn_new = np.abs(f_new).max()
        if not fn_new < fn:
            break
        e, u, f, fn = e_new, u_new, f_new, fn_new
    return e, float(fn), S


def _split_polish(M, u, tol):
    """(max |residual|, e, Jacobian singular values) for both (z, w)-block
    signs of the real e that lifts to u, polished with ``tol``, or [] when
    a block of u is imaginary.

    The point is polished once: flipping the (z, w) sign leaves lift(e),
    the residual and the singular values unchanged.
    """
    scale = max(1.0, float(np.linalg.norm(u)))
    xy = _split_block(u[0], u[1], u[2], scale)
    zw = _split_block(u[3], u[4], u[5], scale)
    if xy is None or zw is None:
        return []
    e, fn, sv = _polish(M, np.array([*xy, *zw]), tol)
    return [(fn, e, sv), (fn, e * np.array([1.0, 1.0, -1.0, -1.0]), sv)]


def _canonical_unique(found):
    """The (fn, e, sv) points of _split_polish sorted by fn, each given the
    canonical global sign (its first component of largest magnitude is
    >= 0), without those within 1e-6 of an earlier one. Returns
    (fn, ExpansionCoeffs, sv); sv holds for the canonical e, as neither
    sign changes the Jacobian's singular values."""
    out = []
    for fn, e, sv in sorted(found, key=lambda r: r[0]):
        lead = np.argmax(np.abs(e))
        if e[lead] < 0:
            e = -e
        if not any(np.linalg.norm(e - o.as_array()) < 1e-6
                   for _, o, _ in out):
            out.append((fn, ExpansionCoeffs(*[float(v) for v in e]), sv))
    return out


def _validate(geoms, pairs, es):
    """Every candidate e checked against every pair in one pass.

    The parameters K (pairs, candidates, 4) are assembled as in
    k_from_expansion and checked by the rules of
    k_from_expansion(normalize=True) followed by mueller_from_k:
    ``unit_ok`` at TOL_K_RAW, |q| ~ 0, ``unit_ok`` of the normalized k at
    TOL_K. Returns K (normalized where accepted), the transitivity
    residuals (pairs, candidates) and the rejection mask (pairs,
    candidates), True where that per-pair path would raise a
    MuellerKitError.
    """
    x, y, z, w = np.array([e.as_array() for e in es]).reshape(-1, 4).T
    A, B, Avec2, Bvec2 = np.array(
        [[g.A, g.B, g.Avec2, g.Bvec2] for g in geoms]).T[..., None]
    Av, Bv, cr = np.array([[g.Avec, g.Bvec, g.cross]
                           for g in geoms]).transpose(1, 0, 2)[:, :, None]
    K = np.empty((len(geoms), len(es), 4), complex)
    K[..., 0] = (x * A - 1j * z * B) - (y * Avec2 - 1j * w * Bvec2)
    K[..., 1:] = (-(y * B + 1j * z)[..., None] * Av
                  + (x + 1j * w * A)[..., None] * Bv
                  + (w - 1j * y)[..., None] * cr)

    q = K[..., 0] ** 2 - np.sum(K[..., 1:] ** 2, axis=-1)
    bad = ~unit_ok(K, TOL_K_RAW) | (np.abs(q) < 1e-12)
    K = K / np.sqrt(np.where(bad, 1.0, q))[..., None]  # rejected: left as is
    bad |= ~unit_ok(K, TOL_K)
    L = kernels.mueller_product(K)

    vin = np.array([p.input.as_array() for p in pairs])
    vout = np.array([p.output.as_array() for p in pairs])
    res = np.linalg.norm(
        np.einsum("pcij,pj->pci", L, vin) - vout[:, None], axis=-1)
    return K, res, bad


def solve_six(pairs, tol_l=1e-6, tol_r1=TOL_R1) -> SixReport:
    """Reconstruct from six measurements through the lifted linear system.

    The six per-pair quadratics are linear in the monomials
    u = (x^2, xy, y^2, z^2, zw, w^2); the 6x6 system (rows
    (a, 2b, c, -alpha, -2beta, -sigma), right side 1) is solved by dense
    LU, with the Cramer determinants reported for reference. u must be
    rank-1 consistent in each block. It is split into (x, y, z, w) by the
    root of each block's larger square and polished on the six
    constraints down to round-off (see _polish); both (z, w)-block signs,
    under the canonical global sign (first component of largest
    magnitude >= 0), are validated on every pair through the transitivity
    residual, and a candidate any pair rejects is dropped. Whether all six
    per-pair parameters agree (a genuinely shared device parameter) is
    reported, not assumed.
    """
    if len(pairs) != 6:
        raise ValueError("exactly six pairs required")
    geoms = [pair_geometry(p) for p in pairs]
    M = _lifted_system([quad_coeffs_from_geometry(g) for g in geoms])
    rhs = np.ones(6)

    cond = float(np.linalg.cond(M))
    if not np.isfinite(cond) or cond > COND_MAX:
        raise SingularSystem(f"lifted 6x6 system condition {cond:.3e} "
                             f"exceeds {COND_MAX:.0e}")
    u = np.linalg.solve(M, rhs)

    C = np.repeat(M[None], 7, axis=0)  # M, then column j replaced by rhs
    C[np.arange(1, 7), :, np.arange(6)] = rhs
    cramer = dict(zip(("det", "x2", "xy", "y2", "z2", "zw", "w2"),
                      np.linalg.det(C).tolist()))

    scale = max(1.0, float(np.linalg.norm(u)))
    d1 = abs(u[1] ** 2 - u[0] * u[2])
    d2 = abs(u[4] ** 2 - u[3] * u[5])
    if d1 > tol_r1 * scale ** 2 or d2 > tol_r1 * scale ** 2:
        raise Rank1Violation(
            f"lifted vector is not rank-1 consistent: "
            f"|u_xy^2 - u_xx u_yy| = {d1:.3e}, "
            f"|u_zw^2 - u_zz u_ww| = {d2:.3e} "
            "(no single (x,y,z,w) generates it)")

    es = [e for _, e, _ in _canonical_unique(_split_polish(M, u, np.inf))]
    K, res, bad = _validate(geoms, pairs, es)
    candidates = sorted(
        (Candidate(e=es[c], per_pair_residuals=res[:, c].tolist(),
                   k_spread=_k_spread(K[:, c]),
                   k_list=[ComplexParameter(k) for k in K[:, c]])
         for c in np.flatnonzero(~bad.any(axis=0))),
        key=lambda cnd: cnd.worst)

    valid = [cnd for cnd in candidates if cnd.worst <= tol_l]
    report = SixReport(
        u=u, candidates=candidates, cramer=cramer,
        rank1_defects=(float(d1), float(d2)), condition=cond,
        shared_solution=bool(valid),
    )
    if not valid:
        raise NoValidCandidate(
            "no sign assignment passes the transitivity tolerance "
            f"(best worst-pair residual: "
            f"{candidates[0].worst if candidates else np.inf:.3e})",
            report=report)
    return report


@dataclass
class FourReport:
    roots: list           # list of (ExpansionCoeffs, max |constraint residual|)
    per_pair_residuals: list  # inf where a pair rejects the root
    rank_deficient: list  # Jacobian-degenerate flags aligned with roots
    n_starts: int         # sign candidates read back from lifted points
    k: list               # each root's k on the first pair's basis; normalized
                          # unless per_pair_residuals[i][0] is inf


def _rank1_conic(u0, v1, v2, i, j, k):
    """u_j^2 - u_i u_k on u = u0 + s v1 + t v2 as c2 t^2 + c1(s) t + c0(s),
    from float sequences u0, v1, v2.

    c2 is a number, c1 = (c11, c10) and c0 = (c02, c01, c00) hold the
    coefficients of powers of s, highest first.
    """
    si, sj, sk = v1[i], v1[j], v1[k]
    oi, oj, ok = u0[i], u0[j], u0[k]
    ti, tj, tk = v2[i], v2[j], v2[k]
    c2 = tj * tj - ti * tk
    c1 = (2.0 * tj * sj - ti * sk - tk * si, 2.0 * tj * oj - ti * ok - tk * oi)
    c0 = (sj * sj - si * sk, 2.0 * sj * oj - (si * ok + oi * sk),
          oj * oj - oi * ok)
    return c2, c1, c0


def _slice_points(u0, v1, v2):
    """Points u = u0 + s v1 + t v2 on both rank-1 conics, s and t real.

    The Sylvester resultant of the two conics f = a2 t^2 + a1 t + a0 and
    g = b2 t^2 + b1 t + b0 is the quartic d20^2 - d21 d10 in s, with
    d20 = a2 b0 - b2 a0, d21 = a2 b1 - b2 a1 and d10 = a1 b0 - a0 b1;
    t then follows from the pencil b2 f - a2 g, which is linear in t, or
    from f itself where that pencil vanishes.
    """
    lists = u0.tolist(), v1.tolist(), v2.tolist()
    a2, (a11, a10), (a02, a01, a00) = _rank1_conic(*lists, 0, 1, 2)
    b2, (b11, b10), (b02, b01, b00) = _rank1_conic(*lists, 3, 4, 5)
    e2, e1, e0 = a2 * b02 - b2 * a02, a2 * b01 - b2 * a01, a2 * b00 - b2 * a00
    g1, g0 = a2 * b11 - b2 * a11, a2 * b10 - b2 * a10
    h3 = a11 * b02 - a02 * b11
    h2 = (a11 * b01 + a10 * b02) - (a02 * b10 + a01 * b11)
    h1 = (a11 * b00 + a10 * b01) - (a01 * b10 + a00 * b11)
    h0 = a10 * b00 - a00 * b10
    quartic = [e2 * e2 - g1 * h3,
               2.0 * e2 * e1 - (g1 * h2 + g0 * h3),
               (2.0 * e2 * e0 + e1 * e1) - (g1 * h1 + g0 * h2),
               2.0 * e1 * e0 - (g1 * h0 + g0 * h1),
               e0 * e0 - g0 * h0]
    g_scale = max(abs(g1), abs(g0))
    out = []
    for s in np.roots(quartic):
        if abs(s.imag) > 1e-6 * (1.0 + abs(s)):
            continue
        s = float(s.real)
        den = g1 * s + g0
        if abs(den) > 1e-10 * g_scale * (1.0 + abs(s)):
            ts = [-((e2 * s + e1) * s + e0) / den]
        else:
            ts = [t.real for t in np.roots([a2, a11 * s + a10,
                                            (a02 * s + a01) * s + a00])
                  if abs(t.imag) <= 1e-6 * (1.0 + abs(t))]
        out.extend(u0 + s * v1 + t * v2 for t in ts)
    return out


def solve_four(pairs, seed=0, starts=64, tol=1e-10) -> FourReport:
    """Reconstruct from four measurements exactly.

    The four quadratics are linear in the lifted monomials
    u = (x^2, xy, y^2, z^2, zw, w^2), so u lies on the affine null-space
    family of the 4x6 lifted system (one SVD). On it the two rank-1
    conditions u_xy^2 = u_xx u_yy and u_zw^2 = u_zz u_ww are two conics
    whose resultant is a quartic: at most 4 u, each read back as in
    solve_six (split, polish until the residual is within both its
    evaluation round-off and tol, both (z, w)-block signs) and accepted
    when max |residual| <= tol. ``rank_deficient`` reads the singular
    values of the constraint Jacobian that the polish factored at the
    returned point: sv_min <= 1e-8 max(sv_max, 1). When the system has
    rank < 4 (e.g. a repeated pair) the roots form a positive-dimensional
    set; successive 2-D slices of the null space are tried until one yields
    real points. Roots get the canonical global sign, are deduplicated and
    validated by transitivity on every pair in one stacked pass; a pair
    that rejects a root reports an infinite residual.

    ``seed`` and ``starts`` are accepted for compatibility and ignored;
    the result is deterministic.
    """
    if len(pairs) != 4:
        raise ValueError("exactly four pairs required")
    geoms = [pair_geometry(p) for p in pairs]
    for g in geoms:
        if g.collinear:
            raise DegenerateGeometry("collinear pair basis among the four")
    M = _lifted_system([quad_coeffs_from_geometry(g) for g in geoms])

    U, S, Vt = np.linalg.svd(M)
    rank = int(np.sum(S > 1e-12 * S[0]))
    u0 = Vt[:rank].T @ ((U[:, :rank].T @ np.ones(4)) / S[:rank])
    null = Vt[rank:]

    found = []
    n_cands = 0
    for i, j in combinations(range(len(null)), 2):
        for u in _slice_points(u0, null[i], null[j]):
            cands = _split_polish(M, u, tol)
            n_cands += len(cands)
            found.extend(c for c in cands if c[0] <= tol)
        if found:
            break
    if not found:
        raise NoConvergedRoot(
            f"none of {n_cands} candidate points solves all four "
            f"constraints below {tol:.0e}")

    unique = _canonical_unique(found)
    roots = [(e, fn) for fn, e, _ in unique]
    rank_flags = [bool(sv[-1] <= 1e-8 * max(sv[0], 1.0))
                  for _, _, sv in unique]
    K, res, bad = _validate(geoms, pairs, [e for e, _ in roots])
    res[bad] = np.inf
    return FourReport(roots=roots, per_pair_residuals=res.T.tolist(),
                      rank_deficient=rank_flags, n_starts=n_cands,
                      k=[ComplexParameter(k) for k in K[0]])
