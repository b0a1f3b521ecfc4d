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

As k0 = n0 + i m0 and k_j = -i n_j + m_j, the expansion is one linear map
(Re k, Im k) = E e, E the pair's 8x4 expansion basis with rows (n0, m, m0,
-n), built only by ``_basis_entries`` and inverted by projection (see
``params_to_expansion``).

Both solvers read their pairs once, into one pair table: a row of floats
per pair holding its ``geometry_table`` row (the same arithmetic as
``pair_geometry``), its lifted row, its Stokes vectors and its E. The
table supplies the lifted system, the collinearity test and the stacked
validation. Both read each lifted point back the same way: each block is
split by the root of its larger square, the point is polished by
Gauss-Newton on the lifted system, one least-squares solve per step and
none at a point already within tolerance, until its residual reaches
evaluation round-off and the caller's tolerance (or stops falling), both
(z, w)-block signs are emitted (no constraint sees that sign), every
point gets one canonical global sign, duplicates are dropped and the rest
ordered by e, and all candidates are checked against all pairs in one
stacked pass (``_validate``: one q = k0^2 - k.k of each k = E e, read by
its unit check and its normalization in place, and ``transit_residuals``
of each k's L = mueller_from_k(k)); the reported k are records over one
read-only copy of that block. ``family_4d`` reads its roots back through
the same pass on its one-pair table. The order depends on e alone, not on
residuals at round-off level or on the order of the pairs; solve_four's
rank flags come from one batched SVD of the Jacobians at its returned
roots.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (ConstraintViolation, DegenerateGeometry,
                     InconsistentPairs, NoConvergedRoot, NoRealRoot,
                     NoValidCandidate, OutOfDomain, Rank1Violation,
                     SingularSystem)
from . import kernels
from .lorentz import (ComplexParameter, RealParameter, minkowski_square,
                      records, transit_residuals, unit_ok_q)
from .stokes import (ASUM, AVEC, AVEC2, BDIFF, BVEC, BVEC2, CROSS, CROSS2,
                     GEOMETRY_WIDTH, MeasurementPair, PairGeometry,
                     basis_collinear, frozen, geometry_table)

TOL_CONS = 1e-8
TOL_R1 = 1e-6
COND_MAX = 1e10
TOL_K_RAW = 1e-8   # unit defect of k assembled from e, before normalizing
POLISH_STEPS = 8
EPS = np.finfo(float).eps


class ExpansionCoeffs(namedtuple("ExpansionCoeffs", "x y z w")):
    """Expansion scalars (x, y, z, w)."""

    __slots__ = ()

    def as_array(self):
        return np.array(self)


class QuadCoeffs(namedtuple("QuadCoeffs", "a b c alpha beta sigma")):
    """Coefficients of a x^2 + 2b xy + c y^2 - alpha z^2 - 2 beta zw
    - sigma w^2 = 1."""

    __slots__ = ()

    def as_row(self):
        return np.array(self)


def quad_coeffs(p: MeasurementPair) -> QuadCoeffs:
    """The pair's coefficients (see ``quad_coeffs_list``)."""
    return quad_coeffs_list([p])[0]


def quad_coeffs_list(pairs) -> list:
    """QuadCoeffs of each pair, from its geometry_table row (which raises
    OutOfDomain for an entry not within +-S_MAX, as in the solvers)."""
    return [_quad(r) for r in geometry_table(pairs).tolist()]


def _quad_terms(A, B, A2, B2):
    """(a, b, c, alpha, beta, sigma) from A, B, Avec^2 and Bvec^2."""
    return (A * A - B2,
            A * (B * B - A2),
            (A2 + B2 - B * B) * A2 - A * A * B * B,
            B * B - A2,
            B * (A * A - B2),
            (A2 + B2 - A * A) * B2 - A * A * B * B)


def _quad(row):
    """QuadCoeffs of a geometry_table row given as a list of floats."""
    return QuadCoeffs(*_quad_terms(row[ASUM], row[BDIFF], row[AVEC2],
                                   row[BVEC2]))


def quad_coeffs_from_geometry(g: PairGeometry) -> QuadCoeffs:
    return QuadCoeffs(*_quad_terms(g.A, g.B, g.Avec2, g.Bvec2))


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


def _basis_entries(A, B, Av, Bv, cr, A2, B2):
    """E row by row as 32 floats, the coefficients of (x, y, z, w) in n0,
    m, m0 and -n (module docstring), from floats and float 3-sequences."""
    m = [v for a, b, c in zip(Av, Bv, cr) for v in (b, -B * a, 0.0, c)]
    minus_n = [v for a, b, c in zip(Av, Bv, cr) for v in (0.0, -c, -a, A * b)]
    return [A, -A2, 0.0, 0.0, *m, 0.0, 0.0, -B, B2, *minus_n]


def expansion_basis(g: PairGeometry) -> np.ndarray:
    """The pair's 8x4 expansion basis E: (Re k, Im k) = E @ (x, y, z, w)."""
    entries = _basis_entries(g.A, g.B, g.Avec.tolist(), g.Bvec.tolist(),
                             g.cross.tolist(), g.Avec2, g.Bvec2)
    return np.array(entries).reshape(8, 4)


def expansion_to_params(g: PairGeometry, e: ExpansionCoeffs) -> RealParameter:
    """Real-split parameters of the family member at e.

    Orthogonality n0 m0 + n.m = 0 is an identity of the expansion and is
    asserted; the normalization constraint holds iff e lies on the
    quadratic 3-surface, which is not checked here:
    ``k_from_nm(expansion_to_params(g, e))`` applies the unit rule.
    """
    v = expansion_basis(g) @ e.as_array()
    r = RealParameter(n0=v[0], n=-v[5:], m0=v[4], m=v[1:4])
    scale = max(1.0, abs(r.n0 * r.m0), abs(float(r.n @ r.m)))
    if r.ortho_defect() > 1e-11 * scale:
        raise ConstraintViolation(
            f"orthogonality identity violated by {r.ortho_defect():.3e}")
    return r


def params_to_expansion(g: PairGeometry, r: RealParameter) -> ExpansionCoeffs:
    """The e with E e = v = (n0, m, m0, -n), E = expansion_basis(g), by one
    Householder QR of [E | v], E's columns scaled to unit norm, and one
    triangular solve: R[:4, 4] is v in the orthonormal basis of the span
    of E, and |R[4, 4]| the distance of v from that span.

    E e, hence k, is kept to a few eps |k| at any rapidity, although e is
    ill-determined where the basis is nearly collinear (a strong boost).
    Rank below 4 (some |R_ii| within 8 eps of the largest), as for every
    Bvec = 0 pair, raises DegenerateGeometry; a v farther than TOL_CONS |v|
    from the span of E raises InconsistentPairs.
    """
    E = expansion_basis(g)
    c = np.linalg.norm(E, axis=0)
    v = [r.n0, *r.m.tolist(), r.m0, *(-r.n).tolist()]
    R = np.linalg.qr(np.column_stack((E / np.where(c > 0.0, c, 1.0), v)),
                     mode="r")
    d = np.abs(R.diagonal()[:4]).tolist()
    if min(d) <= max(E.shape) * EPS * max(d):
        raise DegenerateGeometry(
            "pair basis is collinear (expansion basis of rank < 4); "
            "rotation-only pairs belong to the 3D solver")
    if abs(R[4, 4]) > TOL_CONS * math.hypot(*v):
        raise InconsistentPairs(
            f"parameter lies {abs(R[4, 4]):.3e} off the pair's expansion "
            "span (it does not map this pair)")
    # R[:4, :4] is upper triangular, so its LU is itself: back substitution
    e = np.linalg.solve(R[:4, :4], R[:4, 4]) / c
    return ExpansionCoeffs(*e.tolist())


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
    v = expansion_basis(g) @ e.as_array()
    k = v[:4] + 1j * v[4:]
    kp = ComplexParameter(k)
    kp.require_unit(TOL_K_RAW)
    if normalize:
        q = minkowski_square(k)
        if abs(q) < 1e-12:
            raise ConstraintViolation("k0^2 - k.k ~ 0: not normalizable")
        kp = ComplexParameter(k / np.sqrt(q))
    return kp


def family_4d(p: MeasurementPair, y: float, z: float, w: float):
    """Solve the pair's quadratic for x at fixed (y, z, w).

    Returns the 1 or 2 real solutions as (ExpansionCoeffs,
    ComplexParameter, transitivity residual) triples, ordered by x, each
    read back as the solvers read theirs: k = E e on the pair's table row,
    normalized, and checked by ``_validate``; a root it rejects (k off the
    unit surface, or not normalizable) raises ConstraintViolation. A pair
    with a Stokes entry not within +-S_MAX (see ``geometry_table``), or a
    slice whose coefficients or discriminant overflow, raises OutOfDomain.
    A negative discriminant raises NoRealRoot, as does an a that counts as
    zero against the pair's lifted row (which does not grow with (y, z,
    w)): a valid pair has a >= 4 (s0^2 - |s|^2) > 0, or is fully polarized,
    where b vanishes with a, so such a slice is round-off.
    """
    T = _pair_table([p])
    # the lifted row (a, 2b, c, -alpha, -2beta, -sigma); the quadratic in x
    # is a x^2 + (2b y) x + (constraint residual at x = 0) = 0
    ca, b2, c, m_alpha, m_beta2, m_sigma = row = T[0, _LIFT].tolist()
    cb = b2 * y
    cc = (c * y * y + m_alpha * z * z + m_beta2 * z * w + m_sigma * w * w
          - 1.0)
    disc = cb * cb - 4.0 * ca * cc
    if not all(map(math.isfinite, (ca, cb, cc, disc))):
        raise OutOfDomain(f"quadratic in x overflows at (y, z, w) = "
                          f"({y:.3e}, {z:.3e}, {w:.3e})")
    if abs(ca) <= 1e-14 * max(map(abs, row)):
        raise NoRealRoot("degenerate slice: the x^2 coefficient is "
                         "round-off; the pair implies no x at this (y, z, w)")
    if disc < 0.0:
        raise NoRealRoot(f"discriminant {disc:.3e} < 0: "
                         "(y, z, w) off the surface projection")
    sq = math.sqrt(disc)
    xs = sorted({(-cb + sq) / (2.0 * ca), (-cb - sq) / (2.0 * ca)})

    es = [[x, float(y), float(z), float(w)] for x in xs]
    K, res, bad = _validate(T, np.array(es))
    if bad.any():
        raise ConstraintViolation(
            f"root x = {xs[int(np.argmax(bad[0]))]:.17g} rejected: k = E e "
            "is off the unit surface or not normalizable")
    return [(ExpansionCoeffs(*e), k, r) for e, k, r in
            zip(es, records(ComplexParameter, K[0]), res[0].tolist())]


class Candidate(namedtuple("Candidate",
                           "e per_pair_residuals k_spread k_list")):
    __slots__ = ()

    @property
    def worst(self):
        return max(self.per_pair_residuals)


class SixReport(namedtuple("SixReport", "u candidates cramer rank1_defects "
                                        "condition shared_solution")):
    """u, float64[6]: the solution of the lifted system."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # _replace runs __new__

    def __new__(cls, u, *fields, **named):
        return super().__new__(cls, frozen(u, float, (6,)), *fields, **named)


def lift(e) -> np.ndarray:
    """u = (x^2, xy, y^2, z^2, zw, w^2) of an ExpansionCoeffs or of an
    (x, y, z, w) array."""
    x, y, z, w = e
    return np.array([x * x, x * y, y * y, z * z, z * w, w * w])


# Columns of the pair table after those of ``geometry_table``: the lifted
# row (a, 2b, c, -alpha, -2beta, -sigma), the input and output Stokes
# 4-vectors, then the expansion basis E row by row.
_LIFT = slice(GEOMETRY_WIDTH, GEOMETRY_WIDTH + 6)
_VIN = slice(GEOMETRY_WIDTH + 6, GEOMETRY_WIDTH + 10)
_VOUT = slice(GEOMETRY_WIDTH + 10, GEOMETRY_WIDTH + 14)
_BASIS = slice(GEOMETRY_WIDTH + 14, GEOMETRY_WIDTH + 46)


def _pair_table(pairs):
    """One row of floats per pair (columns above), each pair's scalars
    computed once; row[_LIFT] . lift(e) = 1 is the pair's quadratic
    constraint. The appended columns are taken in Python floats: on a few
    rows that costs less than the same arithmetic on arrays; within the
    domain of ``geometry_table`` (entries within +-S_MAX) none overflows."""
    rows = geometry_table(pairs).tolist()
    for r, p in zip(rows, pairs):
        a, b, c, alpha, beta, sigma = _quad_terms(r[ASUM], r[BDIFF],
                                                  r[AVEC2], r[BVEC2])
        r += [a, 2.0 * b, c, -alpha, -2.0 * beta, -sigma,
              p.input.s0, *p.input.s.tolist(),
              p.output.s0, *p.output.s.tolist()]
        r += _basis_entries(r[ASUM], r[BDIFF], r[AVEC], r[BVEC], r[CROSS],
                            r[AVEC2], r[BVEC2])
    return np.array(rows)


_I6, _J6 = np.triu_indices(6, 1)  # the 15 pairs i < j of six


def _k_spread(K):
    """Max over pairs i < j of min(||ki - kj||, ||ki + kj||) for each
    candidate of K (6 pairs, candidates, 4), as a list. The norms are
    taken of the differences themselves: a Gram form |ki|^2 + |kj|^2 -
    2 |Re<ki, kj>| cancels where the k nearly agree."""
    Ki, Kj = K[_I6], K[_J6]
    d = np.linalg.norm(np.stack((Ki - Kj, Ki + Kj)), axis=-1)
    return d.min(axis=0).max(axis=0).tolist()


def _split_block(sq_a, prod, sq_b, scale):
    """(a, b) with a^2 = sq_a, ab = prod, b^2 = sq_b, or None when the
    block is imaginary. The root is taken of the larger square, so the
    division is never by a small root."""
    if max(sq_a, sq_b) < -1e-9 * scale:
        return None
    r = math.sqrt(max(sq_a, sq_b, 0.0))
    if r == 0.0:
        return 0.0, 0.0
    return (r, prod / r) if sq_a >= sq_b else (prod / r, r)


# The nonzero entries of the 6x4 derivative of lift(e), row-major: their
# flat index, the component of e and its factor.
_D_INDEX = np.array([0, 4, 5, 9, 14, 18, 19, 23])
_D_SOURCE = np.array([0, 1, 0, 1, 2, 3, 2, 3])
_D_FACTOR = np.array([2.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0])


def _lift_jacobian(M, e):
    """Jacobian of M @ lift(e) - 1 with respect to e = (x, y, z, w); for a
    stack e (..., 4), the stack of Jacobians (..., rows of M, 4)."""
    e = np.asarray(e, float)
    D = np.zeros(e.shape[:-1] + (24,))
    D[..., _D_INDEX] = e.take(_D_SOURCE, axis=-1) * _D_FACTOR
    return M @ D.reshape(*e.shape[:-1], 6, 4)


def _rank_deficient(M, es):
    """The flags of solve_four's roots es (n, 4), from one batched SVD of
    their Jacobians: sv_min <= 1e-8 max(sv_max, 1). No sign of a root
    changes its singular values."""
    S = np.linalg.svd(_lift_jacobian(M, es), compute_uv=False)
    return [s[-1] <= 1e-8 * max(s[0], 1.0) for s in S.tolist()]


def _polish(M, e, tol):
    """Gauss-Newton on M @ lift(e) = 1; M has four or six rows.

    The polish stops once max |residual| is within its evaluation
    round-off 4 eps max_i (|M| |lift(e)|)_i and within the caller's tol,
    when a step fails to lower it, or after POLISH_STEPS steps. Each step
    is one ``np.linalg.lstsq`` solve of the Jacobian J with rcond
    eps max(J.shape), which drops the singular values <= rcond S[0]; a
    point that needs no step is not factored. Where that round-off
    exceeds tol (max_i (|M| |lift(e)|)_i above about 1e5), the residual
    cannot be resolved below it, and which multiple of the float spacing
    the walk lands on is chance.
    Returns e, max |residual| and its round-off bound.
    """
    absM = np.abs(M)
    u = lift(e)
    f = M @ u - 1.0
    fn = np.abs(f).max()
    bound = 4.0 * EPS * (absM @ np.abs(u)).max()
    for _ in range(POLISH_STEPS):
        if fn <= min(tol, bound):
            break
        J = _lift_jacobian(M, e)
        e_new = e - np.linalg.lstsq(J, f, rcond=EPS * max(J.shape))[0]
        u_new = lift(e_new)
        f_new = M @ u_new - 1.0
        fn_new = np.abs(f_new).max()
        if not fn_new < fn:
            break
        e, u, f, fn = e_new, u_new, f_new, fn_new
        bound = 4.0 * EPS * (absM @ np.abs(u)).max()
    return e, float(fn), float(bound)


def _split_polish(M, u, tol):
    """(max |residual|, e, round-off bound of the residual) for both
    (z, w)-block signs of the real e that lifts to u, polished with
    ``tol`` (see _polish), or [] when a block of u is imaginary. e is a
    list of floats.

    The point is polished once: flipping the (z, w) sign leaves lift(e)
    and the residual unchanged.
    """
    scale = max(1.0, math.sqrt(u @ u))  # the bits of np.linalg.norm(u)
    u_xx, u_xy, u_yy, u_zz, u_zw, u_ww = u.tolist()
    xy = _split_block(u_xx, u_xy, u_yy, scale)
    zw = _split_block(u_zz, u_zw, u_ww, scale)
    if xy is None or zw is None:
        return []
    e, fn, bound = _polish(M, np.array([*xy, *zw]), tol)
    x, y, z, w = e.tolist()
    return [(fn, [x, y, z, w], bound), (fn, [x, y, -z, -w], bound)]


def _canonical_unique(found):
    """The points of _split_polish taken in order of fn, each given the
    canonical global sign (its first component of largest magnitude is
    >= 0), without those within 1e-6 of an earlier one, then sorted by
    the canonical e. Returns (fn, e) with e a list of floats."""
    out = []
    for fn, e, _ in sorted(found, key=lambda r: r[0]):
        if max(e, key=abs) < 0:
            e = [-v for v in e]
        if not any(math.dist(e, o) < 1e-6 for _, o in out):
            out.append((fn, e))
    out.sort(key=lambda r: r[1])
    return out


def _validate(T, es):
    """Every candidate e (rows of es) checked against every pair (rows of
    the pair table T) in one pass.

    The parameters K (pairs, candidates, 4) are E e for each pair's
    expansion basis E, as in k_from_expansion, and checked by the rules of
    k_from_expansion(normalize=True) followed by mueller_from_k: ``unit_ok``
    at TOL_K_RAW and |q| ~ 0, on one q = ``minkowski_square(K)``. The third
    rule, ``unit_ok`` of the normalized k at TOL_K, is implied: k / sqrt(q)
    misses the unit surface by a few eps sum |k_i|^2 / |q|, its own scale,
    and a non-finite k fails the first rule (this holds while
    sum |k_i|^2 / |q| does not overflow). Returns K, normalized where
    accepted, the ``transit_residuals`` of mueller_from_k's L for each k
    (pairs, candidates) and the rejection mask (pairs, candidates), True
    where that per-pair path would raise a MuellerKitError.
    """
    es = es.reshape(-1, 4)  # no point: (0, 4), so K is empty
    V = np.swapaxes(T[:, _BASIS].reshape(-1, 8, 4) @ es.T, 1, 2)
    K = V[..., :4] + 1j * V[..., 4:]

    q = minkowski_square(K)
    bad = ~unit_ok_q(q, K, TOL_K_RAW) | (np.abs(q) < 1e-12)
    K /= np.sqrt(np.where(bad, 1.0, q))[..., None]  # rejected: left as is

    L = kernels.mueller_product(K)
    return K, transit_residuals(L, T[:, None, _VIN], T[:, None, _VOUT]), bad


def solve_six(pairs, tol_l=1e-6) -> SixReport:
    """Reconstruct from six measurements through the lifted linear system.

    The six per-pair quadratics are linear in the monomials
    u = (x^2, xy, y^2, z^2, zw, w^2); the 6x6 system (rows
    (a, 2b, c, -alpha, -2beta, -sigma), right side 1) is solved by dense
    LU, with det(M) and the Cramer values det(M) u_j reported for
    reference; its rows come from the pair table (see the module
    docstring), and its condition is S_max / S_min. u must be rank-1
    consistent in each block to TOL_R1, else Rank1Violation. It is split
    into (x, y, z, w) by the root of each block's larger square and
    polished on the six constraints down to round-off (see _polish); both
    (z, w)-block signs, under the canonical global sign (first component
    of largest magnitude >= 0), are validated on every pair through the
    transitivity residual, and a candidate any pair rejects is dropped.
    The candidates within tol_l on every pair come first, each group
    ordered by e. shared_solution: some candidate is within tol_l on
    every pair (False only in NoValidCandidate's report); k_spread, not
    it, says how far a candidate's six per-pair parameters agree.
    """
    if len(pairs) != 6:
        raise ValueError("exactly six pairs required")
    T = _pair_table(pairs)
    M = T[:, _LIFT]

    S = np.linalg.svd(M, compute_uv=False).tolist()  # as np.linalg.cond
    cond = S[0] / S[-1] if S[-1] > 0.0 else math.inf
    if not cond <= COND_MAX:
        raise SingularSystem(f"lifted 6x6 system condition {cond:.3e} "
                             f"exceeds {COND_MAX:.0e}")
    u = np.linalg.solve(M, np.ones(6))

    # Cramer's rule: det(M) u_j is the det of M with column j replaced by 1
    det = float(np.linalg.det(M))
    cramer = dict(zip(("det", "x2", "xy", "y2", "z2", "zw", "w2"),
                      [det, *(det * v for v in u.tolist())]))

    scale = max(1.0, math.sqrt(u @ u))  # the bits of np.linalg.norm(u)
    d1 = abs(u[1] ** 2 - u[0] * u[2])
    d2 = abs(u[4] ** 2 - u[3] * u[5])
    if d1 > TOL_R1 * scale ** 2 or d2 > TOL_R1 * scale ** 2:
        raise Rank1Violation(
            f"lifted vector is not rank-1 consistent: "
            f"|u_xy^2 - u_xx u_yy| = {d1:.3e}, "
            f"|u_zw^2 - u_zz u_ww| = {d2:.3e} "
            "(no single (x,y,z,w) generates it)")

    es = [e for _, e in _canonical_unique(_split_polish(M, u, np.inf))]
    K, res, bad = _validate(T, np.array(es))
    keep = np.flatnonzero(~bad.any(axis=0))
    candidates = sorted(
        (Candidate(e=ExpansionCoeffs(*es[c]), per_pair_residuals=r,
                   k_spread=spread, k_list=records(ComplexParameter, K[:, c]))
         for c, r, spread in zip(keep.tolist(), res[:, keep].T.tolist(),
                                 _k_spread(K[:, keep]))),
        key=lambda cnd: cnd.worst > tol_l)

    valid = [cnd for cnd in candidates if cnd.worst <= tol_l]
    report = SixReport(u=u, candidates=candidates, cramer=cramer,
                       rank1_defects=(float(d1), float(d2)),
                       condition=cond, shared_solution=bool(valid))
    if not valid:
        raise NoValidCandidate(
            "no sign assignment passes the transitivity tolerance "
            f"(best worst-pair residual: "
            f"{min((c.worst for c in candidates), default=np.inf):.3e})",
            report=report)
    return report


@dataclass
class FourReport:
    roots: list           # (ExpansionCoeffs, max |constraint residual|), by e
    per_pair_residuals: list  # |L s - s'| of each pair's own k, per root
    rank_deficient: list  # Jacobian-degenerate flags aligned with roots
    n_starts: int         # sign candidates read back from lifted points
    k: list               # each root's normalized k on the first pair's basis


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
    """Points u = u0 + s v1 + t v2 on both rank-1 conics, s and t real, as
    the rows of one array.

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
    st = []
    for s in _real_roots(quartic):
        den = g1 * s + g0
        if abs(den) > 1e-10 * g_scale * (1.0 + abs(s)):
            st.append((s, -((e2 * s + e1) * s + e0) / den))
        else:
            st.extend((s, t) for t in _real_roots(
                [a2, a11 * s + a10, (a02 * s + a01) * s + a00]))
    s, t = np.array(st).reshape(-1, 2).T[..., None]
    return u0 + s * v1 + t * v2


def companion_roots(polys):
    """The roots of each polynomial of ``polys`` (lists of float
    coefficients, highest power first), bit for bit those of ``np.roots``
    (companion-matrix eigenvalues, leading zero coefficients dropped, a
    zero per trailing one), with one ``eigvals`` call on the stack of
    companion matrices of each size."""
    roots, by_size = [], {}
    for c in polys:
        nonzero = [i for i, v in enumerate(c) if v != 0.0] or [len(c) - 1]
        roots.append([0.0] * (len(c) - 1 - nonzero[-1]))
        p = c[nonzero[0]:nonzero[-1] + 1]
        if len(p) > 1:
            by_size.setdefault(len(p) - 1, []).append((roots[-1], p))
    for n, group in by_size.items():
        eye = [[float(j == i) for j in range(n)] for i in range(n - 1)]
        C = np.array([[[-v / p[0] for v in p[1:]], *eye] for _, p in group])
        for (r, _), e in zip(group, np.linalg.eigvals(C).tolist()):
            r[:0] = e
    return roots


def _real_roots(coeffs):
    """The real parts of the roots of the polynomial with float
    coefficients ``coeffs`` (highest power first) whose imaginary part is
    within 1e-6 (1 + |root|), as floats (see ``companion_roots``)."""
    return [r.real for r in companion_roots([coeffs])[0]
            if abs(r.imag) <= 1e-6 * (1.0 + abs(r))]


def solve_four(pairs, tol=1e-10) -> FourReport:
    """Reconstruct from four measurements exactly.

    The four quadratics are linear in the lifted monomials
    u = (x^2, xy, y^2, z^2, zw, w^2), so u lies on the affine null-space
    family of the 4x6 lifted system (one SVD; its rows and the
    collinearity test come from the pair table, see the module
    docstring). On it the two rank-1 conditions u_xy^2 = u_xx u_yy and
    u_zw^2 = u_zz u_ww are two conics whose resultant is a quartic: at
    most 4 u, each read back as in solve_six (split, polish until the
    residual is within both its evaluation round-off and tol, both
    (z, w)-block signs) and accepted when max |residual| <= max(tol, that
    round-off bound 4 eps max_i (|M| |lift(e)|)_i): no step can resolve a
    residual below the bound, so acceptance does not depend on where the
    polish lands within it. ``rank_deficient`` reads the singular values
    of the constraint Jacobian at each returned root, all roots in one
    batched SVD: sv_min <= 1e-8 max(sv_max, 1). When the system has
    rank < 4 (e.g. a repeated pair) the roots form a positive-dimensional
    set; successive 2-D slices of the null space are tried until one yields
    real points. Roots get the canonical global sign, are deduplicated,
    ordered by e and validated by transitivity on every pair in one
    stacked pass; a root any pair rejects is dropped, and NoConvergedRoot
    names the rejection when no root is left.
    """
    if len(pairs) != 4:
        raise ValueError("exactly four pairs required")
    T = _pair_table(pairs)
    if basis_collinear(T[:, CROSS2], T[:, AVEC2], T[:, BVEC2]).any():
        raise DegenerateGeometry("collinear pair basis among the four")
    M = T[:, _LIFT]

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
            # (fn, e, bound): within tol or within its round-off
            found.extend(c for c in cands if c[0] <= max(tol, c[2]))
        if found:
            break
    if not found:
        raise NoConvergedRoot(
            f"none of {n_cands} candidate points solves all four "
            f"constraints below {tol:.0e}")

    unique = _canonical_unique(found)
    es = np.array([e for _, e in unique])
    K, res, bad = _validate(T, es)
    if bad.any():
        keep = ~bad.any(axis=0)
        if not keep.any():
            raise NoConvergedRoot(
                f"all {len(unique)} roots rejected: k = E e is off the unit "
                "surface or not normalizable (root 0 on pair "
                f"{int(np.argmax(bad[:, 0]))})")
        unique = [u for u, ok in zip(unique, keep.tolist()) if ok]
        es, res, K = es[keep], res[:, keep], K[:, keep]
    return FourReport(roots=[(ExpansionCoeffs(*e), fn) for fn, e in unique],
                      per_pair_residuals=res.T.tolist(),
                      rank_deficient=_rank_deficient(M, es),
                      n_starts=n_cands,
                      k=records(ComplexParameter, K[0]))
