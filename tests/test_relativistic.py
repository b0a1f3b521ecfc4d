import itertools
import re
import warnings

import numpy as np
import pytest

from muellerkit import (ConstraintViolation, DegenerateGeometry,
                        ExpansionCoeffs, InconsistentPairs, InvariantMismatch,
                        MeasurementPair,
                        NoConvergedRoot, NoRealRoot, NoValidCandidate,
                        OutOfDomain, Rank1Violation, SingularSystem,
                        StokesVector, apply,
                        constraint_residual, expansion_to_params, family_4d,
                        k_from_expansion, k_from_nm, mueller_from_k,
                        nm_from_k, params_to_expansion, quad_coeffs,
                        solve_four, solve_six)
from muellerkit import boost_k, relativistic
from muellerkit.lorentz import residuals
from muellerkit.oracle import (consistent_dataset, make_pair, random_lorentz,
                               random_pairs, random_stokes)
from muellerkit.relativistic import (_lift_jacobian, _polish,
                                     expansion_basis, lift,
                                     quad_coeffs_from_geometry,
                                     quad_coeffs_polarized)
from muellerkit.stokes import S_MAX, pair_geometry

EPS = np.finfo(float).eps

# frozen oracle chain at seed 42: random device + random probe
E42 = [-2.1157007644421757, -0.6603830070866943,
       -0.5276460781171577, 0.09505601182628705]
Q42 = [23.6074382794632, -81.40431812344542, 281.54360463302646,
       -12.66198297885628, -72.49468957994785, -416.6282869208342]


def _lifted(qs):
    """Lifted system from QuadCoeffs: row . lift(e) = 1 is the quadratic."""
    return np.array([[q.a, 2.0 * q.b, q.c, -q.alpha, -2.0 * q.beta, -q.sigma]
                     for q in qs])


def _chain(seed):
    rng = np.random.default_rng(seed)
    k = random_lorentz(rng=rng)
    p = make_pair(k, random_stokes(rng))
    return k, p, pair_geometry(p)


def test_quad_coeffs_worked_example():
    # S=(1,(1,0,0)), S'=(1,(0,1,0)): a=2, b=-4, c=8, alpha=-2, beta=0, sigma=0
    p = MeasurementPair(StokesVector(1.0, [1.0, 0.0, 0.0]),
                        StokesVector(1.0, [0.0, 1.0, 0.0]))
    q = quad_coeffs(p)
    assert (q.a, q.b, q.c, q.alpha, q.beta, q.sigma) == (2.0, -4.0, 8.0,
                                                         -2.0, 0.0, 0.0)
    q2 = quad_coeffs_polarized(p)
    assert np.allclose(q.as_row(), q2.as_row(), atol=1e-14)


def test_quad_coeffs_identity_pair_zeros():
    # identity pair: B = 0 and Bvec = 0 kill beta and sigma; b keeps its
    # -A*Avec^2 value (it has no Bvec dependence), confirmed by the
    # fully polarized specialization b = -2tA with t = 2
    s = np.array([0.8, 0.0, 0.0])
    p = MeasurementPair(StokesVector(1.0, s), StokesVector(1.0, s))
    q = quad_coeffs(p)
    A2 = float((2 * s) @ (2 * s))
    assert q.beta == 0.0 and q.sigma == 0.0
    assert q.b == -2.0 * A2
    assert q.a == 4.0
    assert q.alpha == -A2
    assert q.c == pytest.approx(A2 * A2)


def test_quad_coeffs_frozen_chain():
    _, _, g = _chain(42)
    assert np.allclose(quad_coeffs_from_geometry(g).as_row(), Q42, atol=1e-10)


def test_polar_specialization_random(rng):
    for _ in range(100):
        k = random_lorentz(rng=rng)
        s0 = rng.uniform(0.5, 2.0)
        vin = StokesVector(s0, s0 * _unit(rng))
        p = make_pair(k, vin)
        q1 = quad_coeffs(p)
        q2 = quad_coeffs_polarized(p)
        scale = max(1.0, np.max(np.abs(q1.as_row())))
        assert np.max(np.abs(q1.as_row() - q2.as_row())) < 1e-10 * scale


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_params_expansion_round_trip(rng):
    for _ in range(200):
        k = random_lorentz(rng=rng)
        p = make_pair(k, random_stokes(rng))
        g = pair_geometry(p)
        if g.collinear:
            continue
        r = nm_from_k(k)
        e = params_to_expansion(g, r)
        r2 = expansion_to_params(g, e)
        k_from_nm(r2)
        assert abs(r2.n0 - r.n0) < 1e-9
        assert abs(r2.m0 - r.m0) < 1e-9
        assert np.allclose(r2.n, r.n, atol=1e-9)
        assert np.allclose(r2.m, r.m, atol=1e-9)


# the probes of the README strong-boost note; the expansion round trip of
# boost_k(axis, chi) keeps the parameter to ROUND_TRIP_EPS eps cosh(chi/2)
BOOST_PROBES = [(0.2, -0.4, 0.5), (0.6, 0.0, 0.8)]
ROUND_TRIP_EPS = 16


@pytest.mark.parametrize("chi", range(1, 21))
def test_expansion_to_params_normalized_strong_boost(chi):
    # the normalization check scaled by max(1, |n0 m0|, |n.m|), about 1 for
    # a boost, and rejected chi 7 to 9; chi 0 is the identity, whose pair
    # basis is collinear
    k = boost_k([0.3, 0.5, 0.8], chi)
    g = pair_geometry(make_pair(k, StokesVector(1.0, BOOST_PROBES[0])))
    e = params_to_expansion(g, nm_from_k(k))
    r = expansion_to_params(g, e)
    k_from_nm(r)
    assert np.abs(r.m - nm_from_k(k).m).max() <= (
        ROUND_TRIP_EPS * np.finfo(float).eps * np.cosh(chi / 2))


@pytest.mark.parametrize("probe", BOOST_PROBES)
def test_strong_boost_round_trip_is_exact_or_typed(probe):
    # the pair basis of a strong boost is nearly collinear, so e is
    # ill-determined, but the projection keeps E e, hence k, to round-off
    for chi in range(1, 21):
        k = boost_k([0.3, 0.5, 0.8], chi)
        r_true = nm_from_k(k)
        g = pair_geometry(make_pair(k, StokesVector(1.0, list(probe))))
        e = params_to_expansion(g, r_true)
        r = expansion_to_params(g, e)
        k_from_nm(r)
        err = max(abs(r.n0 - r_true.n0), abs(r.m0 - r_true.m0),
                  np.abs(r.n - r_true.n).max(), np.abs(r.m - r_true.m).max())
        assert err <= ROUND_TRIP_EPS * np.finfo(float).eps * np.cosh(chi / 2)


def test_params_to_expansion_frozen():
    k, p, g = _chain(42)
    e = params_to_expansion(g, nm_from_k(k))
    assert np.allclose(e.as_array(), E42, atol=1e-12)


def test_params_to_expansion_rejects_another_devices_parameter(rng):
    # another device's k lies off the 4-D span of this pair's basis
    for _ in range(50):
        k = random_lorentz(rng=rng)
        g = pair_geometry(make_pair(k, random_stokes(rng)))
        params_to_expansion(g, nm_from_k(k))
        with pytest.raises(InconsistentPairs, match="expansion span"):
            params_to_expansion(g, nm_from_k(random_lorentz(rng=rng)))


def test_degenerate_pair_rejected():
    # probe along the rotation axis: s' = s, so Bvec = 0 and the
    # (Avec, Bvec, cross) basis collapses
    from muellerkit import rotation_k
    k = rotation_k([0, 0, 1], 0.8)
    p = make_pair(k, StokesVector(1.0, [0.0, 0.0, 0.5]))
    with pytest.raises(DegenerateGeometry):
        params_to_expansion(pair_geometry(p), nm_from_k(k))


def test_orthogonality_identity_arbitrary_e(rng):
    # n0 m0 + n.m = 0 holds for every e, on or off the constraint surface
    for _ in range(200):
        k = random_lorentz(rng=rng)
        p = make_pair(k, random_stokes(rng))
        g = pair_geometry(p)
        e = ExpansionCoeffs(*rng.normal(size=4))
        r = expansion_to_params(g, e)  # raises if the identity fails
        assert r.ortho_defect() <= 1e-11 * max(
            1.0, abs(r.n0 * r.m0), abs(float(r.n @ r.m)))


def test_constraint_residual_basics():
    k, p, g = _chain(42)
    q = quad_coeffs_from_geometry(g)
    e = params_to_expansion(g, nm_from_k(k))
    assert abs(constraint_residual(q, e)) < 1e-9
    zero = ExpansionCoeffs(0.0, 0.0, 0.0, 0.0)
    assert constraint_residual(q, zero) == -1.0
    doubled = ExpansionCoeffs(2 * e.x, 2 * e.y, 2 * e.z, 2 * e.w)
    assert constraint_residual(q, doubled) == pytest.approx(3.0, abs=1e-8)


def _paper_split(g, e):
    """(n0, m, m0, -n), the real and imaginary parts of k, by the module
    docstring's formulas."""
    x, y, z, w = e
    n0 = g.A * x - g.Avec2 * y
    n = z * g.Avec - w * g.A * g.Bvec + y * g.cross
    m0 = -g.B * z + g.Bvec2 * w
    m = x * g.Bvec - y * g.B * g.Avec + w * g.cross
    return np.concatenate(([n0], m, [m0], -n))


def test_k_from_expansion_two_routes(rng):
    # the expansion basis against the paper's formulas written out: E @ e
    # at a random e off the constraint surface and at the device's own e,
    # and k_from_expansion at the latter, within the round-off of the terms
    eps = np.finfo(float).eps
    for _ in range(200):
        k = random_lorentz(rng=rng)
        g = pair_geometry(make_pair(k, random_stokes(rng)))
        E = expansion_basis(g)
        e_dev = params_to_expansion(g, nm_from_k(k))
        for e in (rng.normal(size=4), e_dev.as_array()):
            v = _paper_split(g, e)
            allow = 8 * eps * (np.abs(E) @ np.abs(e)).max()
            assert np.abs(E @ e - v).max() <= allow
        kf = k_from_expansion(g, e_dev).k  # v and allow are e_dev's
        assert np.abs(kf - (v[:4] + 1j * v[4:])).max() <= allow


def test_k_from_expansion_sign_flip():
    k, p, g = _chain(7)
    e = params_to_expansion(g, nm_from_k(k))
    neg = ExpansionCoeffs(-e.x, -e.y, -e.z, -e.w)
    k1 = k_from_expansion(g, e)
    k2 = k_from_expansion(g, neg)
    assert np.allclose(k2.k, -k1.k, atol=1e-12)
    assert np.allclose(mueller_from_k(k1).m, mueller_from_k(k2).m, atol=1e-12)


def test_family_4d_recovers_ground_truth(rng):
    for _ in range(30):
        k, e_star, pairs = consistent_dataset(1, rng=rng)
        sols = family_4d(pairs[0], e_star.y, e_star.z, e_star.w)
        assert min(abs(s[0].x - e_star.x) for s in sols) < 1e-8
        assert sols[0][2] < 1e-8  # transitivity residual of best root


def test_family_4d_orders_roots_by_x_and_matches_the_scalar_path():
    # each triple is the scalar path k_from_expansion(normalize=True), then
    # mueller_from_k and apply, and the roots come ordered by x, not by a
    # residual at round-off level
    n_two = 0
    for i in range(200):
        _, e_star, pairs = consistent_dataset(
            1, rng=np.random.default_rng([12, i]))
        p, g = pairs[0], pair_geometry(pairs[0])
        sols = family_4d(p, e_star.y, e_star.z, e_star.w)
        xs = [e.x for e, _, _ in sols]
        assert xs == sorted(xs)
        assert min(abs(x - e_star.x) for x in xs) <= 1e-8 * max(
            1.0, abs(e_star.x))
        n_two += len(sols) == 2
        for e, k, res in sols:
            assert (e.y, e.z, e.w) == (e_star.y, e_star.z, e_star.w)
            ref = k_from_expansion(g, e, normalize=True)
            ref_res = np.linalg.norm(apply(mueller_from_k(ref), p.input)
                                     .as_array() - p.output.as_array())
            assert np.abs(k.k - ref.k).max() <= 1e-12 * max(
                1.0, np.abs(ref.k).max())
            assert abs(res - ref_res) <= 1e-12
    assert n_two == 200


def test_family_4d_large_slices_have_no_real_root():
    # a, the x^2 coefficient, is the pair's own (3.97 and 1.33 here). It
    # counts as zero against the pair's lifted row, not against the
    # coefficients that grow with (y, z, w), so these slices are
    # quadratics with a negative discriminant, not linear ones
    _, _, one = consistent_dataset(1, rng=np.random.default_rng(3))
    _, _, four = consistent_dataset(4, seed=2)
    for p, (y, z, w) in ((one[0], (1e7, 1e7, 1e7)),
                         (four[0], (1e150, 0.0, 0.0))):
        with pytest.raises(NoRealRoot, match=r"discriminant -\S+ < 0"):
            family_4d(p, y, z, w)


@pytest.mark.parametrize("which", [0, 1])
def test_family_4d_raises_where_validate_rejects_a_root(monkeypatch, which):
    # a real root whose k = E e the stacked check rejects is a
    # ConstraintViolation that names the first rejected root
    _, e_star, pairs = consistent_dataset(1, rng=np.random.default_rng(3))
    slice_ = (pairs[0], e_star.y, e_star.z, e_star.w)
    xs = [e.x for e, _, _ in family_4d(*slice_)]
    assert len(xs) == 2
    validate = relativistic._validate

    def rejecting(T, es):
        K, res, bad = validate(T, es)
        bad[:, which:] = True
        return K, res, bad

    monkeypatch.setattr(relativistic, "_validate", rejecting)
    with pytest.raises(ConstraintViolation, match="rejected") as info:
        family_4d(*slice_)
    assert f"root x = {xs[which]:.17g} rejected" in str(info.value)


def test_real_roots_are_those_of_np_roots():
    # the companion-matrix roots, leading and trailing zero coefficients
    # handled as np.roots does, bit for bit
    rng = np.random.default_rng(15)
    for i in range(400):
        c = rng.normal(size=5) * 10.0 ** rng.integers(-3, 4, size=5)
        c[:i % 3] = 0.0
        c[5 - (i // 3) % 3:] = 0.0
        ref = [r.real for r in np.roots(c)
               if abs(r.imag) <= 1e-6 * (1.0 + abs(r))]
        assert relativistic._real_roots(c.tolist()) == ref
    assert relativistic._real_roots([0.0] * 5) == []


def test_companion_roots_are_np_roots_bit_for_bit():
    # one call over quartics of every trimmed size, leading zero
    # coefficients included (1,000 of 2,000 have c[0] = 0): each stacked
    # companion matrix gives the bits of its own np.roots call, and so
    # does a polynomial passed alone
    rng = np.random.default_rng(16)
    polys = rng.normal(size=(2000, 5)) * 10.0 ** rng.integers(-3, 4, (2000, 5))
    polys[::2, 0] = 0.0
    polys[::6, 1] = 0.0
    polys[1::10, 4] = 0.0
    polys[3] = 0.0
    got = relativistic.companion_roots(polys.tolist())
    assert got[3] == [] and len(got) == len(polys)
    for i, (c, r) in enumerate(zip(polys, got)):
        ref = np.roots(c).astype(complex).tobytes()
        assert np.array(r, complex).tobytes() == ref
        if i < 200:  # alone, a matrix is a stack of one
            one = relativistic.companion_roots([c.tolist()])[0]
            assert np.array(one, complex).tobytes() == ref


def test_slice_points_where_the_pencil_vanishes(monkeypatch):
    # the two blocks agree at s = 0, so both conics read 1 - t^2 on the
    # line s = 0 and meet at t = -1 and t = 1: the quartic has the double
    # root s = 0 exactly, the pencil b2 f - a2 g vanishes there, and t
    # comes from f itself
    u0 = np.array([1.0, 0.0, -1.0, 1.0, 0.0, -1.0])
    v1 = np.array([0.3, 0.7, -0.2, -0.5, 0.4, 0.9])
    v2 = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    calls = []
    real_roots = relativistic._real_roots

    def recorded(coeffs):
        calls.append(coeffs)
        return real_roots(coeffs)

    monkeypatch.setattr(relativistic, "_real_roots", recorded)
    points = relativistic._slice_points(u0, v1, v2)
    assert [-1.0, 0.0, 1.0] in calls  # f on the line s = 0
    for u in ([2.0, 0.0, 0.0, 2.0, 0.0, 0.0],
              [0.0, 0.0, -2.0, 0.0, 0.0, -2.0]):
        assert any(np.abs(p - u).max() <= 4 * EPS for p in points)
    for u in points:
        scale = EPS * max(1.0, float(u @ u))
        assert abs(u[1] ** 2 - u[0] * u[2]) <= 8 * scale
        assert abs(u[4] ** 2 - u[3] * u[5]) <= 8 * scale


def test_family_4d_no_real_root():
    _, p, _ = _chain(42)
    with pytest.raises(NoRealRoot):
        family_4d(p, 1e6, 1e6, 1e6)


@pytest.mark.parametrize("y, z, w", [(1e200, 0.0, 0.0), (0.0, 1e200, 0.0)])
def test_family_4d_overflowing_slice_is_out_of_domain(y, z, w):
    # the constant term overflows to inf, so every coefficient counted as
    # zero against it and the slice read as degenerate
    _, _, pairs = consistent_dataset(4, seed=2)
    with pytest.raises(OutOfDomain, match="overflows"):
        family_4d(pairs[0], y, z, w)


def test_family_4d_null_half_turn_is_a_degenerate_slice():
    # (1, e1) -> (1, -e1): the slice is linear in x with a zero slope
    p = MeasurementPair(StokesVector(1.0, [1.0, 0.0, 0.0]),
                        StokesVector(1.0, [-1.0, 0.0, 0.0]))
    with pytest.raises(NoRealRoot, match="degenerate linear slice"):
        family_4d(p, 0.1, 0.2, 0.3)


def test_family_4d_near_half_turn_has_one_far_linear_root():
    # a fully polarized probe turned by pi - d: at d = 1e-9 the x^2
    # coefficient a rounds to 0.0, so the slice is linear with one root,
    # far out. Its residual is that of the matrix it prints, about sqrt(2)
    # (entries near 8e18), as verify reads it; at d = 0 the slope vanishes
    # too
    def turned(d):
        return MeasurementPair(StokesVector(1.0, [1.0, 0.0, 0.0]),
                               StokesVector(1.0, [-np.cos(d), np.sin(d), 0.0]))

    near = turned(1e-9)
    assert quad_coeffs(near).a == 0.0
    [(e, k, res)] = family_4d(near, 0.3, 0.1, 0.2)
    assert e.x == pytest.approx(-8.33e17, rel=1e-3)
    assert (e.y, e.z, e.w) == (0.3, 0.1, 0.2)
    [ref] = residuals(mueller_from_k(k), [near])
    assert res == ref
    assert res == pytest.approx(np.sqrt(2.0), rel=1e-3)
    with pytest.raises(NoRealRoot, match="degenerate linear slice"):
        family_4d(turned(0.0), 0.3, 0.1, 0.2)


def test_solve_six_consistent_instances(rng):
    for _ in range(10):
        k, e_star, pairs = consistent_dataset(6, rng=rng)
        rep = solve_six(pairs)
        from muellerkit.relativistic import lift
        assert np.linalg.norm(rep.u - lift(e_star)) < 1e-8 * max(
            1.0, np.linalg.norm(lift(e_star)))
        assert max(rep.rank1_defects) < 1e-6
        # both (z, w)-block signs validate exactly (the block sign is
        # invisible to the per-pair constraints); the generator must be
        # among the candidates and the top candidate must validate
        es = e_star.as_array()
        d = min(min(np.linalg.norm(c.e.as_array() - es),
                    np.linalg.norm(c.e.as_array() + es))
                for c in rep.candidates)
        assert d < 1e-6
        assert rep.candidates[0].worst < 1e-6


def test_solve_six_cramer_matches_per_matrix_det():
    # Cramer's rule as an independent oracle: det is np.linalg.det(M) and
    # each Cramer value is det(M) u_j, bit for bit; each agrees with one
    # det call on M with column j replaced by the right side 1, within
    # the round-off cond(M) eps |det| max(1, max |u|) of the two forms
    names = ("x2", "xy", "y2", "z2", "zw", "w2")
    for i in range(50):
        _, _, pairs = consistent_dataset(6, rng=np.random.default_rng([6, i]))
        rep = solve_six(pairs)
        M = _lifted([quad_coeffs(p) for p in pairs])
        det = float(np.linalg.det(M))
        assert list(rep.cramer) == ["det", *names]
        assert rep.cramer["det"].hex() == det.hex()
        bound = (np.linalg.cond(M) * np.finfo(float).eps * abs(det)
                 * max(1.0, np.abs(rep.u).max()))
        for j, name in enumerate(names):
            assert rep.cramer[name].hex() == float(det * rep.u[j]).hex()
            Mj = M.copy()
            Mj[:, j] = 1.0
            assert abs(rep.cramer[name] - np.linalg.det(Mj)) <= bound


def test_solve_six_identical_pairs_singular():
    _, p, _ = _chain(1)
    with pytest.raises(SingularSystem):
        solve_six([p] * 6)
    # one repeated pair among five distinct ones: the condition is 4.2e17
    _, _, pairs = consistent_dataset(6, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match="condition 4.176e"):
            solve_six(pairs[:5] + [pairs[0]])


def test_k_spread_of_nearly_equal_k_is_the_all_pairs_norm():
    # six k equal to within 1e-12, some of them negated (k and -k are one
    # device): the spread is the all-pairs norm of the differences, bit
    # for bit, about 5e-12; a Gram form |ki|^2 + |kj|^2 - 2 |Re<ki, kj>|
    # cancels here and reads 4e-8 and 8e-8
    rng = np.random.default_rng(12)
    k = rng.normal(size=(1, 2, 4)) + 1j * rng.normal(size=(1, 2, 4))
    K = k + 1e-12 * (rng.normal(size=(6, 2, 4))
                     + 1j * rng.normal(size=(6, 2, 4)))
    K[[1, 4]] *= -1.0
    d = np.minimum(np.linalg.norm(K[:, None] - K[None], axis=-1),
                   np.linalg.norm(K[:, None] + K[None], axis=-1))
    spread = relativistic._k_spread(K)
    assert spread == d.max(axis=(0, 1)).tolist()
    assert all(1e-13 < s < 1e-10 for s in spread)
    assert relativistic._k_spread(K[:, :0]) == []


def test_solve_six_report_matches_the_per_candidate_rules():
    # condition is np.linalg.cond of the lifted matrix and k_spread the
    # spread of each candidate's own k stack, bit for bit
    for i in range(50):
        _, _, pairs = consistent_dataset(6, rng=np.random.default_rng([6, i]))
        rep = solve_six(pairs)
        M = relativistic._pair_table(pairs)[:, relativistic._LIFT]
        assert rep.condition.hex() == float(np.linalg.cond(M)).hex()
        assert rep.candidates
        for c in rep.candidates:
            K = np.array([kp.k for kp in c.k_list])
            d = np.minimum(np.linalg.norm(K[:, None] - K[None], axis=-1),
                           np.linalg.norm(K[:, None] + K[None], axis=-1))
            assert c.k_spread.hex() == float(d.max()).hex()


def test_solve_six_identity_pairs_are_singular_without_warning():
    # s' = s on all six pairs: Bvec = 0 leaves the lifted matrix with exact
    # zero singular values, so the condition is inf, not a division warning
    rng = np.random.default_rng(5)
    pairs = [MeasurementPair(v, v)
             for v in (random_stokes(rng) for _ in range(6))]
    M = relativistic._pair_table(pairs)[:, relativistic._LIFT]
    assert np.linalg.svd(M, compute_uv=False)[-1] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match="condition inf"):
            solve_six(pairs)


def test_solve_six_rank1_violation_via_generic_data(rng):
    # six generic pairs of one device do not share a lifted solution
    k = random_lorentz(rng=rng)
    pairs = [make_pair(k, random_stokes(rng)) for _ in range(6)]
    with pytest.raises((Rank1Violation, NoValidCandidate, SingularSystem)):
        solve_six(pairs)


def test_solve_six_with_no_split_point_raises_typed(monkeypatch):
    # generic pairs, rank-1 check off: a block of u is imaginary, the split
    # yields no point, and the empty candidate set is a typed error
    rng = np.random.default_rng([11, 0])
    k = random_lorentz(rng=rng)
    pairs = [make_pair(k, random_stokes(rng)) for _ in range(6)]
    split = []
    real_split = relativistic._split_polish
    monkeypatch.setattr(relativistic, "_split_polish",
                        lambda *a: split.append(real_split(*a)) or split[-1])
    monkeypatch.setattr(relativistic, "TOL_R1", np.inf)
    with pytest.raises(NoValidCandidate) as info:
        solve_six(pairs)
    assert split == [[]]
    assert info.value.report.candidates == []


def _canonical(e):
    lead = np.argmax(np.abs(e))
    return -e if e[lead] < 0 else e


def test_solve_four_consistent_instances():
    # the exact solve returns e* itself (both (z, w)-block signs are
    # emitted), every root solves all four constraints, and there are at
    # most 8 roots modulo global sign
    for i in range(100):
        _, e_star, pairs = consistent_dataset(
            4, rng=np.random.default_rng([4, i]))
        rep = solve_four(pairs)
        es = _canonical(e_star.as_array())
        dists = [np.linalg.norm(r[0].as_array() - es) for r in rep.roots]
        idx = int(np.argmin(dists))
        assert dists[idx] < 1e-8
        assert max(rep.per_pair_residuals[idx]) < 1e-6
        assert 1 <= len(rep.roots) <= 8
        assert all(fn <= 1e-10 for _, fn in rep.roots)
        qs = [quad_coeffs(p) for p in pairs]
        assert all(abs(constraint_residual(q, e)) <= 1e-10
                   for e, _ in rep.roots for q in qs)
        g = pair_geometry(pairs[0])
        for (e, _), k in zip(rep.roots, rep.k):
            ref = k_from_expansion(g, e, normalize=True).k
            assert np.abs(k.k - ref).max() <= 1e-12 * np.abs(ref).max()


def test_solve_four_on_genuine_pairs_fails_typed():
    # four genuine pairs of one device rarely share a lifted point; the
    # solve then raises NoConvergedRoot, and any other error propagates
    raised = 0
    for s in range(60):
        rng = np.random.default_rng([5, s])
        pairs = random_pairs(random_lorentz(rng=rng), 4, rng)
        try:
            solve_four(pairs)
        except NoConvergedRoot as e:
            assert "candidate points solves all four" in str(e)
            raised += 1
    assert raised >= 40  # read: 50 of 60


def test_solve_four_recovers_root_missed_by_multistart():
    # 64-start Newton at seed 0 converged only to roots other than e*
    _, e_star, pairs = consistent_dataset(
        4, rng=np.random.default_rng([5, 4, 15]))
    rep = solve_four(pairs)
    es = _canonical(e_star.as_array())
    assert min(np.linalg.norm(r[0].as_array() - es)
               for r in rep.roots) < 1e-8


def _old_rank_flag(M, e):
    # the explicit rule solve_four applied in a separate pass over its roots
    sv = np.linalg.svd(_lift_jacobian(M, e.as_array()), compute_uv=False)
    return bool(sv[-1] <= 1e-8 * max(sv[0], 1.0))


def test_solve_four_repeated_pair_rank_deficient():
    for seed in (9, 10, 11):
        _, p, g = _chain(seed)
        assert not g.collinear
        rep = solve_four([p] * 4)
        assert rep.roots and all(rep.rank_deficient)
        q = quad_coeffs(p)
        assert all(abs(constraint_residual(q, e)) <= 1e-10
                   for e, _ in rep.roots)
        M = _lifted([q] * 4)
        assert all(_old_rank_flag(M, e) for e, _ in rep.roots)


def test_solve_four_rank_flags_match_explicit_rule():
    # the flags come from one batched SVD of the Jacobians at the returned
    # points; the singular values do not change under either sign
    n_roots = 0
    for i in range(200):
        _, _, pairs = consistent_dataset(4, rng=np.random.default_rng([8, i]))
        rep = solve_four(pairs)
        M = _lifted([quad_coeffs(p) for p in pairs])
        assert rep.rank_deficient == [_old_rank_flag(M, e)
                                      for e, _ in rep.roots]
        n_roots += len(rep.roots)
    assert n_roots >= 200


def _count_factorizations(monkeypatch, log):
    # logs (name, shape) of every matrix (stack) factored by np.linalg.svd
    # or solved by np.linalg.lstsq
    for name in ("svd", "lstsq"):
        def counted(a, *args, _name=name, _real=getattr(np.linalg, name),
                    **kw):
            log.append((_name, np.shape(a)))
            return _real(a, *args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)


def test_polish_returns_a_converged_point_without_factorization(
        monkeypatch):
    # lift(e) = (1, 0, 0, 1/4, 0, 0); column 0 in [0.5, 1] and column 3
    # four times its complement make M @ lift(e) = 1 without rounding
    rng = np.random.default_rng(3)
    M = rng.normal(size=(4, 6))
    M[:, 0] = rng.uniform(0.5, 1.0, 4)
    M[:, 3] = 4.0 * (1.0 - M[:, 0])
    e = np.array([1.0, 0.0, 0.5, 0.0])
    J = _lift_jacobian(M, e)
    S = np.linalg.svd(J, full_matrices=False)[1]
    assert S[-1] > 1e-3 * S[0]
    log = []
    _count_factorizations(monkeypatch, log)
    # one ulp off in x, the residual is 2 eps M[:, 0], within round-off: a
    # step would move e, and a point that takes none is not factored
    for x, fn_in in ((1.0, 0.0), (np.nextafter(1.0, 2.0), 4.44e-16)):
        e[0] = x
        log.clear()
        e_out, fn, _ = _polish(M, e, 1e-10)
        assert log == []
        assert np.array_equal(e_out, e)
        assert fn == pytest.approx(fn_in, abs=1e-18)


def test_polish_stops_at_round_off():
    # from a perturbed root the polish reaches the evaluation round-off of
    # the residual and stops there, one least-squares solve per step
    for i in range(20):
        _, e_star, pairs = consistent_dataset(
            4, rng=np.random.default_rng([4, i]))
        M = _lifted([quad_coeffs(p) for p in pairs])
        es = e_star.as_array()
        log = []
        with pytest.MonkeyPatch.context() as mp:
            _count_factorizations(mp, log)
            e, fn, bound = _polish(M, es * (1.0 + 1e-6), np.inf)
        u = lift(e)
        assert fn == np.abs(M @ u - 1.0).max()
        assert bound == 4 * np.finfo(float).eps * (np.abs(M) @ np.abs(u)).max()
        assert fn <= bound
        assert np.linalg.norm(e - es) <= 1e-9 * np.linalg.norm(es)
        assert 1 <= len(log) <= relativistic.POLISH_STEPS
        assert set(log) == {("lstsq", (4, 4))}


def test_polish_step_drops_singular_values_below_its_cut(monkeypatch):
    # a repeated pair at z = w = 0: the Jacobian has two zero columns and
    # four equal rows, so one singular value is kept and the rest are
    # round-off or zero; the lstsq step is the SVD step truncated at
    # eps max(J.shape) S[0] (keeping a round-off value of 6e-16 S[0]
    # would move the step by about 60 times its own size)
    a, b, c, alpha, beta, sigma = Q42
    M = np.array([[a, 2.0 * b, c, -alpha, -2.0 * beta, -sigma]] * 4)
    y = 0.1
    x = (-b * y + np.sqrt(b * b * y * y - a * (c * y * y - 1.0))) / a
    e = np.array([x * (1.0 + 1e-6), y, 0.0, 0.0])
    calls = []
    lstsq = np.linalg.lstsq

    def logged(J, f, rcond):
        out = lstsq(J, f, rcond=rcond)
        calls.append((J, f, rcond, out[0]))
        return out

    monkeypatch.setattr(np.linalg, "lstsq", logged)
    monkeypatch.setattr(relativistic, "POLISH_STEPS", 1)
    e_out, _, _ = _polish(M, e, np.inf)
    [(J, f, rcond, step)] = calls
    cut = np.finfo(float).eps * max(J.shape)
    assert rcond == cut
    assert not J[:, 2:].any()
    U, S, Vt = np.linalg.svd(J, full_matrices=False)
    n = int(np.count_nonzero(S > cut * S[0]))
    assert n == 1
    kept = Vt[:n].T @ ((U[:, :n].T @ f) / S[:n])
    tol = 8 * np.finfo(float).eps * np.abs(kept).max()
    assert np.abs(step - kept).max() <= tol
    assert np.abs(e - e_out - step).max() <= 8 * np.finfo(float).eps * x


def test_solve_four_polishes_below_tol_where_round_off_exceeds_it():
    # |lift(e*)| is about 1e4, so the round-off bound of the residual is
    # 6.4e-10; the split points are within it at 2.9e-10 and 2.6e-10 but
    # above tol, and the polish brings every root below tol
    _, e_star, pairs = consistent_dataset(
        4, rng=np.random.default_rng([2110, 4, 77]))
    M = _lifted([quad_coeffs(p) for p in pairs])
    u = lift(e_star.as_array())
    assert 4 * np.finfo(float).eps * (np.abs(M) @ np.abs(u)).max() > 5e-10
    rep = solve_four(pairs)
    es = _canonical(e_star.as_array())
    assert min(np.linalg.norm(e.as_array() - es) / np.linalg.norm(es)
               for e, _ in rep.roots) < 1e-8
    assert all(fn <= 1e-10 for _, fn in rep.roots)


def test_solve_four_accepts_a_root_within_its_round_off(monkeypatch):
    # without polish steps the split points of this dataset have residuals
    # 2.9e-10 and 2.6e-10: above tol, within their round-off bound 6.4e-10;
    # no step can resolve a residual below that bound, so they are roots
    _, e_star, pairs = consistent_dataset(
        4, rng=np.random.default_rng([2110, 4, 77]))
    monkeypatch.setattr(relativistic, "POLISH_STEPS", 0)
    rep = solve_four(pairs)
    es = _canonical(e_star.as_array())
    assert min(np.linalg.norm(e.as_array() - es) / np.linalg.norm(es)
               for e, _ in rep.roots) < 1e-8
    M = _lifted([quad_coeffs(p) for p in pairs])
    eps = np.finfo(float).eps
    assert max(fn for _, fn in rep.roots) > 1e-10
    for e, fn in rep.roots:
        u = lift(e)
        assert fn == np.abs(M @ u - 1.0).max()
        assert fn <= 4 * eps * (np.abs(M) @ np.abs(u)).max()


def _permuted(pairs, i):
    order = np.random.default_rng([13, i]).permutation(len(pairs))
    return [pairs[j] for j in order]


def test_root_order_does_not_depend_on_pair_order():
    # roots are ordered by canonical e, candidates valid first and then by
    # e, so permuting the pairs, which moves the last bits of every
    # residual, keeps the order
    for i in range(100):
        _, _, pairs = consistent_dataset(4, rng=np.random.default_rng([9, i]))
        a, b = solve_four(pairs), solve_four(_permuted(pairs, i))
        ea = np.array([e.as_array() for e, _ in a.roots])
        eb = np.array([e.as_array() for e, _ in b.roots])
        assert ea.shape == eb.shape
        assert np.allclose(ea, eb, rtol=1e-9, atol=0.0)
        assert a.rank_deficient == b.rank_deficient
    for i in range(100):
        _, _, pairs = consistent_dataset(6, rng=np.random.default_rng([9, i]))
        a, b = solve_six(pairs), solve_six(_permuted(pairs, i))
        ea = np.array([c.e.as_array() for c in a.candidates])
        eb = np.array([c.e.as_array() for c in b.candidates])
        assert ea.shape == eb.shape
        assert np.allclose(ea, eb, rtol=1e-9, atol=0.0)
        order = [(c.worst > 1e-6, tuple(c.e)) for c in a.candidates]
        assert order == sorted(order)


def test_no_valid_candidate_reports_the_best_worst_residual():
    # with nothing valid the candidates stay in the order of e, and the
    # message still names the smallest worst-pair residual
    for seed in range(10):
        _, _, pairs = consistent_dataset(6, seed=seed)
        with pytest.raises(NoValidCandidate) as info:
            solve_six(pairs, tol_l=0.0)
        cands = info.value.report.candidates
        assert len(cands) == 2
        assert [tuple(c.e) for c in cands] == sorted(tuple(c.e)
                                                     for c in cands)
        best = min(c.worst for c in cands)
        assert f"best worst-pair residual: {best:.3e}" in str(info.value)


def test_canonical_unique_keeps_the_best_of_near_duplicates():
    # points within 1e-6 of a better one (up to global sign) are dropped;
    # the rest come out under the canonical sign, ordered by e
    found = [(3e-11, [0.5, -2.0, 1.0, 0.25], 0.0),
             (1e-11, [-0.5, 2.0, -1.0, -0.25 + 5e-7], 0.0),
             (2e-11, [0.5, -2.0, -1.0, -0.25], 0.0),
             (4e-11, [-3.0, 0.1, 0.2, 0.3], 0.0)]
    out = relativistic._canonical_unique(found)
    assert out == [(1e-11, [-0.5, 2.0, -1.0, -0.25 + 5e-7]),
                   (2e-11, [-0.5, 2.0, 1.0, 0.25]),
                   (4e-11, [3.0, -0.1, -0.2, -0.3])]


def test_solve_four_rejects_a_collinear_pair_basis():
    # the identity pair has Bvec = 0, so its basis is collinear
    _, _, pairs = consistent_dataset(4, rng=np.random.default_rng([4, 0]))
    s = StokesVector(1.0, [0.2, -0.4, 0.5])
    with pytest.raises(DegenerateGeometry, match="collinear pair basis"):
        solve_four(pairs[:3] + [MeasurementPair(s, s)])


def test_pair_geometry_is_the_solver_table_row():
    # one definition of the per-pair arithmetic: pair_geometry's fields,
    # the lifted row of its quadratic, the pair's Stokes vectors and its
    # expansion basis are the solvers' table row bit for bit; the dot
    # products carry the bits of numpy's dot
    for i in range(60):
        _, _, pairs = consistent_dataset(
            4 + 2 * (i % 2), rng=np.random.default_rng([10, i]))
        T = relativistic._pair_table(pairs)
        for row, p in zip(T, pairs):
            g = pair_geometry(p)
            assert g.Avec2 == float(g.Avec @ g.Avec)
            assert g.Bvec2 == float(g.Bvec @ g.Bvec)
            assert g.AdotB == float(g.Avec @ g.Bvec)
            assert g.cross2 == float(g.cross @ g.cross)
            assert np.array_equal(g.cross, np.cross(g.Avec, g.Bvec))
            expect = [g.A, g.B, *g.Avec, *g.Bvec, *g.cross, g.Avec2,
                      g.Bvec2, g.cross2, g.AdotB,
                      *_lifted([quad_coeffs_from_geometry(g)])[0],
                      *p.input.as_array(), *p.output.as_array(),
                      *expansion_basis(g).ravel()]
            assert row.tolist() == expect


def test_solve_four_factors_only_its_rank_flags_after_polishing(monkeypatch):
    log = []
    _count_factorizations(monkeypatch, log)
    polish = relativistic._polish

    def logged(*args):
        out = polish(*args)
        log.append("polish")
        return out

    monkeypatch.setattr(relativistic, "_polish", logged)
    for i in range(20):
        _, _, pairs = consistent_dataset(4, rng=np.random.default_rng([4, i]))
        log.clear()
        rep = solve_four(pairs)
        last = len(log) - 1 - log[::-1].index("polish")
        # after the last polish, only the batched SVD of the rank flags
        assert log[last + 1:] == [("svd", (len(rep.roots), 4, 4))]


def test_solve_four_counts_its_factorizations(monkeypatch):
    # case 5 of the seed-11 four_pair corpus: one SVD of the lifted system,
    # one least-squares solve per polish step and one batched SVD for the
    # rank flags. A step lifts its new point once, beyond the one lift of
    # each polished point; here one point is within tolerance as split and
    # is not factored
    _, _, pairs = consistent_dataset(4, rng=np.random.default_rng([11, 4, 5]))
    log, lifts, steps = [], [], []
    _count_factorizations(monkeypatch, log)
    lift_, polish = relativistic.lift, relativistic._polish

    def counted_lift(e):
        lifts.append(e)
        return lift_(e)

    def counted_polish(*args):
        before = len(lifts)
        out = polish(*args)
        steps.append(len(lifts) - before - 1)
        return out

    monkeypatch.setattr(relativistic, "lift", counted_lift)
    monkeypatch.setattr(relativistic, "_polish", counted_polish)
    rep = solve_four(pairs)
    assert log == ([("svd", (4, 6))] + [("lstsq", (4, 4))] * sum(steps)
                   + [("svd", (len(rep.roots), 4, 4))])
    assert sorted(steps) == [0, 1]


def test_solve_four_drops_a_root_a_pair_rejects(monkeypatch):
    # as solve_six drops a candidate: a root any pair rejects leaves the
    # report, so every residual is finite and every k normalized; with no
    # root left the solve raises NoConvergedRoot naming the rejection
    _, _, pairs = consistent_dataset(4, rng=np.random.default_rng(3))
    full = solve_four(pairs)
    assert len(full.roots) >= 2
    validate = relativistic._validate

    def rejecting(pair, roots):
        def patched(T, es):
            K, res, bad = validate(T, es)
            bad[pair, roots] = True
            return K, res, bad
        return patched

    monkeypatch.setattr(relativistic, "_validate", rejecting(2, [0]))
    rep = solve_four(pairs)
    assert rep.roots == full.roots[1:]
    assert rep.per_pair_residuals == full.per_pair_residuals[1:]
    assert rep.rank_deficient == full.rank_deficient[1:]
    assert [k.k.tolist() for k in rep.k] == [k.k.tolist() for k in full.k[1:]]
    assert rep.n_starts == full.n_starts
    monkeypatch.setattr(relativistic, "_validate", rejecting(1, slice(None)))
    with pytest.raises(NoConvergedRoot,
                       match=rf"all {len(full.roots)} roots rejected: .*"
                       r"\(root 0 on pair 1\)"):
        solve_four(pairs)


def test_solve_four_propagates_programming_errors(monkeypatch):
    def broken(K):
        raise TypeError("bug in mueller_product")

    _, _, four = consistent_dataset(4, rng=np.random.default_rng(3))
    _, e, six = consistent_dataset(6, seed=1)
    monkeypatch.setattr(relativistic.kernels, "mueller_product", broken)
    with pytest.raises(TypeError):
        solve_four(four)
    with pytest.raises(TypeError):
        solve_six(six)
    with pytest.raises(TypeError):
        family_4d(six[0], e.y, e.z, e.w)


@pytest.mark.parametrize("seed", [926] + [[77, i] for i in (
    5, 157, 503, 564, 637, 3958)])
def test_solve_six_recovers_small_x_or_z(seed):
    # |e*.x| or |e*.z| is small against |e*| in all but the last case:
    # splitting each block by its larger square and polishing recovers e*,
    # where dividing by a small root raised NoValidCandidate. The last
    # (cond 5.4e8) needs the polish, as the split alone keeps the error
    # of the lifted solve.
    _, e_star, pairs = consistent_dataset(6, rng=np.random.default_rng(seed))
    es = e_star.as_array()
    signs = np.array([[1, 1, 1, 1], [1, 1, -1, -1]])
    assert any(c.worst <= 1e-6 and min(
        np.linalg.norm(c.e.as_array() - g * s * es)
        for s in signs for g in (1, -1)) <= 1e-6
        for c in solve_six(pairs).candidates)


def _root(arr):
    while arr.base is not None:
        arr = arr.base
    return arr


def _solver_ks(solver, pairs, e_star):
    """Each k record a solver builds, as lists that each view one block:
    one per solve_six candidate, FourReport.k, and family_4d's k."""
    if solver == "six":
        return [c.k_list for c in solve_six(pairs).candidates]
    if solver == "four":
        return [solve_four(pairs[:4]).k]
    return [[k for _, k, _ in family_4d(pairs[0], *e_star[1:])]]


@pytest.mark.parametrize("solver", ["six", "four", "family"])
def test_solver_k_records_view_one_read_only_block(solver):
    # the records are the rows of the solver's own read-only block, and
    # they keep their values when the caller writes to the arrays its
    # input pairs were built from
    _, e_star, pairs = consistent_dataset(6, rng=np.random.default_rng([6, 2]))
    held = [(p.input.s.copy(), p.output.s.copy()) for p in pairs]
    pairs = [MeasurementPair(StokesVector(p.input.s0, s), StokesVector(
        p.output.s0, s_out)) for p, (s, s_out) in zip(pairs, held)]
    groups = _solver_ks(solver, pairs, e_star)
    ref = [[kp.k.copy() for kp in ks] for ks in groups]
    assert all(ref)
    for s, s_out in held:
        s[:] = 0.0
        s_out[:] = 0.0
    for ks, values in zip(groups, ref):
        assert {id(_root(kp.k)) for kp in ks} == {id(_root(ks[0].k))}
        assert not _root(ks[0].k).flags.writeable
        for kp, k in zip(ks, values):
            assert not kp.k.flags.writeable
            assert np.array_equal(kp.k, k)


def _scaled(pair, lam):
    return MeasurementPair(*(StokesVector(lam * v.s0, lam * v.s)
                             for v in pair))


def test_an_overflowing_pair_table_is_out_of_domain():
    # scaled by 1e100, the lifted coefficients overflow: solve_six ended
    # in LinAlgError (SVD did not converge) and solve_four reported a
    # collinear basis; the first pair whose row overflows is named
    _, _, pairs = consistent_dataset(6, rng=np.random.default_rng(3))
    big = [_scaled(p, 1e100) for p in pairs]
    with pytest.raises(OutOfDomain, match="^pair 0: .* overflow"):
        solve_six(big)
    with pytest.raises(OutOfDomain, match="^pair 0: .* overflow"):
        solve_four(big[:4])
    with pytest.raises(OutOfDomain, match="^pair 0: .* overflow"):
        family_4d(big[0], 0.1, 0.2, 0.3)
    # a Lorentz map is linear: scaling some pairs keeps the data consistent
    some = [_scaled(p, 1e100) if i in (2, 3) else p
            for i, p in enumerate(pairs)]
    for solve, n in ((solve_six, 6), (solve_four, 4)):
        with pytest.raises(OutOfDomain, match="^pair 2: .* overflow"):
            solve(some[:n])


def test_quad_coeffs_read_the_pair_table_and_share_its_overflow_check():
    # quad_coeffs warned "overflow encountered in vecdot" on a pair scaled
    # by 1e100 and returned non-finite coefficients; on finite pairs the
    # halved and negated lifted row has the bits of the geometry formulas
    _, _, pairs = consistent_dataset(6, seed=1)
    s = np.array([0.8, 0.0, 0.0])
    identity = MeasurementPair(StokesVector(1.0, s), StokesVector(1.0, s))
    for p in [*pairs, identity]:
        assert [v.hex() for v in quad_coeffs(p)] == [
            v.hex() for v in quad_coeffs_from_geometry(pair_geometry(p))]
    some = [_scaled(p, 1e100) if i == 3 else p for i, p in enumerate(pairs)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfDomain, match="^pair 0: .* overflow"):
            quad_coeffs(some[3])
        with pytest.raises(OutOfDomain, match="^pair 3: .* overflow"):
            relativistic.quad_coeffs_list(some)


def _entries_pair(v):
    """The pair of unchecked vectors with Stokes entries v (8 floats)."""
    return MeasurementPair(StokesVector(v[0], v[1:4], validate=False),
                           StokesVector(v[4], v[5:], validate=False))


def test_pairs_with_entries_at_s_max_stay_finite():
    # every sign pattern of eight entries of magnitude S_MAX (invariants
    # -2 S_MAX^2 on both sides) is in the domain, and no term overflows
    pairs = [_entries_pair([c * S_MAX for c in signs])
             for signs in itertools.product((1.0, -1.0), repeat=8)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geometry = [np.hstack(pair_geometry(p)) for p in pairs]
        coeffs = relativistic.quad_coeffs_list(pairs)
        T = relativistic._pair_table(pairs)
    assert np.isfinite(geometry).all() and np.isfinite(coeffs).all()
    assert np.isfinite(T).all()


@pytest.mark.parametrize("slot", range(8))
def test_one_entry_past_s_max_is_out_of_domain(slot):
    # the next float above S_MAX in any one of s0, s, s0', s' is out of
    # domain, named by its pair's index
    v = [S_MAX] * 8
    v[slot] = float(np.nextafter(S_MAX, np.inf))
    wide = _entries_pair(v)
    match = "^pair {}: " + re.escape(f"Stokes entry {v[slot]!r} is not within")
    _, _, pairs = consistent_dataset(6, seed=1)
    for i in (0, 3):
        some = [wide if j == i else p for j, p in enumerate(pairs)]
        for solve, n in ((relativistic.quad_coeffs_list, 6),
                         (solve_six, 6), (solve_four, 4)):
            with pytest.raises(OutOfDomain, match=match.format(i)):
                solve(some[:n])
    with pytest.raises(OutOfDomain, match=match.format(0)):
        pair_geometry(wide)
    with pytest.raises(OutOfDomain, match=match.format(0)):
        family_4d(wide, 0.1, 0.2, 0.3)
    # every pair's invariants are checked before the domain of any
    bad = MeasurementPair(StokesVector(1.0, [0.5, 0.0, 0.0]),
                          StokesVector(2.0, [0.5, 0.0, 0.0]))
    with pytest.raises(InvariantMismatch):
        relativistic.quad_coeffs_list([wide, bad])


@pytest.mark.parametrize("v", [
    [1.0, np.nan, 0.0, 0.0, 1.0, 0.5, 0.0, 0.0],
    [np.nan, 0.5, 0.0, 0.0, 1.0, 0.5, 0.0, 0.0],
    [np.inf, 0.0, 0.0, 0.0, np.inf, 0.0, 0.0, 0.0],
    [1.0, 0.5, 0.0, 0.0, np.inf, np.inf, 0.0, 0.0]])
def test_non_finite_entries_are_out_of_domain(v):
    # unchecked vectors whose invariants do not rule them out
    p = _entries_pair(v)
    for read in (pair_geometry, quad_coeffs, lambda p: family_4d(p, 0, 0, 0)):
        with pytest.raises(OutOfDomain, match="^pair 0: Stokes entry "):
            read(p)


@pytest.mark.parametrize("solve, need, word", [(solve_four, 4, "four"),
                                               (solve_six, 6, "six")])
def test_solvers_take_exactly_their_pair_count(solve, need, word):
    _, _, pairs = consistent_dataset(need, seed=3)
    with pytest.raises(ValueError, match=f"exactly {word} pairs required"):
        solve(pairs[:need - 1])


def test_split_block_of_a_zero_block_is_zero():
    assert relativistic._split_block(0.0, 0.0, 0.0, 1.0) == (0.0, 0.0)
