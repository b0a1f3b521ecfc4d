import numpy as np
import pytest

from muellerkit import (DegenerateGeometry, ExpansionCoeffs, MeasurementPair,
                        NoRealRoot, NoValidCandidate, Rank1Violation,
                        SingularSystem, StokesVector, apply,
                        constraint_residual, expansion_to_params, family_4d,
                        k_from_expansion, mueller_from_k, nm_from_k,
                        params_to_expansion, quad_coeffs, solve_four,
                        solve_six)
from muellerkit import relativistic
from muellerkit.oracle import (consistent_dataset, make_pair, random_lorentz,
                               random_stokes)
from muellerkit.relativistic import (quad_coeffs_from_geometry,
                                     quad_coeffs_polarized)
from muellerkit.stokes import pair_geometry

# frozen oracle chain at seed 42: random device + random probe
E42 = [-2.1157007644421757, -0.6603830070866943,
       -0.5276460781171577, 0.09505601182628705]
Q42 = [23.6074382794632, -81.40431812344542, 281.54360463302646,
       -12.66198297885628, -72.49468957994785, -416.6282869208342]


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
        r2 = expansion_to_params(g, e, require_normalized=True)
        assert abs(r2.n0 - r.n0) < 1e-9
        assert abs(r2.m0 - r.m0) < 1e-9
        assert np.allclose(r2.n, r.n, atol=1e-9)
        assert np.allclose(r2.m, r.m, atol=1e-9)


def test_params_to_expansion_frozen():
    k, p, g = _chain(42)
    e = params_to_expansion(g, nm_from_k(k))
    assert np.allclose(e.as_array(), E42, atol=1e-12)


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


def test_k_from_expansion_two_routes(rng):
    for _ in range(100):
        k = random_lorentz(rng=rng)
        p = make_pair(k, random_stokes(rng))
        g = pair_geometry(p)
        if g.collinear:
            continue
        e = params_to_expansion(g, nm_from_k(k))
        k_direct = k_from_expansion(g, e)
        # nm-route: e -> (n0,n,m0,m) -> k
        from muellerkit import k_from_nm
        r = expansion_to_params(g, e)
        k_nm = k_from_nm(r, tol=1e-8)
        assert np.max(np.abs(k_direct.k - k_nm.k)) < 1e-10 * max(
            1.0, np.max(np.abs(k.k)))


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


def test_family_4d_no_real_root():
    _, p, _ = _chain(42)
    with pytest.raises(NoRealRoot):
        family_4d(p, 1e6, 1e6, 1e6)


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
    # the stacked det over M and its six Cramer matrices must give the
    # values of one det call per matrix, bit for bit
    for i in range(20):
        _, _, pairs = consistent_dataset(6, rng=np.random.default_rng([6, i]))
        M = relativistic._lifted_system(
            [quad_coeffs_from_geometry(pair_geometry(p)) for p in pairs])
        expect = {"det": float(np.linalg.det(M)).hex()}
        for j, name in enumerate(("x2", "xy", "y2", "z2", "zw", "w2")):
            Mj = M.copy()
            Mj[:, j] = 1.0
            expect[name] = float(np.linalg.det(Mj)).hex()
        cramer = solve_six(pairs).cramer
        assert {k: v.hex() for k, v in cramer.items()} == expect


def test_solve_six_identical_pairs_singular():
    _, p, _ = _chain(1)
    with pytest.raises(SingularSystem):
        solve_six([p] * 6)


def test_solve_six_rank1_violation_via_generic_data(rng):
    # six generic pairs of one device do not share a lifted solution
    k = random_lorentz(rng=rng)
    pairs = [make_pair(k, random_stokes(rng)) for _ in range(6)]
    with pytest.raises((Rank1Violation, NoValidCandidate, SingularSystem)):
        solve_six(pairs)


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


def test_solve_four_recovers_root_missed_by_multistart():
    # 64-start Newton at seed 0 converged only to roots other than e*
    _, e_star, pairs = consistent_dataset(
        4, rng=np.random.default_rng([5, 4, 15]))
    rep = solve_four(pairs)
    es = _canonical(e_star.as_array())
    assert min(np.linalg.norm(r[0].as_array() - es)
               for r in rep.roots) < 1e-8


def test_solve_four_ignores_seed_and_starts():
    _, _, pairs = consistent_dataset(4, rng=np.random.default_rng(3))
    base = solve_four(pairs)
    for kw in ({"seed": 7}, {"starts": 1}, {"seed": 99, "starts": 500}):
        rep = solve_four(pairs, **kw)
        assert [(r[0].as_array().tolist(), r[1]) for r in rep.roots] == [
            (r[0].as_array().tolist(), r[1]) for r in base.roots]
        assert rep.per_pair_residuals == base.per_pair_residuals
        assert rep.rank_deficient == base.rank_deficient
        assert rep.n_starts == base.n_starts


def test_solve_four_repeated_pair_rank_deficient():
    _, p, g = _chain(9)
    if g.collinear:
        pytest.skip("degenerate sample")
    rep = solve_four([p] * 4, seed=0)
    assert rep.roots and all(rep.rank_deficient)
    q = quad_coeffs(p)
    assert all(abs(constraint_residual(q, e)) <= 1e-10 for e, _ in rep.roots)


def test_solve_four_propagates_programming_errors(monkeypatch):
    def broken(K):
        raise TypeError("bug in mueller_product")

    _, _, four = consistent_dataset(4, rng=np.random.default_rng(3))
    _, _, six = consistent_dataset(6, seed=1)
    monkeypatch.setattr(relativistic.kernels, "mueller_product", broken)
    with pytest.raises(TypeError):
        solve_four(four)
    with pytest.raises(TypeError):
        solve_six(six)


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
