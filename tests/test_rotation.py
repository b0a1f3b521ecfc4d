import math

import numpy as np
import pytest

from muellerkit import (AntipodalInput, DegenerateGeometry, HalfTurn,
                        InconsistentPairs, LengthMismatch, MeasurementPair,
                        StokesVector, apply, family_3d, gibbs_3d, kernels,
                        mueller_from_k, rotation_k, solve_two_3d)
from muellerkit.lorentz import RealParameter, k_from_nm
from muellerkit.oracle import random_stokes, random_unit, rotation_dataset

EPS = np.finfo(float).eps


def _pair(s0_in, s_in, s0_out, s_out):
    return MeasurementPair(StokesVector(s0_in, s_in),
                           StokesVector(s0_out, s_out))


def test_family_little_rotation_case():
    # S' = S: n0 = cos G, n = sin G * S/|S|
    s = np.array([0.3, -0.4, 0.5])
    p = _pair(1.0, s, 1.0, s)
    for G in (0.0, 0.4, -1.1, 2.0):
        sol = family_3d(p, G)
        assert sol.n0 == pytest.approx(np.cos(G), abs=1e-12)
        assert np.allclose(sol.n, np.sin(G) * s / np.linalg.norm(s),
                           atol=1e-12)


def test_family_gamma_zero_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = rng.uniform(0.1, 0.9) * random_unit(rng)
        sp = np.linalg.norm(s) * random_unit(rng)
        p = _pair(1.0, s, 1.0, sp)
        S2 = float(s @ s)
        denom = S2 + float(s @ sp)
        if denom < 1e-6:
            continue
        sol = family_3d(p, 0.0)
        root = np.linalg.norm(s) * np.sqrt(2.0 * denom)
        assert sol.n0 == pytest.approx(denom / root, abs=1e-12)
        assert np.allclose(sol.n, np.cross(s, sp) / root, atol=1e-12)


def test_family_maps_pair(rng):
    for _ in range(50):
        axis = random_unit(rng)
        ang = rng.uniform(0.1, np.pi - 0.1)
        R = mueller_from_k(rotation_k(axis, ang)).m[1:, 1:]
        s = rng.normal(size=3)
        p = _pair(1.0, 0.6 * s / np.linalg.norm(s), 1.0,
                  0.6 * (R @ s) / np.linalg.norm(s))
        G = rng.uniform(-1.5, 1.5)
        M = family_3d(p, G).matrix().m
        assert np.linalg.norm(M[1:, 1:] @ p.input.s - p.output.s) < 1e-9


def test_family_antipodal_rejected():
    # at any |S|: the test is that of 1 + N.N'
    for smag in (0.5, 1.0, 1e-7):
        s = np.array([smag, 0.0, 0.0])
        for fn in (family_3d, gibbs_3d):
            with pytest.raises(AntipodalInput):
                fn(_pair(1.0, s, 1.0, -s), 0.3)


def test_family_of_a_weakly_polarized_pair_is_scale_free():
    # S^2 + S.S' was tested against an absolute 1e-12: any |S| below about
    # 7.5e-7 read as antipodal
    sp = [7.648421872844885e-08, 6.442176872376911e-08, 0.0]  # 0.7 rad
    weak = _pair(1.0, [1e-7, 0.0, 0.0], 1.0, sp)
    half = _pair(1.0, [0.5, 0.0, 0.0], 1.0,
                 0.5 * np.array(sp) / math.hypot(*sp))
    for G in (0.3, -2.0):
        a, b = family_3d(weak, G), family_3d(half, G)
        assert a.n0 == pytest.approx(b.n0, abs=4 * EPS)
        assert np.allclose(a.n, b.n, rtol=0.0, atol=4 * EPS)
        assert np.allclose(gibbs_3d(weak, G), gibbs_3d(half, G),
                           rtol=8 * EPS, atol=0.0)


def test_family_of_an_unpolarized_pair_has_no_direction():
    zero = _pair(1.0, [0.0, 0.0, 0.0], 1.0, [0.0, 0.0, 0.0])
    for fn in (family_3d, gibbs_3d):
        with pytest.raises(DegenerateGeometry, match="zero polarization"):
            fn(zero, 0.3)


def test_solve_two_rejects_a_device_that_misses_a_pair():
    # the second output turned by 1e-3 rad: a loose tol_cons passes the
    # N1.N2 check, and the solved device then misses a pair
    for seed in range(10):
        rng = np.random.default_rng(seed)
        _, p1, p2 = rotation_dataset(rng=rng)
        turn = mueller_from_k(rotation_k(random_unit(rng), 1e-3)).m[1:, 1:]
        p2 = MeasurementPair(p2.input, StokesVector(p2.output.s0,
                                                    turn @ p2.output.s))
        with pytest.raises(InconsistentPairs,
                           match="the device at Gamma misses a pair by"):
            solve_two_3d(p1, p2, tol_cons=0.1)
        with pytest.raises(InconsistentPairs, match="no common rotation"):
            solve_two_3d(p1, p2)


def test_gibbs_3d():
    s = np.array([0.2, 0.1, -0.6])
    p = _pair(1.0, s, 1.0, s)
    G = 0.3
    c = gibbs_3d(p, G)
    assert np.allclose(c, np.tan(G) * s / np.linalg.norm(s), atol=1e-12)
    with pytest.raises(HalfTurn):
        gibbs_3d(p, np.pi / 2)
    # cross-check c * n0 = n against family_3d
    rng = np.random.default_rng(8)
    for _ in range(20):
        sp = np.linalg.norm(s) * random_unit(rng)
        if float(s @ s) + float(s @ sp) < 1e-3:
            continue
        pr = _pair(1.0, s, 1.0, sp)
        Gr = rng.uniform(-1.2, 1.2)
        sol = family_3d(pr, Gr)
        assert np.allclose(gibbs_3d(pr, Gr) * sol.n0, sol.n, atol=1e-10)


def test_solve_two_worked_example():
    # quarter-turn about axis 3 reconstructed from two probes
    r2 = 1.0 / np.sqrt(2.0)
    p1 = _pair(1.0, [1.0, 0.0, 0.0], 1.0, [0.0, 1.0, 0.0])
    p2 = _pair(1.0, [r2, r2, 0.0], 1.0, [-r2, r2, 0.0])
    sol = solve_two_3d(p1, p2)
    R = mueller_from_k(rotation_k([0, 0, 1], np.pi / 2)).m
    M = sol.matrix().m
    assert min(np.max(np.abs(M - R)), np.max(np.abs(M + R))) < 1e-8 \
        or np.max(np.abs(M - R)) < 1e-8


def test_solve_two_same_pair_degenerate():
    p = _pair(1.0, [0.6, 0.0, 0.0], 1.0, [0.0, 0.6, 0.0])
    with pytest.raises(DegenerateGeometry):
        solve_two_3d(p, p)


def test_solve_two_random_recovery(rng):
    for _ in range(100):
        k, p1, p2 = rotation_dataset(rng=rng)
        sol = solve_two_3d(p1, p2)
        R = mueller_from_k(k).m
        assert np.max(np.abs(sol.matrix().m - R)) < 1e-8


def test_solve_two_inconsistent_rejected(rng):
    for _ in range(20):
        _, p1, _ = rotation_dataset(rng=rng)
        _, _, p2 = rotation_dataset(rng=rng)
        with pytest.raises((InconsistentPairs, DegenerateGeometry)):
            solve_two_3d(p1, p2)
            # a random second device almost surely breaks Eq-consistency


def test_solve_two_two_devices_on_one_cone_angle_rejected():
    # pairs of two different rotations whose probes share one cone angle,
    # N2.R_b N2 = N1.R_a N1: no rotation keeps their N1.N2
    rng = np.random.default_rng(41)
    R_a = mueller_from_k(rotation_k(random_unit(rng), 1.1))
    N1 = random_unit(rng)
    c = float(N1 @ R_a.m[1:, 1:] @ N1)
    axis, theta = random_unit(rng), 0.5 * (np.arccos(c) + np.pi)
    R_b = mueller_from_k(rotation_k(axis, theta))
    # N.R_b N = cos(theta) + (1 - cos(theta)) (N.axis)^2
    t = np.sqrt((c - np.cos(theta)) / (1.0 - np.cos(theta)))
    u = np.cross(axis, random_unit(rng))
    N2 = t * axis + np.sqrt(1.0 - t * t) * u / np.linalg.norm(u)
    assert abs(float(N2 @ R_b.m[1:, 1:] @ N2) - c) <= 1e-14
    pairs = [MeasurementPair(v, apply(R, v))
             for R, v in ((R_a, StokesVector(1.0, 0.8 * N1)),
                          (R_b, StokesVector(1.0, 0.8 * N2)))]
    with pytest.raises(InconsistentPairs, match=r"N1\.N2 = .* vs "
                       r"N1'\.N2' = .*: no common rotation"):
        solve_two_3d(*pairs)


def test_gamma_plus_pi_is_the_same_device():
    # Gamma + pi negates (n0, n): the double-cover twin, so solve_two_3d
    # has no second branch to try
    for seed in range(200):
        _, p1, _ = rotation_dataset(seed=seed)
        for g in (-2.5, -0.4, 0.3, 1.2, 2.9):
            M = family_3d(p1, g).matrix().m
            M_pi = family_3d(p1, g + np.pi).matrix().m
            assert np.max(np.abs(M - M_pi)) <= 1e-14


def test_solve_two_length_mismatch():
    p1 = _pair(1.0, [0.6, 0.0, 0.0], 1.0, [0.0, 0.5, 0.0])
    p2 = _pair(1.0, [0.0, 0.6, 0.0], 1.0, [-0.6, 0.0, 0.0])
    with pytest.raises(LengthMismatch):
        solve_two_3d(p1, p2)


def _doubled_s0(pair):
    return MeasurementPair(pair.input, StokesVector(2.0 * pair.output.s0,
                                                    pair.output.s))


def test_rotation_pairs_keep_s0_and_the_length_of_s():
    # each was accepted: s0' = s0 went unchecked, and |S'| = |S| was checked
    # against an absolute floor, so |S| = 1e-7 could grow by 0.9%
    _, p1, p2 = rotation_dataset(seed=3)
    with pytest.raises(LengthMismatch, match="s0 = .* vs s0' = "):
        solve_two_3d(_doubled_s0(p1), _doubled_s0(p2))
    tripled = _pair(1.0, [0.5, 0.1, 0.2], 3.0, [0.1, 0.5, 0.2])
    grown = _pair(1.0, [1e-7, 0.0, 0.0], 1.0, [0.0, 1.009e-7, 0.0])
    for p, what in ((tripled, "s0 = "), (grown, r"\|S\| = ")):
        for fn in (family_3d, gibbs_3d):
            with pytest.raises(LengthMismatch, match=what):
                fn(p, 0.3)
        with pytest.raises(LengthMismatch, match=what):
            solve_two_3d(p1, p)
    # within TOL_LEN of the larger side, a pair is accepted
    s = np.array([1e-7, 0.0, 0.0])
    near = _pair(1.0, s, 1.0 + 5e-10, s * (1.0 + 5e-10))
    assert family_3d(near, 0.3).n0 == pytest.approx(math.cos(0.3), abs=1e-9)


def test_solve_two_zero_polarization():
    p1 = _pair(1.0, [0.0, 0.0, 0.0], 1.0, [0.0, 0.0, 0.0])
    p2 = _pair(1.0, [0.6, 0.0, 0.0], 1.0, [0.0, 0.6, 0.0])
    with pytest.raises(DegenerateGeometry):
        solve_two_3d(p1, p2)


def _half_turn_error_and_bound():
    """The matrix error of solve_two_3d on two probes near the xy-plane of
    a half-turn about z, and its bound 16 eps / sqrt(1 + N.N')."""
    L = mueller_from_k(rotation_k([0, 0, 1], np.pi))
    cone = mueller_from_k(rotation_k([0, 0, 1], 1.3)).m[1:, 1:]
    d = np.array([0.6, 0.8, 1e-4])
    d /= np.linalg.norm(d)
    pairs = []
    for N in (d, cone @ d):
        vin = StokesVector(1.0, 0.9 * N)
        pairs.append(MeasurementPair(vin, apply(L, vin)))
    sol = solve_two_3d(*pairs)
    cos = float(d @ L.m[1:, 1:] @ d)  # N.N', the same on both pairs
    return (float(np.max(np.abs(sol.matrix().m - L.m))),
            16 * EPS / math.sqrt(1.0 + cos))


def test_solve_two_half_turn_near_antipodal():
    # a half-turn about z maps probes near the xy-plane almost onto their
    # antipodes; n0^2 + n^2 then drifts from 1 by about eps / (S^2 + S.S')
    # unless family_3d renormalizes (n0, n). The matrix is resolved to
    # round-off over sqrt(1 + N.N'), about 1.4e-4 here.
    err, bound = _half_turn_error_and_bound()
    assert 2e-11 < bound < 3e-11
    assert err <= bound


def test_solve_two_half_turn_bound_holds_for_either_rounding_of_smag(
        monkeypatch):
    # the last bit of |S| moved the error of a family-based solve from
    # 2.7e-13 to 1.1e-12: a fixed 1e-12 held only for the one rounding
    monkeypatch.setattr(StokesVector, "smag",
                        property(lambda v: math.hypot(*v.s)))
    err, bound = _half_turn_error_and_bound()
    assert err <= bound


def _numpy_member(s, sp, smag, gamma):
    """The family member at gamma in numpy 3-vector arithmetic: (alpha,
    beta, n0, n), (n0, n) renormalized."""
    denom = smag * smag + float(s @ sp)
    root = np.sqrt(2.0 * denom)
    alpha = np.sin(gamma) / root
    beta = np.cos(gamma) / (smag * root)
    n0 = beta * denom
    n = alpha * (s + sp) + beta * np.cross(s, sp)
    norm = np.sqrt(n0 * n0 + float(n @ n))
    return alpha, beta, n0 / norm, n / norm


def _numpy_solve_two(p1, p2):
    """Gamma and the member at Gamma of two cone-angle pairs, in numpy
    3-vector arithmetic: tan(Gamma) from the ratio form with the largest
    |den|, an oracle independent of solve_two_3d's closed form."""
    N1, N1p = p1.input.s / p1.input.smag, p1.output.s / p1.output.smag
    N2, N2p = p2.input.s / p2.input.smag, p2.output.s / p2.output.smag
    exprs = [(N1 @ np.cross(N2, N2p), (N2 - N1) @ (N2 + N2p)),
             (-N1p @ np.cross(N2p, N2), (N2p - N1p) @ (N2p + N2)),
             (N2 @ np.cross(N1, N1p), (N1 - N2) @ (N1 + N1p)),
             (-N2p @ np.cross(N1p, N1), (N1p - N2p) @ (N1p + N1))]
    num, den = max(exprs, key=lambda e: abs(e[1]))
    gamma = np.arctan2(num, den)
    return (gamma, *_numpy_member(N1, N1p, np.sqrt(N1 @ N1), gamma))


def _close(a, b, ulps=16):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.all(np.abs(a - b) <= ulps * EPS * np.maximum(1.0, np.abs(b)))


def test_float_rotation_path_matches_numpy_reference(monkeypatch):
    # the float arithmetic of family_3d, gibbs_3d and solve_two_3d against
    # the same formulas in numpy; solve_two_3d checks the device it returns
    checked = []
    product = kernels.mueller_product

    def record(K):
        checked.append(product(K))
        return checked[-1]

    monkeypatch.setattr(kernels, "mueller_product", record)
    for i in range(500):
        rng = np.random.default_rng([7, i])
        _, p1, p2 = rotation_dataset(rng=rng)
        g = rng.uniform(-1.4, 1.4)
        s, sp, smag = p1.input.s, p1.output.s, p1.input.smag

        sol = family_3d(p1, g)
        alpha, beta, n0, n = _numpy_member(s, sp, smag, g)
        assert _close([sol.alpha, sol.beta, sol.n0, *sol.n],
                      [alpha, beta, n0, *n])
        c = (np.tan(g) * smag * (s + sp) + np.cross(s, sp)) \
            / (smag * smag + float(s @ sp))
        assert _close(gibbs_3d(p1, g), c)

        checked.clear()
        sol = solve_two_3d(p1, p2)
        assert len(checked) == 1
        M = sol.matrix().m
        assert np.array_equal(checked[0], M)
        gamma, alpha, beta, n0, n = _numpy_solve_two(p1, p2)
        assert _close([sol.gamma, sol.alpha, sol.beta, sol.n0, *sol.n],
                      [gamma, alpha, beta, n0, *n])
        ref = RealParameter(n0, n, 0.0, np.zeros(3))
        assert _close(M, mueller_from_k(k_from_nm(ref)).m)


def _half_turn_pairs(i, count):
    """Two genuine pairs of a device at angle pi - delta, delta
    log-spaced over [1e-11, 1e-3]; the second probe is the first turned
    about the device axis, so both lie on one cone about it."""
    rng = np.random.default_rng([13, i])
    axis = random_unit(rng)
    delta = 10.0 ** (-11.0 + 8.0 * i / (count - 1))
    L = mueller_from_k(rotation_k(axis, np.pi - delta))
    N1 = random_unit(rng)
    while abs(float(N1 @ axis)) > 0.95:
        N1 = random_unit(rng)
    cone = mueller_from_k(rotation_k(axis, rng.uniform(0.5, 5.8))).m[1:, 1:]
    pairs = []
    for N in (N1, cone @ N1):
        s0 = rng.uniform(0.5, 2.0)
        vin = StokesVector(s0, s0 * rng.uniform(0.2, 1.0) * N)
        pairs.append(MeasurementPair(vin, apply(L, vin)))
    return L, pairs


@pytest.mark.parametrize("tol_cons", [1e-8, 1e-12])
def test_solve_two_accepts_genuine_pairs_near_half_turns(tol_cons):
    # near a half-turn tan(Gamma) diverges and n0 -> 0: genuine pairs must
    # pass the checks at any tolerance above their round-off
    count = 660
    for i in range(count):
        L, pairs = _half_turn_pairs(i, count)
        sol = solve_two_3d(*pairs, tol_cons=tol_cons)
        assert np.max(np.abs(sol.matrix().m - L.m)) <= 1e-10


def _rotation_pairs(axis, angle, probes):
    """The device of `angle` about `axis` and its pairs on the input
    Stokes vectors `probes`."""
    L = mueller_from_k(rotation_k(axis, angle))
    return L, [MeasurementPair(v, apply(L, v)) for v in probes]


def _genuine_pairs(i, angle_of):
    """A rotation of random axis and angle angle_of(rng) and two
    random_stokes probes: no shared cone angle about the axis."""
    rng = np.random.default_rng([26, i])
    axis, angle = random_unit(rng), angle_of(rng)
    return _rotation_pairs(axis, angle,
                           [random_stokes(rng), random_stokes(rng)])


def _matrix_error(pairs, L):
    return float(np.max(np.abs(solve_two_3d(*pairs).matrix().m - L.m)))


def test_solve_two_recovers_genuine_pairs():
    # a rotation keeps N1.N2, not N.N': these pairs failed N1.N1' = N2.N2'
    for i in range(1000):
        L, pairs = _genuine_pairs(i, lambda rng: rng.uniform(0.0, np.pi))
        assert _matrix_error(pairs, L) <= 1e-12


def test_solve_two_recovers_genuine_pairs_near_half_turns():
    for i in range(300):
        L, pairs = _genuine_pairs(
            i, lambda rng: np.pi - 10.0 ** rng.uniform(-12.0, 0.0))
        assert _matrix_error(pairs, L) <= 1e-12


@pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10, 0.0])
def test_solve_two_probes_coplanar_with_the_axis(eps):
    # the second probe is the first turned by pi + eps about the axis: N1,
    # N2 and the axis are (nearly) coplanar, where (s1.d2, -d1 x d2) of the
    # two probes alone vanishes
    for i in range(200):
        rng = np.random.default_rng([27, i])
        axis = random_unit(rng)
        N1 = random_unit(rng)
        while not 0.05 < abs(float(N1 @ axis)) < 0.95:
            N1 = random_unit(rng)
        turn = mueller_from_k(rotation_k(axis, np.pi + eps)).m[1:, 1:]
        L, pairs = _rotation_pairs(
            axis, rng.uniform(0.3, 2.0 * np.pi - 0.3),
            [StokesVector(1.0, 0.8 * N) for N in (N1, turn @ N1)])
        assert _matrix_error(pairs, L) <= 1e-12


def test_solve_two_identity_axis_probe_and_small_angles():
    rng = np.random.default_rng(28)
    a, b = random_stokes(rng), random_stokes(rng)
    sol = solve_two_3d(_pair(a.s0, a.s, a.s0, a.s), _pair(b.s0, b.s, b.s0, b.s))
    assert (sol.gamma, sol.n0, *sol.n) == (0.0, 1.0, 0.0, 0.0, 0.0)
    for angle in (1e-10, 1e-6, 1e-3, 0.1, 2.0):
        axis = random_unit(rng)
        # a probe on the axis is left in place: d = 0 for it
        for probes in ([random_stokes(rng), random_stokes(rng)],
                       [StokesVector(1.0, 0.7 * axis), random_stokes(rng)]):
            L, pairs = _rotation_pairs(axis, angle, probes)
            assert _matrix_error(pairs, L) <= 1e-12


def test_solve_two_parallel_probes_are_degenerate():
    # the same probe, a weaker one along it and one opposite to it
    rng = np.random.default_rng(29)
    axis, N = random_unit(rng), random_unit(rng)
    for scale in (0.8, 0.4, -0.4):
        _, pairs = _rotation_pairs(axis, 1.0, [StokesVector(1.0, 0.8 * N),
                                               StokesVector(1.0, scale * N)])
        with pytest.raises(DegenerateGeometry, match="parallel probes"):
            solve_two_3d(*pairs)


def test_solve_two_does_not_depend_on_pair_order_or_intensity_unit():
    def scaled(v, lam):
        return StokesVector(lam * v.s0, lam * v.s)

    for i in range(200):
        _, (p1, p2) = _genuine_pairs(i, lambda rng: rng.uniform(0.0, np.pi))
        M = solve_two_3d(p1, p2).matrix().m
        assert np.max(np.abs(solve_two_3d(p2, p1).matrix().m - M)) <= 1e-14
        for lam in (1e-6, 1e-3, 1e3, 1e6):
            pairs = [MeasurementPair(scaled(p.input, lam),
                                     scaled(p.output, lam))
                     for p in (p1, p2)]
            assert np.max(np.abs(
                solve_two_3d(*pairs).matrix().m - M)) <= 1e-14


def test_solve_two_reads_gamma_on_the_second_pair_where_the_first_is_antipodal():
    # a turn by pi - delta maps a probe perpendicular to its axis onto its
    # antipode (1 + N1.N1' about delta^2 / 2): the closed form still fixes
    # the device, and Gamma, alpha and beta are read on the second pair's
    # family, whose member at Gamma is the device
    def check(L, pairs):
        N, Np = (v.s / v.smag for v in (pairs[0].input, pairs[0].output))
        assert 1.0 + float(N @ Np) <= 1e-12
        sol = solve_two_3d(*pairs)
        assert np.max(np.abs(sol.matrix().m - L.m)) <= 1e-12
        member = family_3d(pairs[1], sol.gamma)
        assert abs(member.n0 - sol.n0) <= 1e-12
        assert np.max(np.abs(member.n - sol.n)) <= 1e-12

    check(*_rotation_pairs([0.0, 0.0, 1.0], np.pi - 1e-9, [
        StokesVector(1.0, [1.0, 0.0, 0.0]),
        StokesVector(1.0, np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0))]))
    for i in range(300):
        rng = np.random.default_rng([30, i])
        axis = random_unit(rng)
        N1 = np.cross(axis, random_unit(rng))
        s0 = rng.uniform(0.5, 2.0)
        probe = StokesVector(s0, s0 * rng.uniform(0.2, 1.0)
                             * N1 / np.linalg.norm(N1))
        delta = 0.0 if i % 10 == 0 else 10.0 ** rng.uniform(-12.0, -7.0)
        check(*_rotation_pairs(axis, np.pi - delta,
                               [probe, random_stokes(rng)]))

    # both probes perpendicular to the axis: both pairs are antipodal
    _, pairs = _rotation_pairs([0.0, 0.0, 1.0], np.pi - 1e-9, [
        StokesVector(1.0, [0.8, 0.0, 0.0]), StokesVector(1.0, [0.0, 0.6, 0.0])])
    with pytest.raises(AntipodalInput):
        solve_two_3d(*pairs)
