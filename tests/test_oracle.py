import numpy as np
import pytest

from muellerkit import (ComplexParameter, DegenerateGeometry, RankDeficient,
                        is_lorentz, k_from_expansion, mueller_from_k,
                        nm_from_k, oracle)
from muellerkit.oracle import (_on_surface, _scale_pair, consistent_dataset,
                               direct_linear_solve, make_pair,
                               random_lorentz, random_pairs, random_stokes,
                               random_unit, rotation_dataset)
from muellerkit.relativistic import (ExpansionCoeffs, constraint_residual,
                                     lift, params_to_expansion,
                                     quad_coeffs_from_geometry)
from muellerkit.stokes import MeasurementPair, StokesVector, pair_geometry


def test_random_lorentz_deterministic():
    a = random_lorentz(seed=0)
    b = random_lorentz(seed=0)
    assert np.all(a.k == b.k)
    assert np.all(mueller_from_k(a).m == mueller_from_k(b).m)


def test_random_lorentz_batch_valid():
    for seed in range(200):
        k = random_lorentz(seed=seed)
        rep = is_lorentz(mueller_from_k(k))
        assert rep.ok and rep.ortho_residual <= 1e-10


def test_chi_max_zero_pure_rotation(monkeypatch):
    monkeypatch.setattr(oracle, "CHI_MAX", 0.0)
    for seed in range(20):
        k = random_lorentz(seed=seed)
        r = nm_from_k(k)
        assert np.all(r.m == 0.0) and r.m0 == 0.0
        L = mueller_from_k(k).m
        assert np.allclose(L[0], [1, 0, 0, 0], atol=1e-12)
        assert np.allclose(L[:, 0], [1, 0, 0, 0], atol=1e-12)


def test_rotation_dataset_consistency(rng):
    # both probes lie on one cone about the device axis
    for _ in range(20):
        k, p1, p2 = rotation_dataset(rng=rng)
        N1 = p1.input.direction
        N1p = p1.output.direction
        N2 = p2.input.direction
        N2p = p2.output.direction
        assert abs(float(N1 @ N1p) - float(N2 @ N2p)) < 1e-12


def test_consistent_dataset_shared_lifted_solution(rng):
    for _ in range(10):
        k, e_star, pairs = consistent_dataset(6, rng=rng)
        for p in pairs:
            q = quad_coeffs_from_geometry(pair_geometry(p))
            assert abs(constraint_residual(q, e_star)) < 1e-8


@pytest.mark.parametrize("seeds", [[[2110, 4, 77]],
                                   [[31, i] for i in range(500)]])
def test_consistent_dataset_e_star_maps_to_its_device(seeds):
    # e* expands the generating device on the first pair's basis, to
    # within the round-off of the pair data: the first seed has
    # |E| |e*| about 800 |k|
    for seed in seeds:
        k, e_star, pairs = consistent_dataset(
            4, rng=np.random.default_rng(seed))
        k2 = k_from_expansion(pair_geometry(pairs[0]), e_star).k
        err = min(np.linalg.norm(k2 - k.k), np.linalg.norm(k2 + k.k))
        assert err <= 1e-13 * np.linalg.norm(k.k)


def _reference_scale(pair, e):
    q = quad_coeffs_from_geometry(pair_geometry(pair))
    x, y, z, w = e.x, e.y, e.z, e.w
    P2 = q.a * x * x - q.alpha * z * z
    P3 = 2.0 * (q.b * x * y - q.beta * z * w)
    P4 = q.c * y * y - q.sigma * w * w
    roots = np.roots([P4, P3, P2, 0.0, -1.0])
    real = [r.real for r in roots
            if abs(r.imag) < 1e-9 * max(1.0, abs(r)) and r.real > 1e-9]
    if not real:
        raise DegenerateGeometry("no positive scaling")
    return _scale_pair(pair, min(real))


def _reference_check(cand, e):
    """The candidate scaled onto the surface through e, or None where the
    one-at-a-time loop rejected it."""
    if pair_geometry(cand).collinear:
        return None
    try:
        scaled = _reference_scale(cand, e)
    except DegenerateGeometry:
        return None
    q = quad_coeffs_from_geometry(pair_geometry(scaled))
    return None if abs(constraint_residual(q, e)) > 1e-9 else scaled


def _reference_dataset(count, rng):
    """consistent_dataset as one candidate drawn and checked at a time,
    each through its own pair_geometry, quad_coeffs_from_geometry and
    np.roots."""
    while True:
        k = random_lorentz(rng=rng)
        base = make_pair(k, random_stokes(rng))
        g = pair_geometry(base)
        if g.collinear:
            continue
        try:
            e_star = params_to_expansion(g, nm_from_k(k))
        except DegenerateGeometry:
            continue
        break
    pairs = [base]
    while len(pairs) < count:
        cand = make_pair(random_lorentz(rng=rng), random_stokes(rng))
        scaled = _reference_check(cand, e_star)
        if scaled is not None:
            pairs.append(scaled)
    return k, e_star, pairs


def _floats(pairs):
    return [[p.input.s0, *p.input.s.tolist(), p.output.s0,
             *p.output.s.tolist()] for p in pairs]


@pytest.mark.parametrize("count", [4, 6])
def test_consistent_dataset_bit_for_bit_one_candidate_at_a_time(count):
    # the batched generator draws the same stream and returns the same
    # bits as the reference loop
    for i in range(200):
        rng, ref_rng = (np.random.default_rng([0x7fdd, count, i])
                        for _ in range(2))
        k, e_star, pairs = consistent_dataset(count, rng=rng)
        rk, re_star, rpairs = _reference_dataset(count, ref_rng)
        assert k.k.tobytes() == rk.k.tobytes()
        assert tuple(e_star) == tuple(re_star)
        assert _floats(pairs) == _floats(rpairs)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_on_surface_rejects_what_the_reference_rejects():
    # seeded datasets almost never reject a candidate, so each rejection
    # is forced here: an identity device gives a collinear pair, e = 0
    # leaves no positive scaling, and e = (0, 0, 1, 0) a quadratic whose
    # leading coefficients are zero
    rng = np.random.default_rng(21)
    _, e_star, _ = consistent_dataset(1, rng=rng)
    cands = [make_pair(random_lorentz(rng=rng), random_stokes(rng))
             for _ in range(5)]
    cands.insert(2, make_pair(ComplexParameter([1, 0, 0, 0]),
                              random_stokes(rng)))
    kept = []
    for e in (e_star, ExpansionCoeffs(0.0, 0.0, 0.0, 0.0),
              ExpansionCoeffs(0.0, 0.0, 1.0, 0.0),
              ExpansionCoeffs(0.0, 0.0, 0.0, 1.0)):
        ref = [p for p in (_reference_check(c, e) for c in cands)
               if p is not None]
        assert _floats(_on_surface(cands, e)) == _floats(ref)
        kept.append(len(ref))
    assert kept[:2] == [5, 0]


def _once(real, fail):
    """real, but its first call returns fail(real, *args)."""
    calls = []

    def patched(*args):
        calls.append(args)
        return fail(real, *args) if len(calls) == 1 else real(*args)
    return patched


def _collinear(real, p):
    return real(p)._replace(cross2=0.0)


def _degenerate(real, g, r):
    raise DegenerateGeometry("expansion basis of rank < 4")


@pytest.mark.parametrize("name, fail", [("pair_geometry", _collinear),
                                        ("params_to_expansion", _degenerate)])
@pytest.mark.parametrize("count", [1, 4])
def test_consistent_dataset_redraws_a_rejected_base_pair(monkeypatch, name,
                                                          fail, count):
    # seeded datasets never reject their base pair, so each rejection (a
    # collinear basis, an expansion basis of rank < 4) is forced on the
    # first draw: the result is that of an rng already past that draw
    rng, ref_rng = (np.random.default_rng([0x7fde, count]) for _ in range(2))
    random_lorentz(rng=ref_rng)
    random_stokes(ref_rng)
    rk, re_star, rpairs = consistent_dataset(count, rng=ref_rng)
    monkeypatch.setattr(oracle, name, _once(getattr(oracle, name), fail))
    k, e_star, pairs = consistent_dataset(count, rng=rng)
    assert k.k.tobytes() == rk.k.tobytes()
    assert tuple(e_star) == tuple(re_star)
    assert _floats(pairs) == _floats(rpairs)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("count", [0, -3])
def test_consistent_dataset_needs_a_pair(count):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="count"):
        consistent_dataset(count, rng=rng)
    assert rng.bit_generator.state == state


def test_random_pairs_rejects_a_negative_count():
    k = random_lorentz(seed=6)
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="count"):
        random_pairs(k, -1, rng)
    assert rng.bit_generator.state == state
    assert random_pairs(k, 0, rng) == []
    assert rng.bit_generator.state == state


def test_random_unit_divides_by_the_norm():
    for i in range(200):
        v = np.random.default_rng(i).normal(size=3)
        u = random_unit(np.random.default_rng(i))
        assert u.tobytes() == (v / np.linalg.norm(v)).tobytes()


def test_direct_linear_solve_recovery(rng):
    k = random_lorentz(rng=rng)
    L = mueller_from_k(k)
    pairs = random_pairs(k, 4, rng)
    Lhat, rep, resid = direct_linear_solve(pairs)
    assert np.max(np.abs(Lhat.m - L.m)) < 1e-8
    assert rep.ok


def test_direct_linear_solve_rank_deficient(rng):
    k = random_lorentz(rng=rng)
    p = make_pair(k, random_stokes(rng))
    with pytest.raises(RankDeficient) as ei:
        direct_linear_solve([p] * 4)
    assert ei.value.rank is not None and ei.value.rank < 16


def test_direct_linear_solve_perturbation_sensitivity(rng):
    k = random_lorentz(rng=rng)
    pairs = random_pairs(k, 6, rng)
    _, _, clean = direct_linear_solve(pairs)
    eps = 1e-6
    p0 = pairs[0]
    bad = MeasurementPair(
        p0.input,
        StokesVector(p0.output.s0 + eps, p0.output.s, validate=False))
    _, _, noisy = direct_linear_solve([bad] + pairs[1:])
    # residual reflects the perturbation magnitude within a factor of 100
    assert eps / 100 <= noisy <= eps * 100
    assert clean < noisy


def _kronecker_solve(pairs):
    """Reference: the 4n x 16 system in vec(M), row r of pair i holding
    the input in columns 4r to 4r + 3, by one lstsq: (M, rank, residual
    norm)."""
    n = len(pairs)
    Mat = np.zeros((4 * n, 16))
    rhs = np.zeros(4 * n)
    for i, p in enumerate(pairs):
        for r in range(4):
            Mat[4 * i + r, 4 * r:4 * r + 4] = p.input.as_array()
        rhs[4 * i:4 * i + 4] = p.output.as_array()
    sol, _, rank, _ = np.linalg.lstsq(Mat, rhs, rcond=None)
    return sol.reshape(4, 4), int(rank), float(np.linalg.norm(Mat @ sol
                                                              - rhs))


def _noisy(pair, rng, sigma):
    out = pair.output.as_array() + rng.normal(0.0, sigma, 4)
    return MeasurementPair(pair.input, StokesVector(out[0], out[1:],
                                                    validate=False))


@pytest.mark.parametrize("kind", ["clean", "noisy", "repeated"])
def test_direct_linear_solve_matches_the_kronecker_system(kind):
    for seed in range(4):
        rng = np.random.default_rng([seed, len(kind)])
        k = random_lorentz(rng=rng)
        for n in range(10):
            pairs = random_pairs(k, n, rng)
            if kind == "noisy":
                pairs = [_noisy(p, rng, 1e-3) for p in pairs]
            elif kind == "repeated" and n:
                pairs = [pairs[i] for i in rng.integers(0, 1 + n // 2, n)]
            M, rank, resid = _kronecker_solve(pairs)
            if rank < 16:
                with pytest.raises(RankDeficient) as ei:
                    direct_linear_solve(pairs)
                assert ei.value.rank == rank, (kind, seed, n)
                continue
            L, rep, got = direct_linear_solve(pairs)
            scale = np.max(np.abs(M))
            assert np.max(np.abs(L.m - M)) <= 1e-12 * scale, (kind, seed, n)
            assert got == pytest.approx(resid, rel=1e-6, abs=1e-13 * scale)
            assert rep == is_lorentz(L)
            assert L.m.flags.c_contiguous and not L.m.flags.writeable
