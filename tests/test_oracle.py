import numpy as np
import pytest

from muellerkit import (RankDeficient, is_lorentz, k_from_expansion,
                        mueller_from_k, nm_from_k)
from muellerkit.oracle import (consistent_dataset, direct_linear_solve,
                               make_pair, random_lorentz, random_pairs,
                               random_stokes, rotation_dataset)
from muellerkit.relativistic import (constraint_residual, lift,
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


def test_chi_max_zero_pure_rotation():
    for seed in range(20):
        k = random_lorentz(seed=seed, chi_max=0.0)
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
