import numpy as np
import pytest

from muellerkit import (AntipodalInput, DegenerateGeometry, HalfTurn,
                        InconsistentPairs, LengthMismatch, MeasurementPair,
                        StokesVector, apply, family_3d, gibbs_3d,
                        mueller_from_k, rotation_k, solve_two_3d)
from muellerkit.oracle import random_unit, rotation_dataset


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
    s = np.array([0.5, 0.0, 0.0])
    with pytest.raises(AntipodalInput):
        family_3d(_pair(1.0, s, 1.0, -s), 0.3)


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


def test_solve_two_zero_polarization():
    p1 = _pair(1.0, [0.0, 0.0, 0.0], 1.0, [0.0, 0.0, 0.0])
    p2 = _pair(1.0, [0.6, 0.0, 0.0], 1.0, [0.0, 0.6, 0.0])
    with pytest.raises(DegenerateGeometry):
        solve_two_3d(p1, p2)


def test_solve_two_half_turn_near_antipodal():
    # a half-turn about z maps probes near the xy-plane almost onto their
    # antipodes; n0^2 + n^2 then drifts from 1 by about eps / (S^2 + S.S')
    # unless family_3d renormalizes (n0, n)
    L = mueller_from_k(rotation_k([0, 0, 1], np.pi))
    cone = mueller_from_k(rotation_k([0, 0, 1], 1.3)).m[1:, 1:]
    d = np.array([0.6, 0.8, 1e-4])
    d /= np.linalg.norm(d)
    pairs = []
    for N in (d, cone @ d):
        vin = StokesVector(1.0, 0.9 * N)
        pairs.append(MeasurementPair(vin, apply(L, vin)))
    sol = solve_two_3d(*pairs)
    assert np.max(np.abs(sol.matrix().m - L.m)) <= 1e-12
