"""Covariance of the solvers under maps of the measurement frame.

Mapping every input by L1 and every output by L2 maps a device L to
L2 L L1^-1. With one rotation R on both sides (L1 = L2 = R), the
expansion scalars e of the lifted solvers are read off invariant pair
geometry and must not move, and the rotation and linear solvers must
return R L R^T. With two Lorentz maps, the linear solver must return
L2 L L1^-1. Boosts are left out for the lifted solvers, whose e are not
boost invariant. A change of the unit of intensity, L1 = L2 = lam I, keeps
the device and maps e = (x, y, z, w) to (x/lam, y/lam^2, z/lam, w/lam^2).
"""

import numpy as np
import pytest

from muellerkit import (MeasurementPair, SingularSystem, StokesVector,
                        consistent_dataset, direct_linear_solve, family_4d,
                        mueller_from_k, random_lorentz, random_pairs,
                        rotation_dataset, rotation_k, solve_four, solve_six,
                        solve_two_3d)
from muellerkit.oracle import random_unit

N_CASES = 100


def _cases(tag):
    """(rng, R) per case: a seeded stream and a random rotation matrix."""
    for i in range(N_CASES):
        rng = np.random.default_rng([19, tag, i])
        axis, angle = random_unit(rng), rng.uniform(0.0, 2.0 * np.pi)
        yield rng, mueller_from_k(rotation_k(axis, angle)).m


def _mapped(pairs, L1, L2):
    def f(L, v):
        return StokesVector.from_array(L @ v.as_array(), validate=False)
    return [MeasurementPair(f(L1, p.input), f(L2, p.output)) for p in pairs]


def _unit_law(lam):
    """The factors that map e under a unit of intensity lam times larger."""
    return np.array([1.0 / lam, lam ** -2, 1.0 / lam, lam ** -2])


def _canonical(e):
    """e or -e (the same device), its first entry of largest size >= 0."""
    e = np.asarray(e, float)
    return -e if e[np.argmax(np.abs(e))] < 0.0 else e


def _rel(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want), initial=0.0)
                 / max(1.0, np.max(np.abs(want), initial=0.0)))


def test_solve_six_expansion_is_rotation_invariant():
    worst = 0.0
    for rng, R in _cases(6):
        _, _, pairs = consistent_dataset(6, rng=rng)
        want = [c.e for c in solve_six(pairs).candidates]
        got = [c.e for c in solve_six(_mapped(pairs, R, R)).candidates]
        worst = max(worst, _rel(got, want))
    assert worst <= 1e-12


def test_solve_four_and_family_4d_expansion_is_rotation_invariant():
    worst4 = worst_f = 0.0
    for rng, R in _cases(4):
        _, e_star, pairs = consistent_dataset(4, rng=rng)
        moved = _mapped(pairs, R, R)
        want = [e for e, _ in solve_four(pairs).roots]
        got = [e for e, _ in solve_four(moved).roots]
        worst4 = max(worst4, _rel(got, want))
        want = [e for e, _, _ in family_4d(pairs[0], *e_star[1:])]
        got = [e for e, _, _ in family_4d(moved[0], *e_star[1:])]
        worst_f = max(worst_f, _rel(got, want))
    # solve_four's roots of its quartic move with the quartic's round-off:
    # the worst case here (i = 56) moves 2.5e-11, the median 3e-15
    assert worst4 <= 1e-9 and worst_f <= 1e-12


def test_solve_two_3d_is_rotation_covariant():
    worst = 0.0
    for rng, R in _cases(2):
        _, p1, p2 = rotation_dataset(rng=rng)
        L = solve_two_3d(p1, p2).matrix().m
        got = solve_two_3d(*_mapped([p1, p2], R, R)).matrix().m
        worst = max(worst, _rel(got, R @ L @ R.T))
    assert worst <= 1e-13


def test_direct_linear_solve_is_lorentz_covariant():
    worst_r = worst_l = 0.0
    for rng, R in _cases(1):
        pairs = random_pairs(random_lorentz(rng=rng), 5, rng)
        L = direct_linear_solve(pairs)[0].m
        got = direct_linear_solve(_mapped(pairs, R, R))[0].m
        worst_r = max(worst_r, _rel(got, R @ L @ R.T))
        L1, L2 = (mueller_from_k(random_lorentz(rng=rng)).m for _ in "12")
        got = direct_linear_solve(_mapped(pairs, L1, L2))[0].m
        worst_l = max(worst_l, _rel(got, L2 @ L @ np.linalg.inv(L1)))
    assert worst_r <= 1e-12 and worst_l <= 1e-11


@pytest.mark.parametrize("lam", [1e-3, 1e3])
def test_solve_four_and_family_4d_keep_the_device_under_a_unit_scale(lam):
    law = _unit_law(lam)
    worst4 = worst_f = worst_fm = 0.0
    for i in range(N_CASES):
        _, e_star, pairs = consistent_dataset(
            4, rng=np.random.default_rng([19, 16, 4, i]))
        moved = _mapped(pairs, lam * np.eye(4), lam * np.eye(4))
        # the root nearest e* and its device; the other roots of the
        # quartic may differ in number (5 of 200 cases here)
        found = []
        for rep, back in ((solve_four(pairs), 1.0),
                          (solve_four(moved), 1.0 / law)):
            es = [_canonical(np.asarray(e) * back) for e, _ in rep.roots]
            j = min(range(len(es)),
                    key=lambda j: _rel(es[j], _canonical(e_star)))
            found.append((es[j], mueller_from_k(rep.k[j]).m))
        (e0, m0), (e1, m1) = found
        worst4 = max(worst4, _rel(e1, e0), _rel(m1, m0))
        want = family_4d(pairs[0], *e_star[1:])
        got = family_4d(moved[0], *(np.asarray(e_star[1:]) * law[1:]))
        worst_f = max(worst_f, _rel([np.asarray(e) / law for e, _, _ in got],
                                    [e for e, _, _ in want]))
        worst_fm = max(worst_fm,
                       _rel([mueller_from_k(k).m for _, k, _ in got],
                            [mueller_from_k(k).m for _, k, _ in want]))
    # worst seen: solve_four 9.3e-12 (its quartic's round-off), family_4d
    # e 1.9e-14 and matrix 9.5e-13
    assert worst4 <= 1e-9 and worst_f <= 1e-12 and worst_fm <= 1e-11


@pytest.mark.xfail(strict=True, raises=SingularSystem,
                   reason="the lifted solvers depend on the unit of "
                          "intensity (the unit-of-intensity FOUND): at "
                          "lam = 1e6 the lifted 6x6 condition exceeds "
                          "COND_MAX on 100 of 100 sets")
def test_solve_six_keeps_the_device_under_a_unit_scale():
    lam = 1e6
    law = _unit_law(lam)
    worst = 0.0
    for i in range(N_CASES):
        _, _, pairs = consistent_dataset(
            6, rng=np.random.default_rng([19, 16, 6, i]))
        want = [_canonical(c.e) for c in solve_six(pairs).candidates]
        moved = _mapped(pairs, lam * np.eye(4), lam * np.eye(4))
        got = [_canonical(np.asarray(c.e) / law)
               for c in solve_six(moved).candidates]
        worst = max(worst, _rel(sorted(map(tuple, got)),
                                sorted(map(tuple, want))))
    assert worst <= 1e-9
