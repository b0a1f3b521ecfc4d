"""Covariance of the solvers under maps of the measurement frame.

Mapping every input by L1 and every output by L2 maps a device L to
L2 L L1^-1. With one rotation R on both sides (L1 = L2 = R), the
expansion scalars e of the lifted solvers are read off invariant pair
geometry and must not move, and the rotation and linear solvers must
return R L R^T. With two Lorentz maps, the linear solver must return
L2 L L1^-1. Boosts are left out for the lifted solvers, whose e are not
boost invariant, and so is a change of the unit of intensity.
"""

import numpy as np

from muellerkit import (MeasurementPair, StokesVector, consistent_dataset,
                        direct_linear_solve, family_4d, mueller_from_k,
                        random_lorentz, random_pairs, rotation_dataset,
                        rotation_k, solve_four, solve_six, solve_two_3d)
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
