"""Property-based invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from muellerkit import (StokesVector, apply, invariant, is_lorentz,
                        mueller_from_k)
from muellerkit.oracle import random_lorentz
from muellerkit.quadform import diagonalize2

finite = st.floats(min_value=-10, max_value=10, allow_nan=False,
                   allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_sampled_devices_are_lorentz(seed):
    rep = is_lorentz(mueller_from_k(random_lorentz(seed=seed)))
    assert rep.ok and rep.ortho_residual <= 1e-10


@given(seeds, finite, finite, finite,
       st.floats(min_value=0.1, max_value=5, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_invariant_preserved(seed, s1, s2, s3, s0_extra):
    s = np.array([s1, s2, s3])
    s0 = float(np.linalg.norm(s)) + s0_extra
    v = StokesVector(s0, s)
    L = mueller_from_k(random_lorentz(seed=seed))
    w = apply(L, v)
    si, so = invariant(v), invariant(w)
    assert abs(si - so) <= 1e-9 * max(1.0, abs(si), s0 * s0)


@given(seeds, seeds)
@settings(max_examples=50, deadline=None)
def test_group_closure(seed_a, seed_b):
    La = mueller_from_k(random_lorentz(seed=seed_a))
    Lb = mueller_from_k(random_lorentz(seed=seed_b))
    assert is_lorentz(La @ Lb).ok


@given(finite, finite, finite)
@settings(max_examples=300, deadline=None)
def test_diagonalize2_invariants(a, b, c):
    d = diagonalize2(a, b, c)
    assert d.F <= d.G
    scale = max(1.0, abs(a), abs(b), abs(c)) ** 2
    assert abs((d.F + d.G) - (a + c)) <= 1e-12 * scale
    assert abs(d.F * d.G - (a * c - b * b)) <= 1e-12 * scale
