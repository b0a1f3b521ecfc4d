from itertools import combinations

import numpy as np
import pytest

from muellerkit import (ComplexParameter, ConstraintViolation, ExpansionCoeffs,
                        MuellerKitError, NoValidCandidate, k_from_expansion,
                        little_element, mueller_from_k, sample_little,
                        solve_six)
from muellerkit import kernels, relativistic
from muellerkit.oracle import consistent_dataset, random_lorentz, random_stokes
from muellerkit.relativistic import (_canonical_unique, _lifted_system,
                                     _split_polish, _transitivity_residual,
                                     _validate, quad_coeffs_from_geometry)
from muellerkit.stokes import cross3, pair_geometry


def _layout(k):
    """A(k) written out as documented in the kernels module."""
    k0, k1, k2, k3 = k
    return np.array([[k0, -k1, -k2, -k3],
                     [-k1, k0, -1j * k3, 1j * k2],
                     [-k2, 1j * k3, k0, -1j * k1],
                     [-k3, -1j * k2, 1j * k1, k0]])


def _explicit_product(k):
    A = _layout(k)
    return A @ A.conj()


def test_stacked_product_matches_explicit_layout():
    rng = np.random.default_rng(7)
    K = np.array([random_lorentz(rng=rng).k for _ in range(64)])
    L = kernels.mueller_product(K)
    assert L.shape == (64, 4, 4) and L.dtype == float
    for k, Lk in zip(K, L):
        ref = _explicit_product(k)
        tol = 1e-15 * np.abs(ref).max()
        assert np.abs(ref.imag).max() < 1e-12
        assert np.abs(Lk - ref.real).max() <= tol
        L1 = kernels.mueller_product(k)
        assert L1.shape == (4, 4)
        assert np.abs(L1 - ref.real).max() <= tol


def test_max_im_is_round_off_on_and_off_the_unit_surface():
    # every entry of A(k) conj(A(k)) is a sum of conjugate pairs, so the
    # product is real for any complex k and the kernel keeps only its real
    # part; mueller_from_k rejects an off-surface k through the unit
    # condition instead
    rng = np.random.default_rng(8)
    K = rng.normal(size=(16, 4)) + 1j * rng.normal(size=(16, 4))
    for k in K:
        max_im = np.abs(_explicit_product(k).imag).max()
        assert max_im <= 1e-15 * np.sum(np.abs(k) ** 2)
    for k in K:
        with pytest.raises(ConstraintViolation):
            mueller_from_k(ComplexParameter(k))


def test_cross3_equals_numpy_cross_bitwise():
    rng = np.random.default_rng(9)
    for _ in range(500):
        a, b = rng.normal(size=(2, 3)) * rng.uniform(1e-3, 1e3, size=(2, 1))
        assert np.array_equal(cross3(a, b), np.cross(a, b))


def _scalar_candidates(geoms, pairs, es):
    """Per-pair reference: k_from_expansion + mueller_from_k, one at a time."""
    out = []
    for e in es:
        try:
            ks = [k_from_expansion(g, e, normalize=True)
                  for g in geoms]
            Ls = [mueller_from_k(k) for k in ks]
        except MuellerKitError:
            continue
        spread = max((min(np.linalg.norm(a.k - b.k), np.linalg.norm(a.k + b.k))
                      for a, b in combinations(ks, 2)), default=0.0)
        out.append((e, [_transitivity_residual(L, p)
                        for L, p in zip(Ls, pairs)], spread, ks))
    return out


def _assert_same(stacked, reference):
    """Same candidates, matched by e (near-ties may sort differently)."""
    assert len(stacked) == len(reference)
    by_e = {tuple(c.e.as_array()): c for c in stacked}
    for e, res, spread, ks in reference:
        cand = by_e[tuple(e.as_array())]
        assert np.abs(np.subtract(cand.per_pair_residuals, res)).max() <= 1e-12
        assert abs(cand.k_spread - spread) <= 1e-12
        assert all(np.abs(a.k - b.k).max() <= 1e-12
                   for a, b in zip(cand.k_list, ks))


def test_stacked_six_validation_matches_scalar_path():
    for seed in range(50):
        _, _, pairs = consistent_dataset(6, seed=seed)
        try:
            rep = solve_six(pairs)
        except NoValidCandidate as exc:
            rep = exc.report
        geoms = [pair_geometry(p) for p in pairs]
        M = _lifted_system([quad_coeffs_from_geometry(g) for g in geoms])
        es = [e for _, e, _ in
              _canonical_unique(_split_polish(M, rep.u, np.inf))]
        ref = _scalar_candidates(geoms, pairs, es)
        _assert_same(rep.candidates, ref)
        worst = [c.worst for c in rep.candidates]
        assert worst == sorted(worst)


def test_candidate_rejected_by_one_pair_is_dropped():
    _, e_a, pairs_a = consistent_dataset(6, seed=1)
    _, e_b, pairs_b = consistent_dataset(6, seed=2)
    flipped = ExpansionCoeffs(e_a.x, e_a.y, -e_a.z, -e_a.w)
    geoms = [pair_geometry(p) for p in pairs_a]
    es = [e_a, flipped, e_b]
    _, res, bad = _validate(geoms, pairs_a, es)
    assert bad.any(axis=0).tolist() == [False, False, True]
    ref = _scalar_candidates(geoms, pairs_a, es)
    assert [e for e, *_ in ref] == [e_a, flipped]
    for c, (_, ref_res, _, _) in enumerate(ref):
        assert np.abs(res[:, c] - ref_res).max() <= 1e-12

    # e_a passes the five pairs of its own device; the sixth rejects it
    mixed = pairs_a[:5] + pairs_b[:1]
    geoms = [pair_geometry(p) for p in mixed]
    assert len(_scalar_candidates(geoms[:5], mixed[:5], [e_a])) == 1
    assert _scalar_candidates(geoms, mixed, [e_a]) == []
    _, _, bad = _validate(geoms, mixed, [e_a])
    assert bad[:, 0].tolist() == [False] * 5 + [True]


def _same_up_to_sign(a, b):
    a, b = a.as_array(), b.as_array()
    return min(np.abs(a - b).max(), np.abs(a + b).max()) <= 1e-15


def test_solve_six_drops_rejected_candidates(monkeypatch):
    _, e_a, pairs_a = consistent_dataset(6, seed=1)
    _, e_b, pairs_b = consistent_dataset(6, seed=2)
    flipped = ExpansionCoeffs(e_a.x, e_a.y, -e_a.z, -e_a.w)
    es = [e_a, flipped, e_b]
    monkeypatch.setattr(relativistic, "_split_polish",
                        lambda M, u, tol: [(0.0, e.as_array(), np.ones(4))
                                      for e in es])
    kept = solve_six(pairs_a).candidates
    assert len(kept) == 2
    assert all(any(_same_up_to_sign(c.e, e) for c in kept)
               for e in (e_a, flipped))

    # every pair of its own device accepts e_a, the foreign sixth rejects it
    es = [e_a]
    with pytest.raises(NoValidCandidate) as info:
        solve_six(pairs_a[:5] + pairs_b[:1], tol_r1=np.inf)
    assert info.value.report.candidates == []


def test_sample_little_matches_little_element():
    for s in range(20):
        state = random_stokes(np.random.default_rng(s))
        for el in sample_little(state, 10, seed=s):
            ref = little_element(state, el.n)
            assert np.array_equal(el.k.k, ref.k.k)
            assert np.array_equal(el.n, ref.n)
