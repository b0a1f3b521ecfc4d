from itertools import combinations

import numpy as np
import pytest

from muellerkit import (ComplexParameter, ConstraintViolation, ExpansionCoeffs,
                        MeasurementPair, MuellerKitError, NoValidCandidate,
                        StokesVector, apply, boost_k, k_from_expansion,
                        family_4d, little_element, mueller_from_k,
                        sample_little, solve_four, solve_six)
from muellerkit import kernels, relativistic
from muellerkit.lorentz import (TOL_K, minkowski_square, residuals, unit_ok,
                               unit_ok_q)
from muellerkit.oracle import consistent_dataset, random_lorentz, random_stokes
from muellerkit.relativistic import (_BASIS, _LIFT, TOL_K_RAW,
                                     _canonical_unique, _pair_table,
                                     _split_polish, _validate)
from muellerkit.stokes import cross3, pair_geometry

EPS = np.finfo(float).eps


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


def _two_check_rejects(K):
    """The rule _validate applied before it checked once: unit_ok of the
    raw k at TOL_K_RAW, |q| below 1e-12, then unit_ok of the normalized k
    at TOL_K."""
    q = K[..., 0] ** 2 - np.sum(K[..., 1:] ** 2, axis=-1)
    bad = ~unit_ok(K, TOL_K_RAW) | (np.abs(q) < 1e-12)
    return bad | ~unit_ok(K / np.sqrt(np.where(bad, 1.0, q))[..., None],
                          TOL_K)


def _synthetic_rows(bases):
    """Pair-table rows holding only an expansion basis each (8x4)."""
    T = np.zeros((len(bases), _BASIS.stop))
    T[:, _BASIS] = np.reshape(bases, (len(bases), 32))
    return T


@np.errstate(invalid="ignore", over="ignore")
def test_validate_rejects_by_the_two_check_rule():
    # one unit check of the raw k and the |q| test reject exactly what the
    # old two checks rejected: on genuine pair bases (boosts to rapidity
    # 20 among them) and on bases that make k = e, i e, (1 + i) e and
    # (e0 + i e3, e1, e2, e3), for on- and off-surface e, near-null e whose
    # |q| straddles 1e-12 while the raw check passes, and non-finite e
    # (whose products warn, as before)
    rng = np.random.default_rng(14)
    eye, zero = np.eye(4), np.zeros((4, 4))
    mix = np.zeros((4, 4))
    mix[0, 3] = 1.0
    probes = [[0.2, -0.4, 0.5], [0.6, 0.0, 0.8]]
    boosted = [MeasurementPair(
        StokesVector(1.0, s), apply(mueller_from_k(boost_k(
            [0.3, 0.5, 0.8], chi)), StokesVector(1.0, s)))
        for chi in (5, 10, 15, 20) for s in probes]
    _, e_star, pairs = consistent_dataset(4, rng=rng)
    T = np.concatenate((
        _pair_table(pairs), _pair_table(boosted)[:, :_BASIS.stop],
        _synthetic_rows([np.vstack((eye, zero)), np.vstack((zero, eye)),
                         np.vstack((eye, eye)), np.vstack((eye, mix))])))
    es = [e_star.as_array(), -e_star.as_array()]
    for chi in range(21):
        k = boost_k(rng.normal(size=3), chi).k.real
        es += [k, k * (1.0 + 1e-9), k * (1.0 - 3e-9), k * (1.0 + 1e-7)]
    for a in (2.0 ** 13, 2.0 ** 15):
        # q = 2i a d: its modulus is c 1e-12, the raw defect |q - 1| ~ 1
        # is within 1e-8 sum |k_i|^2
        es += [[a, a, 0.0, c * 1e-12 / (2.0 * a)]
               for c in (0.0, 0.5, 0.9999, 1.0, 1.0001, 2.0, 1e3)]
    es += list(rng.normal(size=(40, 4)) * 10.0 ** rng.integers(-3, 4, (40, 1)))
    es += [[np.nan, 1.0, 2.0, 3.0], [np.inf, 0.0, 0.0, 0.0],
           [1.0, -np.inf, 0.0, 0.0], [np.inf, np.inf, 0.0, 0.0]]
    es = np.array(es)
    K, _, bad = _validate(T, es)
    raw = np.swapaxes(T[:, _BASIS].reshape(-1, 8, 4) @ es.T, 1, 2)
    raw = raw[..., :4] + 1j * raw[..., 4:]
    assert np.array_equal(bad, _two_check_rejects(raw))
    q = np.abs(raw[..., 0] ** 2 - np.sum(raw[..., 1:] ** 2, axis=-1))
    unit = unit_ok(raw, TOL_K_RAW)
    assert (unit & (q < 1e-12)).sum() >= 6
    assert (unit & (q >= 1e-12) & (q < 1e-11)).sum() >= 6
    assert 0 < bad.sum() < bad.size


@np.errstate(invalid="ignore", over="ignore")
def test_k0_squared_minus_k_dot_k_has_one_definition():
    # unit_defect, unit_ok and _validate (its rejection mask and its
    # normalization) all read q = k0^2 - k.k from minkowski_square, bit for
    # bit, on rows where the sum form k0^2 - sum(k[1:]^2) rounds otherwise;
    # one k alone gets the q of its row in a stack
    rng = np.random.default_rng(21)
    mix = np.zeros((4, 4))
    mix[0, 3] = 1.0
    T = _synthetic_rows([np.vstack((np.eye(4), np.zeros((4, 4)))),
                         np.vstack((np.eye(4), mix)),
                         np.vstack((np.eye(4), np.eye(4)))])
    es = [boost_k(rng.normal(size=3), chi).k.real * (1.0 + f)
          for chi in range(16) for f in (0.0, 1e-9, -3e-9, 1e-7)]
    es += list(rng.normal(size=(300, 4))
               * 10.0 ** rng.integers(-3, 5, (300, 1)))
    es = np.array(es + [[np.nan, 1.0, 2.0, 3.0], [np.inf, 0.0, 0.0, 0.0]])
    K, _, bad = _validate(T, es)
    raw = np.swapaxes(T[:, _BASIS].reshape(-1, 8, 4) @ es.T, 1, 2)
    raw = raw[..., :4] + 1j * raw[..., 4:]

    q = minkowski_square(raw)
    k0, k1, k2, k3 = np.moveaxis(raw, -1, 0)
    assert np.array_equal(q, k0 * k0 - k1 * k1 - k2 * k2 - k3 * k3,
                          equal_nan=True)
    summed = raw[..., 0] ** 2 - np.sum(raw[..., 1:] ** 2, axis=-1)
    assert (q != summed)[np.isfinite(q)].any()

    rows = raw.reshape(-1, 4)
    row_q = [minkowski_square(k) for k in rows]
    assert np.array_equal(row_q, q.ravel(), equal_nan=True)
    assert np.array_equal([ComplexParameter(k).unit_defect() for k in rows],
                          [abs(v - 1.0) for v in row_q], equal_nan=True)
    d = np.abs(q - 1.0)
    rule = (d <= TOL_K_RAW) | (
        d / np.maximum(1.0, np.sum(np.abs(raw) ** 2, axis=-1)) <= TOL_K_RAW)
    assert np.array_equal(unit_ok(raw, TOL_K_RAW), rule)
    assert np.array_equal(unit_ok_q(q, raw, TOL_K_RAW), rule)
    assert np.array_equal(bad, ~rule | (np.abs(q) < 1e-12))
    assert np.array_equal(K[~bad], (raw / np.sqrt(q)[..., None])[~bad])
    assert 0 < bad.sum() < bad.size


def test_cross3_equals_numpy_cross_bitwise():
    rng = np.random.default_rng(9)
    for _ in range(500):
        a, b = rng.normal(size=(2, 3)) * rng.uniform(1e-3, 1e3, size=(2, 1))
        assert cross3(a.tolist(), b.tolist()) == np.cross(a, b).tolist()


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
        out.append((e, [float(np.linalg.norm(apply(L, p.input).as_array()
                                             - p.output.as_array()))
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


def _assert_matrix_residuals(ks, pairs, res):
    """Each residual is |L s - s'| of the L = mueller_from_k(k) printed for
    its pair, within 8 eps sum |k_i|^2 |s|."""
    for k, p, r in zip(ks, pairs, res, strict=True):
        [ref] = residuals(mueller_from_k(k), [p])
        bound = (8 * EPS * np.sum(np.abs(k.k) ** 2)
                 * np.linalg.norm(p.input.as_array()))
        assert abs(r - ref) <= bound


def test_stacked_six_validation_matches_scalar_path():
    # the stacked residuals of solve_six, solve_four (pair 0, whose k it
    # reports) and family_4d are those of the matrices the CLI prints
    for seed in range(50):
        _, _, pairs = consistent_dataset(6, seed=seed)
        try:
            rep = solve_six(pairs)
        except NoValidCandidate as exc:
            rep = exc.report
        geoms = [pair_geometry(p) for p in pairs]
        M = _pair_table(pairs)[:, _LIFT]
        es = [ExpansionCoeffs(*e) for _, e in
              _canonical_unique(_split_polish(M, rep.u, np.inf))]
        ref = _scalar_candidates(geoms, pairs, es)
        _assert_same(rep.candidates, ref)
        # valid candidates first, each group in the order of e
        order = [(c.worst > 1e-6, tuple(c.e)) for c in rep.candidates]
        assert order == sorted(order)
        for c in rep.candidates:
            _assert_matrix_residuals(c.k_list, pairs, c.per_pair_residuals)

        _, e, four = consistent_dataset(4, seed=seed)
        rep4 = solve_four(four)
        for k, res in zip(rep4.k, rep4.per_pair_residuals, strict=True):
            _assert_matrix_residuals([k], four[:1], res[:1])
        roots = family_4d(four[0], e.y, e.z, e.w)
        _assert_matrix_residuals([k for _, k, _ in roots],
                                 four[:1] * len(roots),
                                 [r for _, _, r in roots])


def test_candidate_rejected_by_one_pair_is_dropped():
    _, e_a, pairs_a = consistent_dataset(6, seed=1)
    _, e_b, pairs_b = consistent_dataset(6, seed=2)
    flipped = ExpansionCoeffs(e_a.x, e_a.y, -e_a.z, -e_a.w)
    geoms = [pair_geometry(p) for p in pairs_a]
    es = [e_a, flipped, e_b]
    _, res, bad = _validate(_pair_table(pairs_a),
                            np.array([e.as_array() for e in es]))
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
    _, _, bad = _validate(_pair_table(mixed), e_a.as_array()[None])
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
                        lambda M, u, tol: [(0.0, e.as_array().tolist(), 0.0)
                                           for e in es])
    kept = solve_six(pairs_a).candidates
    assert len(kept) == 2
    assert all(any(_same_up_to_sign(c.e, e) for c in kept)
               for e in (e_a, flipped))

    # every pair of its own device accepts e_a, the foreign sixth rejects it
    es = [e_a]
    monkeypatch.setattr(relativistic, "TOL_R1", np.inf)
    with pytest.raises(NoValidCandidate) as info:
        solve_six(pairs_a[:5] + pairs_b[:1])
    assert info.value.report.candidates == []


def test_sample_little_matches_little_element():
    for s in range(20):
        state = random_stokes(np.random.default_rng(s))
        for el in sample_little(state, 10, seed=s):
            ref = little_element(state, el.n)
            assert np.array_equal(el.k.k, ref.k.k)
            assert np.array_equal(el.n, ref.n)
