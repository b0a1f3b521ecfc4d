import math

import numpy as np
import pytest

from muellerkit import (ComplexParameter, ConstraintViolation, OutOfDomain,
                        StokesVector, little_element, littlegroup,
                        sample_little)


def _fix_residual(el, state):
    sa = state.as_array()
    return float(np.max(np.abs(el.matrix().m @ sa - sa)))


def test_unpolarized_any_rotation():
    s = StokesVector(1.0, [0.0, 0.0, 0.0], validate=True)
    el = little_element(s, [0.3, -0.2, 0.6])
    from muellerkit import nm_from_k
    r = nm_from_k(el.k)
    assert np.all(r.m == 0.0) and r.m0 == 0.0
    assert abs(r.n0 ** 2 + float(r.n @ r.n) - 1.0) < 1e-12
    assert _fix_residual(el, s) < 1e-12


def test_fully_polarized_axis_rotation():
    s = StokesVector(1.0, [0.0, 0.0, 1.0])
    t = 0.37
    el = little_element(s, [0.0, 0.0, t])
    from muellerkit import nm_from_k
    r = nm_from_k(el.k)
    assert np.allclose(r.m, 0.0, atol=1e-15)
    assert abs(r.n0 ** 2 + t * t - 1.0) < 1e-12
    assert _fix_residual(el, s) < 1e-12


def test_out_of_domain():
    s = StokesVector(1.0, [0.0, 0.0, 0.0])
    with pytest.raises(OutOfDomain):
        little_element(s, [2.0, 0.0, 0.0])


def test_partly_polarized_batch():
    s = StokesVector(1.3, [0.3, -0.5, 0.2])
    for el in sample_little(s, 1000, seed=0):
        assert _fix_residual(el, s) <= 1e-10


def test_null_batch():
    s = StokesVector(1.0, [0.6, 0.0, 0.8])
    for el in sample_little(s, 1000, seed=1):
        assert _fix_residual(el, s) <= 1e-10


def test_determinism():
    s = StokesVector(1.0, [0.2, 0.1, 0.0])
    a = sample_little(s, 20, seed=5)
    b = sample_little(s, 20, seed=5)
    for x, y in zip(a, b):
        assert np.all(x.n == y.n) and np.all(x.k.k == y.k.k)


def test_pairwise_products_fix_state():
    s = StokesVector(1.1, [0.4, 0.1, -0.3])
    els = sample_little(s, 100, seed=2)
    sa = s.as_array()
    mats = [el.matrix().m for el in els]
    for i in range(99):
        M = mats[i] @ mats[i + 1]
        assert np.max(np.abs(M @ sa - sa)) <= 1e-9


def test_little_rotation_family_embeds():
    # n0 = cos G, n = sin G * S/|S|, m = 0 for 64 grid angles
    s = StokesVector(1.0, [0.3, 0.4, 0.0])
    from muellerkit import nm_from_k
    for G in np.linspace(-np.pi / 2 + 0.01, np.pi / 2 - 0.01, 64):
        el = little_element(s, np.sin(G) * s.direction)
        r = nm_from_k(el.k)
        assert np.allclose(r.m, 0.0, atol=1e-14)
        assert abs(r.n0 - abs(np.cos(G))) < 1e-12
        assert _fix_residual(el, s) < 1e-10


def _reference_sample(state, count, rng):
    """The sampler written one element at a time on plain floats, in its
    draw order: t, then three normals per element, then three uniforms
    per element; returns each element's n and k."""
    p_deg = state.degree
    d = state.direction.tolist()
    pvec = p_deg * state.direction
    q = 1.0 - p_deg * p_deg
    c = 10.0 if q <= 1e-2 else 1.0 / math.sqrt(q)

    t = rng.uniform(-1.0, 1.0)
    gs = [rng.standard_normal(3).tolist() for _ in range(count - 1)]
    rs = [max(rng.random(3).tolist()) for _ in range(count - 1)]
    ns = [t * state.direction]
    for (g1, g2, g3), r in zip(gs, rs):
        s = r / math.sqrt(g1 * g1 + g2 * g2 + g3 * g3)
        x = [g1 * s, g2 * s, g3 * s]
        a = (1.0 - c) * (x[0] * d[0] + x[1] * d[1] + x[2] * d[2])
        ns.append(np.array([c * xi + a * di for xi, di in zip(x, d)]))

    def n0_sq(n):
        return 1.0 - (n @ n) * q - (n @ pvec) ** 2

    ks = [np.concatenate(([np.sqrt(n0_sq(n))], np.cross(n, pvec) - 1j * n))
          for n in ns]
    return ns, ks


def test_sample_little_matches_scalar_reference():
    from muellerkit.oracle import random_stokes
    states = [random_stokes(np.random.default_rng([8, i])) for i in range(30)]
    states += [StokesVector(1.0, [0.6, 0.0, 0.8]),   # fully polarized
               StokesVector(1.0, [0.0, 0.0, 0.0]),   # unpolarized
               StokesVector(1.0, (1.0 + 1e-13) * np.array([0.6, 0.0, 0.8]))]
    assert states[-1].degree > 1.0
    for s, state in enumerate(states):
        els = sample_little(state, 25, seed=s)
        ref_rng = np.random.default_rng(s)
        ns, ks = _reference_sample(state, 25, ref_rng)
        assert len(els) == 25
        for el, n, k in zip(els, ns, ks):
            assert np.array_equal(el.n, n)
            assert np.abs(el.k.k - k).max() <= 4e-15 * np.abs(k).max()
        rng = np.random.default_rng(s)
        for el, ref in zip(sample_little(state, 25, rng=rng), els):
            assert np.array_equal(el.n, ref.n)
            assert np.array_equal(el.k.k, ref.k.k)
        # a caller's rng is left after exactly the draws used
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_little_returns_exactly_count():
    s = StokesVector(1.0, [0.2, 0.1, 0.0])
    for count in (0, 1, 2, 65):
        rng = np.random.default_rng(3)
        assert len(sample_little(s, count, rng=rng)) == count
        ref = np.random.default_rng(3)
        if count:  # t, the normals, then the radius uniforms
            ref.uniform(-1.0, 1.0)
            ref.standard_normal((count - 1, 3))
            ref.random((count - 1, 3))
        assert rng.bit_generator.state == ref.bit_generator.state
    with pytest.raises(ValueError):
        sample_little(s, -3, seed=0)


def _state_of_degree(p):
    u = np.array([0.48, -0.6, 0.64])  # unit to round-off
    return StokesVector(1.0, p * u, validate=p <= 1.0), u / np.linalg.norm(u)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.9, 0.99, 0.995, 0.999, 1.0,
                               1.0 + 1e-13])
def test_every_drawn_row_is_admissible(p):
    state, _ = _state_of_degree(p)
    els = sample_little(state, 20_000, seed=17)
    N = np.array([el.n for el in els])
    _, _, ok = littlegroup._little_stack(state, N)
    assert len(els) == 20_000 and ok.all()


@pytest.mark.parametrize("p", [0.0, 0.9, 0.999])
def test_draws_are_uniform_in_the_ellipsoid(p):
    # uniform in the unit ball stretched across u by c: (n . u)^2 has mean
    # 1/5, and a share 1/8 lies in the half-size ellipsoid; for p <= 0.99
    # the ellipsoid is the admissible region (c^2 = 1 / (1 - p^2))
    state, u = _state_of_degree(p)
    c2 = min(100.0, 1.0 / (1.0 - p * p))
    N = np.array([el.n for el in sample_little(state, 20_001, seed=23)[1:]])
    a2 = (N @ u) ** 2
    x2 = a2 + (np.sum(N * N, axis=1) - a2) / c2
    assert abs(a2.mean() - 0.2) <= 0.01
    assert abs(np.mean(x2 <= 0.25) - 0.125) <= 0.015
    assert abs(np.mean(np.sum(N * N, axis=1)) / (0.2 + 0.4 * c2) - 1) <= 0.03


def test_sample_little_runs_the_core_once(monkeypatch):
    calls = []
    core = littlegroup._little_stack

    def counted(state, N):
        calls.append(len(N))
        return core(state, N)

    monkeypatch.setattr(littlegroup, "_little_stack", counted)
    s = StokesVector(1.1, [0.4, 0.1, -0.3])
    els = sample_little(s, 10, seed=4)
    assert calls == [10]
    assert np.array_equal(els[0].n, little_element(s, els[0].n).n)
    sample_little(s, 1, seed=4)
    assert calls[1:] == [1, 1]  # little_element above, then sample_little


@pytest.mark.parametrize("n0_sq, exc", [(0.5, ConstraintViolation),
                                         (-0.5, OutOfDomain)])
def test_sample_little_rejected_head_raises_as_little_element(
        monkeypatch, n0_sq, exc):
    core = littlegroup._little_stack

    def rejecting(state, N):
        sq, K, ok = core(state, N)
        sq[0] = n0_sq
        return sq, K, ok & False

    monkeypatch.setattr(littlegroup, "_little_stack", rejecting)
    s = StokesVector(1.0, [0.2, 0.1, 0.0])
    for count in (1, 5):
        with pytest.raises(exc):
            sample_little(s, count, seed=0)
    with pytest.raises(exc):
        little_element(s, [0.1, 0.0, 0.0])


def _rejecting(core, rejected):
    """``_little_stack`` that rejects the rows equal to each n of
    `rejected`, a list of (n, n0^2) pairs, reporting that n0^2."""
    def stack(state, N):
        sq, K, ok = core(state, N)
        for n, value in rejected:
            hit = np.all(N == n, axis=1)
            sq[hit], ok[hit] = value, False
        return sq, K, ok
    return stack


@pytest.mark.parametrize("row", range(5))
@pytest.mark.parametrize("n0_sq, exc", [(0.5, ConstraintViolation),
                                         (-0.5, OutOfDomain)])
def test_sample_little_rejected_row_raises_as_little_element(
        monkeypatch, row, n0_sq, exc):
    s = StokesVector(1.0, [0.2, 0.1, 0.0])
    ns = [el.n for el in sample_little(s, 5, seed=0)]
    core = littlegroup._little_stack
    monkeypatch.setattr(littlegroup, "_little_stack",
                        _rejecting(core, [(ns[row], n0_sq)]))
    with pytest.raises(exc):
        little_element(s, ns[row])
    with pytest.raises(exc):
        sample_little(s, 5, seed=0)
    if row < 4:  # a later row rejected with the other error: first decides
        monkeypatch.setattr(littlegroup, "_little_stack", _rejecting(
            core, [(ns[row], n0_sq), (ns[row + 1], -n0_sq)]))
        with pytest.raises(exc):
            sample_little(s, 5, seed=0)


def _root(arr):
    while arr.base is not None:
        arr = arr.base
    return arr


def test_elements_keep_their_values_when_the_caller_writes():
    state = StokesVector(1.0, [0.3, 0.4, 0.5])
    ref = little_element(state, [0.2, -0.1, 0.4])
    k, n = ref.k.k.copy(), ref.n.copy()
    view_k, view_n = k[:], n[:]  # read-only views of writeable memory
    view_k.setflags(write=False)
    view_n.setflags(write=False)
    element = littlegroup.LittleGroupElement
    elements = [element(k=ComplexParameter(k), n=n),
                element(k=ComplexParameter(view_k), n=view_n),
                element(k=ComplexParameter(list(k)), n=list(n))]
    k[:] = 0.0
    n[:] = 0.0
    for el in elements:
        assert np.array_equal(el.k.k, ref.k.k)
        assert np.array_equal(el.n, ref.n)
        assert not el.k.k.flags.writeable and not el.n.flags.writeable


def test_sample_little_elements_view_one_read_only_block():
    # rows cut from the block sample_little builds are not copied again
    els = sample_little(StokesVector(1.0, [0.3, 0.4, 0.5]), 10, seed=4)
    for arrays in ([el.k.k for el in els], [el.n for el in els]):
        roots = {id(_root(a)) for a in arrays}
        assert len(roots) == 1
        assert not _root(arrays[0]).flags.writeable
