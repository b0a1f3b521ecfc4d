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


def _reference_sample(state, count, seed):
    """The sampler written as a scalar loop: one uniform(-R, R, 3) per
    draw, accepted when n0^2 >= 0; returns each element's n and k."""
    rng = np.random.default_rng(seed)
    p_deg = state.degree
    pvec = p_deg * state.direction
    R = min(1.0 / np.sqrt(max(1.0 - p_deg * p_deg, 0.0) + 1e-12), 10.0)

    def n0_sq(n):
        return 1.0 - (n @ n) * (1.0 - p_deg * p_deg) - (n @ pvec) ** 2

    ns = [rng.uniform(-1.0, 1.0) * state.direction]
    while len(ns) < count:
        n = rng.uniform(-R, R, 3)
        if n0_sq(n) >= 0.0:
            ns.append(n)
    ks = [np.concatenate(([np.sqrt(n0_sq(n))], np.cross(n, pvec) - 1j * n))
          for n in ns]
    return ns, ks


def test_sample_little_matches_scalar_reference():
    from muellerkit.oracle import random_stokes
    states = [random_stokes(np.random.default_rng([8, i])) for i in range(30)]
    states += [StokesVector(1.0, [0.6, 0.0, 0.8]),   # fully polarized
               StokesVector(1.0, [0.0, 0.0, 0.0])]   # unpolarized
    for s, state in enumerate(states):
        els = sample_little(state, 25, seed=s)
        ns, ks = _reference_sample(state, 25, s)
        assert len(els) == 25
        for el, n, k in zip(els, ns, ks):
            assert np.array_equal(el.n, n)
            assert np.abs(el.k.k - k).max() <= 4e-15 * np.abs(k).max()
        for el, ref in zip(sample_little(state, 25,
                                         rng=np.random.default_rng(s)), els):
            assert np.array_equal(el.n, ref.n)
            assert np.array_equal(el.k.k, ref.k.k)


def test_sample_little_budget_counts_draws():
    class CornerRng:
        """Every n is the box corner (R, R, R), outside the unit ball."""
        rows = 0

        def uniform(self, low, high, size=None):
            if size is None:
                return 0.5
            n = np.full(size, high)
            self.rows += n.size // 3
            return n

    rng = CornerRng()
    with pytest.raises(OutOfDomain):
        sample_little(StokesVector(1.0, [0.0, 0.0, 0.0]), 3, rng=rng)
    assert rng.rows == 3000


def test_sample_little_returns_exactly_count():
    s = StokesVector(1.0, [0.2, 0.1, 0.0])
    for count in (0, 1, 2, 65):
        rng = np.random.default_rng(3)
        assert len(sample_little(s, count, rng=rng)) == count
        ref = np.random.default_rng(3)
        if count:
            ref.uniform(-1.0, 1.0)  # t; no block is drawn for count 1
        if count > 1:
            ref.uniform(-1.0, 1.0, (max(64, 4 * (count - 1)), 3))
        assert rng.uniform() == ref.uniform()
    with pytest.raises(ValueError):
        sample_little(s, -3, seed=0)


def test_sample_little_runs_the_core_once(monkeypatch):
    calls = []
    core = littlegroup._little_stack

    def counted(state, N):
        calls.append(len(N))
        return core(state, N)

    monkeypatch.setattr(littlegroup, "_little_stack", counted)
    s = StokesVector(1.1, [0.4, 0.1, -0.3])
    els = sample_little(s, 10, seed=4)
    assert calls == [1 + 64]
    assert np.array_equal(els[0].n, little_element(s, els[0].n).n)
    sample_little(s, 1, seed=4)
    assert calls[1:] == [1, 1]  # sample_little, then little_element above


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
