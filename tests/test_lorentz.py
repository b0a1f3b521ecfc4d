import warnings

import numpy as np
import pytest

from muellerkit import (ComplexParameter, ConstraintViolation, DivisionByZero,
                        MuellerMatrix, RealParameter, StokesVector, apply,
                        boost_k, gibbs_of, is_lorentz, k_from_nm,
                        little_element, mueller_from_k, nm_from_k, rotation_k)
from muellerkit import kernels
from muellerkit.lorentz import TOL_K, residuals, transit_residuals, unit_ok
from muellerkit.oracle import random_lorentz, random_pairs

# random_lorentz(seed=42), frozen so representation changes are caught
K42_RE = [0.9873007585895833, 0.332905664254921,
          -0.6905539344018689, -0.46089644461087403]
K42_IM = [0.0645542947831983, -0.5479120971119267,
          0.12224312049589536, -0.7171958398227649]
L42_ROW0 = [2.608567414481622, 0.5165917854311015,
            2.33036479964303, 0.32734810783804114]


def test_identity_parameter():
    r = RealParameter(n0=1.0, n=np.zeros(3), m0=0.0, m=np.zeros(3))
    k = k_from_nm(r)
    assert np.all(k.k == np.array([1, 0, 0, 0], complex))
    assert np.all(mueller_from_k(k).m == np.eye(4))


def test_k_from_nm_rotation_form():
    th = 0.7
    r = RealParameter(n0=np.cos(th), n=[0.0, 0.0, np.sin(th)],
                      m0=0.0, m=np.zeros(3))
    k = k_from_nm(r)
    assert np.allclose(k.k, [np.cos(th), 0.0, 0.0, -1j * np.sin(th)])


def test_k_from_nm_boost_form():
    ch = 0.9
    r = RealParameter(n0=np.cosh(ch), n=np.zeros(3),
                      m0=0.0, m=[np.sinh(ch), 0.0, 0.0])
    k = k_from_nm(r)
    assert np.allclose(k.k, [np.cosh(ch), np.sinh(ch), 0.0, 0.0])
    assert k.unit_defect() < 1e-12


def test_nm_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = random_lorentz(rng=rng)
        r = nm_from_k(k)
        k2 = k_from_nm(r)
        assert np.all(k2.k == k.k)


def test_mueller_rotation_block():
    # rotation by theta about axis 3: block rotation in the (1,2) plane
    th = np.pi / 3
    L = mueller_from_k(rotation_k([0.0, 0.0, 1.0], th)).m
    expect = np.eye(4)
    expect[1, 1] = expect[2, 2] = np.cos(th)
    expect[1, 2] = -np.sin(th)
    expect[2, 1] = np.sin(th)
    assert np.allclose(L, expect, atol=1e-12)


def test_mueller_boost_block():
    ch = 1.0
    L = mueller_from_k(boost_k([1.0, 0.0, 0.0], ch)).m
    expect = np.eye(4)
    expect[0, 0] = expect[1, 1] = np.cosh(ch)
    expect[0, 1] = expect[1, 0] = np.sinh(ch)
    assert np.allclose(L, expect, atol=1e-12)


def test_apply_rotation_and_boost():
    th, ch = 0.8, 1.0
    Lr = mueller_from_k(rotation_k([0, 0, 1], th))
    out = apply(Lr, StokesVector(1.0, [1.0, 0.0, 0.0]))
    assert np.allclose(out.as_array(), [1.0, np.cos(th), np.sin(th), 0.0])
    Lb = mueller_from_k(boost_k([1, 0, 0], ch))
    out = apply(Lb, StokesVector(1.0, [0.0, 0.0, 0.0], validate=True))
    assert np.allclose(out.as_array(), [np.cosh(ch), np.sinh(ch), 0.0, 0.0])


def test_is_lorentz_identity_and_reflection():
    from muellerkit import MuellerMatrix
    rep = is_lorentz(MuellerMatrix(np.eye(4)))
    assert rep.ok and rep.ortho_residual == 0.0 and rep.det_residual == 0.0
    refl = np.diag([1.0, 1.0, 1.0, -1.0])
    assert not is_lorentz(MuellerMatrix(refl)).ok  # det = -1


def test_frozen_sample_matrix():
    k = random_lorentz(seed=42)
    assert np.allclose(k.k.real, K42_RE, atol=1e-15)
    assert np.allclose(k.k.imag, K42_IM, atol=1e-15)
    L = mueller_from_k(k)
    assert np.allclose(L.m[0], L42_ROW0, atol=1e-12)


def test_double_cover():
    k = random_lorentz(seed=3)
    assert np.all(mueller_from_k(k).m == mueller_from_k(-k).m)


def test_gibbs():
    k = ComplexParameter([1.0, 0.0, 0.0, 0.0])
    assert np.all(gibbs_of(k).q == 0.0)
    th = 0.4
    k = rotation_k([0, 0, 1], 2 * th)
    q = gibbs_of(k).q
    assert np.allclose(1j * q, [0.0, 0.0, np.tan(th)])
    with pytest.raises(DivisionByZero):
        gibbs_of(rotation_k([0, 0, 1], np.pi))


def test_unit_constraint_enforced():
    with pytest.raises(ConstraintViolation):
        mueller_from_k(ComplexParameter([2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ConstraintViolation):
        k_from_nm(RealParameter(n0=1.0, n=[0.5, 0, 0], m0=0.0, m=np.zeros(3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_k_is_rejected(bad):
    for k in ([bad, 0, 0, 0], [1, 0, bad * 1j, 0]):
        assert not unit_ok(np.array(k, complex), TOL_K)
        with pytest.raises(ConstraintViolation):
            mueller_from_k(ComplexParameter(k))
    for r in (RealParameter(n0=bad, n=np.zeros(3), m0=0.0, m=np.zeros(3)),
              RealParameter(n0=1.0, n=np.zeros(3), m0=0.0, m=[0, bad, 0])):
        with pytest.raises(ConstraintViolation):
            k_from_nm(r)
    # a NaN row of n, or an infinite one against a fully polarized state
    # (whose n0^2 is then inf * 0), builds a non-finite k
    state = StokesVector(1.0, [0.6, 0.0, 0.8])
    for n in ([np.nan, 0.0, 0.0], [0.0, bad, 0.0]):
        with pytest.raises(ConstraintViolation):
            little_element(state, n)


def test_unit_condition_is_the_real_split_pair():
    # Re(k0^2 - k.k - 1) is the signed norm defect and Im is twice the
    # ortho defect, on or off the unit surface
    rng = np.random.default_rng(21)
    for _ in range(200):
        k = rng.normal(size=4) + 1j * rng.normal(size=4)
        k *= rng.uniform(0.1, 10.0)
        r = nm_from_k(ComplexParameter(k))
        q = k[0] * k[0] - k[1] * k[1] - k[2] * k[2] - k[3] * k[3] - 1.0
        norm = r.n0 ** 2 + r.n @ r.n - r.m0 ** 2 - r.m @ r.m - 1.0
        ortho = r.n0 * r.m0 + r.n @ r.m
        tol = 1e-14 * np.sum(np.abs(k) ** 2)
        assert abs(q.real - norm) <= tol and abs(q.imag - 2 * ortho) <= tol
        assert abs(r.norm_defect() - abs(q.real)) <= tol
        assert abs(2 * r.ortho_defect() - abs(q.imag)) <= tol


def test_unit_ok_stack_matches_rows():
    rng = np.random.default_rng(22)
    K = np.array([random_lorentz(rng=rng).k for _ in range(24)])
    K[::3] *= 1.0 + 1e-6               # off the surface
    K[1::6, 2] = np.nan
    K[4::6, 0] = np.inf
    K[2] = boost_k([0.3, 0.5, 0.8], 25).k  # needs the scale
    rows = [bool(unit_ok(k, TOL_K)) for k in K]
    assert unit_ok(K, TOL_K).tolist() == rows
    assert unit_ok(K.reshape(4, 6, 4), TOL_K).ravel().tolist() == rows
    assert rows[2] and not rows[0] and not rows[1] and not rows[4]


@pytest.mark.parametrize("chi", range(20))
def test_strong_boost_builds(chi):
    # round-off in the unit condition and in the product grows with
    # sum |k_i|^2 = cosh(chi); absolute tolerances rejected chi = 14, 15
    # and 17 to 19
    axis = np.array([0.3, 0.5, 0.8])
    col = mueller_from_k(boost_k(axis, chi)).m[:, 0]
    expect = np.concatenate(([np.cosh(chi)],
                             np.sinh(chi) * axis / np.linalg.norm(axis)))
    assert np.abs(col - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("chi", range(31))
def test_is_lorentz_accepts_strong_boosts(chi):
    # round-off in M^T G M - G grows with max|M|^2; an absolute tolerance
    # rejected every chi from 9 up, and the LU det of M from chi 20 up
    L = mueller_from_k(boost_k([0.3, 0.5, 0.8], chi))
    assert is_lorentz(L).ok
    refl = L.m.copy()
    refl[:, 1] *= -1.0  # det = -1
    assert not is_lorentz(MuellerMatrix(refl)).ok
    # a uniform scale c leaves M^T G M - G at (c^2 - 1) G; from chi 16 on
    # the round-off allowance 64 eps max|M|^2 reaches that residual
    if chi <= 15:
        for c in (0.95, 1.1):
            assert not is_lorentz(MuellerMatrix(c * L.m)).ok


def test_is_lorentz_still_rejects_reflection_and_perturbation():
    rep = is_lorentz(MuellerMatrix(np.diag([1.0, -1.0, 1.0, 1.0])))
    assert not rep.ok and rep.det_residual == 2.0
    M = np.eye(4)
    M[1, 2] += 1e-6
    rep = is_lorentz(MuellerMatrix(M))
    assert not rep.ok and rep.ortho_residual == pytest.approx(1e-6)


def test_is_lorentz_on_an_overflowing_finite_matrix():
    # max|M|^2 overflowed a Python float (OverflowError); now the check
    # neither raises nor warns, and the matrix is not Lorentz
    off = np.eye(4)
    off[0, 1] = 1e200  # det 1, only M^T G M - G overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in (np.diag([1e200] * 4), np.full((4, 4), 1e308), off):
            rep = is_lorentz(MuellerMatrix(M))
            assert not rep.ok and not np.isfinite(rep.ortho_residual)


def test_residuals_are_the_norm_of_apply_minus_the_output():
    rng = np.random.default_rng(8)
    k = random_lorentz(rng=rng)
    pairs = random_pairs(k, 5, rng)
    L = MuellerMatrix(mueller_from_k(k).m + rng.normal(0.0, 1e-3, (4, 4)))
    got = residuals(L, pairs)
    assert [type(r) for r in got] == [float] * 5
    assert got == [float(np.linalg.norm(apply(L, p.input).as_array()
                                        - p.output.as_array()))
                   for p in pairs]
    assert residuals(L, []) == []


def test_a_stacked_product_is_its_single_products():
    # mueller_product is C-contiguous at every stack shape and each matrix
    # of a stack is its single product bit for bit; the residuals of a
    # stack are the norms of M s - t of each matrix as a MuellerMatrix,
    # one broadcast matrix included
    rng = np.random.default_rng(13)
    K = np.array([random_lorentz(rng=rng).k for _ in range(64)])
    single = np.array([kernels.mueller_product(k) for k in K])
    for n in range(1, 65):
        for shape in ((n,), (n, 1), (1, n)):
            L = kernels.mueller_product(K[:n].reshape(*shape, 4))
            assert L.shape == (*shape, 4, 4) and L.flags.c_contiguous
            assert np.array_equal(L.reshape(-1, 4, 4), single[:n])
    L = kernels.mueller_product(K[:24].reshape(4, 6, 4))
    assert L.flags.c_contiguous
    assert np.array_equal(L.reshape(-1, 4, 4), single[:24])
    S, T = rng.normal(size=(2, 4, 6, 4))
    r = transit_residuals(L, S, T)
    rows = list(zip(S.reshape(-1, 4), T.reshape(-1, 4)))
    assert r.ravel().tolist() == [
        float(np.linalg.norm(MuellerMatrix(m).m @ s - t))
        for m, (s, t) in zip(single, rows)]
    m = MuellerMatrix(L[1, 2]).m
    assert transit_residuals(L[1, 2], S, T).ravel().tolist() == [
        float(np.linalg.norm(m @ s - t)) for s, t in rows]
