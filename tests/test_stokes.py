import numpy as np
import pytest

from muellerkit import (InvariantMismatch, MeasurementPair, MuellerKitError,
                        StokesVector, invariant, pair_geometry)


def test_invariant_fully_polarized_zero():
    assert invariant(StokesVector(1.0, [1.0, 0.0, 0.0])) == 0.0


def test_invariant_direct_arithmetic():
    assert invariant(StokesVector(2.0, [1.0, 0.0, 0.0])) == 3.0
    assert invariant(StokesVector(1.0, [0.6, 0.0, 0.0])) == pytest.approx(0.64)


def test_degree_and_direction():
    v = StokesVector(2.0, [0.0, 1.0, 0.0])
    assert v.degree == 0.5
    assert np.allclose(v.direction, [0.0, 1.0, 0.0])


def test_validation_rejects_unphysical():
    with pytest.raises(MuellerKitError):
        StokesVector(-1.0, [0.0, 0.0, 0.0])
    with pytest.raises(MuellerKitError):
        StokesVector(1.0, [1.5, 0.0, 0.0])
    # validate=False admits perturbed vectors
    StokesVector(1.0, [1.5, 0.0, 0.0], validate=False)


@pytest.mark.parametrize("s0, s", [
    (1.0, [np.nan, 0.0, 0.0]),
    (1.0, [0.0, np.inf, 0.0]),
    (np.inf, [0.0, 0.0, 0.0]),
    (np.nan, [0.0, 0.0, 0.0]),
], ids=["nan_s", "inf_s", "inf_s0", "nan_s0"])
def test_validation_rejects_non_finite(s0, s):
    with pytest.raises(MuellerKitError, match="non-finite"):
        StokesVector(s0, s)


def test_array_round_trip():
    v = StokesVector(1.25, [0.1, -0.2, 0.3])
    v2 = StokesVector.from_array(v.as_array())
    assert v2.s0 == v.s0 and np.all(v2.s == v.s)


def test_pair_geometry_identity_pair():
    p = MeasurementPair(StokesVector(1.0, [1.0, 0.0, 0.0]),
                        StokesVector(1.0, [1.0, 0.0, 0.0]))
    g = pair_geometry(p)
    assert g.A == 2.0 and g.B == 0.0
    assert np.allclose(g.Avec, [2.0, 0.0, 0.0])
    assert np.allclose(g.Bvec, [0.0, 0.0, 0.0])
    assert g.collinear


def test_pair_geometry_rotation_pair():
    p = MeasurementPair(StokesVector(1.0, [1.0, 0.0, 0.0]),
                        StokesVector(1.0, [0.0, 1.0, 0.0]))
    g = pair_geometry(p)
    assert g.A == 2.0 and g.B == 0.0
    assert np.allclose(g.Avec, [1.0, 1.0, 0.0])
    assert np.allclose(g.Bvec, [1.0, -1.0, 0.0])


def test_pair_geometry_cross_checked_recomputation(rng):
    from muellerkit.oracle import make_pair, random_lorentz, random_stokes
    for _ in range(20):
        k = random_lorentz(rng=rng)
        p = make_pair(k, random_stokes(rng))
        g = pair_geometry(p)
        vin, vout = p.input, p.output
        assert g.A == vin.s0 + vout.s0
        assert g.B == vin.s0 - vout.s0
        assert np.all(g.Avec == vin.s + vout.s)
        assert np.all(g.Bvec == vin.s - vout.s)
        # scalar identity A*B = Avec.Bvec for genuine Lorentz pairs
        assert abs(g.A * g.B - g.AdotB) < 1e-10 * max(1.0, abs(g.A * g.B))


def test_invariant_mismatch_rejected():
    p = MeasurementPair(StokesVector(1.0, [0.5, 0.0, 0.0]),
                        StokesVector(2.0, [0.5, 0.0, 0.0]))
    with pytest.raises(InvariantMismatch):
        pair_geometry(p)


@pytest.mark.parametrize("chi", range(21))
@pytest.mark.parametrize("probe", [[0.2, -0.4, 0.5], [0.6, 0.0, 0.8]],
                         ids=["partly", "fully"])
def test_strong_boost_pairs_share_the_invariant(chi, probe):
    # s0'^2 - |s'|^2 rounds off by about eps s0'^2, which reached 1.2e-8
    # against the allowance 1e-9 at chi = 10; a 1e-6 change of s0' is
    # still a mismatch at every chi
    from muellerkit import boost_k
    from muellerkit.oracle import make_pair
    p = make_pair(boost_k([0.3, 0.5, 0.8], chi), StokesVector(1.0, probe))
    pair_geometry(p)
    out = StokesVector(p.output.s0 * (1.0 + 1e-6), p.output.s)
    with pytest.raises(InvariantMismatch):
        pair_geometry(MeasurementPair(p.input, out))
