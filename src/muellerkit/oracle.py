"""Independent generators and checkers used to validate the solvers.

Everything here is deliberately simple and solver-free: devices are sampled
directly in the real-split parametrization, datasets are built by applying
a known matrix, and ``direct_linear_solve`` reconstructs a matrix from
pairs by plain least squares without any structural assumption.

A seed, or an rng in a given state, fixes what a generator draws, the
state it leaves the rng in and every bit of what it returns; the bits
are those of the platform's numpy and LAPACK (``consistent_dataset``
reads eigenvalues and a QR factorization).
"""

import math

import numpy as np

from .errors import DegenerateGeometry, RankDeficient
from .lorentz import (ComplexParameter, MuellerMatrix, RealParameter,
                      apply, is_lorentz, k_from_nm, mueller_from_k, nm_from_k,
                      rotation_k, transit_residuals)
from .relativistic import (ExpansionCoeffs, _quad, companion_roots,
                           constraint_residual, params_to_expansion)
from .stokes import (AVEC2, BVEC2, CROSS2, MeasurementPair, StokesVector,
                     basis_collinear, geometry_table, pair_geometry)

CHI_MAX = 2.0
S0_RANGE = (0.5, 2.0)
P_RANGE = (0.05, 0.999)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / math.sqrt(v @ v)  # the bits of np.linalg.norm(v)


def random_lorentz(seed=None, rng=None) -> ComplexParameter:
    """Uniform-ish sample of a valid device parameter.

    n is drawn in the unit ball, m with |m| <= sinh(CHI_MAX / 2); the
    remaining components solve the two constraints exactly:
    n0^2 is the positive root of the quadratic obtained after eliminating
    m0 = -(n.m) / n0, so the construction never fails.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    while True:
        n = rng.uniform(-1.0, 1.0, 3)
        if float(n @ n) <= 1.0:
            break
    m = random_unit(rng) * rng.uniform(0.0, np.sinh(CHI_MAX / 2.0))
    d = float(n @ m)
    C = 1.0 - float(n @ n) + float(m @ m)
    n0 = np.sqrt((C + np.hypot(C, 2.0 * d)) / 2.0)
    m0 = -d / n0
    return k_from_nm(RealParameter(n0=n0, n=n, m0=m0, m=m))


def random_stokes(rng) -> StokesVector:
    s0 = rng.uniform(*S0_RANGE)
    p = rng.uniform(*P_RANGE)
    return StokesVector(s0, s0 * p * random_unit(rng))


def make_pair(k: ComplexParameter, vin: StokesVector) -> MeasurementPair:
    return MeasurementPair(vin, apply(mueller_from_k(k), vin))


def random_pairs(k: ComplexParameter, count, rng):
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return [make_pair(k, random_stokes(rng)) for _ in range(count)]


def rotation_dataset(seed=None, rng=None):
    """Two consistent measurements of one random rotation device.

    The second probe is the first rotated about the device axis by a
    random angle, so both share one cone angle about it. ``solve_two_3d``
    does not need this (any two non-parallel probes fix a rotation); the
    construction is kept so that seeded datasets do not change. Returns
    (k, pair1, pair2).
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    axis = random_unit(rng)
    angle = rng.uniform(0.3, np.pi - 0.3)
    k = rotation_k(axis, angle)
    L = mueller_from_k(k)

    N1 = random_unit(rng)
    # keep N1 off the axis so the measurements carry information
    while abs(float(N1 @ axis)) > 0.95:
        N1 = random_unit(rng)
    psi = rng.uniform(0.5, 2.0 * np.pi - 0.5)
    cone = mueller_from_k(rotation_k(axis, psi)).m[1:, 1:]
    N2 = cone @ N1

    pairs = []
    for N in (N1, N2):
        s0 = rng.uniform(0.5, 2.0)
        p = rng.uniform(0.2, 1.0)
        vin = StokesVector(s0, s0 * p * N)
        pairs.append(MeasurementPair(vin, apply(L, vin)))
    return k, pairs[0], pairs[1]


def _scale_pair(pair: MeasurementPair, lam: float) -> MeasurementPair:
    return MeasurementPair(
        StokesVector(lam * pair.input.s0, lam * pair.input.s),
        StokesVector(lam * pair.output.s0, lam * pair.output.s))


def _on_surface(cands, e: ExpansionCoeffs):
    """The candidate pairs, in order, each rescaled so that its
    constraint surface passes through e, less those with a collinear
    basis, with no positive scaling, or scaled more than 1e-9 off e.

    Scaling a pair by lam scales (A, B, Avec, Bvec) by lam, hence the
    quadratic coefficients by lam^2 (a, alpha), lam^3 (b, beta) and
    lam^4 (c, sigma); the constraint value becomes a quartic in lam whose
    smallest positive real root is used. Rows are read as Python floats,
    which costs less than arrays on a few rows.
    """
    x, y, z, w = e
    rows = geometry_table(cands).tolist()
    kept = [(p, _quad(r)) for p, r in zip(cands, rows)
            if not basis_collinear(r[CROSS2], r[AVEC2], r[BVEC2])]
    scaled = []
    for (pair, _), roots in zip(kept, companion_roots(
            [[q.c * y * y - q.sigma * w * w,
              2.0 * (q.b * x * y - q.beta * z * w),
              q.a * x * x - q.alpha * z * z, 0.0, -1.0] for _, q in kept])):
        real = [r.real for r in roots
                if abs(r.imag) < 1e-9 * max(1.0, abs(r)) and r.real > 1e-9]
        if real:
            scaled.append(_scale_pair(pair, min(real)))
    return [p for p, r in zip(scaled, geometry_table(scaled).tolist())
            if abs(constraint_residual(_quad(r), e)) <= 1e-9]


def consistent_dataset(count, seed=None, rng=None):
    """`count` (>= 1) measurement pairs of one random relativistic device.

    The first pair fixes the expansion point e*; every further pair is an
    independent random pair of an auxiliary random device, rescaled so its
    own constraint surface passes through e* exactly. Each pair is a
    genuine physical measurement of some device, and all share the lifted
    solution lift(e*). Returns (k, e_star, pairs).

    The candidates still needed are drawn, then checked together; checking
    draws nothing, so stream and result are those of one at a time.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if rng is None:
        rng = np.random.default_rng(seed)
    while True:
        k = random_lorentz(rng=rng)
        base = make_pair(k, random_stokes(rng))
        g = pair_geometry(base)
        if g.collinear:
            continue
        try:
            e_star = params_to_expansion(g, nm_from_k(k))
        except DegenerateGeometry:
            continue
        break

    pairs = [base]
    while len(pairs) < count:
        pairs += _on_surface(
            [make_pair(random_lorentz(rng=rng), random_stokes(rng))
             for _ in range(count - len(pairs))], e_star)
    return k, e_star, pairs


def direct_linear_solve(pairs):
    """Least-squares matrix from input/output pairs, no structure assumed.

    With the inputs as the rows of X and the outputs as the rows of Y,
    solves X M^T = Y by one numpy lstsq. Raises RankDeficient below rank 4
    (fewer than four pairs in general position), with ``rank`` 4 rank(X):
    that of the 16-unknown system in vec(M), whose singular values are
    those of X, each four times. Returns (MuellerMatrix, LorentzReport,
    residual_norm), the last the 2-norm of the ``transit_residuals`` of X, Y.
    """
    X = np.array([p.input.as_array() for p in pairs]).reshape(-1, 4)
    Y = np.array([p.output.as_array() for p in pairs]).reshape(-1, 4)
    Mt, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
    if rank < 4:
        raise RankDeficient(
            f"measurement stack has rank {4 * rank} < 16: "
            "matrix not determined", rank=4 * int(rank))
    L = MuellerMatrix(Mt.T)
    return L, is_lorentz(L), math.hypot(*transit_residuals(L.m, X, Y))
