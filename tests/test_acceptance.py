"""Acceptance gate: the ten release criteria, one pass/fail line each.

Each test prints "ACCEPTANCE n: PASS <detail>" on success (run pytest with
-s or read the captured output); a failing criterion fails its test.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from muellerkit import (ComplexParameter, InconsistentPairs,
                        DegenerateGeometry, MeasurementPair, StokesVector,
                        apply, family_3d, invariant, is_lorentz,
                        mueller_from_k, nm_from_k, k_from_nm,
                        params_to_expansion, k_from_expansion,
                        expansion_to_params, constraint_residual,
                        quad_coeffs, solve_four, solve_six, solve_two_3d)
from muellerkit import oracle, serialize
from muellerkit.cli import main as cli_main
from muellerkit.oracle import (consistent_dataset, direct_linear_solve,
                               make_pair, random_lorentz, random_pairs,
                               random_stokes, random_unit, rotation_dataset)
from muellerkit.littlegroup import sample_little
from muellerkit.quadform import diagonalize2
from muellerkit.relativistic import lift, quad_coeffs_from_geometry
from muellerkit.stokes import pair_geometry


def _report(n, detail):
    print(f"ACCEPTANCE {n}: PASS {detail}")


def test_criterion_1_group_membership():
    worst = 0.0
    for seed in range(1000):
        rep = is_lorentz(mueller_from_k(random_lorentz(seed=seed)))
        assert rep.ok
        worst = max(worst, rep.ortho_residual)
    assert worst <= 1e-10
    ident = mueller_from_k(ComplexParameter([1.0, 0.0, 0.0, 0.0]))
    assert np.all(ident.m == np.eye(4))
    _report(1, f"1000 devices, worst orthogonality residual {worst:.2e}; "
               "identity exact")


def test_criterion_2_family_3d():
    rng = np.random.default_rng(2)
    worst = 0.0
    from muellerkit import rotation_k
    for _ in range(200):
        axis = random_unit(rng)
        ang = rng.uniform(0.05, np.pi - 0.05)
        R = mueller_from_k(rotation_k(axis, ang))
        s0 = rng.uniform(0.5, 2.0)
        s = s0 * rng.uniform(0.2, 1.0) * random_unit(rng)
        vin = StokesVector(s0, s)
        vout = apply(R, vin)
        p = MeasurementPair(vin, vout)
        G = rng.uniform(-1.4, 1.4)
        sol = family_3d(p, G)
        L = sol.matrix()
        worst = max(worst, float(np.linalg.norm(
            apply(L, vin).as_array() - vout.as_array())))
    assert worst <= 1e-9

    # closed forms: S' = S branch and Gamma = 0 branch
    worst_cf = 0.0
    for _ in range(50):
        s = rng.normal(size=3)
        p = MeasurementPair(StokesVector(1.0, 0.3 * s / np.linalg.norm(s)),
                            StokesVector(1.0, 0.3 * s / np.linalg.norm(s)))
        G = rng.uniform(-1.4, 1.4)
        sol = family_3d(p, G)
        worst_cf = max(worst_cf, abs(sol.n0 - np.cos(G)),
                       float(np.max(np.abs(
                           sol.n - np.sin(G) * s / np.linalg.norm(s)))))
        sp = 0.3 * random_unit(rng)
        sv = p.input.s
        if float(sv @ sv) + float(sv @ sp) < 1e-3:
            continue
        p2 = MeasurementPair(p.input, StokesVector(1.0, sp))
        sol0 = family_3d(p2, 0.0)
        S2 = float(sv @ sv)
        root = np.sqrt(S2) * np.sqrt(2.0 * (S2 + float(sv @ sp)))
        worst_cf = max(worst_cf,
                       abs(sol0.n0 - (S2 + float(sv @ sp)) / root),
                       float(np.max(np.abs(
                           sol0.n - np.cross(sv, sp) / root))))
    assert worst_cf <= 1e-12
    _report(2, f"200 triples map to {worst:.2e}; closed forms to "
               f"{worst_cf:.2e}")


def test_criterion_3_two_measurement_rotation():
    rng = np.random.default_rng(3)
    worst = 0.0
    worst_cons = 0.0
    for _ in range(100):
        k, p1, p2 = rotation_dataset(rng=rng)
        sol = solve_two_3d(p1, p2)
        worst = max(worst, float(np.max(np.abs(
            sol.matrix().m - mueller_from_k(k).m))))
        # consistency residual N1.N1' = N2.N2' on generated data
        worst_cons = max(worst_cons, abs(
            float(p1.input.direction @ p1.output.direction)
            - float(p2.input.direction @ p2.output.direction)))
    assert worst <= 1e-8
    assert worst_cons <= 1e-12
    rejected = 0
    for _ in range(20):
        _, p1, _ = rotation_dataset(rng=rng)
        _, _, p2 = rotation_dataset(rng=rng)
        with pytest.raises((InconsistentPairs, DegenerateGeometry)):
            solve_two_3d(p1, p2)
        rejected += 1
    _report(3, f"100 reconstructions worst {worst:.2e}, consistency "
               f"{worst_cons:.2e}, {rejected}/20 inconsistent rejected")


def test_criterion_4_oracle_chain_4d():
    rng = np.random.default_rng(4)
    done = 0
    w_rt = w_cons = w_k = w_id = 0.0
    while done < 200:
        k = random_lorentz(rng=rng)
        p = make_pair(k, random_stokes(rng))
        g = pair_geometry(p)
        if g.collinear:
            continue
        r = nm_from_k(k)
        try:
            e = params_to_expansion(g, r)
        except DegenerateGeometry:
            continue
        done += 1
        r2 = expansion_to_params(g, e)
        w_rt = max(w_rt, abs(r2.n0 - r.n0), abs(r2.m0 - r.m0),
                   float(np.max(np.abs(r2.n - r.n))),
                   float(np.max(np.abs(r2.m - r.m))))
        q = quad_coeffs_from_geometry(g)
        w_cons = max(w_cons, abs(constraint_residual(q, e)))
        k2 = k_from_expansion(g, e)
        w_k = max(w_k, float(min(np.max(np.abs(k2.k - k.k)),
                                 np.max(np.abs(k2.k + k.k)))))
        # parameter identities (normalization and orthogonality)
        w_id = max(w_id, r2.ortho_defect(),
                   abs(r2.norm_defect()) / max(
                       1.0, r2.n0 ** 2 + float(r2.n @ r2.n)))
    assert w_rt <= 1e-9 and w_cons <= 1e-9 and w_k <= 1e-9 and w_id <= 1e-11
    _report(4, f"200 chains: round trip {w_rt:.2e}, constraint "
               f"{w_cons:.2e}, k match {w_k:.2e}, identities {w_id:.2e}")


def test_criterion_5_six_measurement():
    rng = np.random.default_rng(5)
    w_u = w_r1 = w_gen = 0.0
    for _ in range(10):
        k, e_star, pairs = consistent_dataset(6, rng=rng)
        rep = solve_six(pairs)
        u_star = lift(e_star)
        w_u = max(w_u, float(np.linalg.norm(rep.u - u_star)
                             / max(1.0, np.linalg.norm(u_star))))
        w_r1 = max(w_r1, *rep.rank1_defects)
        # the (z, w)-block sign is invisible to every per-pair constraint,
        # so both assignments validate exactly; the generator must be
        # among the enumerated candidates
        es = e_star.as_array()
        w_gen = max(w_gen, min(
            float(min(np.max(np.abs(c.e.as_array() - es)),
                      np.max(np.abs(c.e.as_array() + es))))
            for c in rep.candidates))
    assert w_u <= 1e-8 and w_r1 <= 1e-6 and w_gen <= 1e-6

    # generic six-pair dataset of one device: record the empirical finding
    # and assert the CLI diagnostic path exits 2
    k = random_lorentz(rng=rng)
    pairs = random_pairs(k, 6, rng)
    shared = True
    try:
        solve_six(pairs)
    except Exception:
        shared = False
    import tempfile, os
    with tempfile.TemporaryDirectory() as td:
        data = os.path.join(td, "six.json")
        with open(data, "w") as f:
            f.write(serialize.dumps(serialize.dataset_to_json(pairs)))
        code = cli_main(["solve6", "--data", data,
                         "--output", os.path.join(td, "out.json")])
    if not shared:
        assert code == 2
    _report(5, f"lifted solve {w_u:.2e}, rank-1 {w_r1:.2e}, generator "
               f"{w_gen:.2e}; generic data shared solution: {shared}, "
               f"CLI exit {code}")


def test_criterion_6_four_measurement():
    rng = np.random.default_rng(6)
    w_res = w_val = 0.0
    for _ in range(5):
        k, e_star, pairs = consistent_dataset(4, rng=rng)
        rep = solve_four(pairs)
        es = e_star.as_array()
        dists = [min(np.linalg.norm(r[0].as_array() - es),
                     np.linalg.norm(r[0].as_array() + es))
                 for r in rep.roots]
        idx = int(np.argmin(dists))
        w_res = max(w_res, rep.roots[idx][1])
        w_val = max(w_val, max(rep.per_pair_residuals[idx]))
    assert w_res <= 1e-10
    assert w_val <= 1e-6
    _report(6, f"roots from <=64 starts, residual {w_res:.2e}, "
               f"transitivity {w_val:.2e}")


def test_criterion_7_quadform():
    rng = np.random.default_rng(7)
    w1 = 0.0
    for _ in range(10_000):
        a, b, c = rng.normal(size=3)
        d = diagonalize2(a, b, c)
        scale = max(1.0, abs(a), abs(b), abs(c)) ** 2
        w1 = max(w1,
                 abs((d.F + d.G) - (a + c)) / scale,
                 abs(d.F * d.G - (a * c - b * b)) / scale)
        R = np.array([[np.cos(d.phi), -np.sin(d.phi)],
                      [np.sin(d.phi), np.cos(d.phi)]])
        M = R @ np.array([[a, b], [b, c]]) @ R.T
        w1 = max(w1, abs(M[0, 1]) / np.sqrt(scale))
    assert w1 <= 1e-12

    from muellerkit.relativistic import quad_coeffs_polarized
    w2 = 0.0
    for _ in range(100):
        k = random_lorentz(rng=rng)
        s0 = rng.uniform(0.5, 2.0)
        p = make_pair(k, StokesVector(s0, s0 * random_unit(rng)))
        q1 = quad_coeffs(p).as_row()
        q2 = quad_coeffs_polarized(p).as_row()
        w2 = max(w2, float(np.max(np.abs(q1 - q2)))
                 / max(1.0, float(np.max(np.abs(q1)))))
    assert w2 <= 1e-10
    _report(7, f"10^4 triples preserve trace/det to {w1:.2e}; polarized "
               f"specialization to {w2:.2e}")


def test_criterion_8_little_groups():
    partly = StokesVector(1.3, [0.3, -0.5, 0.2])
    null = StokesVector(1.0, [0.6, 0.0, 0.8])
    assert invariant(partly) > 0 and abs(invariant(null)) < 1e-15
    w = 0.0
    for state, seed in ((partly, 0), (null, 1)):
        sa = state.as_array()
        for el in sample_little(state, 1000, seed=seed):
            w = max(w, float(np.max(np.abs(el.matrix().m @ sa - sa))))
    assert w <= 1e-10
    wp = 0.0
    els = sample_little(partly, 100, seed=2)
    sa = partly.as_array()
    mats = [el.matrix().m for el in els]
    for i in range(len(mats) - 1):
        wp = max(wp, float(np.max(np.abs(mats[i] @ mats[i + 1] @ sa - sa))))
    assert wp <= 1e-9
    _report(8, f"2000 elements fix state to {w:.2e}; products to {wp:.2e}")


def test_criterion_9_oracle():
    rng = np.random.default_rng(9)
    k = random_lorentz(rng=rng)
    L = mueller_from_k(k)
    pairs = random_pairs(k, 4, rng)
    Lhat, rep, _ = direct_linear_solve(pairs)
    err = float(np.max(np.abs(Lhat.m - L.m)))
    assert err <= 1e-8 and rep.ok

    from muellerkit import RankDeficient
    with pytest.raises(RankDeficient):
        direct_linear_solve([pairs[0]] * 4)

    pairs6 = random_pairs(k, 6, rng)
    eps = 1e-6
    p0 = pairs6[0]
    bad = MeasurementPair(p0.input, StokesVector(
        p0.output.s0 + eps, p0.output.s, validate=False))
    _, _, resid = direct_linear_solve([bad] + pairs6[1:])
    assert eps / 100 <= resid <= eps * 100
    _report(9, f"recovery {err:.2e}; rank-deficiency raised; perturbation "
               f"residual {resid:.2e} within 100x of 1e-6")


def test_criterion_10_cli(tmp_path):
    def gen(kind, seed, out):
        assert cli_main(["gen", "--kind", kind, "--seed", str(seed),
                         "--output", str(out)]) == 0

    two_a, two_b = tmp_path / "2a.json", tmp_path / "2b.json"
    gen("rotation2", 5, two_a)
    gen("rotation2", 5, two_b)
    assert two_a.read_bytes() == two_b.read_bytes()

    s2a, s2b = tmp_path / "s2a.json", tmp_path / "s2b.json"
    assert cli_main(["solve2", "--data", str(two_a),
                     "--output", str(s2a)]) == 0
    assert cli_main(["solve2", "--data", str(two_b),
                     "--output", str(s2b)]) == 0
    assert s2a.read_bytes() == s2b.read_bytes()

    sol = json.loads(s2a.read_text())
    mfile = tmp_path / "M.json"
    mfile.write_text(json.dumps(sol["mueller"]))
    assert cli_main(["verify", "--matrix", str(mfile), "--data", str(two_a),
                     "--output", str(tmp_path / "v.json")]) == 0
    assert json.loads((tmp_path / "v.json").read_text())["all_ok"]

    six = tmp_path / "6.json"
    gen("consistent6", 5, six)
    s6a, s6b = tmp_path / "s6a.json", tmp_path / "s6b.json"
    assert cli_main(["solve6", "--data", str(six),
                     "--output", str(s6a)]) == 0
    assert cli_main(["solve6", "--data", str(six),
                     "--output", str(s6b)]) == 0
    assert s6a.read_bytes() == s6b.read_bytes()

    # lossless round trip on canonical form
    text = two_a.read_text()
    pairs, meta = serialize.dataset_from_json(json.loads(text))
    assert serialize.dumps(serialize.dataset_to_json(pairs, meta)) == text
    _report(10, "gen -> solve2/solve6 -> verify byte-identical; JSON "
                "round trip lossless")
