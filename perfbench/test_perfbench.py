"""Tests of the benchmark itself: checks, corpus determinism, trace counts.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pipeline  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from muellerkit import oracle, relativistic, serialize  # noqa: E402
from muellerkit.errors import NoValidCandidate  # noqa: E402
from muellerkit.lorentz import MuellerMatrix  # noqa: E402
from muellerkit.relativistic import ExpansionCoeffs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "ratio", "bytes")


def _bench(*args):
    """Last-line result of one run.py run from the repository root."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=""),
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------- correctness checks

def test_equivalent_accepts_only_the_undetectable_signs():
    e = np.array([0.3, -1.2, 0.7, 2.0])
    for s in workloads.SYMMETRIES:
        assert workloads.equivalent(s * e, e)
    assert not workloads.equivalent(e * [1, -1, 1, 1], e)
    assert not workloads.equivalent(e + 1e-4, e)


def test_four_pair_check_fails_a_root_off_e_star():
    wl = workloads.FourPair()
    case = wl.make_case(0, 0)
    report = wl.op(case)
    assert wl.check(case, report) == workloads.OK
    off = ExpansionCoeffs(*(case.e_star.as_array() + 1e-3))
    bad = dataclasses.replace(report, roots=[(off, 0.0)])
    assert wl.check(case, bad) == workloads.WRONG


def test_closed_form_check_fails_a_perturbed_rotation():
    wl = workloads.ClosedForm()
    case = wl.make_case(0, 0)
    sol2, six, fam, els = wl.op(case)
    assert wl.check(case, (sol2, six, fam, els)) == workloads.OK

    class Perturbed:
        def matrix(self):
            return MuellerMatrix(sol2.matrix().m + 1e-6)

    assert wl.check(case, (Perturbed(), six, fam, els)) == workloads.WRONG
    assert wl.check(case, wl.op(wl.make_case(0, 1))) == workloads.WRONG


def test_cli_checks_fail_wrong_outputs(tmp_path):
    wl = pipeline.CliPipeline(tmp_path, {})
    case = wl.make_case(0, 0)
    e = case.e4.as_array()
    for root, verdict in ((e, workloads.OK), (-e, workloads.OK),
                          (e + 1e-3, workloads.WRONG)):
        wl._path("x", "solve4").write_text(
            json.dumps({"roots": [{"e": list(root)}]}))
        assert wl.check(case, "x", "solve4") == verdict
    good = serialize.dataset_to_json(case.pairs4)
    wl._path("x", "gen4").write_text(serialize.dumps(good))
    assert wl.check(case, "x", "gen4") == workloads.OK
    good["pairs"][2]["out"]["s0"] *= 1 + 1e-15
    wl._path("x", "gen4").write_text(serialize.dumps(good))
    assert wl.check(case, "x", "gen4") == workloads.WRONG
    e6 = case.e6.as_array()
    truth = pipeline.mueller_from_k(case.k6).m
    for root, m, verdict in ((e6, truth, workloads.OK),
                             (e6, truth + 1e-6, workloads.MISS),
                             (e6 + 1e-3, truth, workloads.WRONG)):
        cand = {"e": list(root), "residuals": [0.0],
                "mueller": {"m": m.tolist()}}
        wl._path("x", "solve6").write_text(
            json.dumps({"candidates": [cand]}))
        wl._solve6["x"] = wl._judge_solve6(case, "x")
        assert wl.check(case, "x", "solve6") == verdict
        if verdict != workloads.WRONG:     # verify gets the matrix
            got = json.loads(wl._path("x", "matrix").read_text())
            assert np.array_equal(got["m"], m)


def test_judge_counts_every_failure_and_flags_wrong_answers():
    """A MISS is a completed op: it lowers ok_frac, not failed."""
    ok = run.Outcome(0.1, workloads.OK)
    miss = run.Outcome(0.1, workloads.MISS)
    wrong = run.Outcome(0.1, workloads.WRONG)
    typed = run.Outcome()
    crash = run.Outcome(unexpected=True)
    assert run.judge([ok, ok]) == (2, 0, True)
    assert run.judge([ok, miss]) == (2, 0, True)
    assert run.judge([ok, typed]) == (2, 1, True)
    assert run.judge([ok, wrong]) == (2, 1, False)
    assert run.judge([ok, crash]) == (2, 1, False)


def test_roots_verdict_tells_a_miss_from_a_wrong_root():
    wl = workloads.FourPair()
    case = wl.make_case(0, 0)
    es = case.e_star.as_array()
    roots = [e.as_array() for e, _ in wl.op(case).roots]
    others = [r for r in roots if not workloads.equivalent(r, es)]
    assert others, "case 0 has roots besides e*"
    assert workloads.roots_verdict(others, es, case.pairs) == workloads.MISS
    assert workloads.roots_verdict([es * 1.01], es,
                                   case.pairs) == workloads.WRONG


@pytest.mark.xfail(raises=NoValidCandidate, strict=True,
                   reason="solve_six loses e* on ill-conditioned datasets")
def test_solve_six_on_a_dataset_beyond_six_q_max():
    """The defect SIX_Q_MAX keeps out of the six-pair corpora.

    When solve_six recovers such datasets, this test passes, fails as
    XPASS, and SIX_Q_MAX can go.
    """
    _, e_star, pairs = oracle.consistent_dataset(6, seed=926)
    assert workloads.six_conditioning(e_star, pairs) > workloads.SIX_Q_MAX
    report = relativistic.solve_six(pairs)
    assert any(workloads.equivalent(c.e.as_array(), e_star.as_array())
               for c in report.candidates if c.worst <= workloads.TOL_VALID)


def test_six_pair_corpora_stay_within_six_q_max(tmp_path):
    closed = workloads.ClosedForm()
    cli = pipeline.CliPipeline(tmp_path, {})
    for i in range(20):
        case = closed.make_case(7, i)
        assert (workloads.six_conditioning(case.e_star, case.six_pairs)
                <= workloads.SIX_Q_MAX)
        case = cli.make_case(7, i)
        assert (workloads.six_conditioning(case.e6, case.pairs6)
                <= workloads.SIX_Q_MAX)


def test_speed_scale_uses_the_samples_near_an_op():
    log = run.SpeedLog()
    log.times = [0.0, 1.0, 1.2, 3.0]
    log.ms = [3.0, 1.5, 0.75, 0.5]
    ref = run.REFERENCE_SPIN_MS
    assert log.scale(1.1, 1.15) == pytest.approx(ref / 1.125)
    assert log.scale(2.9, 3.0) == pytest.approx(ref / 0.5)
    assert log.scale(10.0, 11.0) == pytest.approx(ref / 0.5)


# ------------------------------------------------------ corpus determinism

@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_byte_identical_corpus(name, tmp_path):
    wl = run.make_workload(name, tmp_path)

    def corpus(seed):
        return [serialize.dumps(wl.tree(wl.make_case(seed, i)))
                for i in range(3)]

    assert corpus(5) == corpus(5)
    assert corpus(5) != corpus(6)


# --------------------------------------------------- the run.py contract

def test_untraced_run_reports_every_end_to_end_metric():
    res = _bench("--workload", "closed_form", "--seed", "3", "--seconds", "1",
                 "--trace", "0")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    args = ("--workload", name, "--seed", "4", "--seconds", "1",
            "--trace", "1")
    first, second = (_bench(*args) for _ in range(2))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    counts = [k for k, u in want.items() if u in COUNT_UNITS]
    assert counts
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k
    assert first["correct"] and second["correct"]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "four_pair",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert proc.stdout == ""
