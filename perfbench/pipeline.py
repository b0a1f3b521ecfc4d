"""The cli_pipeline workload: one ``muellerkit.cli`` process per op.

Each case runs the fixed sequence gen(consistent6) -> solve6 -> verify
-> diag -> gen(consistent4) -> solve4, every step a fresh
``python -m muellerkit.cli`` process timed from spawn to exit. The truth
for each case is generated in the benchmark process from the same
generator seeds the ``gen`` steps receive.
"""

import json
import os
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from muellerkit import oracle, serialize
from muellerkit.lorentz import mueller_from_k
from muellerkit.relativistic import quad_coeffs
from workloads import (MISS, OK, SIX_Q_MAX, TOL_VALID, WRONG, case_rng,
                       equivalent, roots_verdict, six_conditioning)

SHIM = Path(__file__).resolve().with_name("cli_shim.py")
STEPS = ("gen6", "solve6", "verify", "diag", "gen4", "solve4")
CHILD_TIMEOUT_S = 60
TOL_MATRIX = 1e-8
TOL_COEFF = 1e-12
EXIT_OK, EXIT_SOLVER = 0, 2


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def spawn(argv, env, stdout_path, stderr_path, timeout=CHILD_TIMEOUT_S):
    """Run argv to its exit; return (exit code, wall seconds, peak RSS KiB).

    ``os.wait4`` gives the peak RSS of this one child. A child still
    running after `timeout` seconds is killed and ChildTimeout raised.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        t0 = perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except ChildTimeout:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        wall = perf_counter() - t0
    finally:
        signal.signal(signal.SIGALRM, previous)
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss


@dataclass(frozen=True)
class CliCase:
    index: int
    seed6: int
    k6: object
    e6: object
    pairs6: list
    seed4: int
    e4: object
    pairs4: list


class CliPipeline:
    name = "cli_pipeline"
    tag = 3
    corpus_cases = 32
    trace_cases = 1
    ops_per_case = len(STEPS)

    def __init__(self, work, env):
        self.work = Path(work)
        self.env = env
        self.max_rss_kib = 0
        self.traced_wall_s = 0.0
        self._solve6 = {}     # execution -> verdict on its solve6 output

    def make_case(self, seed, i):
        """The `gen` seeds of case i; seed6 is drawn again until its
        dataset is within SIX_Q_MAX (see workloads.SIX_Q_MAX)."""
        rng = case_rng(seed, self.tag, i)
        seed4 = int(rng.integers(2 ** 31))
        _, e4, pairs4 = oracle.consistent_dataset(
            4, rng=np.random.default_rng(seed4))
        while True:
            seed6 = int(rng.integers(2 ** 31))
            k6, e6, pairs6 = oracle.consistent_dataset(
                6, rng=np.random.default_rng(seed6))
            if six_conditioning(e6, pairs6) <= SIX_Q_MAX:
                return CliCase(i, seed6, k6, e6, pairs6, seed4, e4, pairs4)

    def tree(self, case):
        return {"seed6": case.seed6,
                "six": serialize.dataset_to_json(case.pairs6),
                "seed4": case.seed4,
                "four": serialize.dataset_to_json(case.pairs4)}

    def prepare(self, cases):
        """Write each case's first pair as the dataset `verify` checks.

        The pairs of a consistent dataset after the first come from other
        devices that share e*, so only the first pair is a measurement of
        the device `solve6` returns.
        """
        self.work.mkdir(parents=True, exist_ok=True)
        for case in cases:
            self._base(case).write_text(serialize.dumps(
                serialize.dataset_to_json(case.pairs6[:1])))

    def _base(self, case):
        return self.work / f"base{case.index}.json"

    def _path(self, execution, step):
        return self.work / f"{execution}_{step}.json"

    def _args(self, case, execution, step):
        p = lambda s: str(self._path(execution, s))  # noqa: E731
        return {
            "gen6": ["gen", "--kind", "consistent6", "--seed", str(case.seed6),
                     "--output", p("gen6")],
            "solve6": ["solve6", "--data", p("gen6"), "--output", p("solve6")],
            "verify": ["verify", "--matrix", p("matrix"), "--data",
                       str(self._base(case)), "--output", p("verify")],
            "diag": ["diag", "--data", p("gen6"), "--output", p("diag")],
            "gen4": ["gen", "--kind", "consistent4", "--seed", str(case.seed4),
                     "--output", p("gen4")],
            "solve4": ["solve4", "--data", p("gen4"), "--output", p("solve4")],
        }[step]

    def run_op(self, case, execution, step, tracer=None, op_id=0):
        """Run one step; return (exit code or None if skipped, wall s)."""
        if (step == "verify"
                and self._solve6.get(execution) not in (OK, MISS)):
            return None, 0.0
        args = self._args(case, execution, step)
        if tracer is None:
            argv = [sys.executable, "-m", "muellerkit.cli", *args]
        else:
            spans = self.work / f"{execution}_{step}.spans.npz"
            argv = [sys.executable, str(SHIM), str(spans), *args]
        err = self.work / f"{execution}_{step}.stderr"
        code, wall, rss = spawn(argv, self.env, os.devnull, err)
        if tracer is None:
            self.max_rss_kib = max(self.max_rss_kib, rss)
        else:
            tracer.merge(spans, op_id)
            self.traced_wall_s += wall
        if step == "solve6":
            self._solve6[execution] = self._judge_solve6(case, execution)
        return code, wall

    def _judge_solve6(self, case, execution):
        """OK when a valid candidate is e* and its matrix is the generating
        device within TOL_MATRIX. MISS when a valid candidate is e* but its
        matrix is not within TOL_MATRIX (an ill-conditioned dataset). Else
        WRONG. On OK or MISS that candidate's matrix is handed on to
        `verify`, as a user would.
        """
        try:
            out = json.loads(self._path(execution, "solve6").read_text())
        except (OSError, ValueError):
            return WRONG
        truth = mueller_from_k(case.k6).m
        verdict = WRONG
        for cand in out.get("candidates", []):
            if (cand.get("mueller") and max(cand["residuals"]) <= TOL_VALID
                    and equivalent(cand["e"], case.e6.as_array())):
                m = np.asarray(cand["mueller"]["m"], float).reshape(4, 4)
                close = np.max(np.abs(m - truth)) <= TOL_MATRIX * max(
                    1.0, float(np.max(np.abs(truth))))
                if close or verdict == WRONG:
                    self._path(execution, "matrix").write_text(
                        json.dumps(cand["mueller"]))
                    if close:
                        return OK
                    verdict = MISS
        return verdict

    def check(self, case, execution, step):
        """Verdict on a step's output: it must parse and hold the truth."""
        if step == "solve6":
            return self._solve6.get(execution, WRONG)
        try:
            out = json.loads(self._path(execution, step).read_text())
        except (OSError, ValueError):
            return WRONG
        if step == "solve4":
            return roots_verdict([r["e"] for r in out["roots"]],
                                 case.e4.as_array(), case.pairs4)
        if step == "gen6":
            ok = _dataset_is(out, case.pairs6, case.k6)
        elif step == "gen4":
            ok = _dataset_is(out, case.pairs4, None)
        elif step == "verify":
            ok = out["all_ok"] and out["lorentz"]["ok"]
        else:
            ok = _diag_is(out, case.pairs6)
        return OK if ok else WRONG


def _dataset_is(out, pairs, k):
    got, meta = serialize.dataset_from_json(out)
    if len(got) != len(pairs) or any(
            not np.array_equal(g.input.as_array(), p.input.as_array())
            or not np.array_equal(g.output.as_array(), p.output.as_array())
            for g, p in zip(got, pairs)):
        return False
    if k is None:
        return True
    truth = json.loads(meta["truth_k"])
    return (np.array_equal(np.asarray(truth["re"], float), k.k.real)
            and np.array_equal(np.asarray(truth["im"], float), k.k.imag))


def _diag_is(out, pairs):
    if len(out["pairs"]) != len(pairs):
        return False
    for rec, p in zip(out["pairs"], pairs):
        q = quad_coeffs(p)
        c = rec["coefficients"]
        scale = max(1.0, *(abs(v) for v in c.values()))
        if any(abs(c[name] - getattr(q, name)) > TOL_COEFF * scale
               for name in ("a", "b", "c", "alpha", "beta", "sigma")):
            return False
    return True
