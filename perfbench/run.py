"""Seeded benchmark of muellerkit: end-to-end metrics and per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload four_pair --seed 1 --seconds 30 \
        --trace 0

Workloads: four_pair, closed_form, cli_pipeline (see perfbench/README.md).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the ops again under span wrappers and reports the
per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans of a traced run are written to ``.perfbench/trace-<workload>.npz``.
"""

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("four_pair", "closed_form", "cli_pipeline")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3     # set-ups per run; setup_s is their median
IMPORT_PROBES = 5    # interpreter starts per kind for cli.import_ms
# CPU speed is sampled by timing a fixed loop of small numpy calls between
# ops. On a shared host it can drift by 3x within minutes, so the
# end-to-end timings are converted to a reference speed at which one
# sample takes REFERENCE_SPIN_MS. The loop makes the kind of calls the ops
# make: over three minutes of closed_form ops on a 2-vCPU VM, op time over
# loop time spread 0.11 (IQR over median) with this loop and 0.17 with a
# pure-Python loop, while op time alone spread 0.39.
SPIN_ITERATIONS = 50
REFERENCE_SPIN_MS = 1.15
SPIN_EVERY_S = 0.05  # at most this long between two samples in a loop
SPIN_WINDOW_S = 0.1  # an op is scaled by the samples this close to it
END_TO_END = (("setup_s", "s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
              ("ops_per_s", "1/s"), ("ok_frac", "fraction"),
              ("peak_rss_mb", "MB"))


@dataclass
class Outcome:
    """One op: latency in seconds when it completed, the check's verdict
    (None when there was no answer to check), whether it failed otherwise
    than by a typed solver error, the seconds its check took, and the
    perf_counter time it started."""

    latency: float = None
    verdict: str = None
    unexpected: bool = False
    check_s: float = 0.0
    start: float = 0.0


def checked(start, latency, check, *args):
    t0 = perf_counter()
    verdict = check(*args)
    return Outcome(latency, verdict, check_s=perf_counter() - t0,
                   start=start)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def make_workload(name, work):
    import workloads
    if name == "four_pair":
        return workloads.FourPair()
    if name == "closed_form":
        return workloads.ClosedForm()
    import pipeline
    return pipeline.CliPipeline(work, child_env())


class Runner:
    """Maps op number j to a call into the program and its checked Outcome.

    With a tracer, an op with `traced` set records spans: library ops
    through the wrappers `patch` switches on around the call, CLI ops
    through the traced child process.
    """

    def __init__(self, wl, cases, tracer=None, patch=None):
        self.wl, self.cases = wl, cases
        self.tracer, self.patch = tracer, patch
        self.cli = wl.name == "cli_pipeline"

    def op(self, j, traced=False, op_id=0, prefix="u"):
        tracer = self.tracer if traced else None
        if self.cli:
            return self._cli_op(j, tracer, op_id, prefix)
        from muellerkit.errors import MuellerKitError
        case = self.cases[j % len(self.cases)]
        t0 = perf_counter()
        if tracer is not None:
            tracer.begin(op_id)
            self.patch.on()
        try:
            out = self.wl.op(case)
        except MuellerKitError:
            return Outcome()
        except Exception:
            traceback.print_exc()
            return Outcome(unexpected=True)
        finally:
            if tracer is not None:
                self.patch.off()
        return checked(t0, perf_counter() - t0, self.wl.check, case, out)

    def _cli_op(self, j, tracer, op_id, prefix):
        import pipeline
        per_case = self.wl.ops_per_case
        case = self.cases[(j // per_case) % len(self.cases)]
        execution = f"{prefix}{j // per_case}"
        step = pipeline.STEPS[j % per_case]
        start = perf_counter()
        try:
            code, wall = self.wl.run_op(case, execution, step, tracer, op_id)
        except pipeline.ChildTimeout:
            print(f"{step}: child timed out", file=sys.stderr)
            return Outcome(unexpected=True)
        if code is None:           # verify has no solve6 matrix to check
            return Outcome()
        if code != pipeline.EXIT_OK:
            return Outcome(unexpected=code != pipeline.EXIT_SOLVER)
        return checked(start, wall, self.wl.check, case, execution, step)


def spin_sample():
    """(midpoint, ms) of one run of the fixed loop: the CPU speed now."""
    import numpy as np
    a = np.linspace(-1.0, 1.0, 16).reshape(4, 4)
    v = np.ones(4)
    t0 = perf_counter()
    for _ in range(SPIN_ITERATIONS):
        b = a @ a
        np.linalg.norm(b @ v)
        np.cross(v[:3], b[0, :3])
    t1 = perf_counter()
    return (t0 + t1) / 2, (t1 - t0) * 1e3


def spin_ms(reps=9):
    return statistics.median(spin_sample()[1] for _ in range(reps))


class SpeedLog:
    """CPU-speed samples taken between the ops of a timed loop."""

    def __init__(self):
        self.times, self.ms = [], []

    def sample(self, force=False):
        if force or not self.times or (
                perf_counter() - self.times[-1] >= SPIN_EVERY_S):
            t, ms = spin_sample()
            self.times.append(t)
            self.ms.append(ms)

    def scale(self, t0, t1):
        """Factor taking a time measured over [t0, t1] to the reference
        speed: REFERENCE_SPIN_MS over the median of the samples within
        SPIN_WINDOW_S of the interval (the nearest one if none is)."""
        i = bisect.bisect_left(self.times, t0 - SPIN_WINDOW_S)
        j = bisect.bisect_right(self.times, t1 + SPIN_WINDOW_S)
        near = self.ms[i:j] or [self.ms[min(i, len(self.ms) - 1)]]
        return REFERENCE_SPIN_MS / statistics.median(near)


def build_corpus(wl, seed, n):
    return [wl.make_case(seed, i) for i in range(n)]


def corpus_digest(wl, cases):
    import workloads
    return workloads.digest(wl.tree(c) for c in cases)


def probe_setup(args):
    """Child-process set-up: import plus corpus generation, timed, with
    CPU-speed samples just after (the loop needs numpy, whose import is
    part of the set-up)."""
    t0 = perf_counter()
    wl = make_workload(args.workload, OUT)
    cases = build_corpus(wl, args.seed, wl.corpus_cases)
    setup_s = perf_counter() - t0
    after = [spin_sample()[1] for _ in range(6)]
    scale = REFERENCE_SPIN_MS / statistics.median(after)
    print(json.dumps({"setup_s": setup_s, "scale": scale,
                      "digest": corpus_digest(wl, cases)}))
    return 0


def run_child(argv, tag):
    """Run a benchmark child to exit; return (exit code, stdout, wall s)."""
    import pipeline
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{tag}.{os.getpid()}.out"
    err = OUT / f"{tag}.{os.getpid()}.err"
    code, wall, _ = pipeline.spawn(argv, child_env(), out, err)
    text = out.read_text()
    if code != 0:
        sys.stderr.write(err.read_text())
    out.unlink()
    err.unlink()
    return code, text, wall


def setup_probes(args):
    """Set-up seconds of each probe, raw and at reference speed, and the
    corpus digests the probes saw."""
    raw, scaled, digests = [], [], set()
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        code, text, _ = run_child(argv, "probe")
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        rec = json.loads(text)
        raw.append(rec["setup_s"])
        scaled.append(rec["setup_s"] * rec["scale"])
        digests.add(rec["digest"])
    return raw, scaled, digests


def import_ms():
    """Import-only process minus a bare interpreter start, medians in ms."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(run_child([sys.executable, "-c", "pass"], "bare")[2])
        full.append(run_child([sys.executable, "-c", "import muellerkit.cli"],
                              "import")[2])
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def percentiles_ms(latencies):
    import numpy as np
    p50, p90 = np.percentile(np.asarray(latencies) * 1e3, [50, 90])
    return float(p50), float(p90)


def judge(outcomes):
    """(attempted, failed, correct): every op without an OK or MISS verdict
    failed; a WRONG verdict or an unexpected failure makes it incorrect."""
    import workloads
    failed = sum(o.verdict not in (workloads.OK, workloads.MISS)
                 for o in outcomes)
    correct = not any(o.verdict == workloads.WRONG or o.unexpected
                      for o in outcomes)
    return len(outcomes), failed, correct


def run_untraced(args, wl, ctx):
    import workloads
    raw_setup, setup, digests = setup_probes(args)
    ctx["setup_probe_s"] = raw_setup
    cases = build_corpus(wl, args.seed, wl.corpus_cases)
    digest = corpus_digest(wl, cases)
    ctx["corpus_cases"] = len(cases)
    ctx["corpus_sha256"] = digest
    if hasattr(wl, "prepare"):
        wl.prepare(cases)
    runner = Runner(wl, cases)
    for j in range(wl.ops_per_case):           # warm-up: first case, untimed
        runner.op(j, prefix="w")

    outcomes = []
    speed = SpeedLog()
    t0 = perf_counter()
    deadline = t0 + args.seconds
    j = 0
    while perf_counter() < deadline:
        speed.sample()
        outcomes.append(runner.op(j))
        j += 1
    speed.sample(force=True)
    # ops_per_s leaves out the benchmark's own checks and speed samples
    wall = (perf_counter() - t0 - sum(o.check_s for o in outcomes)
            - sum(speed.ms) / 1e3)

    attempted, failed, correct = judge(outcomes)
    ok_count = sum(o.verdict == workloads.OK for o in outcomes)
    if digests != {digest}:
        print("corpus differs between set-ups of one seed", file=sys.stderr)
        correct = False
    done = [o for o in outcomes if o.latency is not None]
    if not done:
        raise RuntimeError("no op completed")
    scales = [speed.scale(o.start, o.start + o.latency) for o in done]
    latencies = [o.latency * s for o, s in zip(done, scales)]
    p50, p90 = percentiles_ms(latencies)
    raw_p50, raw_p90 = percentiles_ms([o.latency for o in done])
    if wl.name == "cli_pipeline":
        rss_kib = wl.max_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # the loop's wall time goes to reference speed with the scale of its
    # ops weighted by their duration
    busy_scale = sum(latencies) / sum(o.latency for o in done)
    ctx["latency_samples"] = len(done)
    ctx["speed_scale"] = busy_scale
    ctx["raw"] = {"setup_s": statistics.median(raw_setup),
                  "op_ms_p50": raw_p50, "op_ms_p90": raw_p90,
                  "ops_per_s": len(done) / wall}
    values = {
        "setup_s": statistics.median(setup),
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "ops_per_s": len(done) / (wall * busy_scale),
        "ok_frac": ok_count / attempted,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return correct, attempted, failed, metrics


def run_traced(args, wl, ctx):
    import tracing
    tr = tracing.Tracer()
    t_start = perf_counter()
    cli_import_ms = import_ms() if wl.name == "cli_pipeline" else 0.0

    patch = tracing.install(tr)
    tr.begin(-1, tracing.SETUP)
    cases = build_corpus(wl, args.seed, wl.trace_cases)
    patch.off()
    if hasattr(wl, "prepare"):
        wl.prepare(cases)
    runner = Runner(wl, cases, tr, patch)
    per_pass = wl.trace_cases * wl.ops_per_case
    for j in range(wl.ops_per_case):           # warm-up: first case, untimed
        runner.op(j, prefix="w")

    untraced, traced = [], []
    deadline = t_start + args.seconds
    passes = 0
    # Whole passes only, so every count per op repeats exactly for a seed.
    while passes == 0 or perf_counter() < deadline:
        for j in range(per_pass):
            untraced.append(runner.op(j, prefix=f"p{passes}u"))
            traced.append(runner.op(j, True, passes * per_pass + j,
                                    prefix=f"p{passes}t"))
        passes += 1
    ops = passes * per_pass

    attempted, failed, correct = judge(untraced + traced)
    OUT.mkdir(exist_ok=True)
    tr.save(OUT / f"trace-{wl.name}.npz")

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
               in tracing.span_metrics(tr, ops, per_pass).items()}
    extra = {"cli.import_ms": cli_import_ms, "cli.process_overhead_ms": 0.0}
    if runner.cli:
        main_s = tracing.span_seconds(tr, "cli.main")
        extra["cli.process_overhead_ms"] = (
            (wl.traced_wall_s - main_s) * 1e3 / ops)
    traced_lat = [o.latency for o in traced if o.latency is not None]
    plain_lat = [o.latency for o in untraced if o.latency is not None]
    if not traced_lat or not plain_lat:
        raise RuntimeError("no traced op completed")
    trace_p50 = statistics.median(traced_lat) * 1e3
    plain_p50 = statistics.median(plain_lat) * 1e3
    extra["trace.op_ms_p50"] = trace_p50
    extra["trace.overhead_ms"] = trace_p50 - plain_p50
    for name, value in extra.items():
        metrics[name] = {"value": value, "unit": "ms"}
    ctx["traced_ops"] = ops
    ctx["trace_passes"] = passes
    ctx["untraced_op_ms_p50"] = plain_p50
    return correct, attempted, failed, metrics


def git_commit():
    """HEAD of the checkout, or None outside a git checkout."""
    git = shutil.which("git")
    if git is None:
        return None
    code, text, _ = run_child([git, "-C", str(ROOT), "rev-parse", "HEAD"],
                              "git")
    return text.strip() if code == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def context(args):
    import importlib.util
    import numpy as np
    from muellerkit import kernels
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_has_numba": bool(kernels.HAS_NUMBA),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "muellerkit" / "__init__.py").is_file():
        print(f"error: no muellerkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return probe_setup(args)

    import muellerkit
    if Path(muellerkit.__file__).resolve().parent != SRC / "muellerkit":
        print(f"error: muellerkit imported from {muellerkit.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    ctx = context(args)
    # One CPU for the run and its children, so the speed samples time the
    # CPU the ops run on.
    ctx["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {ctx["pinned_cpu"]})
    ctx["spin_ms_before"] = spin_ms()
    wl = make_workload(args.workload, work)
    try:
        run = run_traced if args.trace else run_untraced
        correct, attempted, failed, metrics = run(args, wl, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ctx["spin_ms_after"] = spin_ms()

    print("context " + json.dumps(ctx, sort_keys=True))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.6g}), "
          f"{ctx.get('latency_samples', ctx.get('traced_ops'))} samples")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    for _var in THREAD_VARS:      # before numpy loads its BLAS
        os.environ[_var] = "1"
    sys.exit(main())
