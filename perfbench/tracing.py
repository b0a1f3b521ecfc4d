"""Span tracing of muellerkit from outside the package.

``install`` rebinds each function in ``TARGETS`` with a wrapper that
records one span per call: name, start, end, parent span, op id, phase
and whether the call returned normally. The wrapper replaces the function
in every ``muellerkit`` module namespace that holds it, so calls made
through a module global (``kernels.quad_residual_py`` inside
``newton_multistart_py``) and through ``from .x import f`` copies
(``relativistic.mueller_from_k``) are all seen. The package files are not
changed. Spans stay in memory in flat arrays and are written out once,
by ``save``, when the benchmark ends.
"""

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

SETUP, OP = 0, 1

# (module, attribute, span name). Twins of one kernel (the numpy `_py`
# function and the public alias, or the numba `_jit` twin) share a name.
# `quad_coeffs` is traced through `quad_coeffs_from_geometry`, which it
# calls, so both entry points count once under one name.
TARGETS = [
    ("kernels", "newton_multistart", "kernels.newton_multistart"),
    ("kernels", "newton_multistart_py", "kernels.newton_multistart"),
    ("kernels", "quad_residual", "kernels.quad_residual"),
    ("kernels", "quad_residual_py", "kernels.quad_residual"),
    ("kernels", "quad_jacobian", "kernels.quad_jacobian"),
    ("kernels", "quad_jacobian_py", "kernels.quad_jacobian"),
    ("kernels", "mueller_product", "kernels.mueller_product"),
    ("kernels", "mueller_product_py", "kernels.mueller_product"),
    ("lorentz", "mueller_from_k", "lorentz.mueller_from_k"),
    ("lorentz", "k_from_nm", "lorentz.k_from_nm"),
    ("stokes", "pair_geometry", "stokes.pair_geometry"),
    ("relativistic", "quad_coeffs_from_geometry", "relativistic.quad_coeffs"),
    ("relativistic", "k_from_expansion", "relativistic.k_from_expansion"),
    ("relativistic", "solve_four", "relativistic.solve_four"),
    ("relativistic", "solve_six", "relativistic.solve_six"),
    ("relativistic", "family_4d", "relativistic.family_4d"),
    ("rotation", "solve_two_3d", "rotation.solve_two_3d"),
    ("rotation", "family_3d", "rotation.family_3d"),
    ("littlegroup", "sample_little", "littlegroup.sample_little"),
    ("littlegroup", "little_element", "littlegroup.little_element"),
    ("quadform", "classify_signature", "quadform.classify_signature"),
    ("oracle", "consistent_dataset", "oracle.consistent_dataset"),
    ("oracle", "make_pair", "oracle.make_pair"),
    ("serialize", "dumps", "serialize.dumps"),
    ("serialize", "dataset_from_json", "serialize.dataset_from_json"),
    ("cli", "main", "cli.main"),
]


class Tracer:
    """In-memory span store; ``begin`` sets the op id and phase of the
    spans recorded next."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.phase = array("b")
        self.ok = array("b")
        self.counters = defaultdict(float)  # (phase, key) -> total
        self._stack = []
        self._op = -1
        self._phase = OP

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, op, phase=OP):
        self._op, self._phase = op, phase
        self._stack.clear()

    def open(self, nid, now):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.phase.append(self._phase)
        self.ok.append(0)
        self.end.append(0.0)
        self.start.append(now)
        self._stack.append(i)
        return i

    def close(self, i, ok, now):
        self.end[i] = now
        self.ok[i] = ok
        self._stack.pop()

    def count(self, key, value):
        self.counters[(self._phase, key)] += value

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, np.int32),
            "start": np.frombuffer(self.start, np.float64),
            "end": np.frombuffer(self.end, np.float64),
            "parent": np.frombuffer(self.parent, np.int32),
            "op": np.frombuffer(self.op, np.int32),
            "phase": np.frombuffer(self.phase, np.int8),
            "ok": np.frombuffer(self.ok, np.int8),
        }

    def save(self, path):
        keys = sorted(self.counters)
        np.savez(path, names=np.array(self.names, dtype=str),
                 counter_phase=np.array([p for p, _ in keys], np.int8),
                 counter_key=np.array([k for _, k in keys], dtype=str),
                 counter_value=np.array([self.counters[k] for k in keys]),
                 **self.arrays())

    def merge(self, path, op, phase=OP):
        """Append the spans a traced child process saved, as op `op`."""
        with np.load(path) as z:
            remap = [self.name_id(str(n)) for n in z["names"]]
            base = len(self.start)
            parent = z["parent"]
            self.name.extend(remap[int(n)] for n in z["name"])
            self.start.extend(z["start"].tolist())
            self.end.extend(z["end"].tolist())
            self.parent.extend(
                (np.where(parent >= 0, parent + base, -1)).tolist())
            self.op.extend([op] * len(parent))
            self.phase.extend([phase] * len(parent))
            self.ok.extend(z["ok"].tolist())
            for key, value in zip(z["counter_key"], z["counter_value"]):
                self.counters[(phase, str(key))] += float(value)


# ------------------------------------------------------------ count hooks
# Called after a traced call with its bound arguments and its result, or
# the exception it raised.

def _solve_four_hook(tr, bound, result, exc):
    if exc is None:
        tr.count("relativistic.solve_four.roots", len(result.roots))
        tr.count("relativistic.solve_four.starts", result.n_starts)


def _solve_six_hook(tr, bound, result, exc):
    report = result if exc is None else getattr(exc, "report", None)
    if report is None:
        return
    tol = bound.arguments["tol_l"]
    tr.count("relativistic.solve_six.candidates", len(report.candidates))
    tr.count("relativistic.solve_six.valid",
             sum(c.worst <= tol for c in report.candidates))


def _consistent_dataset_hook(tr, bound, result, exc):
    if exc is None:
        tr.count("oracle.make_pair.accepted", len(result[2]))


def _dumps_hook(tr, bound, result, exc):
    if exc is None:
        tr.count("serialize.dumps.bytes", len(result))


HOOKS = {
    "relativistic.solve_four": _solve_four_hook,
    "relativistic.solve_six": _solve_six_hook,
    "oracle.consistent_dataset": _consistent_dataset_hook,
    "serialize.dumps": _dumps_hook,
}


def _wrap(tr, name, fn):
    nid = tr.name_id(name)
    hook = HOOKS.get(name)
    sig = inspect.signature(fn) if hook else None

    def run_hook(args, kwargs, result, exc):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        hook(tr, bound, result, exc)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tr.open(nid, perf_counter())
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tr.close(i, 0, perf_counter())
            if hook is not None and isinstance(exc, Exception):
                run_hook(args, kwargs, None, exc)
            raise
        tr.close(i, 1, perf_counter())
        if hook is not None:
            run_hook(args, kwargs, result, None)
        return result

    return traced


class Patch:
    """Switches the package between its own functions and the wrappers."""

    def __init__(self, bindings):
        self._bindings = bindings  # (module, attribute, original, wrapper)

    def on(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def off(self):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)


def install(tr):
    """Wrap every target in every loaded muellerkit namespace.

    Returns the Patch, switched on.
    """
    import muellerkit.cli  # noqa: F401  (loads every package module)

    mods = [mod for name, mod in sys.modules.items()
            if name == "muellerkit" or name.startswith("muellerkit.")]
    wrappers = {}
    for mod, attr, name in TARGETS:
        fn = getattr(sys.modules["muellerkit." + mod], attr, None)
        if fn is not None and id(fn) not in wrappers:
            wrappers[id(fn)] = (fn, _wrap(tr, name, fn))
    bindings = []
    for mod in mods:
        for attr, value in vars(mod).items():
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                bindings.append((mod, attr, value, hit[1]))
    patch = Patch(bindings)
    patch.on()
    return patch


def span_seconds(tr, name):
    """Summed duration of the op-phase spans called `name`."""
    a = tr.arrays()
    sel = (a["phase"] == OP) & (a["name"] == tr.name_id(name))
    return float((a["end"][sel] - a["start"][sel]).sum())


def layer_totals(tr):
    """Per (phase, span name): calls, calls that returned, self seconds.

    Self time is a span's duration minus the durations of its direct
    child spans.
    """
    a = tr.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_s = dur - child
    out = {}
    for phase in (SETUP, OP):
        sel = a["phase"] == phase
        names = a["name"][sel]
        n = len(tr.names)
        calls = np.bincount(names, minlength=n)
        oks = np.bincount(names, weights=a["ok"][sel], minlength=n)
        busy = np.bincount(names, weights=self_s[sel], minlength=n)
        for nid, name in enumerate(tr.names):
            out[(phase, name)] = (int(calls[nid]), int(oks[nid]),
                                  float(busy[nid]))
    return out


# Per-layer metrics read from spans, each given per op: (metric, kind,
# source). "calls" and "self_ms" read spans of the op phase.
# "setup_self_ms" and "setup_accept" read the traced generation of the
# cases the traced ops run, per op built (library workloads call `oracle`
# only there). "counter_ratio" divides two hook counters, "ok_ratio" is
# calls that returned over calls, "counter" is a hook counter per op.
_K, _L, _R = "kernels.", "lorentz.", "relativistic."
SPAN_METRICS = [
    (_K + "newton_multistart.self_ms", "self_ms", _K + "newton_multistart"),
    (_K + "quad_residual.calls", "calls", _K + "quad_residual"),
    (_K + "quad_jacobian.calls", "calls", _K + "quad_jacobian"),
    (_K + "mueller_product.calls", "calls", _K + "mueller_product"),
    (_K + "mueller_product.self_ms", "self_ms", _K + "mueller_product"),
    (_L + "mueller_from_k.calls", "calls", _L + "mueller_from_k"),
    (_L + "mueller_from_k.self_ms", "self_ms", _L + "mueller_from_k"),
    (_L + "k_from_nm.calls", "calls", _L + "k_from_nm"),
    ("stokes.pair_geometry.calls", "calls", "stokes.pair_geometry"),
    ("stokes.pair_geometry.self_ms", "self_ms", "stokes.pair_geometry"),
    (_R + "quad_coeffs.calls", "calls", _R + "quad_coeffs"),
    (_R + "quad_coeffs.self_ms", "self_ms", _R + "quad_coeffs"),
    (_R + "k_from_expansion.calls", "calls", _R + "k_from_expansion"),
    (_R + "k_from_expansion.self_ms", "self_ms", _R + "k_from_expansion"),
    (_R + "solve_four.self_ms", "self_ms", _R + "solve_four"),
    (_R + "solve_four.roots_per_start", "counter_ratio",
     (_R + "solve_four.roots", _R + "solve_four.starts")),
    (_R + "solve_six.self_ms", "self_ms", _R + "solve_six"),
    (_R + "solve_six.valid_per_candidate", "counter_ratio",
     (_R + "solve_six.valid", _R + "solve_six.candidates")),
    (_R + "family_4d.self_ms", "self_ms", _R + "family_4d"),
    ("rotation.solve_two_3d.self_ms", "self_ms", "rotation.solve_two_3d"),
    ("rotation.family_3d.calls", "calls", "rotation.family_3d"),
    ("littlegroup.sample_little.self_ms", "self_ms",
     "littlegroup.sample_little"),
    ("littlegroup.little_element.accept_ratio", "ok_ratio",
     "littlegroup.little_element"),
    ("quadform.classify_signature.calls", "calls",
     "quadform.classify_signature"),
    ("quadform.classify_signature.self_ms", "self_ms",
     "quadform.classify_signature"),
    ("oracle.consistent_dataset.self_ms", "setup_self_ms",
     "oracle.consistent_dataset"),
    ("oracle.make_pair.accept_ratio", "setup_accept",
     ("oracle.make_pair.accepted", "oracle.make_pair")),
    ("serialize.dumps.self_ms", "self_ms", "serialize.dumps"),
    ("serialize.dumps.bytes", "counter", "serialize.dumps.bytes"),
    ("serialize.dataset_from_json.self_ms", "self_ms",
     "serialize.dataset_from_json"),
    ("cli.main.self_ms", "self_ms", "cli.main"),
]

UNITS = {"calls": "count", "self_ms": "ms", "setup_self_ms": "ms",
         "counter_ratio": "ratio", "ok_ratio": "ratio",
         "setup_accept": "ratio", "counter": "bytes"}


def _ratio(num, den):
    return num / den if den else 0.0


def span_metrics(tr, ops, setup_ops):
    """Every SPAN_METRICS value, per op over `ops` traced ops.

    Setup-phase values are divided by `setup_ops`, the number of ops that
    the traced generation built inputs for. A layer the workload never
    calls reads 0.
    """
    totals = layer_totals(tr)
    counters = tr.counters
    out = {}
    for metric, kind, src in SPAN_METRICS:
        if kind == "calls":
            value = totals.get((OP, src), (0, 0, 0.0))[0] / ops
        elif kind == "self_ms":
            value = totals.get((OP, src), (0, 0, 0.0))[2] * 1e3 / ops
        elif kind == "setup_self_ms":
            busy = totals.get((SETUP, src), (0, 0, 0.0))[2]
            value = busy * 1e3 / setup_ops
        elif kind == "counter_ratio":
            value = _ratio(counters[(OP, src[0])], counters[(OP, src[1])])
        elif kind == "ok_ratio":
            calls, oks, _ = totals.get((OP, src), (0, 0, 0.0))
            value = _ratio(oks, calls)
        elif kind == "setup_accept":
            value = _ratio(counters[(SETUP, src[0])],
                           totals.get((SETUP, src[1]), (0, 0, 0.0))[0])
        else:
            value = counters[(OP, src)] / ops
        out[metric] = (value, UNITS[kind])
    return out
