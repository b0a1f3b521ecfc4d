"""Command-line front end.

Subcommands: apply, family3, solve2, family4, solve4, solve6, diag,
little, gen, verify. All machine output is canonical JSON with floats at
17 significant digits (see ``serialize``), so a fixed input and seed
produce byte-identical output across runs.

Exit codes: 0 success, 1 input/usage error, 2 solver-reported
inconsistency (no solution, failed validation, degenerate data).
Set MUELLERKIT_LOG=DEBUG (or any logging level name) for progress
logging; MT_LOG is read as an alias when MUELLERKIT_LOG is unset.
"""

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from . import littlegroup, oracle, quadform, relativistic, rotation, serialize
from .errors import MuellerKitError, NoValidCandidate
from .lorentz import apply as lorentz_apply
from .lorentz import is_lorentz, mueller_from_k
from .stokes import MeasurementPair

log = logging.getLogger("muellerkit")


class InputError(Exception):
    pass


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise InputError(f"{path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(
            f"{path}: parse error at line {e.lineno}, column {e.colno}: "
            f"{e.msg}") from e


def _load_dataset(path):
    d = _load_json(path)
    try:
        return serialize.dataset_from_json(d)
    except (KeyError, TypeError, ValueError, MuellerKitError) as e:
        raise InputError(f"{path}: bad dataset: {e}") from e


def _load_stokes(path):
    d = _load_json(path)
    try:
        return serialize.stokes_from_json(d)
    except (KeyError, TypeError, ValueError, MuellerKitError) as e:
        raise InputError(f"{path}: bad Stokes vector: {e}") from e


def _load_matrix(path):
    d = _load_json(path)
    try:
        L = serialize.mueller_from_json(d)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{path}: bad matrix: {e}") from e
    if not np.isfinite(L.m).all():
        raise InputError(f"{path}: bad matrix: non-finite entry")
    return L


def _finite(text):
    """argparse type: a float that is neither NaN nor infinite."""
    if not np.isfinite(v := float(text)):
        raise argparse.ArgumentTypeError(f"non-finite value {text!r}")
    return v


def _emit(obj, args):
    text = serialize.dumps(obj)
    if getattr(args, "output", None):
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _need_pairs(pairs, n, what):
    if len(pairs) != n:
        raise InputError(f"{what} needs exactly {n} pairs, got {len(pairs)}")


def _solution_record(k, residuals):
    return {
        "k": serialize.k_to_json(k),
        "mueller": serialize.mueller_to_json(mueller_from_k(k)),
        "residuals": list(residuals),
    }


# ------------------------------------------------------------- subcommands

def cmd_apply(args):
    L = _load_matrix(args.matrix)
    v = _load_stokes(args.stokes)
    _emit(serialize.stokes_to_json(lorentz_apply(L, v)), args)
    return 0


def cmd_family3(args):
    pairs, _ = _load_dataset(args.data)
    _need_pairs(pairs, 1, "family3")
    sol = rotation.family_3d(pairs[0], args.gamma)
    k = rotation.k_from_nm(sol.real_parameter())
    res = relativistic._transitivity_residual(sol.matrix(), pairs[0])
    out = _solution_record(k, [res])
    out["gamma"] = sol.gamma
    _emit(out, args)
    return 0


def cmd_solve2(args):
    pairs, _ = _load_dataset(args.data)
    _need_pairs(pairs, 2, "solve2")
    sol = rotation.solve_two_3d(pairs[0], pairs[1], tol_cons=args.tol)
    k = rotation.k_from_nm(sol.real_parameter())
    L = sol.matrix()
    res = [relativistic._transitivity_residual(L, p) for p in pairs]
    out = _solution_record(k, res)
    out["gamma"] = sol.gamma
    _emit(out, args)
    return 0


def cmd_family4(args):
    pairs, _ = _load_dataset(args.data)
    _need_pairs(pairs, 1, "family4")
    sols = relativistic.family_4d(pairs[0], args.y, args.z, args.w)
    out = {"solutions": []}
    for e, k, res in sols:
        rec = _solution_record(k, [res])
        rec["e"] = list(e.as_array())
        out["solutions"].append(rec)
    _emit(out, args)
    return 0


def cmd_solve4(args):
    pairs, _ = _load_dataset(args.data)
    _need_pairs(pairs, 4, "solve4")
    rep = relativistic.solve_four(pairs, tol=args.tol)
    out = {"roots": [], "n_starts": rep.n_starts}
    for (e, fnorm), res, rdef, k in zip(rep.roots, rep.per_pair_residuals,
                                        rep.rank_deficient, rep.k):
        rec = _solution_record(k, res)
        rec["e"] = list(e.as_array())
        rec["residual_norm"] = fnorm
        rec["jacobian_rank_deficient"] = rdef
        out["roots"].append(rec)
    _emit(out, args)
    return 0


def _six_report_json(rep):
    out = {"u": list(rep.u), "candidates": [], "diagnostics": {
        "cramer": rep.cramer,
        "rank1_defects": list(rep.rank1_defects),
        "condition": rep.condition,
        "shared_solution": rep.shared_solution,
    }}
    for cand in rep.candidates:
        out["candidates"].append({
            "e": list(cand.e.as_array()),
            "k": serialize.k_to_json(cand.k_list[0]) if cand.k_list else None,
            "mueller": (serialize.mueller_to_json(
                mueller_from_k(cand.k_list[0])) if cand.k_list else None),
            "residuals": list(cand.per_pair_residuals),
            "k_spread": cand.k_spread,
        })
    return out


def cmd_solve6(args):
    pairs, _ = _load_dataset(args.data)
    _need_pairs(pairs, 6, "solve6")
    try:
        rep = relativistic.solve_six(pairs, tol_l=args.tol)
    except NoValidCandidate as e:
        if e.report is not None:
            out = _six_report_json(e.report)
            out["error"] = str(e)
            _emit(out, args)
        print(f"error: {e}", file=sys.stderr)
        return 2
    _emit(_six_report_json(rep), args)
    return 0


def cmd_diag(args):
    pairs, _ = _load_dataset(args.data)
    out = {"pairs": []}
    for p in pairs:
        q = relativistic.quad_coeffs(p)
        rep = quadform.classify_signature(q.a, q.b, q.c,
                                          q.alpha, q.beta, q.sigma)
        out["pairs"].append({
            "coefficients": {"a": q.a, "b": q.b, "c": q.c,
                             "alpha": q.alpha, "beta": q.beta,
                             "sigma": q.sigma},
            "xy": {"F": rep.xy.F, "G": rep.xy.G, "phi": rep.xy.phi},
            "zw": {"F": rep.zw.F, "G": rep.zw.G, "phi": rep.zw.phi},
            "signs": list(rep.signs),
            "boundary": rep.boundary,
            "definite_xy": rep.definite_xy,
            "definite_zw": rep.definite_zw,
        })
    _emit(out, args)
    return 0


def cmd_little(args):
    state = _load_stokes(args.stokes)
    try:
        els = littlegroup.sample_little(state, args.count, seed=args.seed)
    except ValueError as e:
        raise InputError(f"--count: {e}") from e
    out = {"elements": []}
    state_arr = state.as_array()
    for el in els:
        L = el.matrix()
        out["elements"].append({
            "n": list(el.n),
            "k": serialize.k_to_json(el.k),
            "mueller": serialize.mueller_to_json(L),
            "fix_residual": float(np.max(np.abs(L.m @ state_arr - state_arr))),
        })
    _emit(out, args)
    return 0


_GEN_KINDS = ("rotation2", "consistent4", "consistent6", "random")


def _gen_dataset(kind, seed, count):
    rng = np.random.default_rng(seed)
    if kind == "rotation2":
        k, p1, p2 = oracle.rotation_dataset(rng=rng)
        return [p1, p2], k
    if kind == "consistent4":
        k, _, pairs = oracle.consistent_dataset(4, rng=rng)
        return pairs, k
    if kind == "consistent6":
        k, _, pairs = oracle.consistent_dataset(6, rng=rng)
        return pairs, k
    if kind == "random":
        k = oracle.random_lorentz(rng=rng)
        return oracle.random_pairs(k, count, rng), k
    raise InputError(f"unknown kind {kind!r}; choose from {_GEN_KINDS}")


def _csv_to_dataset(path):
    pairs = []
    try:
        with open(path, newline="") as f:
            for ln, row in enumerate(csv.reader(f), 1):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                if len(row) != 8:
                    raise InputError(
                        f"{path}:{ln}: expected 8 fields "
                        "(s0,s1,s2,s3,s0',s1',s2',s3'), got "
                        f"{len(row)}")
                try:
                    vals = [float(x) for x in row]
                    pairs.append(MeasurementPair(
                        serialize.StokesVector(vals[0], np.array(vals[1:4])),
                        serialize.StokesVector(vals[4], np.array(vals[5:8]))))
                except (ValueError, MuellerKitError) as e:
                    raise InputError(f"{path}:{ln}: {e}") from None
    except OSError as e:
        raise InputError(f"{path}: {e}") from e
    return pairs


def cmd_gen(args):
    if args.to_json:
        pairs = _csv_to_dataset(args.to_json)
        meta = {"kind": "csv", "source": os.path.basename(args.to_json)}
    else:
        pairs, k = _gen_dataset(args.kind, args.seed, args.count)
        meta = {"kind": args.kind, "seed": str(args.seed),
                "truth_k": json.dumps(
                    {"re": [serialize._fmt(v) for v in k.k.real],
                     "im": [serialize._fmt(v) for v in k.k.imag]})}
    _emit(serialize.dataset_to_json(pairs, meta), args)
    return 0


def cmd_verify(args):
    L = _load_matrix(args.matrix)
    pairs, _ = _load_dataset(args.data)
    rows = []
    all_ok = True
    for i, p in enumerate(pairs):
        res = relativistic._transitivity_residual(L, p)
        ok = res <= args.tol
        all_ok = all_ok and ok
        rows.append({"pair": i, "residual": res, "ok": ok})
    rep = is_lorentz(L)
    _emit({"residuals": rows,
           "lorentz": {"ok": rep.ok, "ortho_residual": rep.ortho_residual,
                       "det_residual": rep.det_residual, "m00": rep.m00},
           "all_ok": all_ok}, args)
    return 0 if all_ok else 2


# ------------------------------------------------------------------ main

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="muellerkit",
        description="Reconstruct Mueller (Lorentz) matrices from "
                    "polarization measurement pairs.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        for flag, kw in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--output", help="write JSON here instead of stdout")
        return p

    add("apply", cmd_apply,
        matrix=dict(required=True), stokes=dict(required=True))
    num = dict(type=_finite, required=True)
    add("family3", cmd_family3, data=dict(required=True), gamma=num)
    add("solve2", cmd_solve2,
        data=dict(required=True),
        tol=dict(type=_finite, default=rotation.TOL_CONS))
    add("family4", cmd_family4, data=dict(required=True), y=num, z=num, w=num)
    add("solve4", cmd_solve4,
        data=dict(required=True),
        seed=dict(type=int, default=0, help="ignored (the solve is exact)"),
        starts=dict(type=int, default=64,
                    help="ignored (the solve is exact)"),
        tol=dict(type=_finite, default=1e-10))
    add("solve6", cmd_solve6,
        data=dict(required=True), tol=dict(type=_finite, default=1e-6))
    add("diag", cmd_diag, data=dict(required=True))
    add("little", cmd_little,
        stokes=dict(required=True), count=dict(type=int, default=10),
        seed=dict(type=int, default=0))
    add("gen", cmd_gen,
        kind=dict(default="random", choices=_GEN_KINDS),
        seed=dict(type=int, default=0), count=dict(type=int, default=4),
        to_json=dict(default=None, metavar="CSV",
                     help="convert a CSV pair table to a JSON dataset"))
    add("verify", cmd_verify,
        matrix=dict(required=True), data=dict(required=True),
        tol=dict(type=_finite, default=1e-8))
    return ap


def main(argv=None):
    level = os.environ.get("MUELLERKIT_LOG") or os.environ.get("MT_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO))
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MuellerKitError as e:
        log.debug("solver failure", exc_info=True)
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
