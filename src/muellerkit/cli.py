"""Command-line front end.

Subcommands: apply, family3, solve2, family4, solve4, solve6, diag,
little, gen, verify. All machine output is canonical JSON with every float
written as its shortest round-trip ``repr`` (see ``serialize``), so a
fixed input and seed produce byte-identical output across runs.

Each subcommand returns its output tree and exit code, and ``main``
writes the tree once, to stdout or ``--output``, after the subcommand
finishes. Exit codes: 0 success, 1 input/usage error (an unwritable
``--output`` included), 2 solver-reported inconsistency (no solution,
failed validation, degenerate data) or a NaN or infinite result, which
JSON cannot hold (``error: <command>: ...``, nothing written); on exit 2
only ``solve6`` and ``verify`` write output. Residuals |L s - s'| are
``lorentz.transit_residuals``, so the one of a printed ``mueller`` (on
every pair for ``solve2``/``family3``, on pair 0 for the lifted solvers)
is bit for bit what ``verify`` reads. MUELLERKIT_LOG=DEBUG logs the
traceback of a solver failure (exit 2) at debug level.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import littlegroup, oracle, quadform, relativistic, rotation, serialize
from .errors import MuellerKitError, NoValidCandidate
from .lorentz import apply as lorentz_apply
from .lorentz import is_lorentz, k_from_nm, mueller_from_k, residuals
from .stokes import MeasurementPair, StokesVector


class InputError(Exception):
    pass


def _load(path, parse, what):
    """parse(the JSON value in path), every failure an InputError."""
    try:
        with open(path) as f:
            d = json.load(f)
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"{path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(
            f"{path}: parse error at line {e.lineno}, column {e.colno}: "
            f"{e.msg}") from e
    except RecursionError as e:  # nesting past the interpreter's limit
        raise InputError(f"{path}: parse error: {e}") from e
    except ValueError as e:  # an integer literal past Python's digit limit
        raise InputError(f"{path}: bad {what}: {e}") from e
    try:
        return parse(d)
    except (KeyError, TypeError, ValueError, OverflowError,
            MuellerKitError) as e:
        raise InputError(f"{path}: bad {what}: {e}") from e


def _finite_matrix(d):
    L = serialize.mueller_from_json(d)
    if not np.isfinite(L.m).all():
        raise ValueError("non-finite entry")
    return L


def _load_dataset(path):
    return _load(path, lambda d: serialize.dataset_from_json(d)[0], "dataset")


def _load_stokes(path):
    return _load(path, serialize.stokes_from_json, "Stokes vector")


def _load_matrix(path):
    return _load(path, _finite_matrix, "matrix")


def _load_pairs(path, n, what):
    pairs = _load_dataset(path)
    if len(pairs) != n:
        raise InputError(f"{what} needs exactly {n} pairs, got {len(pairs)}")
    return pairs


def _finite(text):
    """argparse type: a float that is neither NaN nor infinite."""
    if not np.isfinite(v := float(text)):
        raise argparse.ArgumentTypeError(f"non-finite value {text!r}")
    return v


def _tolerance(text):
    """argparse type: a finite float >= 0."""
    if (v := _finite(text)) < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {v}")
    return v


def _natural(text):
    """argparse type: an integer >= 0."""
    if (v := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {v}")
    return v


def _solution_record(k, per_pair, **extra):
    return {
        "k": serialize.k_to_json(k),
        "mueller": serialize.mueller_to_json(mueller_from_k(k)),
        "residuals": list(per_pair),
        **extra,
    }


def _rotation_record(sol, pairs):
    k = k_from_nm(sol.real_parameter())
    return _solution_record(k, residuals(mueller_from_k(k), pairs),
                            gamma=sol.gamma)


# ------------------------------------------------------------- subcommands

def cmd_apply(args):
    L = _load_matrix(args.matrix)
    v = _load_stokes(args.stokes)
    return serialize.stokes_to_json(lorentz_apply(L, v)), 0


def cmd_family3(args):
    pairs = _load_pairs(args.data, 1, "family3")
    return _rotation_record(rotation.family_3d(pairs[0], args.gamma),
                            pairs), 0


def cmd_solve2(args):
    pairs = _load_pairs(args.data, 2, "solve2")
    sol = rotation.solve_two_3d(pairs[0], pairs[1], tol_cons=args.tol)
    return _rotation_record(sol, pairs), 0


def cmd_family4(args):
    pairs = _load_pairs(args.data, 1, "family4")
    sols = relativistic.family_4d(pairs[0], args.y, args.z, args.w)
    return {"solutions": [_solution_record(k, [res], e=list(e.as_array()))
                          for e, k, res in sols]}, 0


def cmd_solve4(args):
    pairs = _load_pairs(args.data, 4, "solve4")
    rep = relativistic.solve_four(pairs, tol=args.tol)
    roots = [_solution_record(k, res, e=list(e.as_array()),
                              residual_norm=fnorm,
                              jacobian_rank_deficient=rdef)
             for (e, fnorm), res, rdef, k in zip(
                 rep.roots, rep.per_pair_residuals, rep.rank_deficient,
                 rep.k)]
    return {"roots": roots, "n_starts": rep.n_starts}, 0


def _six_report_json(rep):
    candidates = [{"e": list(cand.e.as_array()),
                   **_solution_record(cand.k_list[0],
                                      cand.per_pair_residuals),
                   "k_spread": cand.k_spread}
                  for cand in rep.candidates]
    return {"u": list(rep.u), "candidates": candidates, "diagnostics": {
        "cramer": rep.cramer,
        "rank1_defects": list(rep.rank1_defects),
        "condition": rep.condition,
        "shared_solution": rep.shared_solution,
    }}


def cmd_solve6(args):
    pairs = _load_pairs(args.data, 6, "solve6")
    try:
        rep = relativistic.solve_six(pairs, tol_l=args.tol)
    except NoValidCandidate as e:
        print(f"error: {e}", file=sys.stderr)
        return {**_six_report_json(e.report), "error": str(e)}, 2
    return _six_report_json(rep), 0


def cmd_diag(args):
    out = {"pairs": []}
    for q in relativistic.quad_coeffs_list(_load_dataset(args.data)):
        out["pairs"].append({"coefficients": q,
                             **quadform.classify_signature(*q)._asdict()})
    return out, 0


def cmd_little(args):
    state = _load_stokes(args.stokes)
    els = littlegroup.sample_little(state, args.count, seed=args.seed)
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
    return out, 0


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
    # kind == "random": argparse's choices reject any other kind
    k = oracle.random_lorentz(rng=rng)
    return oracle.random_pairs(k, count, rng), k


def _csv_to_dataset(path):
    import csv
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
                        StokesVector(vals[0], np.array(vals[1:4])),
                        StokesVector(vals[4], np.array(vals[5:8]))))
                except (ValueError, MuellerKitError) as e:
                    raise InputError(f"{path}:{ln}: {e}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"{path}: {e}") from e
    return pairs


def cmd_gen(args):
    if args.to_json:
        pairs = _csv_to_dataset(args.to_json)
        meta = {"kind": "csv", "source": os.path.basename(args.to_json)}
    else:
        pairs, k = _gen_dataset(args.kind, args.seed, args.count)
        meta = {"kind": args.kind, "seed": str(args.seed),
                "truth_k": json.dumps(serialize.k_to_json(k))}
    return serialize.dataset_to_json(pairs, meta), 0


def cmd_verify(args):
    L = _load_matrix(args.matrix)
    pairs = _load_dataset(args.data)
    rows = [{"pair": i, "residual": res, "ok": res <= args.tol}
            for i, res in enumerate(residuals(L, pairs))]
    all_ok = all(row["ok"] for row in rows)
    return ({"residuals": rows, "lorentz": is_lorentz(L), "all_ok": all_ok},
            0 if all_ok else 2)


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
        tol=dict(type=_tolerance, default=rotation.TOL_CONS))
    add("family4", cmd_family4, data=dict(required=True), y=num, z=num, w=num)
    add("solve4", cmd_solve4,
        data=dict(required=True),
        tol=dict(type=_tolerance, default=1e-10))
    add("solve6", cmd_solve6,
        data=dict(required=True), tol=dict(type=_tolerance, default=1e-6))
    add("diag", cmd_diag, data=dict(required=True))
    seed = dict(type=_natural, default=0)
    add("little", cmd_little,
        stokes=dict(required=True), count=dict(type=_natural, default=10),
        seed=seed)
    add("gen", cmd_gen,
        kind=dict(default="random", choices=_GEN_KINDS),
        seed=seed, count=dict(type=_natural, default=4),
        to_json=dict(default=None, metavar="CSV",
                     help="convert a CSV pair table to a JSON dataset"))
    add("verify", cmd_verify,
        matrix=dict(required=True), data=dict(required=True),
        tol=dict(type=_tolerance, default=1e-8))
    return ap


def main(argv=None):
    level = os.environ.get("MUELLERKIT_LOG")
    if level:  # logging is imported only when it is switched on
        import logging
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO))
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # inf is exit 2
            tree, code = args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MuellerKitError as e:
        if level:
            logging.getLogger("muellerkit").debug("solver failure",
                                                  exc_info=True)
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    try:
        text = serialize.dumps(tree)
    except ValueError as e:  # a NaN or inf result: nothing is written
        print(f"error: {args.command}: {e}", file=sys.stderr)
        return 2
    if not args.output:
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w") as f:
            f.write(text)
    except OSError as e:
        print(f"error: {args.output}: {e.strerror}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
