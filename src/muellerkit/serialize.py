"""Canonical JSON (de)serialization.

``dumps`` writes a tree in one recursive pass. Floats (Python and numpy)
are written as '%.17g', which is lossless for IEEE doubles; a record (a
named tuple) is an object of its fields in field order, a dict an object
in its key order, a list, tuple or ndarray a list; strings, keys, ints,
bools and None are written by ``json.dumps``. The layout is that of
``json.dumps(indent=2)`` with a trailing newline, so serializing the same
objects always yields byte-identical text. Schemas are documented in
``docs/schemas.md``.
"""

import json
import math

import numpy as np

from .lorentz import ComplexParameter, MuellerMatrix
from .stokes import MeasurementPair, StokesVector


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write(obj, out, nl):
    """Append the text of obj to out; nl is a newline and obj's indent."""
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite number {obj} has no JSON form")
        out.append(_fmt(obj))
        return
    if isinstance(obj, np.integer):
        obj = int(obj)
    elif isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, tuple) and hasattr(obj, "_fields"):
        obj = obj._asdict()
    if not isinstance(obj, (dict, list, tuple)):
        out.append(json.dumps(obj))
        return
    is_dict = isinstance(obj, dict)
    if not obj:
        out.append("{}" if is_dict else "[]")
        return
    inner = nl + "  "
    sep = ("{" if is_dict else "[") + inner
    if is_dict:
        for k, v in obj.items():
            out += (sep, json.dumps(str(k)), ": ")
            _write(v, out, inner)
            sep = "," + inner
    else:
        for v in obj:
            out.append(sep)
            _write(v, out, inner)
            sep = "," + inner
    out += (nl, "}" if is_dict else "]")


def dumps(obj) -> str:
    """Canonical JSON text of a JSON-able tree (floats at 17 digits).
    Raises ValueError on a NaN or infinite float, which JSON cannot hold."""
    out = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------- objects

def stokes_to_json(v: StokesVector) -> dict:
    return {"s0": v.s0, "s": list(v.s)}


def stokes_from_json(d) -> StokesVector:
    return StokesVector(float(d["s0"]), np.asarray(d["s"], float))


def pair_to_json(p: MeasurementPair) -> dict:
    return {"in": stokes_to_json(p.input), "out": stokes_to_json(p.output)}


def pair_from_json(d) -> MeasurementPair:
    return MeasurementPair(stokes_from_json(d["in"]),
                           stokes_from_json(d["out"]))


def dataset_to_json(pairs, metadata=None) -> dict:
    return {"pairs": [pair_to_json(p) for p in pairs],
            "metadata": dict(metadata or {})}


def dataset_from_json(d):
    return ([pair_from_json(p) for p in d["pairs"]],
            d.get("metadata", {}))


def k_to_json(k: ComplexParameter) -> dict:
    return {"re": list(k.k.real), "im": list(k.k.imag)}


def k_from_json(d) -> ComplexParameter:
    return ComplexParameter(np.asarray(d["re"], float)
                            + 1j * np.asarray(d["im"], float))


def mueller_to_json(L: MuellerMatrix) -> dict:
    return {"m": list(L.m.reshape(16))}


def mueller_from_json(d) -> MuellerMatrix:
    return MuellerMatrix(np.asarray(d["m"], float).reshape(4, 4))
