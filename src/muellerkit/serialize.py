"""Canonical JSON (de)serialization.

``dumps`` is ``json.dumps(indent=2)`` plus a trailing newline, on the
tree with records (named tuples) turned into objects of their fields in
field order, tuples and ndarrays into lists and numpy scalars into Python
numbers. A float is written as its shortest round-trip ``repr``, which is
lossless for every IEEE double and keeps the ``.0`` of an integral float
and the sign of ``-0.0``, so serializing the same objects always yields
byte-identical text. Schemas are documented in ``docs/schemas.md``.
"""

import json
import math

import numpy as np

from .lorentz import ComplexParameter, MuellerMatrix
from .stokes import MeasurementPair, StokesVector


def _plain(obj):
    """obj as a tree of dicts, lists and Python scalars; a record (a named
    tuple) is a dict of its fields in field order."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite number {obj} has no JSON form")
        return float(obj)
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _plain(obj.tolist())
    return obj


def dumps(obj) -> str:
    """Canonical JSON text of a JSON-able tree, with a trailing newline.
    Raises ValueError on a NaN or infinite float, which JSON cannot hold."""
    return json.dumps(_plain(obj), indent=2) + "\n"


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
