"""Canonical JSON (de)serialization.

Floats are written with 17 significant digits ('%.17g'), which is lossless
for IEEE doubles, and emitted through a fixed key order, so serializing the
same objects always yields byte-identical text. Schemas are documented in
``docs/schemas.md``.
"""

import json

import numpy as np

from .lorentz import ComplexParameter, MuellerMatrix
from .stokes import MeasurementPair, StokesVector

_TOKEN = "\x01f:"


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _walk(obj):
    """Replace floats by tagged strings so the encoder cannot re-round them.
    A record (a named tuple) becomes an object of its fields in order."""
    if isinstance(obj, (float, np.floating)):
        return _TOKEN + _fmt(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {k: _walk(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_walk(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_walk(v) for v in obj.tolist()]
    return obj


def dumps(obj) -> str:
    """Canonical JSON text of a JSON-able tree (floats at 17 digits).

    Floats travel through the encoder as control-prefixed strings
    (escaped by json as \\u0001) and are spliced back in as bare numeric
    literals afterwards.
    """
    text = json.dumps(_walk(obj), indent=2, sort_keys=False)
    out = []
    i = 0
    quoted = '"\\u0001f:'
    while True:
        j = text.find(quoted, i)
        if j < 0:
            out.append(text[i:])
            break
        out.append(text[i:j])
        end = text.index('"', j + len(quoted))
        out.append(text[j + len(quoted):end])
        i = end + 1
    return "".join(out) + "\n"


def loads(text: str):
    return json.loads(text)


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
