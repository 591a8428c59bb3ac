"""JSON payload helpers shared by the command line and the file formats.

``stable_json_bytes`` is a deliberately small JSON emitter: keys are
sorted, floats are printed with 17 significant digits, and there is no
whitespace variation, so identical report objects produce identical
bytes.
"""

import json

import numpy as np

from .blaschke import BlaschkeProduct

__all__ = [
    "decode_blaschke_file",
    "decode_matrix_file",
    "encode_matrix",
    "load_json",
    "stable_json_bytes",
]


def load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def decode_blaschke_file(path) -> BlaschkeProduct:
    return BlaschkeProduct.from_json_dict(load_json(path))


def decode_matrix_file(path) -> np.ndarray:
    data = load_json(path)
    rows, cols = int(data["rows"]), int(data["cols"])
    entries = data["entries"]
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValueError(f"matrix payload does not match shape {rows}x{cols}")
    matrix = np.array(
        [[complex(re, im) for re, im in row] for row in entries], dtype=complex
    )
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix payload has a non-finite entry")
    return matrix


def encode_matrix(matrix) -> dict:
    matrix = np.asarray(matrix, dtype=complex)
    return {
        "rows": matrix.shape[0],
        "cols": matrix.shape[1],
        "entries": [
            [[float(x.real), float(x.imag)] for x in row] for row in matrix
        ],
    }


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float in report: {x}")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        inner = ",".join(f"{json.dumps(str(k))}:{_emit(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def stable_json_bytes(obj) -> bytes:
    """Byte-stable JSON: sorted keys, fixed float formatting, no whitespace."""
    return (_emit(obj) + "\n").encode("utf-8")
