"""JSON payload helpers shared by the command line and the file formats.

``stable_json_bytes`` is a deliberately small JSON emitter: keys are
sorted, floats are printed with 17 significant digits, and there is no
whitespace variation, so identical report objects produce identical
bytes.
"""

import json
import numbers

from .blaschke import BlaschkeProduct, _json_field

__all__ = [
    "decode_blaschke_file",
    "decode_matrix",
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


def decode_matrix_file(path):
    """The matrix of an ``encode_matrix`` payload file."""
    return decode_matrix(load_json(path))


def decode_matrix(data):
    """The ``rows x cols`` complex ndarray of a parsed ``encode_matrix``
    payload.  A payload of the wrong shape (not an object, a non-integer
    ``rows`` or ``cols``, an entry that is not a ``[re, im]`` pair of
    numbers) is a ValueError naming the field."""
    import numpy as np

    rows = _json_field(data, "rows", int, "matrix payload")
    cols = _json_field(data, "cols", int, "matrix payload")
    entries = _json_field(data, "entries", list, "matrix payload")
    if cols < 0 or len(entries) != rows or any(not isinstance(r, list) or len(r) != cols for r in entries):
        raise ValueError(f"matrix payload does not match shape {rows}x{cols}")
    matrix = np.array(
        [[_matrix_entry(entry, i, j) for j, entry in enumerate(row)] for i, row in enumerate(entries)],
        dtype=complex,
    ).reshape(rows, cols)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix payload has a non-finite entry")
    return matrix


def _matrix_entry(entry, i: int, j: int) -> complex:
    """The complex value of the ``[re, im]`` pair at ``entries[i][j]``."""
    if isinstance(entry, list) and len(entry) == 2:
        if not any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in entry):
            try:
                return complex(*entry)
            except OverflowError:
                pass
    raise ValueError(
        f"matrix payload: entries[{i}][{j}] must be a [re, im] pair of numbers; got {json.dumps(entry)}"
    )


def encode_matrix(matrix) -> dict:
    import numpy as np

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
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return _format_float(float(obj))
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        inner = ",".join(f"{json.dumps(str(k))}:{_emit(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    # numpy scalars, without importing numpy: np.integer registers as
    # Integral and np.floating as Real; np.bool_ is neither
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return _format_float(float(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def stable_json_bytes(obj) -> bytes:
    """Byte-stable JSON: sorted keys, fixed float formatting, no whitespace."""
    return (_emit(obj) + "\n").encode("utf-8")
