"""JSON input/output for matrices, spaces and subspaces.

Matrix schema: {"rows": int, "cols": int, "data": [[[re, im], ...], ...]},
row-major with explicit complex pairs. A space file is {"gram": <matrix>},
a subspace file {"basis": <matrix>}. One canonical writer takes report values
as the library makes them (numpy scalars, complex numbers as [re, im], real
vectors as lists, other arrays and any value with an array `.matrix`, such as
an Operator or a Projection, as matrices), keeps insertion order and prints
floats at 17 digits: same input, same bytes.
"""

import json

import numpy as np

from .core import make_space
from .errors import KreinError, ParseError


def matrix_to_json(a):
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    rows, cols = a.shape
    data = [[[float(v.real), float(v.imag)] for v in row] for row in a]
    return {"rows": rows, "cols": cols, "data": data}


def matrix_from_json(obj):
    if not isinstance(obj, dict):
        raise ParseError("matrix object must be a JSON dict")
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError("matrix object needs integer rows/cols and data") from exc
    if rows < 0 or cols < 0 or not isinstance(data, list) or len(data) != rows:
        raise ParseError("matrix data does not match declared shape")
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError("matrix row %d does not match declared shape" % i)
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise ParseError("matrix entries must be [re, im] pairs")
            try:
                out[i, j] = complex(float(cell[0]), float(cell[1]))
            except (TypeError, ValueError) as exc:
                raise ParseError("matrix entry (%d, %d) is not numeric" % (i, j)) from exc
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        raise ParseError("matrix entry (%d, %d) is not finite" % tuple(bad[0]))
    return out


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    except (ValueError, RecursionError) as exc:  # also not UTF-8, or nested too deep
        raise ParseError("invalid JSON in %s: %s" % (path, exc)) from exc


def load_matrix(path):
    return matrix_from_json(load_json(path))


def load_space(path, tol=None):
    obj = load_json(path)
    if not isinstance(obj, dict) or "gram" not in obj:
        raise ParseError("space file must be {\"gram\": <matrix>}")
    return make_space(matrix_from_json(obj["gram"]), tol)


def load_subspace_basis(path):
    obj = load_json(path)
    if not isinstance(obj, dict) or "basis" not in obj:
        raise ParseError("subspace file must be {\"basis\": <matrix>}")
    return matrix_from_json(obj["basis"])


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _write_canonical(out, value):
    if value is None:
        out.append("null")
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            raise KreinError("report value %r is not finite" % float(value))
        out.append(format(float(value), ".17g"))
    elif isinstance(value, (complex, np.complexfloating)):
        _write_canonical(out, [float(value.real), float(value.imag)])
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(",")
            _write_canonical(out, v)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _write_canonical(out, v)
        out.append("}")
    elif isinstance(value, np.ndarray):
        real_vector = value.ndim == 1 and not np.iscomplexobj(value)
        _write_canonical(out, [float(v) for v in value] if real_vector else matrix_to_json(value))
    elif isinstance(getattr(value, "matrix", None), np.ndarray):  # Operator, Projection
        _write_canonical(out, value.matrix)
    else:
        raise TypeError("cannot serialize %r" % type(value))


def canonical_dumps(obj):
    """Deterministic JSON: insertion-ordered keys, floats at 17 digits."""
    out = []
    _write_canonical(out, obj)
    return "".join(out)
