"""JSON input/output for matrices, spaces and subspaces.

Matrix schema: {"rows": int, "cols": int, "data": [[[re, im], ...], ...]},
row-major with explicit complex pairs. A space file is {"gram": <matrix>},
a subspace file {"basis": <matrix>}. Output is written by a canonical
serializer (sorted nothing, insertion order, floats at 17 significant
digits) so identical inputs produce byte-identical reports.
"""

import json

import numpy as np

from .core import Tolerances, make_space
from .errors import ParseError


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
    except (KeyError, TypeError, ValueError) as exc:
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
    except json.JSONDecodeError as exc:
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


def tolerances_from_overrides(tol_rank=None, tol_num=None):
    base = Tolerances()
    return Tolerances(
        sym=base.sym,
        num=base.num if tol_num is None else float(tol_num),
        rank=base.rank if tol_rank is None else float(tol_rank),
        neutral=base.neutral,
    )


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def jsonable(value):
    """Coerce report values (numpy scalars/arrays included) to JSON types."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.ndim <= 1 and not np.iscomplexobj(value):
            return [float(v) for v in value]
        return matrix_to_json(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if value is None or isinstance(value, str):
        return value
    raise TypeError("cannot serialize %r" % type(value))


def _write_canonical(out, value):
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        if not np.isfinite(value):
            raise ValueError("non-finite float in report")
        out.append(format(value, ".17g"))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, list):
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
    else:
        raise TypeError("cannot serialize %r" % type(value))


def canonical_dumps(obj):
    """Deterministic JSON: insertion-ordered keys, floats at 17 digits."""
    out = []
    _write_canonical(out, jsonable(obj))
    return "".join(out)
