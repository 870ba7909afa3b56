"""Problem and point files, and deterministic JSON reports.

Problem files are UTF-8 JSON objects with keys ``p`` (number or the string
``"inf"``), ``weights``, ``lower``/``upper`` (arrays whose entries are
numbers or the strings ``"-inf"``/``"inf"``), ``ineq`` (array of
``{"g": [...], "a": num}``), ``eq`` (array of ``{"h": [...], "b": num}``),
optional ``quad_ineq`` (array of ``{"Q": [[...]], "q": [...], "c": num}``)
and optional ``objective_gradient`` or ``objective_linear`` arrays.  Point
files are bare JSON arrays.

Report serialization is canonical: keys sorted, floats printed with 17
significant digits, infinities and NaNs as quoted strings.  Identical
inputs therefore produce byte-identical reports.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import FileFormatError
from .model import MeasureSpace, Problem, QuadraticConstraint

__all__ = [
    "load_problem",
    "load_point",
    "problem_to_dict",
    "canonical_json",
]


def _number(v, field: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise FileFormatError(f"field {field!r} must be a number, got {v!r}")
    try:
        out = float(v)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):
        # JSON NaN/Infinity literals; infinite bounds use the "inf" strings
        raise FileFormatError(f"field {field!r} must be finite, got {v!r}")
    return out


def _bound_entry(v, field: str) -> float:
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    if isinstance(v, str):
        raise FileFormatError(
            f"field {field!r} allows only the strings \"inf\"/\"-inf\", got {v!r}")
    return _number(v, field)


#: Entry types ``_vector`` accepts without looking at each entry (bool is
#: not among them, though it is an int subclass).
_NUMERIC = {float, int}
_INFINITE = {"inf": math.inf, "-inf": -math.inf}
_FLOAT = {float}


def _vector(v, field: str, bounds: bool = False) -> np.ndarray:
    """Float array from a JSON array, checked array-at-a-time.

    With ``bounds`` the strings ``"inf"``/``"-inf"`` stand for infinite
    sides.  Only when the whole-array check fails are the entries checked
    one by one, so that the error names the first bad one.
    """
    if not isinstance(v, list):
        raise FileFormatError(f"field {field!r} must be an array")
    entries = v
    n_infinite = 0
    if bounds:
        n_infinite = v.count("inf") + v.count("-inf")
        if n_infinite:
            entries = [_INFINITE.get(e, e) if type(e) is str else e for e in v]
    if set(map(type, entries)) <= _NUMERIC:
        try:
            out = np.array(entries, dtype=float)
        except OverflowError:  # an integer literal beyond the float range
            pass
        else:
            if np.count_nonzero(~np.isfinite(out)) == n_infinite:
                return out
    conv = _bound_entry if bounds else _number
    return np.array([conv(e, f"{field}[{k}]") for k, e in enumerate(v)],
                    dtype=float)


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                              f"{exc.start}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: JSON nested too deeply") from exc


def _rows(raw: dict, key: str) -> list:
    rows = raw.get(key, [])
    if not isinstance(rows, list):
        raise FileFormatError(f"field {key!r} must be an array")
    return rows


def load_problem(path: str):
    """Parse a problem file.

    Returns ``(problem, objective)`` where ``objective`` is ``None`` or a
    dict ``{"kind": "gradient" | "linear", "values": array}``.

    Raises
    ------
    FileFormatError
        With the offending field (or JSON line/column) in the message.
    """
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    for key in ("weights", "lower", "upper"):
        if key not in raw:
            raise FileFormatError(f"{path}: missing required field {key!r}")
    unknown = set(raw) - {"p", "weights", "lower", "upper", "ineq", "eq",
                          "quad_ineq", "objective_gradient", "objective_linear"}
    if unknown:
        raise FileFormatError(f"{path}: unknown field {sorted(unknown)[0]!r}")

    p_raw = raw.get("p", 2)
    p = math.inf if p_raw == "inf" else _number(p_raw, "p")
    weights = _vector(raw["weights"], "weights")
    space = MeasureSpace(weights)
    m = space.size
    lower = _vector(raw["lower"], "lower", bounds=True)
    upper = _vector(raw["upper"], "upper", bounds=True)

    ineq = []
    for k, entry in enumerate(_rows(raw, "ineq")):
        if not isinstance(entry, dict) or set(entry) != {"g", "a"}:
            raise FileFormatError(
                f"ineq[{k}] must be an object with exactly the keys g and a")
        ineq.append((_vector(entry["g"], f"ineq[{k}].g"),
                     _number(entry["a"], f"ineq[{k}].a")))
    eq = []
    for k, entry in enumerate(_rows(raw, "eq")):
        if not isinstance(entry, dict) or set(entry) != {"h", "b"}:
            raise FileFormatError(
                f"eq[{k}] must be an object with exactly the keys h and b")
        eq.append((_vector(entry["h"], f"eq[{k}].h"),
                   _number(entry["b"], f"eq[{k}].b")))
    nonlinear = []
    for k, entry in enumerate(_rows(raw, "quad_ineq")):
        if not isinstance(entry, dict) or set(entry) != {"Q", "q", "c"}:
            raise FileFormatError(
                f"quad_ineq[{k}] must be an object with exactly Q, q, c")
        qmat = entry["Q"]
        if (not isinstance(qmat, list) or len(qmat) != m
                or any(not isinstance(row, list) or len(row) != m for row in qmat)):
            raise FileFormatError(f"quad_ineq[{k}].Q must be a {m}x{m} array")
        Q = np.array([_vector(row, f"quad_ineq[{k}].Q[{i}]")
                      for i, row in enumerate(qmat)])
        nonlinear.append(QuadraticConstraint(
            space, Q, _vector(entry["q"], f"quad_ineq[{k}].q"),
            _number(entry["c"], f"quad_ineq[{k}].c")))

    if "objective_gradient" in raw and "objective_linear" in raw:
        raise FileFormatError(
            f"{path}: objective_gradient and objective_linear are exclusive")
    objective = None
    if "objective_gradient" in raw:
        objective = {"kind": "gradient",
                     "values": _vector(raw["objective_gradient"],
                                       "objective_gradient")}
    elif "objective_linear" in raw:
        objective = {"kind": "linear",
                     "values": _vector(raw["objective_linear"],
                                       "objective_linear")}
    if objective is not None and objective["values"].size != m:
        raise FileFormatError(
            f"{path}: objective array has length {objective['values'].size}, "
            f"expected {m}")

    try:
        prob = Problem(space, p, lower, upper, tuple(ineq), tuple(eq),
                       tuple(nonlinear))
    except Exception as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return prob, objective


def load_point(path: str) -> np.ndarray:
    """Parse a point file: a bare JSON array of numbers."""
    raw = _read_json(path)
    if not isinstance(raw, list):
        raise FileFormatError(f"{path}: point file must be a JSON array")
    return _vector(raw, "point")


def problem_to_dict(prob: Problem, objective=None) -> dict:
    """Problem as a JSON-ready dict in the problem-file schema."""
    out = {
        "p": "inf" if math.isinf(prob.p) else prob.p,
        "weights": prob.space.weights.tolist(),
        "lower": [_bound_out(v) for v in prob.lower.tolist()],
        "upper": [_bound_out(v) for v in prob.upper.tolist()],
        "ineq": [{"g": np.asarray(g, dtype=float).tolist(), "a": float(a)}
                 for g, a in prob.ineq],
        "eq": [{"h": np.asarray(h, dtype=float).tolist(), "b": float(b)}
               for h, b in prob.eq],
    }
    if prob.nonlinear:
        quads = []
        for con in prob.nonlinear:
            if not isinstance(con, QuadraticConstraint):
                raise FileFormatError(
                    "only quadratic smooth constraints can be written to a file")
            quads.append({"Q": con.Q.tolist(), "q": con.q.tolist(),
                          "c": float(con.c)})
        out["quad_ineq"] = quads
    if objective is not None:
        key = ("objective_gradient" if objective["kind"] == "gradient"
               else "objective_linear")
        out[key] = np.asarray(objective["values"], dtype=float).tolist()
    return out


def _bound_out(v: float):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _emit_float(v: float) -> str:
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return format(v, ".17g")


def _emit_list(obj) -> str:
    if set(map(type, obj)) <= _FLOAT and all(map(math.isfinite, obj)):
        return "[" + ",".join([format(v, ".17g") for v in obj]) + "]"
    return "[" + ",".join([_emit(v) for v in obj]) + "]"


def _emit_dict(obj) -> str:
    items = sorted((str(k), v) for k, v in obj.items())
    return "{" + ",".join([json.dumps(k) + ":" + _emit(v)
                           for k, v in items]) + "}"


def _emit(obj) -> str:
    kind = type(obj)
    if kind is float:
        return _emit_float(obj)
    if kind is list or kind is tuple:
        return _emit_list(obj)
    if kind is dict:
        return _emit_dict(obj)
    if obj is None or isinstance(obj, (bool, str, int)):
        return json.dumps(obj)
    if isinstance(obj, float):  # np.float64 and other float subclasses
        return _emit_float(obj)
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    if isinstance(obj, np.floating):
        return _emit_float(float(obj))
    if isinstance(obj, np.integer):
        return json.dumps(int(obj))
    if isinstance(obj, (list, tuple)):
        return _emit_list(obj)
    if isinstance(obj, dict):
        return _emit_dict(obj)
    raise FileFormatError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats,
    infinities as quoted strings, compact separators, trailing newline."""
    return _emit(obj) + "\n"
