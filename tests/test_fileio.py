"""Problem and point file parsing plus deterministic JSON output."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slaterkit import fileio
from slaterkit import (
    FileFormatError,
    canonical_json,
    load_point,
    load_problem,
    problem_to_dict,
)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


FULL = {
    "p": 2,
    "weights": [1.0, 2.0],
    "lower": [0.0, "-inf"],
    "upper": ["inf", 1.0],
    "ineq": [{"g": [1.0, 0.0], "a": 3.0}],
    "eq": [{"h": [0.0, 1.0], "b": 0.5}],
    "objective_gradient": [1.0, -1.0],
}


class TestLoadProblem:
    """Parsing the problem-file schema."""

    def test_round_trip(self, tmp_path):
        prob, objective = load_problem(_write(tmp_path, "p.json", FULL))
        again, obj2 = load_problem(_write(
            tmp_path, "q.json",
            json.dumps(problem_to_dict(prob, objective))))
        assert again.p == prob.p == 2.0
        np.testing.assert_array_equal(again.space.weights, [1.0, 2.0])
        np.testing.assert_array_equal(again.lower, prob.lower)
        np.testing.assert_array_equal(again.upper, prob.upper)
        np.testing.assert_array_equal(again.ineq[0][0], [1.0, 0.0])
        assert again.eq[0][1] == 0.5
        assert obj2["kind"] == objective["kind"] == "gradient"
        np.testing.assert_array_equal(obj2["values"], objective["values"])

    def test_infinite_bounds(self, tmp_path):
        prob, _ = load_problem(_write(tmp_path, "p.json", FULL))
        assert prob.lower[1] == -math.inf
        assert prob.upper[0] == math.inf

    def test_p_accepts_inf_and_defaults_to_two(self, tmp_path):
        base = {"weights": [1.0], "lower": [0.0], "upper": [1.0]}
        prob, _ = load_problem(_write(tmp_path, "a.json",
                                      dict(base, p="inf")))
        assert prob.p == math.inf
        prob, _ = load_problem(_write(tmp_path, "b.json", base))
        assert prob.p == 2.0

    def test_quadratic_rows(self, tmp_path):
        payload = {"weights": [1.0], "lower": [0.0], "upper": [2.0],
                   "quad_ineq": [{"Q": [[2.0]], "q": [0.0], "c": -1.0}]}
        prob, _ = load_problem(_write(tmp_path, "q.json", payload))
        con = prob.nonlinear[0]
        assert con.value(np.array([1.0])) == pytest.approx(0.0)
        assert con.value(np.array([2.0])) == pytest.approx(3.0)
        np.testing.assert_allclose(con.grad(np.array([1.0])), [2.0])

    def test_both_objectives_rejected(self, tmp_path):
        payload = dict(FULL, objective_linear=[1.0, 1.0])
        with pytest.raises(FileFormatError, match="exclusive"):
            load_problem(_write(tmp_path, "p.json", payload))

    def test_unknown_field_rejected(self, tmp_path):
        payload = dict(FULL, extra=[1])
        with pytest.raises(FileFormatError, match="unknown field 'extra'"):
            load_problem(_write(tmp_path, "p.json", payload))

    def test_missing_field_rejected(self, tmp_path):
        payload = {k: v for k, v in FULL.items() if k != "upper"}
        with pytest.raises(FileFormatError, match="'upper'"):
            load_problem(_write(tmp_path, "p.json", payload))

    def test_malformed_json_reports_position(self, tmp_path):
        path = _write(tmp_path, "p.json", '{\n  "weights": [1.0,]\n}\n')
        with pytest.raises(FileFormatError, match="line 2 column"):
            load_problem(path)

    def test_length_mismatch_rejected(self, tmp_path):
        payload = dict(FULL, lower=[0.0])
        with pytest.raises(FileFormatError):
            load_problem(_write(tmp_path, "p.json", payload))
        payload = dict(FULL, ineq=[{"g": [1.0], "a": 0.0}])
        with pytest.raises(FileFormatError):
            load_problem(_write(tmp_path, "p.json", payload))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError, match="cannot read"):
            load_problem(str(tmp_path / "absent.json"))

    def test_binary_file_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_bytes(b'{"weights": [1.0\xff]}')
        with pytest.raises(FileFormatError, match="not UTF-8 text"):
            load_problem(str(path))

    def test_deep_nesting_rejected(self, tmp_path):
        path = _write(tmp_path, "x.json", "[" * 100_000 + "]" * 100_000)
        with pytest.raises(FileFormatError, match="nested too deeply"):
            load_point(path)

    def test_stray_keys_in_rows_rejected(self, tmp_path):
        payload = dict(FULL, ineq=[{"g": [1.0, 0.0], "a": 0.0, "note": 1}])
        with pytest.raises(FileFormatError, match=r"ineq\[0\]"):
            load_problem(_write(tmp_path, "p.json", payload))


#: Problem files with one bad entry each, as JSON text, and the message
#: naming that entry.
_BIG = "1" + "0" * 400
_BAD_ENTRIES = {
    "bool": ('{"weights": [1.0, true], "lower": [0, 0], "upper": [1, 1]}',
             "field 'weights[1]' must be a number, got True"),
    "string-weight": ('{"weights": [1.0, "2"], "lower": [0, 0], "upper": [1, 1]}',
                      "field 'weights[1]' must be a number, got '2'"),
    "inf-outside-bounds": (
        '{"weights": [1.0, 1.0], "lower": [0, 0], "upper": [1, 1], '
        '"objective_gradient": [1.0, "inf"]}',
        "field 'objective_gradient[1]' must be a number, got 'inf'"),
    "nan-literal": ('{"weights": [1.0, NaN], "lower": [0, 0], "upper": [1, 1]}',
                    "field 'weights[1]' must be finite, got nan"),
    "infinity-literal-bound": (
        '{"weights": [1.0, 1.0], "lower": ["-inf", Infinity], "upper": [1, 1]}',
        "field 'lower[1]' must be finite, got inf"),
    "unknown-bound-string": (
        '{"weights": [1.0, 1.0], "lower": [0, "nan"], "upper": [1, 1]}',
        "field 'lower[1]' allows only the strings \"inf\"/\"-inf\", got 'nan'"),
    "integer-beyond-float": (
        '{"weights": [1.0, ' + _BIG + '], "lower": [0, 0], "upper": [1, 1]}',
        f"field 'weights[1]' must be finite, got {_BIG}"),
    "quadratic-matrix": (
        '{"weights": [1.0, 1.0], "lower": [0, 0], "upper": [1, 1], '
        '"quad_ineq": [{"Q": [[1, 0], [false, 1]], "q": [0, 0], "c": -1}]}',
        "field 'quad_ineq[0].Q[1][0]' must be a number, got False"),
    "quadratic-vector": (
        '{"weights": [1.0, 1.0], "lower": [0, 0], "upper": [1, 1], '
        '"quad_ineq": [{"Q": [[1, 0], [0, 1]], "q": [0, null], "c": -1}]}',
        "field 'quad_ineq[0].q[1]' must be a number, got None"),
}


class TestBadEntries:
    """Each bad entry is named, with its index, in the error message."""

    @pytest.mark.parametrize("case", sorted(_BAD_ENTRIES))
    def test_problem_entry(self, tmp_path, case):
        text, message = _BAD_ENTRIES[case]
        with pytest.raises(FileFormatError) as info:
            load_problem(_write(tmp_path, "p.json", text))
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ('[0.5, [1.0]]', "field 'point[1]' must be a number, got [1.0]"),
        ('[0.5, -' + _BIG + ']', f"field 'point[1]' must be finite, got -{_BIG}"),
    ])
    def test_point_entry(self, tmp_path, text, message):
        with pytest.raises(FileFormatError) as info:
            load_point(_write(tmp_path, "x.json", text))
        assert str(info.value) == message

    @pytest.mark.parametrize("key", ["ineq", "eq", "quad_ineq"])
    def test_row_list_must_be_an_array(self, tmp_path, key):
        payload = dict(FULL, **{key: 5})
        with pytest.raises(FileFormatError) as info:
            load_problem(_write(tmp_path, "p.json", payload))
        assert str(info.value) == f"field {key!r} must be an array"

    def test_first_bad_entry_is_named(self, tmp_path):
        text = '{"weights": [1.0, 1.0, 1.0], "lower": [0, NaN, "x"], "upper": [1, 1, 1]}'
        with pytest.raises(FileFormatError, match=r"^field 'lower\[1\]' must be finite"):
            load_problem(_write(tmp_path, "p.json", text))


def _entry_loop(v, field, bounds):
    """The per-entry parse that ``fileio._vector`` replaces: array or message."""
    conv = fileio._bound_entry if bounds else fileio._number
    try:
        return np.array([conv(e, f"{field}[{k}]") for k, e in enumerate(v)],
                        dtype=float)
    except FileFormatError as exc:
        return str(exc)


_entries = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-10, 10),
    st.integers(min_value=2 ** 1023, max_value=2 ** 1025).map(lambda n: n * (-1) ** n),
    st.booleans(), st.none(), st.sampled_from(["inf", "-inf", "nan", "1"]),
    st.just([1.0]))


class TestVectorMatchesEntryLoop:
    """The whole-array parse gives the per-entry loop's array or message."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_entries, max_size=6) | st.lists(st.floats(-1e300, 1e300), max_size=6),
           st.booleans())
    def test_same_result(self, v, bounds):
        try:
            got = fileio._vector(v, "f", bounds)
        except FileFormatError as exc:
            got = str(exc)
        want = _entry_loop(v, "f", bounds)
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, np.ndarray) and got.dtype == float
            assert got.tobytes() == want.tobytes()


class TestLoadPoint:
    """Point files are bare JSON arrays."""

    def test_bare_array(self, tmp_path):
        np.testing.assert_array_equal(
            load_point(_write(tmp_path, "x.json", [0.5, 1.0])), [0.5, 1.0])

    def test_object_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="array"):
            load_point(_write(tmp_path, "x.json", {"x": [1.0]}))

    def test_non_numeric_entry_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match=r"point\[1\]"):
            load_point(_write(tmp_path, "x.json", [0.5, "a"]))


class TestCanonicalJson:
    """Stable text for report payloads."""

    def test_sorted_keys_and_compact(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'

    def test_float_precision_round_trips(self):
        val = math.log(8)
        text = canonical_json({"v": val})
        assert json.loads(text)["v"] == val

    def test_special_values_quoted(self):
        assert canonical_json([math.inf, -math.inf, math.nan]) == \
            '["inf","-inf","nan"]\n'

    def test_numpy_scalars_and_arrays(self):
        text = canonical_json({"a": np.array([1.0, 2.0]),
                               "n": np.int64(3), "x": np.float64(0.5)})
        assert text == '{"a":[1,2],"n":3,"x":0.5}\n'

    def test_deterministic(self):
        payload = {"z": [1.0, {"k": math.pi}], "a": "text", "m": None}
        assert canonical_json(payload) == canonical_json(payload)

    def test_unserializable_rejected(self):
        with pytest.raises(FileFormatError):
            canonical_json({"f": object()})


def _emit_reference(obj) -> str:
    """Report text as written before ``fileio._emit`` dispatched on type."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return json.dumps(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return '"nan"'
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return format(obj, ".17g")
    if isinstance(obj, np.ndarray):
        return _emit_reference(obj.tolist())
    if isinstance(obj, np.floating):
        return _emit_reference(float(obj))
    if isinstance(obj, np.integer):
        return json.dumps(int(obj))
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit_reference(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted((str(k), v) for k, v in obj.items())
        return "{" + ",".join(json.dumps(k) + ":" + _emit_reference(v)
                              for k, v in items) + "}"
    raise TypeError(type(obj).__name__)


_leaves = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(), st.booleans(),
    st.none(), st.text(max_size=3), st.floats().map(np.float64),
    st.integers(-5, 5).map(np.int64),
    st.lists(st.floats(), max_size=3).map(np.array))
_payloads = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(st.floats(), max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=2) | st.integers(0, 3).map(str),
                                     inner, max_size=3)),
    max_leaves=8)


class TestEmitMatchesReference:
    """Report text is byte for byte what the isinstance-chain writer gave."""

    @settings(max_examples=100, deadline=None)
    @given(_payloads)
    def test_same_text(self, payload):
        assert canonical_json(payload) == _emit_reference(payload) + "\n"


class TestProblemToDict:
    """Serializing problems back to the schema."""

    def test_infinite_bounds_become_strings(self, tmp_path):
        prob, _ = load_problem(_write(tmp_path, "p.json", FULL))
        out = problem_to_dict(prob)
        assert out["lower"][1] == "-inf"
        assert out["upper"][0] == "inf"
        assert out["p"] == 2.0

    def test_non_quadratic_constraint_rejected(self):
        from slaterkit import MeasureSpace, Problem

        class Opaque:
            def value(self, x):
                return -1.0

            def grad(self, x):
                return np.zeros(1)

        prob = Problem(MeasureSpace(np.ones(1)), 2.0, np.zeros(1),
                       np.ones(1), (), (), (Opaque(),))
        with pytest.raises(FileFormatError):
            problem_to_dict(prob)
