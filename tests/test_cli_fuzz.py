"""Malformed input files and output paths never make ``cli.main`` raise.

Problem, point and gradient files start from a valid instance of at most
four atoms and are then damaged: a value anywhere in the JSON tree is
replaced by one of the wrong kind (null, bool, string, NaN, Infinity, an
integer beyond the float range, nested arrays or objects), a key or an
array entry is deleted (missing keys, length mismatches), the text is cut
short, or the file is not written at all.  Output paths may point into a
missing directory or at a directory, and ``-h``/``--help`` may appear among
the arguments.  Whatever the input, ``main`` returns one of the documented
exit codes 0-4.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from slaterkit.cli import main

COMMANDS = ("check-feasible", "find-slater", "preprocess", "kkt", "certify")

_small = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])
_wrong = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.just(10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["inf", "-inf", "nan", "1", ""]),
    st.lists(_small, max_size=5), st.just({}), st.just({"g": [1.0]}),
    st.just([[1.0, "inf"], None]))


def _paths(tree, prefix=()):
    """Every location in a JSON tree, as a tuple of keys and indices."""
    yield prefix
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(tree, list):
        for k, value in enumerate(tree):
            yield from _paths(value, prefix + (k,))


@st.composite
def _damaged(draw, tree):
    """``tree`` as file text after up to three kinds of damage, or None
    for a file that is not written."""
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(tree))))
        if not path:
            tree = copy.deepcopy(draw(_wrong))
            continue
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = copy.deepcopy(draw(_wrong))
        else:
            del parent[path[-1]]
    text = json.dumps(tree)
    kind = draw(st.sampled_from(["whole"] * 6 + ["cut", "missing"]))
    if kind == "cut":
        return text[:draw(st.integers(0, max(len(text) - 1, 0)))]
    return None if kind == "missing" else text


@st.composite
def _case(draw):
    m = draw(st.integers(1, 4))
    vec = st.lists(_small, min_size=m, max_size=m)
    problem = {
        "p": draw(st.sampled_from([1, 2, "inf"])),
        "weights": draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                 min_size=m, max_size=m)),
        "lower": draw(st.lists(st.sampled_from([-1.0, 0.0, "-inf"]),
                               min_size=m, max_size=m)),
        "upper": draw(st.lists(st.sampled_from([0.0, 1.0, "inf"]),
                               min_size=m, max_size=m)),
        "ineq": [{"g": draw(vec), "a": draw(_small)}
                 for _ in range(draw(st.integers(0, 2)))],
        "eq": [{"h": draw(vec), "b": draw(_small)}
               for _ in range(draw(st.integers(0, 1)))],
        "objective_gradient": draw(vec),
    }
    if draw(st.booleans()):
        problem["quad_ineq"] = [{"Q": [[float(i == j) for j in range(m)]
                                       for i in range(m)],
                                 "q": draw(vec), "c": -1.0}]
    return {
        "command": draw(st.sampled_from(COMMANDS)),
        "problem": draw(_damaged(problem)),
        "point": draw(_damaged(draw(vec))),
        "grad": draw(_damaged(draw(vec))),
        "pass_grad": draw(st.booleans()),
        "out": draw(st.sampled_from([None, "r.json", "absent/r.json", "."])),
        "out_problem": draw(st.sampled_from([None, "p.json", "absent/p.json"])),
        "tol": draw(st.sampled_from([None, "1e-9", "1e-3", "0", "nan", "x"])),
        "help": draw(st.sampled_from([None] * 8 + ["-h", "--help"])),
    }


@settings(max_examples=100, deadline=None)
@given(_case())
def test_main_returns_an_exit_code(case):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {}
        for name in ("problem", "point", "grad"):
            files[name] = str(tmp / f"{name}.json")
            if case[name] is not None:
                Path(files[name]).write_text(case[name], encoding="utf-8")
        command = case["command"]
        argv = [command, "--problem", files["problem"]]
        if command in ("check-feasible", "kkt", "certify"):
            argv += ["--point", files["point"]]
        if command == "kkt" and case["pass_grad"]:
            argv += ["--grad", files["grad"]]
        if command == "preprocess" and case["out_problem"] is not None:
            argv += ["--out-problem", str(tmp / case["out_problem"])]
        if case["out"] is not None:
            argv += ["--out", str(tmp / case["out"])]
        if case["tol"] is not None:
            argv += ["--tol", case["tol"]]
        if case["help"] is not None:
            argv.insert(len(argv) // 2, case["help"])
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert type(code) is int and 0 <= code <= 4, (argv, err.getvalue())
        if code == 1:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
