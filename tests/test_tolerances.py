"""One acceptance rule: every tolerance multiple lives in ``tolerances``."""

import ast
import math
from pathlib import Path

import pytest

from slaterkit import tolerances
from slaterkit.tolerances import RESIDUAL, SIGN, threshold, within

SRC = Path(tolerances.__file__).parent
#: ``selftest`` and ``oracles`` keep bounds of their own, apart from the
#: library's checks.
EXEMPT = {"tolerances.py", "selftest.py", "oracles.py"}


def _factors(node):
    """Operands of a chain of ``*`` and ``/``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
        return _factors(node.left) + _factors(node.right)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _factors(node.operand)
    return [node]


def _tol_multiples(source: str) -> list[int]:
    """Lines where a numeric literal multiplies ``tol``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            factors = _factors(node)
            if (any(isinstance(f, ast.Name) and f.id == "tol" for f in factors)
                    and any(isinstance(f, ast.Constant) and type(f.value) in (int, float)
                            for f in factors)):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("source, hit", [
    ("v = 50.0 * tol * scale", True),
    ("v = scale * tol * 1e2", True),
    ("v = max(tol, -2 * tol)", True),
    ("v = tol * (scale / 2)", True),
    ("v = tol * scale", False),
    ("v = tol * max(1.0, scale)", False),
    ("v = pivot_tol * 1e-2", False),
])
def test_the_check_sees_literal_multiples(source, hit):
    assert bool(_tol_multiples(source)) is hit


def test_no_tolerance_multiple_outside_its_module():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name not in EXEMPT for line in _tol_multiples(path.read_text())]
    assert not found, f"literal multiples of tol outside tolerances.py: {found}"


def test_threshold_and_nan():
    assert threshold(RESIDUAL, 4.0, 1e-9) == 50.0 * 1e-9 * 4.0
    assert threshold(SIGN, 0.25, 1e-9) == 1e-9
    assert within(1e-9, SIGN, 0.0, 1e-9)
    assert not within(math.nan, RESIDUAL, 1.0, 1e-9)
    assert not within(1.1e-9, SIGN, math.nan, 1e-9)
