"""No check in the package is an assert statement: python -O strips them,
so a result that rested on one would go unchecked."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cantorfull"


def test_no_assert_statements():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements on lines {lines}"
