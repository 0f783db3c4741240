"""Only certs.py writes a certificate: every other module reports through a
certs.Budget, so a new search cannot count its nodes or build its verdict
by hand."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cantorfull"


def names_used(tree):
    """(line, name) for every name, attribute and keyword in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.value.lineno, node.arg


def test_certificates_are_built_only_in_certs():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "certs.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            == "Certificate"
        ]
        assert not calls, f"{path.name} builds a Certificate on lines {calls}"
        counted = [line for line, name in names_used(tree) if name == "nodes_explored"]
        assert not counted, f"{path.name} names nodes_explored on lines {counted}"
