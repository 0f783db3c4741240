"""The package layering stays strict: a module imports only lower ranks."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cantorfull"

RANKS = {
    "errors": 0,
    "certs": 0,
    "clopen": 1,
    "tails": 2,
    "pmap": 3,
    "completion": 4,
    "msec": 4,
    "factor": 5,
    "dynamics": 5,
    "families": 5,
    "parser": 5,
    "kit": 6,
    "cli": 7,
}


def package_imports(tree):
    """(node, name) for each cantorfull module a module imports,
    function-local imports included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "cantorfull":
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                yield node, parts[0]
            else:  # from . import a, b
                yield from ((node, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "cantorfull" and len(parts) > 1:
                    yield node, parts[1]


def test_imports_point_to_lower_ranks():
    modules = sorted(p for p in SRC.glob("*.py") if p.stem != "__init__")
    assert {p.stem for p in modules} == set(RANKS)
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for _, target in package_imports(tree):
            assert RANKS[path.stem] > RANKS[target], f"{path.stem} imports {target}"


def test_package_imports_are_at_module_level():
    """A function-local import hides a module's dependencies from its header."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, target in package_imports(tree):
            assert node in tree.body, f"{path.stem}:{node.lineno} imports {target} inside a block"
