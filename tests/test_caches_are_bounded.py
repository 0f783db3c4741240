"""Every cache in the package has a memory bound: a functools cache or
lru_cache either names an integer maxsize or decorates a function without
parameters, which can hold one entry only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cantorfull"

CACHES = {"cache", "lru_cache"}


def cache_name(decorator):
    """The cache a decorator names (cache, lru_cache or a call of one), else None."""
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name if name in CACHES else None


def integer_maxsize(decorator):
    if not isinstance(decorator, ast.Call):
        return False
    values = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return any(isinstance(v, ast.Constant) and type(v.value) is int for v in values)


def has_parameters(func):
    a = func.args
    return bool(a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg)


def unbounded_caches(tree):
    """(line, function) of each cache without an integer maxsize on a
    function that takes parameters."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            if cache_name(dec) and not integer_maxsize(dec) and has_parameters(node):
                yield node.lineno, node.name


def test_every_cache_is_bounded():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = list(unbounded_caches(tree))
        assert not found, f"{path.name} has unbounded caches: {found}"

