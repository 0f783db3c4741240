"""No dead helpers: every private function, method or class in the package is
named somewhere in the package outside its own definition, so a helper whose
last caller is deleted goes with it; likewise every parameter and every
imported name is read."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cantorfull"


def names_in(node):
    """Every name a node mentions: variables, attributes and imports."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def private(name):
    return name.startswith("_") and not name.endswith("__")


def test_every_private_helper_is_used():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(names_in(tree))
    dead = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            # a recursive call inside the helper's own body is not a use
            if private(node.name) and everywhere[node.name] == names_in(node)[node.name]:
                dead.append(f"{module}:{node.lineno} {node.name}")
    assert not dead, f"private helpers named nowhere else: {dead}"


# (module, function, parameter) left unread on purpose: split_unit accepts
# ctx and word_len for the callers that still pass them, and they go when
# those callers stop
UNREAD_PARAMETERS = {
    ("dynamics.py", "split_unit", "ctx"),
    ("dynamics.py", "split_unit", "word_len"),
}


def test_every_parameter_is_read():
    # a method need not read self
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt) if isinstance(sub, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            unread.update(
                (path.name, name, p.arg) for p in params if p.arg not in read | {"self"}
            )
    assert unread == UNREAD_PARAMETERS


def test_every_import_is_read():
    # __init__.py imports names to re-export them, so it is exempt
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {
            sub.id for sub in ast.walk(tree)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # import a.b binds a
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{node.lineno} {name}")
    assert not unread, f"imported names never read: {unread}"
