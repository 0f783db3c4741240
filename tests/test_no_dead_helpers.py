"""No dead helpers: every function, method or class in the package is named
somewhere in the package outside its own definition, so a helper whose last
caller is deleted goes with it; a public name may instead be a listed entry
point.  Likewise every parameter and every imported name is read, and
every name the test modules import is read too."""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cantorfull"


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


# public names that no other package module names, each kept for a reason;
# re-exports from __init__.py do not count as a use
ENTRY_POINTS = {
    "certs.Certificate.is_exhausted": "symmetry with is_witness and is_refuted",
    "pmap.is_idempotent": "the README documents it",
    "tails.depth_perm": "perfbench's automaton workload uses it",
    "msec.sym_perms": "acceptance criterion 04 uses it",
    "clopen.Clopen.words_at_depth": "acceptance criterion 10 uses it",
    "cli._ArgumentParser.error": "argparse calls it",
}


def definitions(node, prefix):
    """(qualified name, node) for every def and class under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            yield name, child
            yield from definitions(child, name)
        else:
            yield from definitions(child, prefix)


def test_every_public_name_is_reached():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(names_in(tree))
    unreached = {
        name
        for module, tree in trees.items()
        for name, node in definitions(tree, module)
        if not node.name.startswith("_") and everywhere[node.name] == names_in(node)[node.name]
    }
    assert unreached == set(ENTRY_POINTS)


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
    # the package's __init__.py imports names to re-export them, so it is exempt
    unread = []
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    for path in paths + sorted(TESTS.glob("*.py")):
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
                        unread.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}")
    assert not unread, f"imported names never read: {unread}"
