"""Every cache in the package has a memory bound: a functools cache or
lru_cache either names an integer maxsize or decorates a function without
parameters, which can hold one entry only.  A hand-rolled cache, a
module-level dict whose name ends in _cache, is allowed only where listed in
HAND_ROLLED with its reason, so every other memo is a functools one and the
guard above sees its bound."""

import ast
import gc
import weakref
from pathlib import Path

from cantorfull import tails

SRC = Path(__file__).resolve().parent.parent / "src" / "cantorfull"

CACHES = {"cache", "lru_cache"}

DICT_TYPES = {"dict", "defaultdict", "OrderedDict", "WeakValueDictionary"}

HAND_ROLLED = {
    ("tails.py", "_identity_cache"): (
        "one identity decision records every section of the closure it proves, "
        "and later walks read those records mid-walk, which a memo of whole "
        "answers cannot do; tails bounds it by IDENTITY_CACHE_SIZE"
    ),
    ("tails.py", "_machine_cache"): (
        "the one live machine per table, which makes machines compare by identity; "
        "it holds machines weakly, so it never holds more than the live machines"
    ),
}


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


def is_dict(value):
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in DICT_TYPES
    return False


def dict_caches(tree):
    """Names of the module-level dicts whose names end in _cache."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if is_dict(value):
            for target in targets:
                if isinstance(target, ast.Name) and target.id.endswith("_cache"):
                    yield target.id


def test_every_cache_is_bounded():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = list(unbounded_caches(tree))
        assert not found, f"{path.name} has unbounded caches: {found}"


def test_hand_rolled_caches_are_only_the_allowed_ones():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update((path.name, name) for name in dict_caches(tree))
    assert found == set(HAND_ROLLED), (
        f"hand-rolled caches {sorted(found - set(HAND_ROLLED))}; "
        f"allowed but gone: {sorted(set(HAND_ROLLED) - found)}"
    )


def test_a_machine_nobody_references_leaves_the_machine_table():
    machine = tails.MealyMachine("lonely", 2, {"z": ("z", "z")}, {"z": (1, 0)})
    # a swept machine refers to itself through its step table
    tails.expand(2, ((machine, "z", 1),))
    assert machine in tails._machine_cache.values()
    gone = weakref.ref(machine)
    del machine
    gc.collect()
    assert gone() is None
    assert all(m.states != ("z",) for m in tails._machine_cache.values())
