"""Words are stored in one order: clopen antichains and branch tables keep
lexicographic order, in which a word's extensions follow it directly, and
every sweep over them reads that order as stored.  Length order (shortest
first) is what text shows, so a sort or sorted whose key reads len is
allowed only where listed in LENGTH_ORDER with its reason: a printer, a
search that subdivides a base shortest first so that its output keeps its
order, or the naming of generators."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cantorfull"

LENGTH_ORDER = {
    ("clopen.py", "Clopen.__str__"): "prints a clopen's words shortest first",
    ("pmap.py", "PartialMap.__repr__"): (
        "prints branches shortest domain first; Certificate.to_json reaches it"
    ),
    ("parser.py", "element_to_text"): "prints branches shortest domain first",
    ("msec.py", "_extend_over_words"): (
        "subdivides the base breadth first, shortest word first, so the "
        "extension's pieces keep their printed order"
    ),
    ("kit.py", "_factor_cover"): (
        "subdivides the base shortest word first, so the witness words "
        "concatenate in their printed order"
    ),
    ("families.py", "higman_thompson"): "names the swap generators in length order",
}


def reads_len(node):
    return any(isinstance(n, ast.Name) and n.id == "len" for n in ast.walk(node))


def length_sorts(tree):
    """Qualified names of the functions holding a sort or sorted whose key
    reads len, in the key itself or in the body of the module-level
    function the key names."""
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}

    def key_reads_len(call):
        for k in call.keywords:
            if k.arg != "key":
                continue
            if isinstance(k.value, ast.Name) and k.value.id in functions:
                return reads_len(functions[k.value.id])
            return reads_len(k.value)
        return False

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("sort", "sorted") and key_reads_len(child):
                    yield scope or "<module>"
            yield from visit(child, inner)

    yield from visit(tree, "")


def test_length_order_is_only_where_text_is_printed():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update((path.name, scope) for scope in length_sorts(tree))
    assert found == set(LENGTH_ORDER), (
        f"length-order sorts not allowed: {sorted(found - set(LENGTH_ORDER))}; "
        f"allowed but gone: {sorted(set(LENGTH_ORDER) - found)}"
    )


def test_the_lint_sees_each_form_of_length_key():
    source = """
def _by_len(b):
    return len(b.dom)

def f(xs):
    xs.sort(key=_by_len)

def g(xs):
    return sorted(xs, key=lambda w: (len(w), w))

class C:
    def h(self, xs):
        return sorted(xs, key=len)

def fine(xs):
    xs.sort()
    return sorted(xs, key=str)
"""
    assert sorted(length_sorts(ast.parse(source))) == ["C.h", "f", "g"]
