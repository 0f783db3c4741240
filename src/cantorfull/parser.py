"""Text grammar for clopens, elements, tails, expressions, partitions and
multisection literals.

    element   := "[" branch ("," branch)* "]" | "0" | "1"
    branch    := word "->" word (":" tailexpr)?
    word      := digit+ | "~"
    tailexpr  := factor ("*" factor)*
    factor    := name ("^-1")? | "1"
    name      := part ("." part)*      # part: a letter or "_", then letters, digits, "_"
    clopen    := "{" (word ("," word)*)? "}"
    partition := clopen (";" clopen)*
    msec      := "msec" "(" clopen (";" expr ("," expr)*)? ")"

Expressions (expr) reuse the element grammar with operators "*" (product),
"^-1" (star), "|" (join) and "@{...}" (restrict); bare names refer to
generators.  A multisection literal is its base clopen and the expressions of
its transporters f_2, f_3, ...; a map's branches sit inside brackets, so the
commas between maps are the only ones outside them.

Printing and parsing round-trip up to eq when the printer is given the names
of the parser's registry.
"""

import re

from . import completion as _completion
from . import pmap as _pmap
from .clopen import normalize, word_to_text
from .errors import CantorError, ParseError
from .pmap import Branch, PartialMap
from .tails import TailElement, trivial


# symbols first ("->" and "^-1" before single characters), then digits, then
# names; digits are [0-9], since \d takes "٣" and str.isdigit "²"
_TOKEN = re.compile(
    r"(?P<space>\s+)|(?P<sym>->|\^-1|[\[\]@{}(),:;*|~])|(?P<digits>[0-9]+)|(?P<name>\w+(?:\.\w+)*)"
)


class _Tokens:
    """Tokens (kind, value, offset) of text; a symbol is its own kind."""

    def __init__(self, text):
        self.text = text
        self.items = []
        self.idx = 0
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            kind = m and m.lastgroup
            # \w lets "²" and "½" start a name; str.isalpha does not
            if kind is None or kind == "name" and not (m[0][0].isalpha() or m[0][0] == "_"):
                raise self.error_at(pos, "a token")
            if kind != "space":
                self.items.append((m[0] if kind == "sym" else kind, m[0], pos))
            pos = m.end()
        self.items.append(("eof", "", pos))

    def error_at(self, off, expected):
        """ParseError at offset off of the text, as a line and column."""
        text = self.text
        col = off - text.rfind("\n", 0, off)
        return ParseError(text.count("\n", 0, off) + 1, col, expected=expected, text=text)

    def peek(self):
        return self.items[self.idx]

    def next(self):
        tok = self.items[self.idx]
        self.idx += 1
        return tok

    def accept(self, kind):
        """Take the next token if it is of this kind; whether it was."""
        if self.items[self.idx][0] != kind:
            return False
        self.idx += 1
        return True

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise self.error_at(tok[2], repr(kind))

    def sequence(self, item, sep=","):
        """item (sep item)*, as a list; item reads from these tokens."""
        items = [item(self)]
        while self.accept(sep):
            items.append(item(self))
        return items


class Parser:
    """Recursive-descent parser over one alphabet context and tail registry.

    registry maps a state name to a (machine, state) pair.
    """

    def __init__(self, d, registry=None):
        self.d = d
        self.registry = registry or {}

    def _whole(self, rule, text):
        """rule read over all of text."""
        toks = _Tokens(text)
        out = rule(toks)
        toks.expect("eof")
        return out

    # -- words, clopens and partitions

    def _word(self, toks):
        kind, val, here = toks.next()
        if kind == "~":
            return ()
        if kind == "digits":
            w = tuple(int(c) for c in val)
            if any(x >= self.d for x in w):
                raise toks.error_at(here, f"letters below {self.d}")
            return w
        raise toks.error_at(here, "a word (digits or ~)")

    def _clopen(self, toks):
        toks.expect("{")
        words = [] if toks.peek()[0] == "}" else toks.sequence(self._word)
        toks.expect("}")
        return normalize(words, self.d)

    def parse_clopen(self, text):
        return self._whole(self._clopen, text)

    def parse_partition(self, text):
        """The clopens of a partition literal, in order (not checked to be
        a partition)."""
        return self._whole(lambda toks: toks.sequence(self._clopen, ";"), text)

    # -- tails

    def _tail_factor(self, toks):
        kind, val, here = toks.next()
        if kind == "digits" and val == "1":
            return ()
        if kind != "name":
            raise toks.error_at(here, "a tail factor name or 1")
        if val not in self.registry:
            raise toks.error_at(here, f"a registered machine state (got {val!r})")
        machine, state = self.registry[val]
        return ((machine, state, -1 if toks.accept("^-1") else 1),)

    def _tailexpr(self, toks):
        return TailElement(self.d, sum(toks.sequence(self._tail_factor, "*"), ()))

    # -- elements

    def _branch(self, toks):
        u = self._word(toks)
        toks.expect("->")
        v = self._word(toks)
        return Branch(u, v, self._tailexpr(toks) if toks.accept(":") else trivial(self.d))

    def _element(self, toks):
        kind, val, here = toks.peek()
        if kind == "digits" and val in ("0", "1"):
            toks.next()
            return _pmap.zero(self.d) if val == "0" else _pmap.one(self.d)
        toks.expect("[")
        branches = toks.sequence(self._branch)
        toks.expect("]")
        try:
            return PartialMap(self.d, branches)
        except CantorError as err:
            raise toks.error_at(here, f"a valid branch table ({err})")

    def parse_element(self, text):
        return self._whole(self._element, text)

    # -- expressions: | < * < postfix (^-1, @{...})

    def _expr_atom(self, toks):
        kind, val, here = toks.peek()
        if toks.accept("("):
            node = self._expr_join(toks)
            toks.expect(")")
            return node
        if kind == "{":
            return _completion.IdempotentLeaf(self._clopen(toks))
        if kind == "[" or (kind == "digits" and val in ("0", "1")):
            return _completion.ElementLeaf(self._element(toks))
        if toks.accept("name"):
            return _completion.GeneratorRef(val)
        raise toks.error_at(here, "an expression atom")

    def _expr_postfix(self, toks):
        node = self._expr_atom(toks)
        while True:
            if toks.accept("^-1"):
                node = _completion.Star(node)
            elif toks.accept("@"):
                node = _completion.Restrict(node, self._clopen(toks))
            else:
                return node

    def _expr_product(self, toks):
        children = toks.sequence(self._expr_postfix, "*")
        return children[0] if len(children) == 1 else _completion.Product(tuple(children))

    def _expr_join(self, toks):
        children = toks.sequence(self._expr_product, "|")
        return children[0] if len(children) == 1 else _completion.Join(tuple(children))

    def parse_expr(self, text):
        return self._whole(self._expr_join, text)

    # -- multisections

    def _msec(self, toks):
        kind, val, here = toks.next()
        if (kind, val) != ("name", "msec"):
            raise toks.error_at(here, "'msec'")
        toks.expect("(")
        base = self._clopen(toks)
        exprs = toks.sequence(self._expr_join) if toks.accept(";") else []
        toks.expect(")")
        return base, exprs

    def parse_msec(self, text):
        """(base clopen, transporter expressions) of a multisection literal."""
        return self._whole(self._msec, text)


# -- printing ------------------------------------------------------------------


def element_to_text(m, names=None):
    """Text of m, its branches shortest domain first; names maps (machine,
    state) to the name a tail factor is printed under (see TailElement.to_text)."""
    if m.is_zero():
        return "0"
    # the identity's table: one branch () -> () with no tail factors
    if [(b.dom, b.ran, b.tail.factors) for b in m.branches] == [((), (), ())]:
        return "1"
    bits = []
    for b in sorted(m.branches, key=lambda b: len(b.dom)):
        s = f"{word_to_text(b.dom)}->{word_to_text(b.ran)}"
        if b.tail.factors:
            s += f":{b.tail.to_text(names)}"
        bits.append(s)
    return "[" + ", ".join(bits) + "]"


def expr_to_text(node, names=None):
    if isinstance(node, _completion.GeneratorRef):
        return node.name
    if isinstance(node, _completion.IdempotentLeaf):
        return str(node.clopen)
    if isinstance(node, _completion.ElementLeaf):
        return element_to_text(node.element, names)
    if isinstance(node, _completion.Product):
        if not node.children:
            return "1"
        return "(" + " * ".join(expr_to_text(c, names) for c in node.children) + ")"
    if isinstance(node, _completion.Star):
        return expr_to_text(node.child, names) + "^-1"
    if isinstance(node, _completion.Join):
        return "(" + " | ".join(expr_to_text(c, names) for c in node.children) + ")"
    if isinstance(node, _completion.Restrict):
        return expr_to_text(node.child, names) + "@" + str(node.clopen)
    raise CantorError(f"unknown expression node {node!r}")

