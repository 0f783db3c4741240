"""Text grammar for clopens, elements, tails and expressions.

    element  := "[" branch ("," branch)* "]" | "0" | "1"
    branch   := word "->" word (":" tailexpr)?
    word     := digit+ | "~"
    tailexpr := factor ("*" factor)*
    factor   := name ("^-1")? | "1"
    name     := part ("." part)*      # part: a letter or "_", then letters, digits, "_"
    clopen   := "{" (word ("," word)*)? "}"

Expressions reuse the element grammar with operators "*" (product), "^-1"
(star), "|" (join) and "@{...}" (restrict); bare names refer to generators.
Printing and parsing round-trip up to eq when the printer is given the names
of the parser's registry.
"""

from . import completion as _completion
from . import pmap as _pmap
from .clopen import normalize, word_to_text
from .errors import CantorError, ParseError
from .pmap import Branch, PartialMap
from .tails import TailElement, trivial


_DIGITS = "0123456789"  # str.isdigit also takes "²", which int() rejects


def _name_char(ch):
    return ch.isalnum() or ch == "_"


class _Tokens:
    SYMBOLS = ("->", "^-1", "@", "[", "]", "{", "}", "(", ")", ",", ":", "*", "|", "~")

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.items = []
        self._scan()
        self.idx = 0

    def _advance(self, n):
        for ch in self.text[self.pos : self.pos + n]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n

    def _scan(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch.isspace():
                self._advance(1)
                continue
            here = (self.line, self.col)
            for sym in self.SYMBOLS:
                if text.startswith(sym, self.pos):
                    self.items.append((sym, sym, here))
                    self._advance(len(sym))
                    break
            else:
                if ch in _DIGITS:
                    j = self.pos
                    while j < len(text) and text[j] in _DIGITS:
                        j += 1
                    self.items.append(("digits", text[self.pos : j], here))
                    self._advance(j - self.pos)
                elif ch.isalpha() or ch == "_":
                    j = self.pos
                    while j < len(text) and (
                        _name_char(text[j]) or text[j] == "." and _name_char(text[j + 1 : j + 2])
                    ):
                        j += 1
                    self.items.append(("name", text[self.pos : j], here))
                    self._advance(j - self.pos)
                else:
                    raise ParseError(*here, expected="a token", text=text)
        self.items.append(("eof", "", (self.line, self.col)))

    def peek(self):
        return self.items[self.idx]

    def next(self):
        tok = self.items[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(*tok[2], expected=repr(kind), text=self.text)
        return tok

    def fail(self, expected):
        tok = self.peek()
        raise ParseError(*tok[2], expected=expected, text=self.text)


class Parser:
    """Recursive-descent parser over one alphabet context and tail registry.

    registry maps a state name to a (machine, state) pair.
    """

    def __init__(self, d, registry=None):
        self.d = d
        self.registry = registry or {}

    # -- words and clopens

    def _word(self, toks):
        kind, val, here = toks.next()
        if kind == "~":
            return ()
        if kind == "digits":
            w = tuple(int(c) for c in val)
            if any(x >= self.d for x in w):
                raise ParseError(*here, expected=f"letters below {self.d}", text=toks.text)
            return w
        raise ParseError(*here, expected="a word (digits or ~)", text=toks.text)

    def _clopen(self, toks):
        toks.expect("{")
        words = []
        if toks.peek()[0] != "}":
            words.append(self._word(toks))
            while toks.peek()[0] == ",":
                toks.next()
                words.append(self._word(toks))
        toks.expect("}")
        return normalize(words, self.d)

    def parse_clopen(self, text):
        toks = _Tokens(text)
        c = self._clopen(toks)
        toks.expect("eof")
        return c

    # -- tails

    def _tail_factor(self, toks):
        kind, val, here = toks.next()
        if kind == "digits" and val == "1":
            return ()
        if kind != "name":
            raise ParseError(*here, expected="a tail factor name or 1", text=toks.text)
        if val not in self.registry:
            raise ParseError(*here, expected=f"a registered machine state (got {val!r})", text=toks.text)
        machine, state = self.registry[val]
        exp = 1
        if toks.peek()[0] == "^-1":
            toks.next()
            exp = -1
        return ((machine, state, exp),)

    def _tailexpr(self, toks):
        factors = self._tail_factor(toks)
        while toks.peek()[0] == "*":
            toks.next()
            factors = factors + self._tail_factor(toks)
        return TailElement(self.d, factors)

    # -- elements

    def _branch(self, toks):
        u = self._word(toks)
        toks.expect("->")
        v = self._word(toks)
        tail = trivial(self.d)
        if toks.peek()[0] == ":":
            toks.next()
            tail = self._tailexpr(toks)
        return Branch(u, v, tail)

    def _element(self, toks):
        kind, val, here = toks.peek()
        if kind == "digits" and val in ("0", "1"):
            toks.next()
            return _pmap.zero(self.d) if val == "0" else _pmap.one(self.d)
        toks.expect("[")
        branches = [self._branch(toks)]
        while toks.peek()[0] == ",":
            toks.next()
            branches.append(self._branch(toks))
        toks.expect("]")
        try:
            return PartialMap(self.d, branches)
        except CantorError as err:
            raise ParseError(*here, expected=f"a valid branch table ({err})", text=toks.text)

    def parse_element(self, text):
        toks = _Tokens(text)
        m = self._element(toks)
        toks.expect("eof")
        return m

    # -- expressions: | < * < postfix (^-1, @{...})

    def _expr_atom(self, toks):
        kind, val, here = toks.peek()
        if kind == "(":
            toks.next()
            node = self._expr_join(toks)
            toks.expect(")")
            return node
        if kind == "{":
            return _completion.IdempotentLeaf(self._clopen(toks))
        if kind == "[" or (kind == "digits" and val in ("0", "1")):
            return _completion.ElementLeaf(self._element(toks))
        if kind == "name":
            toks.next()
            return _completion.GeneratorRef(val)
        toks.fail("an expression atom")

    def _expr_postfix(self, toks):
        node = self._expr_atom(toks)
        while True:
            kind = toks.peek()[0]
            if kind == "^-1":
                toks.next()
                node = _completion.Star(node)
            elif kind == "@":
                toks.next()
                node = _completion.Restrict(node, self._clopen(toks))
            else:
                return node

    def _expr_product(self, toks):
        children = [self._expr_postfix(toks)]
        while toks.peek()[0] == "*":
            toks.next()
            children.append(self._expr_postfix(toks))
        return children[0] if len(children) == 1 else _completion.Product(tuple(children))

    def _expr_join(self, toks):
        children = [self._expr_product(toks)]
        while toks.peek()[0] == "|":
            toks.next()
            children.append(self._expr_product(toks))
        return children[0] if len(children) == 1 else _completion.Join(tuple(children))

    def parse_expr(self, text):
        toks = _Tokens(text)
        node = self._expr_join(toks)
        toks.expect("eof")
        return node


# -- printing ------------------------------------------------------------------


def element_to_text(m, names=None):
    """Text of m, its branches shortest domain first; names maps (machine,
    state) to the name a tail factor is printed under (see TailElement.to_text)."""
    if m.is_zero():
        return "0"
    if m.branches == _pmap.one(m.d).branches:
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


def registry_from_machines(machines, states=None):
    """Name -> (machine, state) registry; states defaults to all states."""
    registry = {}
    for machine in machines:
        for s in states.get(machine.name) if states else machine.states:
            if s in registry:
                raise CantorError(f"state name {s} registered twice")
            registry[s] = (machine, s)
    return registry
