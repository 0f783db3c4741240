"""Expression trees over named generators and the bounded Boolean completion.

Elements of the completion are finite joins of restrictions of generator
words; bi_enumerate lists them up to explicit bounds and
piecewise_member searches for a piecewise expression of a unit.  Exact
membership is not attempted: ExhaustedAtBound is an honest third answer.

Both searches read their words off the table: a GeneratorTable keeps its
letters and one WordBall over them while it lives, grown to the longest
word length asked so far and rebuilt when its generators change.
"""

from dataclasses import dataclass
from itertools import product

from . import certs
from . import pmap as _pmap
from .clopen import Clopen, atoms_at_most, normalize
from .errors import CantorError, IncompatibleJoin, IncompatiblePair, NotAUnit, UnknownGenerator
from .pmap import Dedup, PartialMap, eq, one, restrict, star, zero


class GeneratorTable:
    """Named generators over a single alphabet context.

    The table keeps its letters (the generators and their stars, deduped by
    eq, with their expressions), which the completion searches and every
    DynContext read, and one WordBall over them for as long as it lives.  Both are built on first use, and
    the ball is grown only to the longest word length a search asks for, so
    every bi_enumerate and piecewise_member call on the table shares it.
    They are built afresh when the generators in `mapping` differ from the
    ones they were built from.
    """

    def __init__(self, d, mapping=None):
        self.d = d
        self.mapping = dict(mapping or {})
        for name, m in self.mapping.items():
            if m.d != d:
                raise CantorError(f"generator {name} has alphabet {m.d}, not {d}")
        self._search = None  # (d and generators, letters, ball) of the last search

    def _search_words(self):
        """(letters, ball): the eq-deduped letters with their expressions, and
        the WordBall over them, rebuilt when the generators have changed."""
        key = (self.d, tuple(self.mapping.items()))
        if self._search is None or self._search[0] != key:
            letters = _letters(self)
            self._search = (key, letters, _pmap.WordBall([m for m, _ in letters], self.d))
        return self._search[1:]

    def letters(self):
        """The (map, GeneratorRef or Star of one) letters, deduped by eq."""
        return self._search_words()[0]

    def __getitem__(self, name):
        try:
            return self.mapping[name]
        except KeyError:
            raise UnknownGenerator(name) from None

    def __contains__(self, name):
        return name in self.mapping

    def __iter__(self):
        return iter(self.mapping)

    def items(self):
        return self.mapping.items()

    def __len__(self):
        return len(self.mapping)


# -- expression trees ---------------------------------------------------------


@dataclass(frozen=True)
class GeneratorRef:
    name: str


@dataclass(frozen=True)
class IdempotentLeaf:
    clopen: Clopen


@dataclass(frozen=True)
class ElementLeaf:
    """A literal element, for expressions written directly in branch syntax."""

    element: PartialMap


@dataclass(frozen=True)
class Product:
    children: tuple


@dataclass(frozen=True)
class Star:
    child: object


@dataclass(frozen=True)
class Join:
    children: tuple


@dataclass(frozen=True)
class Restrict:
    child: object
    clopen: Clopen


def evaluate(expr, table):
    """The element denoted by expr; a join whose children do not glue raises
    IncompatibleJoin at the path of its first incompatible pair."""

    def go(node, path):
        if isinstance(node, GeneratorRef):
            return table[node.name]
        if isinstance(node, IdempotentLeaf):
            return _pmap.as_idempotent(node.clopen)
        if isinstance(node, ElementLeaf):
            return node.element
        if isinstance(node, Product):
            acc = one(table.d)
            for i, child in enumerate(node.children):
                acc = _pmap.compose(acc, go(child, path + (i,)))
            return acc
        if isinstance(node, Star):
            return star(go(node.child, path + (0,)))
        if isinstance(node, Restrict):
            return restrict(go(node.child, path + (0,)), node.clopen)
        if isinstance(node, Join):
            parts = [go(child, path + (i,)) for i, child in enumerate(node.children)]
            try:
                return _pmap.join(parts) if parts else zero(table.d)
            except IncompatiblePair as err:
                raise IncompatibleJoin(path + (err.i, err.j)) from None
        raise CantorError(f"unknown expression node {node!r}")

    return go(expr, ())


# -- bounded enumeration ------------------------------------------------------


def _letters(table):
    """Generator letters and their stars, deduped by eq, in table order."""
    dedup = Dedup()
    out = []
    for name, m in table.items():
        rep, expr, new = dedup.add(m, GeneratorRef(name))
        if new:
            out.append((rep, expr))
    for name, m in table.items():
        rep, expr, new = dedup.add(star(m), Star(GeneratorRef(name)))
        if new:
            out.append((rep, expr))
    return out


def _words_up_to(table, word_len):
    """Distinct-by-eq generator words of length <= word_len with expressions,
    read off the table's ball."""
    letters, ball = table._search_words()
    return [(m, Product(tuple(letters[i][1] for i in word))) for m, word in ball.words(word_len)]


def _depth_atoms(d, depth):
    """The depth-`depth` atoms, refused when there are more than 16 of them,
    so that their 2^(d^depth) unions can be listed."""
    cells = atoms_at_most(depth, d, 16)
    if cells is None:
        raise CantorError(f"depth-{depth} clopens number 2^({d}^{depth}), over 2^16")
    return cells


def _mask_clopen(cells, mask, d):
    """The union of the atoms cells[i] with bit i set in mask."""
    return normalize([cells[i].antichain[0] for i in range(len(cells)) if mask >> i & 1], d)


def depth_clopens(d, depth):
    """All clopens that are unions of depth-`depth` atoms, in counter order.

    There are 2^(d^depth) of them, so more than 16 atoms are refused before
    anything is listed.
    """
    cells = _depth_atoms(d, depth)
    return [_mask_clopen(cells, mask, d) for mask in range(2 ** len(cells))]


def bi_enumerate(table, word_len, join_arity, depth):
    """Stream the elements of the bounded Boolean completion.

    Yields (element, expression) for every distinct-by-eq join of at most
    join_arity restrictions (to depth-bounded clopens) of generator words of
    length at most word_len, in deterministic BFS order: first the distinct
    restrictions (the pieces), each as soon as it is met, words in ball
    order and clopens in counter order; then the joins of arity 2, 3, ...,
    each arity over the combinations of pieces in lexicographic order.
    Each clopen is built when the first word reaches it, so a reader that
    stops early pays only for the clopens its rows used.

    The clopen with mask bit i set holds atom i, and single-atom masks come
    first, so each piece m|c is the orthogonal join of its restrictions to
    the atoms of c, met before it; its signature is the set of those that
    are not zero, its atom pieces, each on one atom.  A set of maps is
    compatible exactly when it is pairwise compatible, and compatibility
    distributes over orthogonal joins, so a pair of pieces is decided when
    - one signature holds the other: that piece is a restriction of the
      other, so a combination joins as it does without it (the zero piece,
      whose signature is empty, is below every piece); or
    - an atom piece of one is incompatible with one of the other (on
      different atoms: their ranges meet), so the pair has no join.
    A combination of arity >= 2 is pairwise undecided, so it joins, to the
    join of the atom pieces in the union of its signatures: a union that is
    a piece's signature or an earlier combination's is skipped, neither
    joined nor deduped.  A piece's pairs, and the compatibility rows of its
    atom pieces, are computed when a combination first reaches it, so the
    first join row does not wait for every pair to be decided.
    """
    cells = _depth_atoms(table.d, depth)
    n_atoms = len(cells)
    words = _words_up_to(table, word_len)

    clopens = []  # mask -> clopen, each built when the first word reaches it
    pieces = []  # (element, expression)
    signatures = []  # piece index -> bitmask of the piece indices of its atom pieces
    atom_of = {}  # piece index of an atom piece -> the mask of its atom
    seen = Dedup()  # payload: the piece index, or None for a join
    for m, expr in words:
        at_atom = [0] * n_atoms
        for mask in range(2 ** n_atoms):
            if mask == len(clopens):
                clopens.append(_mask_clopen(cells, mask, table.d))
            c = clopens[mask]
            rep, index, new = seen.add(restrict(m, c), len(pieces))
            if mask & (mask - 1) == 0 < mask and not rep.is_zero():  # an atom piece
                atom_of[index] = mask
                at_atom[mask.bit_length() - 1] = 1 << index
            if new:
                pieces.append((rep, Restrict(expr, c)))
                signatures.append(sum(at_atom[i] for i in range(n_atoms) if mask >> i & 1))
                yield pieces[-1]
    if join_arity < 2:
        return

    clash = {}  # atom piece -> bitmask of the atom pieces incompatible with it

    def clashing(signature):
        # the atom pieces incompatible with one of signature's, read off their rows
        out = 0
        for a in atom_of:
            if signature >> a & 1:
                if a not in clash:
                    clash[a] = sum(
                        1 << b
                        for b in atom_of
                        if (clash[b] >> a & 1 if b in clash else b != a and incompatible(a, b))
                    )
                out |= clash[a]
        return out

    def incompatible(a, b):
        x, y, same = pieces[a][0], pieces[b][0], atom_of[a] == atom_of[b]
        return not (_pmap.compatible(x, y) if same else x.ran_clopen().disjoint(y.ran_clopen()))

    undecided = {}  # piece i -> the later pieces undecided with it

    def combos(prefix, union, candidates, arity):
        # the combinations of pairwise undecided pieces, in lexicographic order,
        # with their unions; a piece's pairs are decided when one first reaches it
        for j in candidates:
            after = undecided.get(j)
            if after is None:
                sj, against = signatures[j], clashing(signatures[j])
                after = undecided[j] = {
                    k for k in range(j + 1, len(pieces)) if not _decided(sj, signatures[k], against)
                }
            later = [k for k in candidates if k in after]
            if len(prefix) + 2 == arity:
                for k in later:
                    yield prefix + (j, k), union | signatures[j] | signatures[k]
            else:
                yield from combos(prefix + (j,), union | signatures[j], later, arity)

    met = set(signatures)  # the unions whose join is already known
    # the zero piece, with the empty signature, is decided against every piece
    nonzero = [i for i, s in enumerate(signatures) if s]
    for arity in range(2, join_arity + 1):
        for combo, union in combos((), 0, nonzero, arity):
            if union in met:
                continue
            met.add(union)
            parts = [pieces[i] for i in combo]
            rep, _, new = seen.add(_pmap.join([p[0] for p in parts]))
            if new:
                yield rep, Join(tuple(p[1] for p in parts))


def _decided(sp, sq, against):
    """True when the pair of pieces with signatures sp and sq is decided (see
    bi_enumerate); against holds the atom pieces incompatible with sp's."""
    return (sp & sq) in (sp, sq) or (sq & against) != 0


def piecewise_member(h, table, word_len, depth, node_budget=certs.DEFAULT_NODE_BUDGET):
    """Search for a clopen partition on which h agrees piecewise with
    generator words; a Witness re-evaluates to h by eq."""
    if not _pmap.is_unit(h):
        raise NotAUnit("piecewise membership is defined for units")
    budget = certs.Budget({"word_len": word_len, "depth": depth, "node_budget": node_budget})
    words = _words_up_to(table, word_len)
    try:
        for n in range(depth + 1):
            exprs = []
            # the depth-n atoms in lexicographic order, each built when reached
            for w in product(range(table.d), repeat=n):
                alpha = Clopen(table.d, (w,))
                target = restrict(h, alpha)
                for m, expr in words:
                    budget.tick()
                    if eq(restrict(m, alpha), target):
                        exprs.append(Restrict(expr, alpha))
                        break
                else:  # no word agrees with h on alpha: try the next depth
                    break
            else:
                expr = Join(tuple(exprs))
                if not eq(evaluate(expr, table), h):
                    raise CantorError("piecewise expression does not re-evaluate to h")
                return budget.witness(expr)
    except certs.GiveUp as stop:
        return budget.exhausted(str(stop))
    return budget.exhausted()
