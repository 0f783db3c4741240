"""Multisections, their symmetric/alternating unit groups, covers and combines.

A multisection of degree d is d pairwise disjoint clopens joined by a coherent
transporter system from a distinguished base; permuting the clopens and fixing
the rest of the space gives units.  Factoring those units over covers and
combines is left to factor.
"""

from itertools import permutations

from . import certs
from . import clopen as _clopen
from . import pmap as _pmap
from .clopen import union_all
from .errors import (
    BadSubdivision,
    CantorError,
    DomainMismatch,
    EmptyIntersection,
    EmptyRestriction,
    NotInAlt,
    OverlappingIdempotents,
    SupportsOverlapElsewhere,
)
from .pmap import as_idempotent, compose, eq, join, restrict, star

# -- permutation helpers (tuples pi with pi[i] the image of i) -----------------


def identity_perm(n):
    return tuple(range(n))


def perm_compose(a, b):
    """a after b: (a o b)(i) = a[b[i]]."""
    return tuple(a[b[i]] for i in range(len(a)))


def perm_inverse(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def is_even(perm):
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign == 1


def sym_perms(n):
    return [p for p in permutations(range(n))]


def alt_perms(n):
    return [p for p in permutations(range(n)) if is_even(p)]


def cycle_perm(n, cycle):
    out = list(range(n))
    for i, j in zip(cycle, cycle[1:] + cycle[:1]):
        out[i] = j
    return tuple(out)


def pivot_three_cycles(perm, pivot):
    """perm as 3-cycles (pivot y x), listed as (y, x) in composition order.

    Each cycle is split into transpositions, each transposition is rewritten
    through the pivot by (a b) = (p a)(p b)(p a), and consecutive pairs of
    pivot transpositions give (p x)(p y) = (p y x).
    """
    through = []
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = []
        j = start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = perm[j]
        a = cycle[0]
        for b in reversed(cycle[1:]):
            if a == pivot:
                through.append(b)
            elif b == pivot:
                through.append(a)
            else:
                through.extend((a, b, a))
    if len(through) % 2:
        raise NotInAlt(f"{perm} is odd")
    return [(y, x) for x, y in zip(through[0::2], through[1::2]) if x != y]


# -- multisections --------------------------------------------------------------


class Multisection:
    """Base clopen e_1 with transporters f_i : e_1 -> e_i, f_1 the identity."""

    __slots__ = ("d", "base", "transporters", "idems", "_off_support")

    def __init__(self, base, transporters):
        self.d = base.d
        self.base = base
        self.transporters = tuple(transporters)
        self.idems = tuple(_pmap.ran(f) for f in self.transporters)
        self._off_support = None
        if base.is_empty():
            raise EmptyRestriction("multisection base is empty")
        if not eq(self.transporters[0], as_idempotent(base)):
            raise DomainMismatch("first transporter must be the identity on the base")
        for i, f in enumerate(self.transporters):
            if _pmap.dom(f) != base:
                raise DomainMismatch(f"transporter {i} has domain {_pmap.dom(f)}, not {base}")
        for i in range(len(self.idems)):
            for j in range(i + 1, len(self.idems)):
                if not self.idems[i].disjoint(self.idems[j]):
                    raise OverlappingIdempotents(f"idempotents {i} and {j} overlap")

    @property
    def degree(self):
        return len(self.transporters)

    def support(self):
        return union_all(self.idems, self.d)

    def off_support(self):
        """The identity on the complement of the support (cached)."""
        if self._off_support is None:
            self._off_support = as_idempotent(self.support().complement())
        return self._off_support

    def transporter_between(self, i, j):
        """The unique element f_ij with domain e_i and range e_j."""
        return compose(self.transporters[j], star(self.transporters[i]))

    def __repr__(self):
        return f"Multisection(deg={self.degree}, base={self.base})"


def build(base, maps):
    """Multisection from the base and the transporters f_2, ..., f_d."""
    return Multisection(base, [as_idempotent(base), *maps])


def element(s, pi):
    """The unit h_pi acting as f_pi(i) f_i* on each e_i, identity elsewhere."""
    if len(pi) != s.degree:
        raise CantorError(f"permutation of length {len(pi)} for degree {s.degree}")
    parts = [compose(s.transporters[pi[i]], star(s.transporters[i])) for i in range(s.degree)]
    return join(parts + [s.off_support()])


def restrict_msec(s, e):
    """The multisection with base e <= e_1 and restricted transporters."""
    if e.is_empty():
        raise EmptyRestriction("restriction to the empty set")
    if not e.leq(s.base):
        raise EmptyRestriction(f"{e} is not below the base {s.base}")
    return Multisection(e, [restrict(f, e) for f in s.transporters])


class Cover:
    """Pieces of a multisection: its restrictions to clopens whose union is
    the base.  Only cover_of and overlapping_cover build one, so every piece
    has one idempotent under each parent idempotent and the pieces' joins
    are the parent's transporters."""

    __slots__ = ("parent", "pieces")

    def __init__(self, parent, pieces):
        self.parent = parent
        self.pieces = tuple(pieces)


def cover_of(s, subdivision):
    """Cover by restrictions of s to the given subdivision of the base."""
    subdivision = list(subdivision)
    for i, part in enumerate(subdivision):
        if part.is_empty():
            raise BadSubdivision(f"part {i} is empty")
        for j in range(i + 1, len(subdivision)):
            if not part.disjoint(subdivision[j]):
                raise BadSubdivision(f"parts {i} and {j} overlap")
    return overlapping_cover(s, subdivision)


def overlapping_cover(s, parts):
    """Cover by restrictions to base pieces that may overlap (union = base)."""
    parts = list(parts)
    if not parts or union_all(parts, s.d) != s.base:
        raise BadSubdivision("pieces must cover the base")
    return Cover(s, [restrict_msec(s, part) for part in parts])


def combine(s1, s2):
    """Glue two multisections whose supports meet in exactly one idempotent pair.

    The supports must intersect exactly in e = e1_i & e2_j for one pair of
    idempotents; the result has base e, carries restrictions of both transporter
    systems, and has degree deg(s1) + deg(s2) - 1.
    """
    overlaps = [(i, j) for i, a in enumerate(s1.idems) for j, b in enumerate(s2.idems)
                if not a.disjoint(b)]
    if not overlaps:
        raise EmptyIntersection("supports do not intersect")
    if len(overlaps) > 1:
        raise SupportsOverlapElsewhere(
            f"supports overlap in {len(overlaps)} idempotent pairs"
        )
    # supports are unions of idempotents, so they meet exactly in this pair's meet
    i, j = overlaps[0]
    e = s1.idems[i].meet(s2.idems[j])
    r1 = restrict_msec(s1, _pmap.ran(restrict(star(s1.transporters[i]), e)))
    r2 = restrict_msec(s2, _pmap.ran(restrict(star(s2.transporters[j]), e)))
    # both restricted sections now carry e as their i-th / j-th idempotent
    maps = []
    for k in range(r1.degree):
        if k != i:
            maps.append(compose(r1.transporters[k], star(r1.transporters[i])))
    for k in range(r2.degree):
        if k != j:
            maps.append(compose(r2.transporters[k], star(r2.transporters[j])))
    return build(e, maps)


def sub_section(s, indices):
    """The multisection on a subset of the idempotents, based at indices[0].

    Its transporters are transporter_between(indices[0], i), so its
    alternating elements are the parent's elements that fix every idempotent
    left out, whichever column heads the tuple.
    """
    b = indices[0]
    return Multisection(s.idems[b], [s.transporter_between(b, i) for i in indices])


# how many letters below the base's deepest word degree extension splits a
# piece before it gives up
SPLIT_DEPTH = 3


def extend_degree(s, table, word_len=3, node_budget=certs.DEFAULT_NODE_BUDGET):
    """Extend a d-section to (d+1)-sections over a subdivision of its base.

    For each subdivision piece, a bounded word search over the table's units
    looks for an extra transporter whose image misses the restricted section's
    idempotents; pieces are split into child cylinders, at most SPLIT_DEPTH
    letters below the base, when no word works at their current depth.  The
    words come from a WordBall, identity first.
    """
    budget = certs.Budget(
        {"word_len": word_len, "split_depth": SPLIT_DEPTH, "node_budget": node_budget}
    )
    ball = _pmap.WordBall(table.mapping.values(), s.d)
    try:
        sections, subdivision = _extend_over_words(s, ball, word_len, budget)
    except certs.GiveUp as stop:
        return budget.exhausted(str(stop))
    return budget.witness({"sections": sections, "subdivision": subdivision})


def _extend_over_words(s, ball, word_len, budget):
    """extend_degree's search over ball's words up to word_len, spending
    from budget: the extended sections and the subdivision they sit on.  The
    pieces are searched breadth first from the base's words, shortest first."""
    d = s.d
    max_depth = max((len(w) for w in s.base.antichain), default=0) + SPLIT_DEPTH

    queue = [_clopen.Clopen(d, (w,)) for w in sorted(s.base.antichain, key=len)]
    sections = []
    subdivision = []
    while queue:
        piece = queue.pop(0)
        r = restrict_msec(s, piece)
        found = None
        for w, _ in ball.words(word_len):
            budget.tick()
            img = _pmap.ran(restrict(w, piece))
            if img.is_empty():
                continue
            if all(img.disjoint(e) for e in r.idems):
                found = build(piece, list(r.transporters[1:]) + [restrict(w, piece)])
                break
        if found is not None:
            sections.append(found)
            subdivision.append(piece)
            continue
        word0 = piece.antichain[0]
        if len(word0) >= max_depth:
            raise certs.GiveUp(f"no extension found on {piece} at max depth")
        for x in range(d):
            queue.append(_clopen.Clopen(d, (word0 + (x,),)))
    return sections, subdivision


def embed_subperm(pi, indices, degree):
    """Extend a permutation of the listed idempotent positions to fix the rest."""
    out = list(range(degree))
    for k, idx in enumerate(indices):
        out[idx] = indices[pi[k]]
    return tuple(out)
