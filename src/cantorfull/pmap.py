"""The inverse monoid PHomeo_c(X) of clopen partial homeomorphisms of A^N.

An element is a finite branch table {(u_i -> v_i : t_i)}: the cylinder of u_i
maps onto the cylinder of v_i by u_i.z -> v_i.t_i(z).  Tables are kept in
semi-canonical form: branches in lexicographic domain order, tails freely
reduced, and complete sibling families merged into their parent branch
whenever the family is verbatim the expansion of a representable parent (for
trivial tails this is the unique minimal tree-pair form).  Text lists the
branches shortest domain first.  Semantic equality is decided by
eq(), never by comparing table shapes.  Dedup buckets maps by fingerprint,
which keys each tail by its minimal section automaton
(tails.canonical_key), and confirms every bucket hit with eq.

compose, star and as_idempotent are functools.lru_cache memos of at most
1,024 results each.  A key holds the operands themselves, compared
structurally: d and the branch tables, tails by their factor words, machines
by their tables.  A hit therefore returns exactly the table that building
again would give; no key is ever a fingerprint or an eq class.  product and
eq never read the memos, so a witness is still re-checked on raw branch
lists.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

from . import clopen as _clopen
from . import tails as _tails
from .clopen import holders, is_prefix, normalize
from .errors import AlphabetMismatch, CantorError, IncompatiblePair, LetterOutOfRange
from .tails import TailElement, free_reduce


@dataclass(frozen=True)
class Branch:
    dom: tuple
    ran: tuple
    tail: TailElement

    def __repr__(self):
        s = f"{_clopen.word_to_text(self.dom)}->{_clopen.word_to_text(self.ran)}"
        if self.tail.factors:
            s += f":{self.tail}"
        return f"[{s}]"


_dom_of = attrgetter("dom")


class PartialMap:
    """An element of PHomeo_c(X); the empty table is 0, [~ -> ~ : 1] is 1."""

    __slots__ = ("d", "branches", "_dom", "_ran", "_all_trivial", "_hash")

    def __init__(self, d, branches):
        # merging a complete sibling family keeps both sides antichains, so
        # checking the input is checking the result
        table = _checked_table(d, branches)
        table = _greedy_merge(d, table)
        self.d = d
        self.branches = tuple(table)
        self._dom = None
        self._ran = None
        self._all_trivial = all(not b.tail.factors for b in self.branches)
        self._hash = None

    def __repr__(self):
        # shortest domain first, lexicographic within a length
        return f"PartialMap(d={self.d}, {sorted(self.branches, key=lambda b: len(b.dom))})"

    def __eq__(self, other):
        # structural comparison of semi-canonical tables; semantic equality is eq()
        return (
            isinstance(other, PartialMap)
            and self.d == other.d
            and self.branches == other.branches
        )

    def __hash__(self):
        # hashing the table re-hashes every branch, so keep the result
        if self._hash is None:
            self._hash = hash((self.d, self.branches))
        return self._hash

    def is_zero(self):
        return not self.branches

    def dom_clopen(self):
        if self._dom is None:
            self._dom = normalize([b.dom for b in self.branches], self.d)
        return self._dom

    def ran_clopen(self):
        if self._ran is None:
            self._ran = normalize([b.ran for b in self.branches], self.d)
        return self._ran


def _checked_table(d, branches):
    """The branches as a checked table sorted by domain, tails freely reduced.

    Raises unless every tail is over the alphabet d and the domains and the
    ranges are antichains of words over it.  No sibling family is merged.
    """
    table = []
    for b in branches:
        if not isinstance(b, Branch):
            dom, ran, tail = b
            b = Branch(tuple(dom), tuple(ran), tail)
        if b.tail.d != d:
            raise AlphabetMismatch(f"tail alphabet {b.tail.d} in context {d}")
        factors = b.tail.factors
        if factors:
            reduced = free_reduce(factors)
            # free reduction only drops factors: equal length means unchanged
            if len(reduced) != len(factors):
                b = Branch(b.dom, b.ran, TailElement(d, reduced))
        table.append(b)
    table.sort(key=_dom_of)
    _check_antichain(d, [b.dom for b in table], "domain")
    _check_antichain(d, [b.ran for b in table], "range")
    return table


def _check_antichain(d, words, which):
    """Raise unless the words use letters below d and no word is a prefix of
    another.  In lexicographic order a word's extensions follow it directly,
    so comparing each word with the next one finds every comparable pair."""
    letters = set().union(*words)
    if letters and (min(letters) < 0 or max(letters) >= d):
        for w in words:
            if any(not 0 <= x < d for x in w):
                raise CantorError(f"letter out of range in {which} word {w}")
    ordered = sorted(words)
    for u, v in zip(ordered, ordered[1:]):
        if v[: len(u)] == u:
            if u == v:
                raise CantorError(f"duplicate {which} prefixes")
            raise CantorError(f"{which} prefixes {u} and {v} are comparable")


def _greedy_merge(d, table):
    """Merge complete sibling families into their parents, deepest first.

    The table must be sorted by domain and its domains an antichain.  One
    sweep in lexicographic order keeps the table sorted: a family is
    contiguous, it is complete when its last child arrives, and by then every
    child is final, so each parent is tried once and a merge at u can only
    make u's own family mergeable in turn.
    """
    kept = []
    for b in table:
        kept.append(b)
        u = b.dom
        while u and u[-1] == d - 1 and len(kept) >= d:
            u = u[:-1]
            family = kept[-d:]
            if any(family[x].dom != u + (x,) for x in range(d - 1)):
                break
            merged = _merge_family(d, u, family)
            if merged is None:
                break
            kept[-d:] = [merged]
    return kept


def _merge_family(d, u, family):
    """The branch at u that expands verbatim to the family, or None.

    The parent's tail is the first candidate whose root permutation is the
    family's range permutation rho and whose free-reduced sections are the
    children's tails.  The candidates, in order: the identity; then, child by
    child, the child's tail rc, and (f,) + rc freely reduced for each signed
    state f of rc's machines (machines in order of first appearance in rc,
    states in table order, exponent +1 before -1).  A family of trivial tails
    therefore merges only to the identity.

    Each child's letter action is read once.  A candidate (f,) + rc acts as
    f after rc, so its permutation is rho exactly when f's root permutation
    carries rc's to rho: only those f, read from their machine's by_perm
    index in candidate order, are tested, their sections from f's row of
    the machine table.  Free reduction changes neither a word's action nor
    the reduced form of its sections, so a candidate is tested before it is
    reduced, and reduced only to be kept.
    """
    # the ranges are d >= 2 antichain words (_checked_table), so none is empty,
    # and when they share a parent v they are v.rho(x) for a permutation rho
    v = family[0].ran[:-1]
    if any(b.ran[:-1] != v for b in family):
        return None
    rho = tuple(b.ran[-1] for b in family)
    targets = tuple(b.tail.factors for b in family)
    if not any(targets):
        return Branch(u, v, _tails.trivial(d)) if rho == tuple(range(d)) else None
    # a child's tail is not trivial, so the identity, whose sections are,
    # fails; so does a trivial child's tail, which is the identity again
    for rc in targets:
        if not rc:
            continue
        perm, sections = _tails.expand(d, rc)
        if perm == rho and sections == targets:
            return Branch(u, v, TailElement(d, rc))
        wanted = tuple(rho[perm.index(y)] for y in range(d))
        for m in dict.fromkeys(m for m, _, _ in rc):
            for f in m.by_perm.get(wanted, ()):
                residuals = [_tails.apply_state(f, y)[1] for y in perm]
                if all(
                    free_reduce((g,) + section) == target
                    for g, section, target in zip(residuals, sections, targets)
                ):
                    return Branch(u, v, TailElement(d, free_reduce((f,) + rc)))
    return None


# ---------------------------------------------------------------------------
# constructors


def zero(d):
    return PartialMap(d, ())


def one(d):
    return PartialMap(d, [Branch((), (), _tails.trivial(d))])


@lru_cache(maxsize=1024)
def as_idempotent(c):
    """The identity map on the clopen c."""
    t = _tails.trivial(c.d)
    return PartialMap(c.d, [Branch(w, w, t) for w in c.antichain])


# ---------------------------------------------------------------------------
# the inverse monoid operations


def _check_context(f, g):
    if f.d != g.d:
        raise AlphabetMismatch(f"alphabet {f.d} vs {g.d}")


def _compose_branches(fbs, gbranches):
    """The branches of f.g, from f's branches as f stores them and g's
    branches in any order.

    f's domains are an antichain in lexicographic order, so at most the one
    just before ran's insertion point is a prefix of ran, and otherwise the
    domains properly extending ran follow it as one run.
    """
    n = len(fbs)
    out = []
    for gb in gbranches:
        r = gb.ran
        i = bisect_right(fbs, r, key=_dom_of)
        fb = fbs[i - 1] if i else None
        if fb is not None and fb.dom == r[: len(fb.dom)]:
            # g lands inside this f branch
            img, s_res = _tails.apply_prefix(fb.tail, r[len(fb.dom) :])
            out.append(Branch(gb.dom, fb.ran + img, _tails.compose(s_res, gb.tail)))
            continue
        k = len(r)
        while i < n and fbs[i].dom[:k] == r:
            # only the part of the g branch mapping into [fb.dom] survives
            fb = fbs[i]
            w0, _ = _tails.apply_prefix(_tails.invert(gb.tail), fb.dom[k:])
            t_res = _tails.apply_prefix(gb.tail, w0)[1]
            out.append(Branch(gb.dom + w0, fb.ran, _tails.compose(fb.tail, t_res)))
            i += 1
    return out


@lru_cache(maxsize=1024)
def compose(f, g):
    """The partial homeomorphism x -> f(g(x)) on g^{-1}(dom f & ran g)."""
    _check_context(f, g)
    return PartialMap(f.d, _compose_branches(f.branches, g.branches))


def product(d, maps):
    """The product maps[0].maps[1]. ... , equal by eq to the compose fold.

    Composes right to left on raw branch lists, reading each map's branches
    in their stored, lexicographic order.  Every intermediate table gets the
    constructor's checks; sibling families are merged once, when the last
    table becomes a PartialMap.  Over trivial tails the result is the fold's
    table, since semi-canonical form is canonical there; over automaton tails
    the merge may pick another, eq-equal, table.
    """
    for m in maps:
        if m.d != d:
            raise AlphabetMismatch(f"alphabet {m.d} in context {d}")
    if not maps:
        return one(d)
    table = maps[-1].branches
    for i in range(len(maps) - 2, -1, -1):
        table = _compose_branches(maps[i].branches, table)
        if i:
            # the last table is checked by the constructor below
            table = _checked_table(d, table)
    return PartialMap(d, table)


@lru_cache(maxsize=1024)
def star(f):
    """The semigroup inverse: swap branch sides and invert tails."""
    branches = [Branch(b.ran, b.dom, _tails.invert(b.tail)) for b in f.branches]
    return PartialMap(f.d, branches)


def dom(f):
    return f.dom_clopen()


def ran(f):
    return f.ran_clopen()


def restrict(f, e):
    """Right multiplication by the idempotent on e: f restricted to e."""
    return compose(f, as_idempotent(e))


def _sides(m):
    """m's branches as (dom, ran, tail) triples."""
    return [(b.dom, b.ran, b.tail) for b in m.branches]


def _inverse_sides(m):
    """The branches of star(m) as (dom, ran, tail) triples, built without
    the constructor: each branch's sides swapped and its tail inverted."""
    return [(b.ran, b.dom, _tails.invert(b.tail)) for b in m.branches]


def _agree(xbs, ybs):
    """Whether the maps with these (dom, ran, tail) branches agree wherever
    their domains meet.

    Two branches with comparable domains are refined to the deeper domain;
    they agree there iff the refined range prefixes coincide verbatim and
    the tail quotient acts as the identity.
    """
    for xdom, xran, xtail in xbs:
        for ydom, yran, ytail in ybs:
            if is_prefix(xdom, ydom):
                img, xtail_at = _tails.apply_prefix(xtail, ydom[len(xdom) :])
                xran_at, yran_at, ytail_at = xran + img, yran, ytail
            elif is_prefix(ydom, xdom):
                img, ytail_at = _tails.apply_prefix(ytail, xdom[len(ydom) :])
                xran_at, yran_at, xtail_at = xran, yran + img, xtail
            else:
                continue
            if xran_at != yran_at:
                return False
            if not _tails.equal(xtail_at, ytail_at):
                return False
    return True


def eq(x, y):
    """Exact equality as partial homeomorphisms: equal domains, on which
    the two tables agree."""
    _check_context(x, y)
    if x.branches == y.branches:
        return True
    if x._all_trivial and y._all_trivial:
        # semi-canonical form is canonical for trivial tails
        return False
    if x.dom_clopen() != y.dom_clopen():
        return False
    return _agree(_sides(x), _sides(y))


def leq(x, y):
    """The natural partial order, x = y restricted to dom(x): dom(x) lies in
    dom(y) and the two tables agree on it."""
    _check_context(x, y)
    return x.dom_clopen().leq(y.dom_clopen()) and _agree(_sides(x), _sides(y))


def is_idempotent(m):
    """m is the identity on its domain: every branch maps its domain
    cylinder onto itself by an identity-acting tail."""
    return all(
        b.dom == b.ran and (not b.tail.factors or _tails.is_identity(b.tail))
        for b in m.branches
    )


def compatible(x, y):
    """x and y glue to a partial map: x*y and xy* are idempotents.

    Read off the branch tables without building a map: x and y agree where
    their domains meet (xy* is idempotent), and x* and y* agree where their
    ranges meet (x*y is idempotent).
    """
    _check_context(x, y)
    return _agree(_sides(x), _sides(y)) and _agree(_inverse_sides(x), _inverse_sides(y))


def disjoint(x, y):
    """x and y are orthogonal, x*y = 0 = xy*: disjoint domains and ranges."""
    return dom(x).disjoint(dom(y)) and ran(x).disjoint(ran(y))


def join(elems):
    """Least upper bound of pairwise compatible elements.

    Orthogonal elements are always compatible, and their join is the union
    of their tables: the inputs are pairwise orthogonal exactly when the
    constructor accepts their concatenated table, whose domains and ranges
    must be antichains.  Inputs that overlap are proved compatible pair by
    pair, each proof read off the two branch tables by compatible (the first
    failing pair raises IncompatiblePair(i, j)), and glued keeping the
    shallowest of the branches whose domains are comparable: in lexicographic
    order a domain's extensions follow it directly, so one sweep keeps a
    branch unless the last kept domain is a prefix of its own.
    """
    elems = list(elems)
    if not elems:
        raise CantorError("join of no elements has no context")
    d = elems[0].d
    for m in elems:
        _check_context(elems[0], m)
    pool = [b for m in elems for b in m.branches]
    try:
        return PartialMap(d, pool)
    except CantorError:
        pass  # two inputs' domains or ranges meet
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if not compatible(elems[i], elems[j]):
                raise IncompatiblePair(i, j)
    pool.sort(key=_dom_of)
    kept = []
    for b in pool:
        if not kept or not is_prefix(kept[-1].dom, b.dom):
            kept.append(b)
    return PartialMap(d, kept)


def is_unit(f):
    return dom(f).is_full() and ran(f).is_full()


# ---------------------------------------------------------------------------
# evaluation


IMAGE = "image"
UNDEFINED = "undefined"
TOO_SHALLOW = "too_shallow"


@dataclass(frozen=True)
class EvalResult:
    kind: str
    prefix: tuple = None
    residual: TailElement = None


def eval_at(f, w):
    """Evaluate f on the cylinder of w.

    Image(prefix, residual) with f(w.z) = prefix.residual(z) when a single
    branch covers [w]; TooShallow when w is a proper prefix of some branch
    domain; Undefined when [w] misses dom(f).  A letter outside the alphabet
    raises LetterOutOfRange.
    """
    w = tuple(w)
    for b in f.branches:
        if is_prefix(b.dom, w):
            img, res = _tails.apply_prefix(b.tail, w[len(b.dom) :])
            return EvalResult(IMAGE, b.ran + img, res)
    if any(is_prefix(w, b.dom) for b in f.branches):
        return EvalResult(TOO_SHALLOW)
    if any(not 0 <= x < f.d for x in w):
        raise LetterOutOfRange(f"letter out of range in {w}")
    return EvalResult(UNDEFINED)


def _word_image(f, w):
    """The words whose cylinders make up f([w] & dom f), not normalized: the
    image of w through the branch whose domain is a prefix of w, else the
    ranges of the branches whose domains extend w."""
    words = []
    for b in f.branches:
        if is_prefix(b.dom, w):
            # domains form an antichain, so no other branch meets [w]
            return (b.ran + _tails.apply_prefix(b.tail, w[len(b.dom) :])[0],)
        if is_prefix(w, b.dom):
            words.append(b.ran)
    return tuple(words)


def image_clopen(f, c):
    """The image f(c & dom f) as a clopen set.

    Equal to ran(restrict(f, c)), read off the branches without building
    the restricted map: a word of c inside a branch domain maps through the
    branch, and a branch domain inside a word of c contributes its range.
    """
    if f.d != c.d:
        raise AlphabetMismatch(f"alphabet {f.d} vs {c.d}")
    words = []
    for w in c.antichain:
        words += _word_image(f, w)
    return normalize(words, f.d)


def fingerprint(f):
    """Hashable prebucket key; eq is the final arbiter within a bucket.

    Each tail is keyed by tails.canonical_key, so tails that act alike share
    a key.  The key is therefore exact for every map whose semi-canonical
    table is canonical: trivial-tail maps and single-branch maps.  Two eq
    maps with different branch tables, which only the heuristic sibling
    merge can leave, still get different keys, and so can eq tails whose
    section closures are too large for canonical_key to minimize.
    """
    return tuple(
        (b.dom, b.ran, _tails.canonical_key(b.tail) if b.tail.factors else ()) for b in f.branches
    )


class Dedup:
    """Dedupe-by-eq collection with fingerprint prebuckets.

    add() returns the canonical representative (the first eq-equal element
    seen), so callers can both dedupe and canonicalize references.
    """

    def __init__(self):
        self._buckets = {}

    def add(self, m, payload=None):
        key = fingerprint(m)
        bucket = self._buckets.setdefault(key, [])
        for other, other_payload in bucket:
            if eq(other, m):
                return other, other_payload, False
        bucket.append((m, payload))
        return m, payload, True

    def find(self, m):
        """(representative, payload) for an eq-equal member, or None."""
        for other, payload in self._buckets.get(fingerprint(m), ()):
            if eq(other, m):
                return other, payload
        return None

    def __contains__(self, m):
        return self.find(m) is not None


class WordBall:
    """Distinct products of the letters, grown a level at a time on demand.

    Level n holds the (map, word) pairs first reached at length n; word is
    a tuple of letter indices, and map is the product of those letters, the
    last applied first.  The order is breadth first, each level extending the
    last on the right, deduped by Dedup, the identity (word ()) first.  A
    level is built only when a reader asks for it.
    """

    def __init__(self, letters, d):
        self.letters = tuple(letters)
        self.d = d
        self._levels = []
        self._dedup = Dedup()

    def _grow(self):
        """Append the next level."""
        levels = self._levels
        try:
            if not levels:
                start = one(self.d)
                self._dedup.add(start)
                levels.append(((start, ()),))
                return
            nxt = []
            for m, word in levels[-1]:
                for i, a in enumerate(self.letters):
                    p = compose(m, a)
                    if self._dedup.add(p)[2]:
                        nxt.append((p, word + (i,)))
            levels.append(tuple(nxt))
        except BaseException:
            # a level cut short leaves words in the Dedup that no level holds
            self._levels = []
            self._dedup = Dedup()
            raise

    def levels(self, max_len):
        """Yield the levels of lengths 0..max_len, each a tuple of pairs."""
        for n in range(max_len + 1):
            while n >= len(self._levels):
                self._grow()
            yield self._levels[n]

    def words(self, max_len):
        """Yield the (map, word) pairs of length <= max_len in ball order."""
        for level in self.levels(max_len):
            yield from level


# the most entries each memo of an image walker holds before it is emptied
WALK_MEMO_SIZE = 1 << 16


def image_walks(maps):
    """The walk over the images of clopens under maps: the function
    (sources, max_len) that yields the distinct images of the source
    clopens, level by word length.

    Level n lists the (image, word, source) triples first reached at length
    n: word is a tuple of indices into maps, the last applied first, and a
    map is applied to an image only when the image lies in its domain.
    Level 0 is the sources in order, and each later level takes the images
    of the one before in order, each under every map in order whose domain
    holds it; those maps are read off one index of the maps' domain words
    (clopen.holders), not tested map by map.  An image is kept, and
    extended, only at the first word that reaches it; no image is lost,
    because what a map does to an image depends on the image alone.  A
    walk whose sources are over another alphabet than the maps raises
    AlphabetMismatch before its first level.

    The walker is built for many walks over the same maps, and keeps what
    they share for as long as it lives: the domain index, built here; the
    image words (_word_image) of each (map, antichain word) pair, one dict
    per map; and one dict from the sorted raw image words to their
    normalized clopen, so each raw image is normalized once.  Each memo is
    emptied when it holds WALK_MEMO_SIZE entries.  Each walk keeps its own
    set of images met, so its levels do not depend on the walks before it.
    """
    holding = holders([dom(m) for m in maps])
    word_images = [{} for _ in maps]
    normalized = {}

    def walk(sources, max_len):
        sources = tuple(sources)
        if maps:
            for c in sources:
                if c.d != maps[0].d:
                    raise AlphabetMismatch(f"alphabet {maps[0].d} vs {c.d}")
        if max_len < 0:
            return
        seen = set()
        level = []
        for c in sources:
            if c.antichain not in seen:
                seen.add(c.antichain)
                level.append((c, (), c))
        yield level
        for _ in range(max_len):
            nxt = []
            for img, word, src in level:
                for i in holding(img):
                    known = word_images[i]
                    raw = []
                    for w in img.antichain:
                        image = known.get(w)
                        if image is None:
                            if len(known) >= WALK_MEMO_SIZE:
                                known.clear()
                            image = known[w] = _word_image(maps[i], w)
                        raw.extend(image)
                    raw.sort()
                    raw = tuple(raw)
                    c = normalized.get(raw)
                    if c is None:
                        if len(normalized) >= WALK_MEMO_SIZE:
                            normalized.clear()
                        c = normalized[raw] = normalize(raw, img.d)
                    if c.antichain not in seen:
                        seen.add(c.antichain)
                        nxt.append((c, (i,) + word, src))
            level = nxt
            yield level

    return walk
