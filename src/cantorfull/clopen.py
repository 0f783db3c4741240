"""Boolean algebra of clopen subsets of the Cantor space A^N.

A clopen set is stored as its canonical reduced prefix antichain: no word is
a proper prefix of another, no full sibling family w0..w(d-1) is present, and
words are in lexicographic order, the order every sweep over them reads.  Text
lists the words shortest first.  The empty antichain is the empty set; the
antichain {()} (the empty word) is the whole space.
"""

from itertools import product

from .errors import AlphabetMismatch, CantorError, LetterOutOfRange

Word = tuple  # tuple of ints < d


def word_from_text(text):
    """Parse a word literal: a digit string, or "~" for the empty word."""
    if text == "~":
        return ()
    if text.strip("0123456789"):
        raise CantorError(f"word {text!r} is not a digit string or ~")
    return tuple(int(ch) for ch in text)


def checked_alphabet(d):
    """d itself, when it is an alphabet whose words print as digit strings."""
    if not 2 <= d <= 10:
        raise CantorError(
            f"alphabet size must be at least 2 and at most 10 (words are digit strings), not {d}"
        )
    return d


def word_to_text(word):
    if not word:
        return "~"
    return "".join(str(x) for x in word)


def is_prefix(u, v):
    """True iff u is a (not necessarily proper) prefix of v."""
    return len(u) <= len(v) and v[: len(u)] == u


class Clopen:
    """A clopen subset of A^N as a canonical reduced prefix antichain."""

    __slots__ = ("d", "antichain")

    def __init__(self, d, antichain):
        # antichain must already be canonical; use normalize() otherwise
        self.d = d
        self.antichain = antichain

    def __eq__(self, other):
        return (
            isinstance(other, Clopen)
            and self.d == other.d
            and self.antichain == other.antichain
        )

    def __hash__(self):
        return hash((self.d, self.antichain))

    def __repr__(self):
        return f"Clopen(d={self.d}, {self})"

    def __str__(self):
        # shortest first; sorted is stable, so lexicographic within a length
        return "{" + ", ".join(word_to_text(w) for w in sorted(self.antichain, key=len)) + "}"

    def is_empty(self):
        return not self.antichain

    def is_full(self):
        return self.antichain == ((),)

    def contains_word(self, w):
        """True iff the cylinder of w lies inside this set."""
        return any(is_prefix(u, w) for u in self.antichain)

    def union(self, other):
        self._check(other)
        return normalize(self.antichain + other.antichain, self.d)

    def meet(self, other):
        self._check(other)
        words = []
        for u in self.antichain:
            for v in other.antichain:
                if is_prefix(u, v):
                    words.append(v)
                elif is_prefix(v, u):
                    words.append(u)
        return normalize(words, self.d)

    def disjoint(self, other):
        """True iff the sets do not meet: two cylinders meet exactly when
        one word is a prefix of the other, so no meet is normalized."""
        self._check(other)
        return not any(
            is_prefix(u, v) or is_prefix(v, u)
            for u in self.antichain
            for v in other.antichain
        )

    def complement(self):
        """The complement, in one sweep over the antichain.

        In lexicographic order the words extending a prefix are contiguous
        and follow the prefix itself, so each trie node splits its run of
        words by their next letter: a node that is a word lies inside the
        set, a node with no word in its run lies outside it and is kept, and
        any other node recurses.  The kept nodes are already canonical: they
        form an antichain, and no full sibling family of them is kept,
        because their parent's run holds a word; the walk meets them in
        lexicographic order.
        """
        words = self.antichain
        out = []

        def walk(prefix, lo, hi):
            if lo == hi:
                out.append(prefix)
                return
            if words[lo] == prefix:
                return
            n = len(prefix)
            for x in range(self.d):
                mid = lo
                while mid < hi and words[mid][n] == x:
                    mid += 1
                walk(prefix + (x,), lo, mid)
                lo = mid

        walk((), 0, len(words))
        return Clopen(self.d, tuple(out))

    def leq(self, other):
        """Set containment: self is a subset of other."""
        self._check(other)
        return all(other.contains_word(u) for u in self.antichain)

    def words_at_depth(self, n):
        """All length-n words whose cylinders lie inside this set, in
        lexicographic order.

        Every antichain word must have length <= n for the result to cover
        the set exactly.
        """
        out = []
        for u in self.antichain:
            if len(u) > n:
                raise ValueError(f"antichain word {u} deeper than {n}")
            for tail in product(range(self.d), repeat=n - len(u)):
                out.append(u + tail)
        return out

    def _check(self, other):
        if self.d != other.d:
            raise AlphabetMismatch(f"alphabet {self.d} vs {other.d}")


def normalize(words, d):
    """Canonical Clopen with the same union of cylinders as the given words.

    One sweep in lexicographic order, where a word comes right after its
    prefixes and a sibling family is contiguous once absorbed words are
    dropped: a word with a kept prefix is absorbed, and a word completing a
    sibling family replaces it by the parent, which may complete the
    parent's family in turn.  A merged parent never needs re-absorbing,
    because a prefix of it would have absorbed its children.
    """
    pool = set()
    for w in words:
        w = tuple(w)
        for x in w:
            if not 0 <= x < d:
                raise LetterOutOfRange(f"letter out of range in {w}")
        pool.add(w)
    if len(pool) == 1 and d > 1:
        return Clopen(d, tuple(pool))

    kept = []
    for w in sorted(pool):
        if kept and w[: len(kept[-1])] == kept[-1]:
            continue
        kept.append(w)
        while w and w[-1] == d - 1 and len(kept) >= d:
            parent = w[:-1]
            if any(kept[x - d] != parent + (x,) for x in range(d - 1)):
                break
            del kept[-d:]
            kept.append(parent)
            w = parent
    return Clopen(d, tuple(kept))


def empty(d):
    return Clopen(d, ())


def full(d):
    return Clopen(d, ((),))


def cylinder(w, d):
    return normalize([tuple(w)], d)


def union_all(clopens, d):
    """The union of the clopens, normalized once."""
    words = []
    for c in clopens:
        if c.d != d:
            raise AlphabetMismatch(f"alphabet {d} vs {c.d}")
        words.extend(c.antichain)
    return normalize(words, d)


def atoms(n, d):
    """The d^n depth-n cylinders in lexicographic order."""
    if n < 0:
        raise CantorError("depth must be nonnegative")
    return [Clopen(d, (w,)) for w in product(range(d), repeat=n)]


def atoms_at_most(n, d, limit):
    """atoms(n, d), or None when there are more than limit of them; they are
    counted a level at a time, so d^n is never computed."""
    count = 1
    for _ in range(n):
        count *= d
        if count > limit:
            return None
    return atoms(n, d)


# the most depth-n cells atoms:N, dyn minimal and dyn expansive list: depth 10
# over two letters
MAX_CELLS = 1024


def depth_cells(n, d):
    """atoms(n, d), refused before any is built when there are over MAX_CELLS."""
    cells = atoms_at_most(n, d, MAX_CELLS)
    if cells is None:
        raise CantorError(f"depth-{n} cells number {d}^{n}, over {MAX_CELLS}")
    return cells


def is_partition(parts):
    """True iff parts are nonempty, pairwise disjoint, with union the whole space."""
    if not parts:
        return False
    d = parts[0].d
    covered = empty(d)
    for i, p in enumerate(parts):
        if p.d != d:
            raise AlphabetMismatch("mixed alphabets in partition")
        if p.is_empty():
            return False
        if not p.disjoint(covered):
            return False
        covered = covered.union(p)
    return covered.is_full()


def part_lookup(parts):
    """The function c -> index of the part containing c, or None if c is
    empty or straddles, with the index of the parts' words built once.

    The parts must be pairwise disjoint.  Each word of c walks its prefixes
    through an index of the parts' words: a cylinder lies inside a canonical
    clopen iff one of its antichain words is a prefix of the cylinder's word;
    the walk stops at the first, since disjoint parts hold at most one."""
    index = {w: i for i, p in enumerate(parts) for w in p.antichain}

    def lookup(c):
        found = None
        for w in c.antichain:
            for k in range(len(w) + 1):
                hit = index.get(w[:k])
                if hit is not None:
                    break
            else:
                return None
            if found not in (None, hit):
                return None
            found = hit
        return found

    return lookup


def holders(clopens):
    """The function c -> [i, ...], the indices in order of the clopens that
    contain c, with the index of the clopens' words built once.

    c lies inside a clopen iff each word of c has a prefix among the
    clopen's antichain words (Clopen.leq), so each word of c looks up its
    own prefixes in a dict from antichain word to the clopens holding it,
    and the answer is the intersection over the words of c; the empty c
    lies inside every clopen.  An antichain holds at most one prefix of a
    word, so one word's hits name each clopen once."""
    index = {}
    for i, x in enumerate(clopens):
        for w in x.antichain:
            index.setdefault(w, []).append(i)
    everything = range(len(clopens))

    def lookup(c):
        found = None
        for w in c.antichain:
            hits = [i for k in range(len(w) + 1) for i in index.get(w[:k], ())]
            found = set(hits) if found is None else found.intersection(hits)
            if not found:
                return []
        return list(everything) if found is None else sorted(found)

    return lookup
