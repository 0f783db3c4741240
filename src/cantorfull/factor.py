"""Factoring alternating-group units over covers and combines.

Both factorizations rest on the perfectness of small alternating groups.
Over a cover, the word is assembled by inclusion-exclusion: for each set of
pieces whose bases meet, a meet word acts as a power of pi over the meet and
as the identity elsewhere, since [a1, pi][a2, pi] = pi^-1 and a commutator
vanishes where either of its factors does.  Over every point these powers
commute and their exponents sum to 1.  Across a combine, two 3-cycles that
share only the base p have the commutator [(p u a), (p v b)] = (p u v), so
every Alt element of the glued section is a word in the two sides' 3-cycles.
Every witness word is re-verified on another path: word_product multiplies
its letters with pmap.product, and eq compares the result with the target.

A factored section is a KitSection or a CombinedSection.  Both carry their
multisection as .msec and answer word_for(pi) with a tuple of
(section_index, permutation) kit letters whose product is
element(self.msec, pi), for every even pi.
"""

from functools import lru_cache

from . import certs
from .clopen import empty
from .errors import CantorError, NotInAlt
from .msec import (
    alt_perms,
    combine,
    cycle_perm,
    element,
    embed_subperm,
    identity_perm,
    is_even,
    perm_compose,
    perm_inverse,
    pivot_three_cycles,
    sub_section,
)
from .pmap import eq, product


def word_product(word, sections, d):
    """The product of the units named by a word of (section_index, perm) pairs.

    A witness word repeats a few letters many times, so each distinct letter
    is built by element once per call.
    """
    units = {}
    letters = []
    for idx, perm in word:
        letter = (idx, tuple(perm))
        u = units.get(letter)
        if u is None:
            u = units[letter] = element(sections[idx], perm)
        letters.append(u)
    return product(d, letters)


def inverse_word(word):
    return [(idx, perm_inverse(perm)) for idx, perm in reversed(word)]


@lru_cache(maxsize=1024)
def _commutator_product_pair(pi):
    """First pair (a1, a2) of even permutations with [a1,pi][a2,pi] = pi^-1."""
    target = perm_inverse(pi)
    alts = alt_perms(len(pi))

    def comm(a):
        return perm_compose(
            perm_compose(a, pi), perm_compose(perm_inverse(a), perm_inverse(pi))
        )

    for a1 in alts:
        c1 = comm(a1)
        for a2 in alts:
            if perm_compose(c1, comm(a2)) == target:
                return a1, a2
    raise CantorError(f"no commutator pair for {pi}")  # impossible for alternating n>=5


def _meet_word(ks, pi):
    """Letters acting as pi^-1 over the meet of the bases of pieces ks, and as
    the identity elsewhere: [ks[0]: a1, w][ks[0]: a2, w] for a word w acting
    as pi over the meet of the others, since [a1, pi][a2, pi] = pi^-1."""
    if len(ks) == 1:
        return [(ks[0], perm_inverse(pi))]
    w = inverse_word(_meet_word(ks[1:], pi))
    word = []
    for a in _commutator_product_pair(pi):
        word += [(ks[0], a)] + w + [(ks[0], perm_inverse(a))] + inverse_word(w)
    return word


def factor_over_cover(target, pi, cover, node_budget=certs.DEFAULT_NODE_BUDGET):
    """Express element(parent, pi) as a word over the pieces' Alt elements.

    By inclusion-exclusion: for each piece k whose base is not inside the
    earlier pieces, and each set T of k and earlier such pieces whose bases
    meet, a meet word with k outermost acts as pi over the meet of T if T has
    odd size, as pi^-1 if even, and as the identity elsewhere.  One node is
    spent per letter.  The witness is a list of (piece_index, permutation)
    pairs and always re-evaluates to the target by eq.
    """
    parent = cover.parent
    pieces = cover.pieces
    if not is_even(pi):
        raise NotInAlt(f"{pi} is odd")
    if not eq(target, element(parent, pi)):
        raise NotInAlt("target is not the parent element of the supplied permutation")
    budget = certs.Budget({"node_budget": node_budget})

    if pi == identity_perm(parent.degree):
        return budget.witness({"word": [], "pieces": len(pieces)})

    word, kept, covered = [], [], empty(parent.d)
    try:
        for k, piece in enumerate(pieces):
            b = piece.base
            if b.leq(covered):
                continue
            # k with each set of earlier kept pieces that meets b, and the meet
            sets = [((k,), b)]
            for j, base in kept:
                sets += [(ks + (j,), m) for ks, c in sets if not (m := c.meet(base)).is_empty()]
            for ks, _ in sets:
                mw = _meet_word(ks, pi)
                for letter in inverse_word(mw) if len(ks) % 2 else mw:
                    budget.tick()
                    word.append(letter)
            kept.append((k, b))
            covered = covered.union(b)
    except certs.GiveUp as stop:
        return budget.exhausted(str(stop))
    if not eq(word_product(word, pieces, parent.d), target):
        return budget.exhausted("construction failed verification")
    return budget.witness({"word": word, "pieces": len(pieces)})


# ---------------------------------------------------------------------------
# factored sections: alternating elements with words over a kit


class KitSection:
    """A section whose Alt elements are kit generators themselves."""

    def __init__(self, msec, kit_index):
        self.msec = msec
        self.kit_index = kit_index

    def word_for(self, pi):
        if not is_even(pi):
            raise NotInAlt(f"{pi} is odd")
        if pi == identity_perm(self.msec.degree):
            return ()
        return ((self.kit_index, pi),)


class CombinedSection:
    """combine() of two factored sections; Alt words via cross 3-cycles.

    A 3-cycle (0 u v) of combined columns through the base 0, with u from the
    g side and v from the h side, is the commutator [(0 u a), (0 v b)] of a
    3-cycle of each side, a and b further columns of their sides: the two
    3-cycles share only the base, and each fixes the other side's columns.
    A same-side 3-cycle is routed through a column of the other side.  Each
    side needs three columns.
    """

    def __init__(self, msec, g, g_cols, i1, h, h_cols, i2):
        self.msec = msec
        self.g, self.h = g, h
        self.g_cols, self.h_cols = tuple(g_cols), tuple(h_cols)
        self.i1, self.i2 = i1, i2
        # combined column -> ("g"|"h", parent column); column 0 is the base
        self.col_of = [("g", i1)]
        for k in self.g_cols:
            if k != i1:
                self.col_of.append(("g", k))
        for l in self.h_cols:
            if l != i2:
                self.col_of.append(("h", l))

    def _cross_cycle_word(self, u, v):
        """Letters for the 3-cycle (0 u v) with u from one side, v the other."""
        (su, cu), (sv, cv) = self.col_of[u], self.col_of[v]
        if su == sv:
            raise CantorError("cross cycle needs one column from each side")
        if su == "h":
            # (0 u v) is the inverse of (0 v u), which has its first column
            # on the g side
            word = self._cross_cycle_word(v, u)
            return [(s, perm_inverse(p)) for s, p in reversed(word)]
        # (0 u v) = [(0 u a), (0 v b)] for a further column a of each side
        letters = []
        for cols, base, c in ((self.g_cols, self.i1, cu), (self.h_cols, self.i2, cv)):
            if len(cols) < 3:
                raise CantorError(f"no commutator realizes the cross cycle (0 {u} {v})")
            p, q = cols.index(base), cols.index(c)
            r = next(k for k in range(len(cols)) if k not in (p, q))
            letters.append(cycle_perm(len(cols), [p, q, r]))
        sigma, tau = letters
        return [("g", sigma), ("h", tau), ("g", perm_inverse(sigma)), ("h", perm_inverse(tau))]

    def _cycle_word(self, u, v):
        """Letters for the 3-cycle (0 u v) of combined columns."""
        (su, _), (sv, _) = self.col_of[u], self.col_of[v]
        if su != sv:
            return self._cross_cycle_word(u, v)
        other = "h" if su == "g" else "g"
        spare = [w for w in range(1, self.msec.degree) if self.col_of[w][0] == other]
        if not spare:
            raise CantorError("no opposite-side column to route a same-side cycle")
        w = spare[0]
        # (0 u v) = (0 w v) o (0 u w), words in composition order
        return self._cycle_word(w, v) + self._cycle_word(u, w)

    def _letters_for(self, pi):
        # pi as 3-cycles through column 0, the base
        letters = []
        for y, x in pivot_three_cycles(pi, 0):
            letters.extend(self._cycle_word(y, x))
        return letters

    def combined_col(self, side, parent_col):
        """Index of a parent column inside the combined section."""
        if (side, parent_col) == ("h", self.i2):
            return 0
        return self.col_of.index((side, parent_col))

    def word_for(self, pi):
        if not is_even(pi):
            raise NotInAlt(f"{pi} is odd")
        if pi == identity_perm(self.msec.degree):
            return ()
        out = []
        for side, sub_perm in self._letters_for(pi):
            if side == "g":
                parent, cols = self.g, self.g_cols
            else:
                parent, cols = self.h, self.h_cols
            full = embed_subperm(sub_perm, cols, parent.msec.degree)
            out.extend(parent.word_for(full))
        return tuple(out)


def combine_factored(fs_g, g_cols, fs_h, h_cols):
    """Combine sub-sections of two factored sections into a factored section.

    Each column tuple is headed by its sub-section's base (see sub_section),
    and the parents' supports restricted to those columns must meet in
    exactly one idempotent pair; the underlying combine() verifies this.
    The glued base lies in one idempotent of each side, the pair's.
    """
    g_sub = sub_section(fs_g.msec, g_cols)
    h_sub = sub_section(fs_h.msec, h_cols)
    glued = combine(g_sub, h_sub)
    i_sub = next(i for i, a in enumerate(g_sub.idems) if not a.disjoint(glued.base))
    j_sub = next(j for j, b in enumerate(h_sub.idems) if not b.disjoint(glued.base))
    return CombinedSection(
        glued, fs_g, g_cols, g_cols[i_sub], fs_h, h_cols, h_cols[j_sub]
    )
