"""Independent correctness checks for benchmark operations.

Nothing here calls cantorfull's operations.  The checks read the raw data of
the program's objects (branch tables, antichains, machine tables) and walk
words through them letter by letter, so they can arbitrate what compose, eq,
join and the searches returned.

Maps whose branches all carry trivial tails are prefix replacements on each
branch cylinder.  For them `leaves` propagates whole cylinders through a chain
of maps, refining a cylinder only where some branch prefix is longer, so the
comparison covers every point of the space.  Maps with Mealy-machine tails
are compared on all words of a fixed depth: a finite-depth truth, not a proof.
"""

from itertools import product

SHALLOW = "shallow"


# -- words and tails --------------------------------------------------------------


def tail_walk(factors, w):
    """Image of the word w under a signed state word (rightmost acts first)."""
    states = [[m, s, e] for m, s, e in factors]
    out = []
    for x in w:
        for f in reversed(states):
            m, s, e = f
            if e == 1:
                y = m.output[s][x]
                f[1] = m.transition[s][x]
            else:
                y = m.output[s].index(x)
                f[1] = m.transition[s][y]
            x = y
        out.append(x)
    return tuple(out)


def inverse_factors(factors):
    return tuple((m, s, -e) for m, s, e in reversed(factors))


def proper_prefixes(words):
    return {w[:k] for w in words for k in range(len(w))}


def words_at(d, depth):
    return list(product(range(d), repeat=depth))


def expand(words, depth, d):
    """The set of depth-`depth` words below the given cylinders."""
    out = set()
    for w in words:
        for z in product(range(d), repeat=depth - len(w)):
            out.add(tuple(w) + z)
    return out


def parse_antichain(text):
    """Words of a printed clopen such as "{00, 1}" or "{~}"."""
    body = text.strip()[1:-1].strip()
    if not body:
        return []
    return [() if t.strip() == "~" else tuple(int(c) for c in t.strip()) for t in body.split(",")]


def same_set(words_a, words_b, d):
    depth = max((len(w) for w in list(words_a) + list(words_b)), default=0)
    return expand(words_a, depth, d) == expand(words_b, depth, d)


# -- maps as pointwise steps ------------------------------------------------------


class Table:
    """A branch table read from its raw (dom, ran, tail factors) triples."""

    def __init__(self, branches, inverse=False):
        rows = [(tuple(b[0]), tuple(b[1]), tuple(b[2])) for b in branches]
        if inverse:
            rows = [(r, u, inverse_factors(t)) for u, r, t in rows]
        self.rows = {u: (r, t) for u, r, t in rows}
        self.lengths = sorted({len(u) for u in self.rows})
        self.shallow = proper_prefixes(self.rows)

    @classmethod
    def of(cls, m, inverse=False):
        return cls([(b.dom, b.ran, b.tail.factors) for b in m.branches], inverse)

    def __call__(self, w):
        """Image of w, None when [w] misses the domain, SHALLOW when w is a
        proper prefix of a branch domain."""
        for k in self.lengths:
            if k > len(w):
                break
            hit = self.rows.get(w[:k])
            if hit is not None:
                ran, tail = hit
                rest = w[k:]
                return ran + (tail_walk(tail, rest) if tail else rest)
        if w in self.shallow:
            return SHALLOW
        return None


class Element:
    """The unit of a multisection and a permutation, read from its transporters'
    branch triples: on e_i = ran(f_i) it acts as f_pi(i) f_i^-1, elsewhere as
    the identity."""

    def __init__(self, transporters, perm):
        self.perm = perm
        self.back = {}
        for i, rows in enumerate(transporters):
            for dom, ran, tail in rows:
                if tail:
                    raise ValueError("element oracle handles trivial tails only")
                self.back[tuple(ran)] = (i, tuple(dom))
        self.back_lengths = sorted({len(r) for r in self.back})
        self.shallow = proper_prefixes(self.back)
        self.forward = [Table(rows) for rows in transporters]

    @classmethod
    def of(cls, transporters, perm):
        return cls([[(b.dom, b.ran, b.tail.factors) for b in f.branches] for f in transporters],
                   perm)

    def __call__(self, w):
        for k in self.back_lengths:
            if k > len(w):
                break
            hit = self.back.get(w[:k])
            if hit is not None:
                i, dom = hit
                return self.forward[self.perm[i]](dom + w[k:])
        if w in self.shallow:
            return SHALLOW
        return w


def leaves(steps, d, start=(), max_depth=64):
    """Cylinders below `start` on which the chain (steps[0] acts first) is a
    single prefix replacement, with their images (None where undefined).

    Every step must have trivial tails: then the image of w.x is the image of
    w followed by x, so a cylinder can be refined in the middle of the chain.
    """
    work = [(tuple(start), tuple(start), 0)]
    while work:
        orig, cur, k = work.pop()
        while k < len(steps):
            r = steps[k](cur)
            if r is SHALLOW:
                if len(orig) >= max_depth:
                    raise ValueError("refinement exceeded the depth limit")
                work.extend((orig + (x,), cur + (x,), k) for x in range(d))
                break
            if r is None:
                yield orig, None
                break
            cur = r
            k += 1
        else:
            yield orig, cur


def chains_agree(lhs, rhs, d):
    """True iff two chains of trivial-tail maps act identically everywhere."""
    for orig, img in leaves(lhs, d):
        for sub, other in leaves(rhs, d, start=orig):
            mine = None if img is None else img + sub[len(orig):]
            if mine != other:
                return False
    return True


def fixes(step, clopen_words, d):
    """True iff the trivial-tail map fixes every point of the clopen."""
    for u in clopen_words:
        for orig, img in leaves([step], d, start=u):
            if img != orig:
                return False
    return True


def point_image(steps, w):
    """Image of a finite word under a chain of steps (steps[0] acts first)."""
    for step in steps:
        w = step(w)
        if w is None or w is SHALLOW:
            return w
    return w


def chains_agree_at_depth(lhs, rhs, d, depth):
    """Pointwise agreement on every word of the given depth; any SHALLOW
    answer is a failure to decide, reported as disagreement."""
    for w in words_at(d, depth):
        a, b = point_image(lhs, w), point_image(rhs, w)
        if a is SHALLOW or b is SHALLOW or a != b:
            return False
    return True


# -- translates of a partition (expansivity) -----------------------------------------


def image_cylinders(step, words, d):
    """Image of the clopen with the given cylinders under a total unit step.

    A word at or below a branch domain has a whole cylinder as image, because
    machine tails permute each level of the tree; shallower words are refined.
    """
    out, work = [], list(words)
    while work:
        w = work.pop()
        r = step(w)
        if r is SHALLOW:
            work.extend(w + (x,) for x in range(d))
        elif r is None:
            raise ValueError("a unit step left its domain")
        else:
            out.append(r)
    return reduced(out, d)


def reduced(words, d):
    """The shortest antichain with the same union as the given disjoint cylinders."""
    cur = set(words)
    for depth in range(max((len(w) for w in cur), default=0), 0, -1):
        for w in [w for w in cur if len(w) == depth and w[-1] == 0]:
            kids = [w[:-1] + (x,) for x in range(d)]
            if all(k in cur for k in kids):
                cur.difference_update(kids)
                cur.add(w[:-1])
    return frozenset(cur)


def translate_levels(steps, parts, max_len, d):
    """Distinct translates w(alpha) of the parts (each a list of cylinder
    words), level by level: level L holds those first reached by a unit word
    of length L."""
    level = {reduced([tuple(w) for w in p], d) for p in parts}
    seen = set(level)
    levels = [level]
    for _ in range(max_len):
        fresh = set()
        for t in levels[-1]:
            for step in steps:
                img = image_cylinders(step, t, d)
                if img not in seen:
                    seen.add(img)
                    fresh.add(img)
        levels.append(fresh)
    return levels


def separates(translates, depth, d):
    """True iff the meets of the translates separate every pair of depth-`depth`
    cells: for each pair, the meet of the translates holding one cell misses
    the other."""
    top = max([depth] + [len(w) for t in translates for w in t])
    sets = [expand(t, top, d) for t in translates]
    cells = [expand([c], top, d) for c in words_at(d, depth)]
    hulls = []
    for c in cells:
        hull = None
        for s in sets:
            if c <= s:
                hull = s if hull is None else hull & s
        hulls.append(hull)
    return all(
        (hulls[i] is not None and not hulls[i] & cells[j])
        or (hulls[j] is not None and not hulls[j] & cells[i])
        for i in range(len(cells)) for j in range(i + 1, len(cells))
    )


def first_separating_length(steps, parts, depth, max_len, d):
    """The least word length whose translates separate the depth cells, or None."""
    translates = []
    for length, level in enumerate(translate_levels(steps, parts, max_len, d)):
        translates.extend(level)
        if separates(translates, depth, d):
            return length
    return None


# -- expressions over a generator table -------------------------------------------


def expression_steps(node, table):
    """A pointwise step for a completion expression tree, by node type name."""
    kind = type(node).__name__
    if kind == "GeneratorRef":
        return Table.of(table[node.name])
    if kind == "ElementLeaf":
        return Table.of(node.element)
    if kind == "IdempotentLeaf":
        words = [tuple(w) for w in node.clopen.antichain]
        return Table([(w, w, ()) for w in words])
    if kind == "Star":
        child = node.child
        if type(child).__name__ == "GeneratorRef":
            return Table.of(table[child.name], inverse=True)
        raise ValueError("star of a compound expression")
    if kind == "Product":
        parts = [expression_steps(c, table) for c in node.children]
        return lambda w: point_image(list(reversed(parts)), w)
    if kind == "Restrict":
        inner = expression_steps(node.child, table)
        words = [tuple(u) for u in node.clopen.antichain]
        inside = Table([(u, u, ()) for u in words])
        return lambda w: _restricted(inner, inside, w)
    if kind == "Join":
        parts = [expression_steps(c, table) for c in node.children]
        return lambda w: _first_defined(parts, w)
    raise ValueError(f"unknown expression node {kind}")


def _restricted(inner, inside, w):
    r = inside(w)
    if r is None or r is SHALLOW:
        return r
    return inner(w)


def _first_defined(parts, w):
    shallow = False
    for p in parts:
        r = p(w)
        if r is SHALLOW:
            shallow = True
        elif r is not None:
            return r
    return SHALLOW if shallow else None


# -- printed branch tables (CLI output) --------------------------------------------


def parse_table(text):
    """Branch triples of a printed trivial-tail element like "[0->10, 1->0]"."""
    text = text.strip()
    if text == "0":
        return []
    if text == "1":
        return [((), (), ())]
    out = []
    for part in text[1:-1].split(","):
        if ":" in part:
            raise ValueError("printed element has a tail")
        u, v = part.strip().split("->")
        out.append((_word(u), _word(v), ()))
    return out


def _word(text):
    text = text.strip()
    return () if text == "~" else tuple(int(c) for c in text)
