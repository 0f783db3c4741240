"""Finite-depth dynamical certificates for a table of units acting on A^N.

Every property here (expansivity, minimality, compressibility, orbit sizes)
quantifies over all points or all opens, which no terminating procedure can
decide; the operations certify finite shadows at explicit depth and length
bounds and report three-valued certificates that re-verify.
"""

from itertools import product

from . import certs
from . import pmap as _pmap
from .clopen import cylinder, depth_cells, is_partition, normalize, part_lookup, union_all
from .completion import GeneratorRef, depth_clopens
from .errors import CantorError, EmptyInput, IdentityInput, NotPartwiseStabilizing
from .pmap import (
    as_idempotent,
    compose,
    eq,
    eval_at,
    image_clopen,
    image_walks,
    is_unit,
    join,
    one,
    restrict,
    star,
)


class DynContext:
    """The units of a table: its letters, the generators and their stars
    deduped by eq (GeneratorTable.letters); names spells a word of indices
    into units where a witness prints it.

    walk is one pmap.image_walks walker over the units, which the
    expansive, compressible and orbit searches on this context share: each
    unit maps each antichain word once, and each raw image is normalized
    once, for as long as the context lives (each memo is emptied at
    pmap.WALK_MEMO_SIZE entries).  Every search still keeps its own images,
    so its certificate is the one a fresh context gives.
    """

    def __init__(self, table):
        for name, m in table.items():
            if not is_unit(m):
                raise CantorError(f"generator {name} is not a unit")
        self.table = table
        self.d = table.d
        letters = table.letters
        self.units = tuple(m for m, _ in letters)
        self.names = tuple(x.name if isinstance(x, GeneratorRef) else f"{x.child.name}^-1"
                           for _, x in letters)
        self.walk = image_walks(self.units)


def _image_closure(ctx, start, steps):
    """Union of all images of start under words of length <= steps."""
    u = start
    for _ in range(steps):
        grown = u
        for g in ctx.units:
            grown = grown.union(image_clopen(g, u))
        if grown == u:
            return u
        u = grown
    return u


# -- expansivity ----------------------------------------------------------------

def _atom_masks(cells, depth):
    """Each word of length <= depth -> the bit mask of the cells below it,
    where cells are the depth-n atoms in order.

    A clopen contains cell i exactly when one of its words of length <= depth
    has bit i in its mask (a deeper word contains no cell), and meets cell i
    exactly when one of its words, cut to length depth, has bit i.
    """
    below = {}
    for i, cell in enumerate(cells):
        w = cell.antichain[0]
        for j in range(depth + 1):
            below[w[:j]] = below.get(w[:j], 0) | 1 << i
    return below


def expansive_certificate(ctx, parts, depth, word_len):
    """Witness(L') when translates of the partition separate all depth-n
    cylinders; a necessary finite shadow of expansivity.

    The generated algebra is closed under meets only down to the cylinder
    depth: meets strictly below it cannot help separate depth-n atoms.

    Each cell keeps its hull, the meet of the translates that contain it,
    and the mask of the cells its hull meets; cells i < j stay unseparated
    while each hull meets the other cell, so the masks alone give the
    unseparated pairs.  A level meets into a hull only that level's fresh
    translates that contain its cell, read off the atom masks.  A refutation
    names the first unseparated pair in lexicographic order.

    More than clopen.MAX_CELLS cells are refused before any mask is built.
    """
    if not is_partition(parts):
        raise CantorError("translate certificate needs a partition")
    cells = depth_cells(depth, ctx.d)
    below = _atom_masks(cells, depth)
    budget = certs.Budget({"depth": depth, "word_len": word_len})
    hulls = [None] * len(cells)
    meets = [(1 << len(cells)) - 1] * len(cells)
    for length, fresh in enumerate(ctx.walk(parts, word_len)):
        for _ in fresh:
            budget.tick()
        grown = set()
        for t, _, _ in fresh:
            inside = 0
            for w in t.antichain:
                if len(w) <= depth:
                    inside |= below[w]
            todo = inside
            while todo:
                i = (todo & -todo).bit_length() - 1
                todo ^= 1 << i
                # a translate holding every cell the hull meets holds the hull
                if meets[i] & ~inside:
                    hulls[i] = t if hulls[i] is None else hulls[i].meet(t)
                    grown.add(i)
        for i in grown:
            mask = 0
            for w in hulls[i].antichain:
                mask |= below[w[:depth]]
            meets[i] = mask
        if _first_unseparated(meets) is None:
            return budget.witness({"word_len": length})
    pair = _first_unseparated(meets)
    if pair is None:
        return budget.witness({"word_len": 0})
    return budget.refuted({"pair": [str(cells[pair[0]]), str(cells[pair[1]])]})


def _first_unseparated(meets):
    """The first pair i < j, in lexicographic order, whose masks each hold
    the other cell, or None."""
    for i, mask in enumerate(meets):
        rest = mask >> i + 1
        while rest:
            j = (rest & -rest).bit_length() + i
            if meets[j] >> i & 1:
                return i, j
            rest &= rest - 1
    return None


def subshift_code(ctx, parts, point_prefix, words):
    """The finite coding window: the partition part hit by each listed unit.

    Entries are part indices, "undefined" when the prefix's cylinder misses
    the unit's domain, or "too_shallow" when the prefix does not determine
    the part: it ends inside the unit's domain words, or its image straddles
    parts.  A prefix letter outside the alphabet raises LetterOutOfRange,
    also when no unit is listed, and parts that are not a partition raise
    CantorError.
    """
    cylinder(point_prefix, ctx.d)
    if not is_partition(parts):
        raise CantorError("subshift code needs a partition")
    part = part_lookup(parts)
    out = []
    for w in words:
        r = eval_at(w, tuple(point_prefix))
        if r.kind != _pmap.IMAGE:
            out.append(r.kind)
            continue
        p = part(cylinder(r.prefix, ctx.d))
        out.append("too_shallow" if p is None else p)
    return out


# -- minimality -------------------------------------------------------------------


def minimal_certificate(ctx, depth, word_len):
    """Witness when every depth-n cylinder reaches every other within the
    length bound; the finite shadow of every orbit being dense."""
    cells = depth_cells(depth, ctx.d)
    budget = certs.Budget({"depth": depth, "word_len": word_len})
    for alpha in cells:
        reach = _image_closure(ctx, alpha, word_len)
        budget.tick()
        for beta in cells:
            if reach.disjoint(beta):
                return budget.refuted({"pair": [str(alpha), str(beta)]})
    return budget.witness({"cells": len(cells)})


# -- compressibility ---------------------------------------------------------------


def compress_search(ctx, y, z, word_len):
    """Witness(word) with w(Y) a proper subset of Z."""
    if y.is_empty() or z.is_empty():
        raise EmptyInput("compression needs nonempty clopens")
    budget = certs.Budget({"word_len": word_len})
    for level in ctx.walk([y], word_len):
        for img, word, _ in level:
            budget.tick()
            if img.leq(z) and img != z:
                names = [ctx.names[i] for i in word]
                return budget.witness({"word": names, "image": str(img)})
    return budget.exhausted()


def fully_compressible_sample(ctx, depth, word_len):
    """compress_search over all ordered pairs of proper nonempty unions of
    depth-n atoms; aggregate report with the failing pairs.

    Per source set, image exploration stops as soon as every target has
    received a proper sub-image.  Every target is a union of atoms, so an
    image lies inside a target exactly when the target's atom mask holds the
    mask of the atoms the image meets; the two clopens are compared only
    when the masks are equal.
    """
    clopens = depth_clopens(ctx.d, depth)
    # the atoms are the unions of one atom, at the masks 1, 2, 4, ...
    cells = [clopens[1 << i] for i in range(len(clopens).bit_length() - 1)]
    subsets = clopens[1:-1]
    below = _atom_masks(cells, depth)
    masks = range(1, 2 ** len(cells) - 1)
    texts = [str(z) for z in subsets]
    failures = []
    checked = 0
    for y, y_text in zip(subsets, texts):
        missing = set(range(len(subsets)))
        for level in ctx.walk([y], word_len):
            for img, _, _ in level:
                meets = 0
                for w in img.antichain:
                    meets |= below[w[:depth]]
                for idx in [i for i in missing if masks[i] | meets == masks[i]]:
                    if meets != masks[idx] or img != subsets[idx]:
                        missing.discard(idx)
            if not missing:
                break
        checked += len(subsets)
        failures += [(y_text, texts[idx]) for idx in sorted(missing)]
    return {
        "pairs": checked,
        "ok": not failures,
        "failures": failures,
        "bounds": {"depth": depth, "word_len": word_len},
    }


# -- orbit size --------------------------------------------------------------------


def orbit_lower_bound(ctx, u, k, word_len, node_budget=certs.DEFAULT_NODE_BUDGET):
    """Words whose images of the cylinder of u are pairwise disjoint,
    certifying at least k orbit points for every point of the cylinder.

    The distinct images are collected level by level, one node each, and
    after each level a backtracking search picks the first pairwise disjoint
    k-subset in subset order, so the witness is reproducible and a greedy
    dead end (keeping an image so large that nothing else fits) is
    backtracked out of.  The subset search spends one node per candidate it
    examines.
    """
    if k < 1:
        raise CantorError("k must be positive")
    budget = certs.Budget({"k": k, "word_len": word_len, "node_budget": node_budget})
    base = cylinder(tuple(u), ctx.d)
    candidates = []
    chosen = []

    def pick(start):
        if len(chosen) == k:
            return True
        for i in range(start, len(candidates)):
            budget.tick()
            img, _ = candidates[i]
            if all(img.disjoint(c[0]) for c in chosen):
                chosen.append(candidates[i])
                if pick(i + 1):
                    return True
                chosen.pop()
        return False

    try:
        for level in ctx.walk([base], word_len):
            for img, word, _ in level:
                budget.tick()
                candidates.append((img, word))
            if pick(0):
                return budget.witness(
                    {
                        "words": [[ctx.names[i] for i in w] for _, w in chosen],
                        "images": [str(c) for c, _ in chosen],
                    }
                )
    except certs.GiveUp as stop:
        return budget.exhausted(str(stop))
    return budget.exhausted()


# -- constructive splitting ---------------------------------------------------------


def _moved_cylinders(g, region, max_depth):
    """The cylinders c inside region, of depth 1..max_depth, with g(c) and c
    disjoint: yields (c, g(c)), shallowest first and lexicographic within a
    depth (the extensions of the region's words, stored in lexicographic
    order, are lexicographic, because the words are an antichain)."""
    for depth in range(1, max_depth + 1):
        for u in [w for w in region.antichain if len(w) <= depth]:
            for tail in product(range(g.d), repeat=depth - len(u)):
                c = cylinder(u + tail, g.d)
                gc = image_clopen(g, c)
                if gc.disjoint(c):
                    yield c, gc


def split_unit(g, ctx=None, word_len=None, max_depth=6):
    """Split a non-identity unit as g = g1 g2 with each factor fixing a
    nonempty clopen pointwise.

    g1 is the displayed piecewise element: g on Z and Y, the inverse on gZ
    and gY, the identity elsewhere; g2 fixes Z and g1 fixes a neighbourhood
    of a point still moved by g outside the four pieces.  Z is a moved
    cylinder, and Y a moved cylinder outside Z, gZ and g^-1 Z, so the four
    pieces are pairwise disjoint and g1 lies in the full group whatever Y
    is: no unit words are searched.  ctx and word_len are not read;
    they are accepted so that callers which still pass them keep working.
    """
    if eq(g, one(g.d)):
        raise IdentityInput("cannot split the identity")
    budget = certs.Budget({"max_depth": max_depth})
    g_inv = star(g)
    # a moved cylinder misses every point g fixes, so no scan need enter a
    # branch on which g is the identity
    moving = normalize(
        [b.dom for b in g.branches if b.dom != b.ran or b.tail.factors],
        g.d,
    )
    for z, gz in _moved_cylinders(g, moving, max_depth):
        z_gz = z.union(gz)
        free = moving.meet(z_gz.union(image_clopen(g_inv, z)).complement())
        for y, gy in _moved_cylinders(g, free, max_depth):
            budget.tick()
            rest = union_all([z_gz, y, gy], g.d).complement()
            fixed1 = next(
                (c for c, _ in _moved_cylinders(g, rest.meet(moving), max_depth)), None
            )
            if fixed1 is None:
                continue
            g1 = join(
                [
                    restrict(g, z.union(y)),
                    restrict(g_inv, gz.union(gy)),
                    as_idempotent(rest),
                ]
            )
            g2 = compose(star(g1), g)
            if not (
                eq(compose(g1, g2), g)
                and eq(restrict(g1, fixed1), as_idempotent(fixed1))
                and eq(restrict(g2, z), as_idempotent(z))
            ):
                raise CantorError("split_unit built factors that do not re-verify")
            return budget.witness({"g1": g1, "g2": g2, "fixed1": fixed1, "fixed2": z})
    return budget.exhausted()


# -- rigid decomposition --------------------------------------------------------------


def rigid_parts(g, parts):
    """The factors g_Y acting as g on one part and trivially elsewhere.

    Requires g to stabilize every part setwise; the factors commute pairwise
    and compose to g.
    """
    if not is_partition(parts):
        raise CantorError("rigid decomposition needs a partition")
    for i, y in enumerate(parts):
        if image_clopen(g, y) != y:
            raise NotPartwiseStabilizing(i)
    factors = []
    for y in parts:
        factors.append(join([restrict(g, y), as_idempotent(y.complement())]))
    return factors
