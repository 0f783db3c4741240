"""The generating-kit pipeline: separating families, the transporter set T,
five-sections around it, and expressing alternating units over the kit.

The pipeline derives from a unit table a symmetric family A of part-to-part
transporters, checks the separation conditions, and surrounds restrictions of
short products of A-elements with 5-sections.  It expresses an alternating
unit element(s, pi) of a witnessing section s of any degree by writing each
transporter of s that pi moves as a family word, factoring the word's product
restricted to the base c of s (words are peeled down to 3-letter pieces, each
with the kit section at the clopen it acts on), and gluing the pieces'
sections along shared idempotents, the moved transporters' along c.  A
3-cycle whose two pieces are kit sections is then one cross commutator of
four letters.  All searches are deterministic and budget-guarded, and every
witness re-evaluates to its target by eq.
"""

from collections import namedtuple
from collections.abc import Sequence
from functools import reduce
from itertools import combinations
from operator import itemgetter

from . import certs
from . import pmap as _pmap
from . import tails as _tails
from .certs import GiveUp
from .clopen import atoms, cylinder, holders, is_partition, part_lookup
from .errors import CantorError, KitConstructionFailed, NotInAlt
from .factor import KitSection, combine_factored, word_product
from .msec import build, element, embed_subperm, identity_perm, is_even, restrict_msec
from .pmap import Dedup, as_idempotent, compose, dom, eq, image_clopen, image_walks, ran, restrict, star


# The derived transporter family, indexed once: pairs[i] is the (domain part,
# range part) of A[i], star_of[i] the index of the first element eq to
# star(A[i]), and sections a Dedup from each element to its index, which is
# also the index of its section: every element is separated and eq-distinct;
# parts is the checked partition, as a list, and part its lookup.
_Family = namedtuple("_Family", "A pairs star_of sections parts part")


def derive_family(table, parts, word_len=2):
    """The separating family's record: part-to-part transporters, the
    restrictions of short unit words to parts whose domain and range land
    inside single, different parts.  Parts that are not a partition are
    refused.

    A is symmetric (closed under star) and deduped by eq, in deterministic
    word-then-part order.  Many (word, part) pairs restrict to one table,
    and a table met before adds nothing, so only a first-met table is tested
    and added.  A ball word w = m.a applies its last letter a first; when a
    fixes every point of part i (a.idem_i is eq to idem_i), w|e_i = m|e_i,
    met one level earlier, so the pair is skipped.  A letter that fixes only
    some points of part i does not skip it: w|e_i is then m restricted to
    less than e_i, which the loop may not have met.  The loop also learns
    each element's part pair and star index.  The record is the only input of
    verify_separating and of GeneratingKit, which read these, the parts and
    their lookup off it.
    """
    if not is_partition(parts):
        raise CantorError("parts do not form a partition")
    part = part_lookup(parts)
    idems = [as_idempotent(e) for e in parts]
    ball = table.unit_ball
    fixes = [[eq(compose(a, idem), idem) for idem in idems] for a in ball.letters]
    out = Dedup()
    met = set()
    A, pairs, star_of = [], [], {}
    for w, word in ball.words(word_len):
        for i, idem in enumerate(idems):
            if word and fixes[word[-1]][i]:
                continue
            t = compose(w, idem)
            if t in met:
                continue
            met.add(t)
            # the restriction's domain lies in part i, so only its image decides
            pr = part(ran(t))
            if pr in (None, i):
                continue
            ends = []
            for m, pair in ((t, (i, pr)), (star(t), (pr, i))):
                rep, idx, new = out.add(m, len(A))
                if new:
                    A.append(rep)
                    pairs.append(pair)
                ends.append(idx)
            # star(star(t)) is t branch for branch, so a new star(t) has t's index
            star_of.setdefault(ends[0], ends[1])
            star_of.setdefault(ends[1], ends[0])
    return _Family(A, pairs, star_of, out, list(parts), part)


def _condition_3(family, n_orbit):
    """The failures of separation condition 3 on the record of derive_family:
    each part has n_orbit - 1 transporters out to pairwise different parts.

    Every element's domain lies inside one part, so a part lies inside an
    element's domain only when that domain is the whole part, whose image is
    then the element's range."""
    targets = [set() for _ in family.parts]
    for a, (pd, pr) in zip(family.A, family.pairs):
        if dom(a) == family.parts[pd]:
            targets[pd].add(pr)
    return [{"part": i, "targets": sorted(t)} for i, t in enumerate(targets) if len(t) < n_orbit - 1]


def verify_separating(family, n_orbit):
    """Check the four separation conditions for a transporter family.

    family is the record derive_family builds; the parts, their lookup and
    each element's part pair are read off it.  The depth of the partition
    bounds the sampled orbit depth and word lengths.  Returns a
    per-condition report with witnesses.
    """
    parts, part, A = family.parts, family.part, family.A
    d = parts[0].d
    depth = max(len(w) for p in parts for w in p.antichain)
    report = {"n_orbit": n_orbit, "depth": depth}
    # (2) every element has domain and range inside single, different parts:
    # derive_family keeps no other element
    report["condition2"] = {"ok": True, "failures": []}
    bad3 = _condition_3(family, n_orbit)
    report["condition3"] = {"ok": not bad3, "failures": bad3}

    # (1) orbits of depth-bounded cylinders meet at least n_orbit parts; the
    # walks share one index of the family's domains, of its word images and
    # of the normalized images
    walk = image_walks(A)
    bad1 = []
    for atom in atoms(depth, d):
        seen_parts = set()
        for level in walk([atom], depth):
            seen_parts.update(part(img) for img, _, _ in level)
            seen_parts.discard(None)
            if len(seen_parts) >= n_orbit:
                break
        if len(seen_parts) < n_orbit:
            bad1.append({"atom": str(atom), "parts_met": sorted(seen_parts)})
    report["condition1"] = {"ok": not bad1, "failures": bad1}

    # (4) idempotents of the generated monoid contain a union-of-partitions
    # base refining the depth-n atoms; domains and ranges of short words are
    # adjoined only until the refinement suffices
    def split_cells(cells, boundary):
        # a second split by one clopen leaves every cell in place
        for g in dict.fromkeys(boundary):
            h = g.complement()
            cells = [p for cell in cells for p in (cell.meet(g), cell.meet(h)) if not p.is_empty()]
        return cells

    def coarse_cells(cells):
        bad = []
        for cell in cells:
            words = cell.antichain
            if any(len(w) < depth for w in words) or len({w[:depth] for w in words}) > 1:
                bad.append({"cell": str(cell)})
        return bad

    cells = list(parts)
    bad4 = coarse_cells(cells)
    if bad4:
        cells = split_cells(cells, [c for a in A for c in (dom(a), ran(a))])
        bad4 = coarse_cells(cells)
    if bad4:
        # a.b adds no boundary when it is zero (dom(a) misses ran(b)) or when dom(a)
        # is ran(b): it then runs from dom(b) onto ran(a), which stage 1 split by
        stage2 = []
        for a in A:
            for b in A:
                if not dom(a).disjoint(ran(b)) and dom(a) != ran(b):
                    m = compose(a, b)
                    stage2 += (dom(m), ran(m))
        cells = split_cells(cells, stage2)
        bad4 = coarse_cells(cells)
    report["condition4"] = {"ok": not bad4, "failures": bad4[:10]}

    report["ok"] = all(report[f"condition{i}"]["ok"] for i in (1, 2, 3, 4))
    return report


class _LazySections(Sequence):
    """The kit's (Multisection, transporter) pairs in index order.  Each
    section is recorded as its base, its transporter and its spare family
    elements, and built on its first read."""

    def __init__(self):
        self._recipes = []
        self._pairs = []

    def append(self, base, m, spares):
        self._recipes.append((base, m, spares))
        self._pairs.append(None)

    def __len__(self):
        return len(self._pairs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if self._pairs[i] is None:
            base, m, spares = self._recipes[i]
            maps = [m] + [a if dom(a) == base else restrict(a, base) for a in spares]
            self._pairs[i] = (build(base, maps), m)
        return self._pairs[i]


class GeneratingKit:
    """Separating family A and the 5-sections around its transporters.

    sections[i] is a (Multisection, t) pair, t the transporter in column 1.
    The initial sections surround the elements of A, in family order; the
    set T of short products is unbounded in practice, so further sections
    surround, deduped by eq, exactly the transporters the caller consults,
    each at its own domain.

    A section's index and its spare columns, the family elements whose domain
    holds the base (found through one index of the family's domain words,
    once per distinct base), are fixed when the kit first meets its
    transporter, so KitConstructionFailed is raised then; the Multisection
    itself is built on the first read of sections[i].

    kit.family is the record derive_family builds: the kit reads its parts,
    part lookup, part pairs and star indices, and adds the transporters of
    later sections to its section Dedup.
    """

    def __init__(self, table, family):
        self.table = table
        self.family = family
        self.d = table.d
        self.A = family.A
        self._holding = holders([dom(a) for a in self.A])
        self._spares_at = {}
        self.sections = _LazySections()
        self._by_base = {}
        self._domain_index = None  # built on the first cylinder search
        for a, pair in zip(self.A, family.pairs):
            self._add_section(a, *pair)

    def cylinder_steps(self, w, backward):
        """The (family index, branch) pairs, in index order, of the branches
        of A (of the stars of A when backward) whose domain is a prefix of
        the word w; a family element's domains form an antichain, so each
        element has at most one.

        The two indexes, from branch domain to pairs, are built on the first
        call, so a kit that never searches cylinders does not pay for them.
        """
        if self._domain_index is None:
            self._domain_index = tuple(
                _index_domains(maps) for maps in (self.A, [star(a) for a in self.A])
            )
        index = self._domain_index[backward]
        hits = [hit for k in range(len(w) + 1) for hit in index.get(w[:k], ())]
        hits.sort(key=itemgetter(0))
        return hits

    def holding(self, c, p):
        """The indices, in order, of the family elements whose domain lies
        inside the part p (straddles parts, when p is None) and holds c."""
        return [i for i in self._holding(c) if self.family.pairs[i][0] == p]

    def word_element(self, word):
        """The product of family elements named by the index word."""
        m = _pmap.one(self.d)
        for idx in word:
            m = compose(m, self.A[idx])
        return m

    def _add_section(self, m, pd, pr):
        """Append the section around m, a transporter from part pd to another
        part pr that no section carries yet; its index."""
        base = dom(m)
        used = {pd, pr}
        spares = []
        for a, piece in self._spare_candidates(base, pd):
            if piece not in used:
                spares.append(a)
                used.add(piece)
                if len(spares) == 3:
                    break
        if len(spares) < 3:
            raise KitConstructionFailed(m, pd)
        idx = len(self.sections)
        self.sections.append(base, m, spares)
        self._by_base.setdefault(base, []).append(idx)
        return idx

    def _spare_candidates(self, base, pd):
        """(a, part) for the family elements a, in order, whose domain lies
        inside the base's part pd and holds the base, with the range part a
        carries the base into; found once per base."""
        found = self._spares_at.get(base)
        if found is None:
            found = self._spares_at[base] = [
                (self.A[i], self.family.pairs[i][1]) for i in self.holding(base, pd)
            ]
        return found

    def section_for(self, m, pd, pr):
        """KitSection around m, a transporter from part pd to another part pr:
        its base is dom(m), and its column 1 carries m."""
        hit = self.family.sections.find(m)
        if hit is None:
            hit = m, self._add_section(m, pd, pr)
            self.family.sections.add(*hit)
        return KitSection(self.sections[hit[1]][0], hit[1])


def _index_domains(maps):
    index = {}
    for idx, m in enumerate(maps):
        for b in m.branches:
            index.setdefault(b.dom, []).append((idx, b))
    return index


def build_kit(table, parts, word_len=2):
    """Derive a separating family and build the kit.

    The kit gates on separation condition 3 (five parts met from each part)
    and computes only that; condition 2 holds on every derived record, and
    verify_separating reports all four.  The derivation's record is built
    once: the gate reads its part pairs, and the kit keeps it."""
    family = derive_family(table, parts, word_len)
    bad3 = _condition_3(family, n_orbit=5)
    if bad3:
        raise KitConstructionFailed(bad3[0], None)
    return GeneratingKit(table, family)


# ---------------------------------------------------------------------------
# expressing alternating units over the kit

# bound of the cylinder search for a family word that realizes a
# transporter: the rounds from each side
WORD_LEN = 6


def _wordify(kit, m, budget):
    """A family-index word whose product restricted to dom(m) equals m, or
    None.

    Only a single-branch transporter u -> v : t, decorated or not, is
    searched.  A multi-branch one returns None without spending a node, so
    _factor_cover subdivides the base, toward children whose transporters
    are single-branch.

    A chain of family elements carrying the cylinder of u onto that of v
    through single branches realizes it when the tails met on the way
    compose to t.  The search runs over states (cylinder word, tail carried
    so far), keyed by the word and the free-reduced tail, not over maps:
    forward from (u, 1) and backward through stars from (v, t), each step
    composing its branch's residual onto the carried tail and reading the
    kit's index of branch domains instead of evaluating every family
    element.  Each (family index, branch) hit a step reads is one node, so
    the search spends by its work, not by the size of the family; the hits
    are read in family-index order, which fixes the words it finds.  A
    trivial-tail transporter is the unique prefix exchange between its two
    cylinders, which a chain of trivial-tail steps carries, so for it a step
    with a nontrivial residual is dropped, not carried.
    """
    if len(m.branches) != 1:
        return None
    b = m.branches[0]
    start, goal = b.dom, b.ran
    decorated = bool(b.tail.factors)
    cap = max(len(start), len(goal)) + 2

    def finish(word):
        candidate = list(word)
        got = restrict(kit.word_element(candidate), dom(m))
        return candidate if eq(got, m) else None

    fwd = {(start, ()): ()}
    bwd = {(goal, _tails.free_reduce(b.tail.factors)): ()}

    def grow(frontier, backward):
        """One round from one side: words carry start forward, and stars
        carry goal backward, joining its word on the right.  Returns the
        next frontier and the first meeting word that re-verifies."""
        seen, other = (bwd, fwd) if backward else (fwd, bwd)
        nxt = []
        for state in frontier:
            w, carried = state
            for idx, b in kit.cylinder_steps(w, backward):
                budget.tick()
                # a tail keeps a word's length, so the cap is tested first
                if len(b.ran) + len(w) - len(b.dom) > cap:
                    continue
                img, residual = _tails.apply_prefix(b.tail, w[len(b.dom) :])
                if residual.factors and not decorated:
                    continue
                y = b.ran + img
                x = (y, _tails.free_reduce(residual.factors + carried))
                if x in seen:
                    continue
                seen[x] = seen[state] + (idx,) if backward else (idx,) + seen[state]
                nxt.append(x)
                if x in other:
                    hit = finish(bwd[x] + fwd[x])
                    if hit is not None:
                        return nxt, hit
        return nxt, None

    # start != goal: a section's transporter k >= 1 carries its base onto a
    # disjoint idempotent, so the empty word never realizes it
    f_frontier, b_frontier = list(fwd), list(bwd)
    for _ in range(WORD_LEN):
        f_frontier, hit = grow(f_frontier, backward=False)
        if hit is None:
            b_frontier, hit = grow(b_frontier, backward=True)
        if hit is not None:
            return hit
    return None


def _combine_with_spares(fs_a, cols_a, fs_b, cols_b):
    """combine_factored over two column tuples, each headed by its
    sub-section's base and padded with spare columns to at least three, in
    every way until the support rule holds; None when no padding does."""

    def options(fs, cols):
        pool = [j for j in range(fs.msec.degree) if j not in cols]
        return [cols + extra for extra in combinations(pool, max(0, 3 - len(cols)))]

    for padded_a in options(fs_a, cols_a):
        for padded_b in options(fs_b, cols_b):
            try:
                return combine_factored(fs_a, padded_a, fs_b, padded_b)
            except CantorError:
                continue  # the support condition fails
    return None


def _factored_for_word(kit, word, c, budget):
    """Factored section carrying the word's product, restricted to c, as a
    column transporter.

    Returns (section, col_from, col_to): the idempotent of col_from is
    exactly c, and transporter_between(col_from, col_to) is the product
    restricted to c.  A word of three letters or less with separated parts
    gets the kit section around that restriction.  Every other word splits
    as head + tail, the head the whole word if its product stays in one part
    and its two outermost letters otherwise, through a family element a that
    carries the tail's image out of the word's parts: head + [a*] is
    factored at a's image of the tail's image, [a] + tail at c, and the two
    sections are glued along the tail's image.
    """
    budget.tick()
    m = restrict(kit.word_element(word), c)
    part = kit.family.part
    pd, pr = part(dom(m)), part(ran(m))
    if pd is None or pr is None:
        raise GiveUp("word product does not respect the partition")
    if pd != pr and len(word) <= 3:
        return kit.section_for(m, pd, pr), 0, 1

    k = len(word) if pd == pr else 2
    inner = image_clopen(kit.word_element(word[k:]), c)
    p_inner = part(inner)
    for a_idx in kit.holding(inner, p_inner):
        a = kit.A[a_idx]
        if kit.family.pairs[a_idx][1] in (pd, pr):
            continue
        head = list(word[:k]) + [kit.family.star_of[a_idx]]
        hfs, h_from, h_to = _factored_for_word(kit, head, image_clopen(a, inner), budget)
        tfs, t_from, t_to = _factored_for_word(kit, [a_idx] + list(word[k:]), c, budget)
        combined = _combine_with_spares(hfs, (h_from, h_to), tfs, (t_from, t_to))
        if combined is None:
            continue
        c_from = combined.combined_col("h", t_from)
        c_to = combined.combined_col("g", h_to)
        if not eq(combined.msec.transporter_between(c_from, c_to), m):
            raise GiveUp("glued section does not carry the word product")
        return combined, c_from, c_to
    raise GiveUp(f"no split transporter out of part {p_inner}")


def express(target, kit, msec_witness, perm, node_budget=certs.DEFAULT_NODE_BUDGET):
    """Express a unit of the alternating full group as a word over the kit.

    The caller supplies a witnessing multisection and even permutation with
    target eq element(msec_witness, perm).  The witness word is a list of
    (section_index, permutation) pairs over kit.sections and re-evaluates to
    the target by eq; inputs the bounded procedure cannot handle yield
    ExhaustedAtBound.
    """
    if not is_even(perm):
        raise NotInAlt(f"{perm} is odd")
    if not eq(target, element(msec_witness, perm)):
        raise NotInAlt("target does not match the witnessing multisection element")
    budget = certs.Budget({"word_len": WORD_LEN, "node_budget": node_budget})
    if perm == identity_perm(msec_witness.degree):
        return budget.witness({"word": []})
    direct = _direct_word(kit, target, msec_witness, perm)
    if direct is not None:
        return budget.witness({"word": direct})
    try:
        word = _factor_cover(kit, msec_witness, perm, budget)
        _verify_word(kit, word, target)
    except GiveUp as stop:
        return budget.exhausted(str(stop))
    return budget.witness({"word": word})


def _verify_word(kit, word, target):
    sections = {idx: kit.sections[idx][0] for idx, _ in word}
    if not eq(word_product(word, sections, kit.d), target):
        raise GiveUp("verification failed")


def _direct_word(kit, target, msec_witness, perm):
    """Length-one word when the witness columns embed into a kit section;
    a lookup, so it spends no nodes."""
    for idx in kit._by_base.get(msec_witness.base, ()):
        section = kit.sections[idx][0]
        try:
            positions = [section.idems.index(e) for e in msec_witness.idems]
        except ValueError:
            continue
        full = embed_subperm(perm, tuple(positions), section.degree)
        if eq(element(section, full), target):
            return [(idx, full)]
    return None


def _factor_cover(kit, section, perm, budget, split_left=3):
    """Factor over the kit, subdividing the base into child cylinders when a
    transporter is not a short family word at the current granularity.

    The subdivision pieces are disjoint restrictions covering the section, so
    the target is the product of the pieces' elements and the witness words
    concatenate.  The base's words are subdivided shortest first.
    """
    try:
        return _factor_section(kit, section, perm, budget)
    except GiveUp:
        # a run-out ends the search; only a dead end is worth a subdivision
        if split_left <= 0 or budget.spent:
            raise
    out = []
    for w in sorted(section.base.antichain, key=len):
        for x in range(kit.d):
            child = cylinder(tuple(w) + (x,), kit.d)
            sub = restrict_msec(section, child)
            out.extend(_factor_cover(kit, sub, perm, budget, split_left - 1))
    return out


def _factor_section(kit, section, perm, budget):
    """Word over kit sections for element(section, perm), perm even and not
    the identity, so that it moves at least two columns besides the base."""
    c = section.base
    # each transporter perm moves as a restricted family word, factored at c
    moved = [k for k in range(1, section.degree) if perm[k] != k]
    pieces = []
    for k in moved:
        word = _wordify(kit, section.transporters[k], budget)
        if word is None:
            raise GiveUp(f"transporter {k} is not a short family word")
        fs, c_col, to_col = _factored_for_word(kit, word, c, budget)
        pieces.append((fs, c_col, [to_col]))

    # glue the sections left to right along their c columns; the glued base
    # is c, and its kept columns are c and the transporter images
    def glue(left, right):
        (fs_a, c_a, tos_a), (fs_b, c_b, tos_b) = left, right
        combined = _combine_with_spares(fs_a, (c_a, *tos_a), fs_b, (c_b, *tos_b))
        if combined is None:
            raise GiveUp("could not glue transporter sections at the base")
        tos = [combined.combined_col("g", t) for t in tos_a]
        tos += [combined.combined_col("h", t) for t in tos_b]
        return combined, 0, tos

    acc, _, to_cols = reduce(glue, pieces)
    # perm on the columns (0, *moved), carried to (0, *to_cols)
    cols = (0, *moved)
    sub = tuple(cols.index(perm[k]) for k in cols)
    return list(acc.word_for(embed_subperm(sub, (0, *to_cols), acc.msec.degree)))
