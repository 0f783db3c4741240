"""Independent evaluation oracles shared by the test modules.

These re-derive the intended semantics directly from machine tables and
branch prefixes, without calling the library's apply/compose/eval paths, so
they can arbitrate the library's outputs.  The search reference
right_extending_words is an exception: it composes with the library and
pins the order and the duplicates of its word searches.  So are
reference_image_clopen, pmap.image_clopen's branch scan in one function,
its tails walked letter by letter where pmap calls pmap._word_image;
all_word_images, which applies every index word to the sources
where an image walk keeps the first word per image; reference_image_levels,
which tests every map's domain with Clopen.leq where an image walk looks
the image's words up in an index of the domains, and normalizes every
image where a pmap.image_walks walker maps each (map, word) pair once and
normalizes each raw image once for its life (both apply maps with
reference_image_clopen); reference_kit_sections,
which builds every kit section eagerly and scans the family with
Clopen.leq for its spare columns; reference_compatible,
reference_leq and reference_is_idempotent,
the compose/star/eq forms of the proofs pmap reads off branch tables;
reference_join, the join that proves every pair compatible with
reference_compatible; reference_bi_enumerate, which joins every
combination of pieces where bi_enumerate skips the pairs the pieces'
atom pieces decide and the unions of atom pieces already met (so its rows
hold eq-equal joins that bi_enumerate leaves out); reference_merge_family,
which builds the whole list of candidate parent tails and walks each one
where the constructor reads each child's letter action once and only the
signed states with the right root permutation; reference_part_of, which scans the parts with
Clopen.leq where part_lookup looks words up in an index;
reference_conditions_2_3, which tests every (part, element) pair for
containment where the kit reads one part pair per element;
reference_parts_met, which walks each depth-n atom with
reference_image_levels, each walk testing every family domain afresh,
where verify_separating shares one index of the domains across its walks;
reference_split_unit, the split that searches unit words h for its second
piece hZ; reference_fully_compressible_sample, which tests images
against targets with Clopen.leq where the library compares atom masks; and
reference_expansive_certificate, which rebuilds every cell's hull from all
translates so far with Clopen.leq at each level and re-tests every pair,
where the library meets in only the fresh translates, read off atom masks.
"""

import random
from itertools import combinations, product

from cantorfull import certs
from cantorfull.clopen import (
    atoms,
    cylinder,
    is_partition,
    is_prefix,
    normalize,
    union_all,
    word_from_text,
)
from cantorfull.completion import Join, Restrict, _words_up_to, depth_clopens
from cantorfull.errors import AlphabetMismatch, CantorError, IdentityInput, IncompatiblePair
from cantorfull.msec import build
from cantorfull.pmap import (
    Branch,
    Dedup,
    PartialMap,
    as_idempotent,
    compose,
    dom,
    eq,
    fingerprint,
    image_clopen,
    image_walks,
    join,
    one,
    ran,
    restrict,
    star,
    WordBall,
)
from cantorfull.tails import (
    TailElement,
    adding_machine,
    free_reduce,
    grigorchuk,
    state,
    trivial,
)

SHALLOW = "shallow"


def tail_walk(t, w):
    """Image of the word w under the tail t, letter by letter."""
    return tail_section(t, w)[0]


def tail_section(t, w):
    """Image of w under t, and the factor word t acts by after w."""
    factors = list(t.factors)
    out = []
    for x in w:
        for i in range(len(factors) - 1, -1, -1):
            machine, s, e = factors[i]
            if e == 1:
                y = machine.output[s][x]
                factors[i] = (machine, machine.transition[s][x], 1)
            else:
                y = machine.output[s].index(x)
                factors[i] = (machine, machine.transition[s][y], -1)
            x = y
        out.append(x)
    return tuple(out), tuple(factors)


def oracle_image(f, w):
    """Full image word of w under the branch table of f.

    None when [w] misses dom(f); SHALLOW when w is a proper prefix of a
    branch domain.
    """
    w = tuple(w)
    for b in f.branches:
        if w[: len(b.dom)] == b.dom:
            return b.ran + tail_walk(b.tail, w[len(b.dom) :])
    for b in f.branches:
        if b.dom[: len(w)] == w:
            return SHALLOW
    return None


def oracle_compose_image(f, g, w):
    """Image of w under x -> f(g(x)), composing the branch-table oracles."""
    mid = oracle_image(g, w)
    if mid is None or mid == SHALLOW:
        return mid
    return oracle_image(f, mid)


def pair_scan_compose(f, g):
    """x -> f(g(x)) by testing every pair of branches.

    A reference for pmap.compose: each output branch is built the same way,
    with tails walked by tail_section instead of the library's tail calls.
    """
    out = []
    for gb in g.branches:
        for fb in f.branches:
            if gb.ran[: len(fb.dom)] == fb.dom:
                img, res = tail_section(fb.tail, gb.ran[len(fb.dom) :])
                tail = TailElement(f.d, res + gb.tail.factors)
                out.append(Branch(gb.dom, fb.ran + img, tail))
            elif fb.dom[: len(gb.ran)] == gb.ran:
                inverse = TailElement(
                    g.d, [(m, s, -e) for m, s, e in reversed(gb.tail.factors)]
                )
                w0 = tail_walk(inverse, fb.dom[len(gb.ran) :])
                res = tail_section(gb.tail, w0)[1]
                out.append(Branch(gb.dom + w0, fb.ran, TailElement(f.d, fb.tail.factors + res)))
    return PartialMap(f.d, out)


def reference_part_of(parts, c):
    """A reference for clopen.part_lookup: the first part that contains c,
    found by a containment scan over every part."""
    if c.is_empty():
        return None
    return next((i for i, p in enumerate(parts) if c.leq(p)), None)


def reference_parts_met(family, parts):
    """A reference for condition 1 of kit.verify_separating: (atom text,
    sorted parts met) for each depth-n atom, n the depth of the partition,
    the parts met by its images under family words of length <= n.  Each
    atom is walked alone by reference_image_levels, its parts read off with
    reference_part_of."""
    depth = max(len(w) for p in parts for w in p.antichain)
    out = []
    for atom in atoms(depth, parts[0].d):
        met = {
            reference_part_of(parts, img)
            for level in reference_image_levels(family, [atom], depth)
            for img, _, _ in level
        }
        met.discard(None)
        out.append((str(atom), sorted(met)))
    return out


def reference_conditions_2_3(family, parts, n_orbit):
    """A reference for the failures of separation conditions 2 and 3 that
    kit.verify_separating reports: every element's domain and range parts,
    and for every part the parts that the elements whose domain contains it
    carry it into, found by a Clopen.leq scan over every (part, element)
    pair and reference_part_of."""
    bad2 = []
    for idx, a in enumerate(family):
        pd, pr = reference_part_of(parts, dom(a)), reference_part_of(parts, ran(a))
        if pd is None or pr is None or pd == pr:
            bad2.append({"element": idx, "dom_part": pd, "ran_part": pr})
    bad3 = []
    for i, e in enumerate(parts):
        targets = set()
        for a in family:
            if e.leq(dom(a)):
                pr = reference_part_of(parts, image_clopen(a, e))
                if pr is not None and pr != i:
                    targets.add(pr)
        if len(targets) < n_orbit - 1:
            bad3.append({"part": i, "targets": sorted(targets)})
    return bad2, bad3


def _first_eq(seen, m):
    """The first member of seen with m's fingerprint that eq says equals m,
    by a linear scan: the duplicates Dedup finds, without its buckets."""
    key = fingerprint(m)
    return next((x for x in seen if fingerprint(x) == key and eq(x, m)), None)


def right_extending_words(letters, max_len, d):
    """Letter products up to max_len, breadth first, without duplicates.

    A reference for pmap.WordBall: each level extends the last one on the
    right, and duplicates are found by scanning everything kept so far.
    """
    ball = [(one(d), ())]
    frontier = ball
    for _ in range(max_len):
        nxt = []
        for m, word in frontier:
            for i, a in enumerate(letters):
                p = compose(m, a)
                if _first_eq([x for x, _ in ball + nxt], p) is None:
                    nxt.append((p, word + (i,)))
        ball = ball + nxt
        frontier = nxt
    return ball


def reference_image_clopen(f, c):
    """A reference for pmap.image_clopen: each word of c scans the branches,
    mapping through the branch whose domain is its prefix, or collecting
    the ranges of the branches whose domains extend it."""
    if f.d != c.d:
        raise AlphabetMismatch(f"alphabet {f.d} vs {c.d}")
    words = []
    for w in c.antichain:
        for b in f.branches:
            if is_prefix(b.dom, w):
                # domains form an antichain, so no other branch meets [w]
                words.append(b.ran + tail_walk(b.tail, w[len(b.dom) :]))
                break
            if is_prefix(w, b.dom):
                words.append(b.ran)
    return normalize(words, f.d)


def all_word_images(maps, sources, max_len):
    """A reference for the pmap.image_walks walk: for each n <= max_len, the
    antichains of the images of the sources under every index word of
    length <= n, listed by itertools.product.  A word applies its last
    index first, and a map only to an image inside its domain; a word
    reaching an image outside the next map's domain reaches nothing."""
    reached = set()
    out = []
    for n in range(max_len + 1):
        for word in product(range(len(maps)), repeat=n):
            for img in sources:
                for i in reversed(word):
                    if not img.leq(dom(maps[i])):
                        break
                    img = reference_image_clopen(maps[i], img)
                else:
                    reached.add(img.antichain)
        out.append(set(reached))
    return out


def reference_image_levels(maps, sources, max_len):
    """A reference for the pmap.image_walks walk: the same walk, applying each map
    to an image when a Clopen.leq test finds the image inside its domain."""
    if max_len < 0:
        return
    seen = set()

    def fresh(triples):
        out = []
        for img, word, src in triples:
            if img.antichain not in seen:
                seen.add(img.antichain)
                out.append((img, word, src))
        return out

    level = fresh((c, (), c) for c in sources)
    yield level
    for _ in range(max_len):
        level = fresh(
            [
                (reference_image_clopen(m, img), (i,) + word, src)
                for img, word, src in level
                for i, m in enumerate(maps)
                if img.leq(dom(m))
            ]
        )
        yield level


def reference_kit_sections(parts, family):
    """A reference for the sections of kit.GeneratingKit over the family,
    every one built at once: one per element whose domain and range lie in
    single, different parts, in family order, eq-duplicates dropped by a
    linear scan.  Its spare columns are the first three family elements,
    scanned in order with Clopen.leq, whose domain lies inside the base's
    part and holds the base, restricted to the base, that carry the base
    into parts different from each other and from the transporter's two."""
    out = []
    for m in family:
        pd, pr = reference_part_of(parts, dom(m)), reference_part_of(parts, ran(m))
        if pd is None or pr is None or pd == pr or any(eq(m, t) for _, t in out):
            continue
        base, used, maps = dom(m), {pd, pr}, [m]
        for a in family:
            if reference_part_of(parts, dom(a)) != pd or not base.leq(dom(a)):
                continue
            p = reference_part_of(parts, image_clopen(a, base))
            if p is None or p in used:
                continue
            maps.append(restrict(a, base))
            used.add(p)
            if len(maps) == 4:
                break
        out.append((build(base, maps), m))
    return out


def reference_is_idempotent(m):
    """A reference for pmap.is_idempotent: m = mm and m = m*."""
    return eq(m, compose(m, m)) and eq(m, star(m))


def reference_leq(x, y):
    """A reference for pmap.leq: x = y restricted to dom(x)."""
    return eq(x, restrict(y, dom(x)))


def reference_compatible(x, y):
    """A reference for pmap.compatible: x*y and xy* are both idempotents,
    proved through compose, star and eq."""
    return reference_is_idempotent(compose(star(x), y)) and reference_is_idempotent(
        compose(x, star(y))
    )


def reference_join(elems):
    """The join by pairwise proof: every pair is checked with
    reference_compatible (the first failing pair raises
    IncompatiblePair(i, j)), then the pooled branches are glued keeping the
    shallowest of comparable domains."""
    elems = list(elems)
    if not elems:
        raise CantorError("join of no elements has no context")
    d = elems[0].d
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if not reference_compatible(elems[i], elems[j]):
                raise IncompatiblePair(i, j)
    pool = [b for m in elems for b in m.branches]
    pool.sort(key=lambda b: (len(b.dom), b.dom))
    kept = []
    kept_doms = set()
    for b in pool:
        if b.dom in kept_doms:
            continue
        if any(is_prefix(k.dom, b.dom) for k in kept):
            continue
        kept.append(b)
        kept_doms.add(b.dom)
    return PartialMap(d, kept)


def reference_bi_enumerate(table, word_len, join_arity, depth):
    """A reference for completion.bi_enumerate: every restriction of every
    word to every clopen is deduped into the pieces first, then every
    combination of at most join_arity pieces is joined, arity 1 included,
    and deduped a second time."""
    clopens = depth_clopens(table.d, depth)
    words = _words_up_to(table, word_len)
    pieces = []
    piece_dedup = Dedup()
    seen = Dedup()
    for m, expr in words:
        for c in clopens:
            rep, rexpr, new = piece_dedup.add(restrict(m, c), Restrict(expr, c))
            if new:
                pieces.append((rep, rexpr))
    out = []
    for arity in range(1, join_arity + 1):
        for combo in combinations(range(len(pieces)), arity):
            parts = [pieces[i] for i in combo]
            try:
                m = join([p[0] for p in parts])
            except IncompatiblePair:
                continue
            expr = parts[0][1] if arity == 1 else Join(tuple(p[1] for p in parts))
            rep, expr, new = seen.add(m, expr)
            if new:
                out.append((rep, expr))
    return out


def reference_merge_family(d, u, family):
    """A reference for pmap._merge_family: the list of candidate parent
    tails is built first, each freely reduced and kept at its first
    occurrence (the identity; then per child its tail rc and every signed
    state of rc's machines, in order of first appearance, put before rc),
    and each candidate is walked letter by letter until one expands to the
    family."""
    if any(not b.ran for b in family):
        return None
    v = family[0].ran[:-1]
    if any(b.ran[:-1] != v for b in family):
        return None
    rho = tuple(b.ran[-1] for b in family)
    if sorted(rho) != list(range(d)):
        return None
    candidates = [()]
    for b in family:
        rc = free_reduce(b.tail.factors)
        candidates.append(rc)
        for m in dict.fromkeys(m for m, _, _ in rc):
            for s in m.states:
                for e in (1, -1):
                    candidates.append(free_reduce(((m, s, e),) + rc))
    for factors in dict.fromkeys(candidates):
        cand = TailElement(d, factors)
        images = [cand.apply_letter(x) for x in range(d)]
        if tuple(y for y, _ in images) != rho:
            continue
        if all(
            free_reduce(section.factors) == free_reduce(b.tail.factors)
            for (_, section), b in zip(images, family)
        ):
            return Branch(u, v, cand)
    return None


def reference_split_unit(g, ctx, word_len=4, max_depth=6):
    """A reference for dynamics.split_unit: Z is a moved cylinder and the
    second piece is hZ for the first distinct unit word h of ctx, up to
    word_len, with hZ, gZ, ghZ and Z pairwise disjoint; the factors are
    built and re-verified as split_unit does."""
    if eq(g, one(g.d)):
        raise IdentityInput("cannot split the identity")
    moved = [
        c
        for depth in range(1, max_depth + 1)
        for w in product(range(g.d), repeat=depth)
        for c in [cylinder(w, g.d)]
        if image_clopen(g, c).disjoint(c)
    ]
    budget = certs.Budget({"word_len": word_len, "max_depth": max_depth})
    ball = WordBall(ctx.units, ctx.d)
    for z in moved:
        gz = image_clopen(g, z)
        z_gz = z.union(gz)
        if z_gz.complement().is_empty():
            continue
        for h, _ in ball.words(word_len):
            budget.tick()
            hz = image_clopen(h, z)
            if not hz.disjoint(z_gz):
                continue
            ghz = image_clopen(g, hz)
            if not (ghz.disjoint(z_gz) and ghz.disjoint(hz)):
                continue
            rest = union_all([z, gz, hz, ghz], g.d).complement()
            fixed1 = next((y for y in moved if y.leq(rest)), None)
            if fixed1 is None:
                continue
            g1 = join(
                [
                    restrict(g, z.union(hz)),
                    restrict(star(g), gz.union(ghz)),
                    as_idempotent(rest),
                ]
            )
            g2 = compose(star(g1), g)
            if not (
                eq(compose(g1, g2), g)
                and eq(restrict(g1, fixed1), as_idempotent(fixed1))
                and eq(restrict(g2, z), as_idempotent(z))
            ):
                raise CantorError("reference split built factors that do not re-verify")
            return budget.witness({"g1": g1, "g2": g2, "fixed1": fixed1, "fixed2": z})
    return budget.exhausted()


def reference_fully_compressible_sample(ctx, depth, word_len):
    """A reference for dynamics.fully_compressible_sample: every image is
    tested against every still-missing target with Clopen.leq, where the
    library compares atom masks."""
    cells = atoms(depth, ctx.d)
    subsets = []
    for mask in range(1, 2 ** len(cells) - 1):
        words = [cells[i].antichain[0] for i in range(len(cells)) if mask >> i & 1]
        subsets.append(union_all([cylinder(w, ctx.d) for w in words], ctx.d))
    failures = []
    checked = 0
    for y in subsets:
        missing = set(range(len(subsets)))
        for level in image_walks(ctx.units)([y], word_len):
            for img, _, _ in level:
                for idx in list(missing):
                    z = subsets[idx]
                    if img.leq(z) and img != z:
                        missing.discard(idx)
            if not missing:
                break
        checked += len(subsets)
        for idx in sorted(missing):
            failures.append((str(y), str(subsets[idx])))
    return {
        "pairs": checked,
        "ok": not failures,
        "failures": failures,
        "bounds": {"depth": depth, "word_len": word_len},
    }


def _separates_at(translates, cells):
    """Unseparated pairs of cells under the meet-closure of the translates."""
    hulls = []
    for c in cells:
        hull = None
        for t, _, _ in translates:
            if c.leq(t):
                hull = t if hull is None else hull.meet(t)
        hulls.append(hull)
    bad = []
    for i in range(len(cells)):
        for j in range(len(cells)):
            if i == j:
                continue
            if hulls[i] is not None and hulls[i].disjoint(cells[j]):
                continue
            if hulls[j] is not None and hulls[j].disjoint(cells[i]):
                continue
            if i < j:
                bad.append((i, j))
    return bad


def reference_expansive_certificate(ctx, parts, depth, word_len):
    """A reference for dynamics.expansive_certificate: at every level each
    cell's hull is rebuilt from all translates so far with Clopen.leq, and
    every pair of cells is re-tested."""
    if not is_partition(parts):
        raise CantorError("translate certificate needs a partition")
    cells = atoms(depth, ctx.d)
    budget = certs.Budget({"depth": depth, "word_len": word_len})
    translates = []
    bad = [(0, 1)] if len(cells) > 1 else []
    for length, fresh in enumerate(image_walks(ctx.units)(parts, word_len)):
        translates.extend(fresh)
        for _ in fresh:
            budget.tick()
        bad = _separates_at(translates, cells)
        if not bad:
            return budget.witness({"word_len": length})
    if not bad:
        return budget.witness({"word_len": 0})
    pair = bad[0]
    return budget.refuted({"pair": [str(cells[pair[0]]), str(cells[pair[1]])]})


def pm(d, *specs):
    """PartialMap from branch specs "u->v" with an optional tail third item."""
    branches = []
    for spec in specs:
        if isinstance(spec, tuple):
            text, tail = spec
        else:
            text, tail = spec, trivial(d)
        u, v = text.replace(" ", "").split("->")
        branches.append(Branch(word_from_text(u), word_from_text(v), tail))
    return PartialMap(d, branches)


def clo(text, d=2):
    body = text.strip()[1:-1].strip()
    if not body:
        return normalize([], d)
    return normalize([word_from_text(t.strip()) for t in body.split(",")], d)


def word(machine, text):
    """TailElement from a compact word like "a*b^-1*c" over one machine."""
    factors = []
    for tok in text.split("*"):
        tok = tok.strip()
        if tok == "1":
            continue
        if tok.endswith("^-1"):
            factors.append((machine, tok[:-3], -1))
        else:
            factors.append((machine, tok, 1))
    return TailElement(machine.d, factors)


# -- random generators --------------------------------------------------------

GRI = grigorchuk()
ADD2 = adding_machine(2)

# depth_perm assignments of one shape, so both machines are named depthperm2
INVOLUTION = {(0, 0): (1, 0), (0, 1): (1, 1), (1, 0): (0, 0), (1, 1): (0, 1)}
ORDER_FOUR = {(0, 0): (1, 1), (0, 1): (1, 0), (1, 0): (0, 0), (1, 1): (0, 1)}


def random_antichain(rng, d, maxdepth, maxsize):
    """A nonempty antichain of words, none a prefix of another."""
    words = []
    for _ in range(rng.randrange(1, maxsize + 1)):
        w = tuple(rng.randrange(d) for _ in range(rng.randrange(maxdepth + 1)))
        if not any(
            w[: len(u)] == u or u[: len(w)] == w for u in words
        ):
            words.append(w)
    return words


def random_tail(rng, d, kinds=("trivial", "adding", "grigorchuk")):
    kind = rng.choice(kinds)
    if kind == "trivial" or (kind == "grigorchuk" and d != 2):
        return trivial(d)
    if kind == "adding":
        m = ADD2 if d == 2 else adding_machine(d)
        return state(m, "a", rng.choice((1, -1)))
    factors = [
        (GRI, rng.choice("abcd"), rng.choice((1, -1)))
        for _ in range(rng.randrange(1, 3))
    ]
    return TailElement(2, factors)


def random_pmap(rng, d, maxdepth=4, maxsize=4, kinds=("trivial", "adding", "grigorchuk")):
    doms = random_antichain(rng, d, maxdepth, maxsize)
    rans = random_antichain(rng, d, maxdepth, maxsize)
    n = min(len(doms), len(rans))
    rng.shuffle(doms)
    rng.shuffle(rans)
    branches = [
        Branch(doms[i], rans[i], random_tail(rng, d, kinds)) for i in range(n)
    ]
    return PartialMap(d, branches)
