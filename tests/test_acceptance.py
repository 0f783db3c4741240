"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import time
from itertools import product

from cantorfull import pmap
from cantorfull.clopen import atoms, cylinder, normalize, union_all
from cantorfull.dynamics import (
    DynContext,
    expansive_certificate,
    fully_compressible_sample,
    orbit_lower_bound,
    rigid_parts,
    split_unit,
)
from cantorfull.factor import factor_over_cover, word_product
from cantorfull.families import higman_thompson
from cantorfull.kit import build_kit, express, verify_separating
from cantorfull.msec import (
    alt_perms,
    build,
    cover_of,
    cycle_perm,
    element,
    extend_degree,
    identity_perm,
    overlapping_cover,
    perm_compose,
    restrict_msec,
    sym_perms,
)
from cantorfull.pmap import (
    as_idempotent,
    compose,
    dom,
    eq,
    is_unit,
    join,
    one,
    ran,
    restrict,
    star,
)
from cantorfull.tails import grigorchuk, is_identity

from oracles import (
    SHALLOW,
    clo,
    oracle_compose_image,
    oracle_image,
    pm,
    random_pmap,
    word,
)


def report(number, name, started):
    print(f"ACCEPTANCE {number} {name}: PASS ({time.time() - started:.1f}s)")


def test_criterion_01_inverse_monoid_laws():
    started = time.time()
    rng = random.Random(10)
    elems = [random_pmap(rng, rng.choice((2, 3))) for _ in range(2000)]
    previous = {}
    for x in elems:
        assert eq(compose(compose(x, star(x)), x), x)
        y = previous.get(x.d)
        if y is not None:
            assert eq(star(compose(x, y)), compose(star(y), star(x)))
            e = as_idempotent(dom(x))
            f = as_idempotent(ran(y))
            assert eq(compose(e, f), compose(f, e))
        previous[x.d] = x
    duration = time.time() - started
    assert duration < 60, f"law suite took {duration:.1f}s"
    report(1, "inverse-monoid law suite", started)


def test_criterion_02_pointwise_oracle_equivalence():
    started = time.time()
    rng = random.Random(20)
    depth2_atoms = atoms(2, 2)
    words6 = list(product(range(2), repeat=6))
    for _ in range(500):
        f = random_pmap(rng, 2, maxdepth=2, maxsize=3)
        g = random_pmap(rng, 2, maxdepth=2, maxsize=3)
        h = compose(f, g)
        s = star(f)
        e = normalize(
            [a.antichain[0] for a in depth2_atoms if rng.random() < 0.5], 2
        )
        r = restrict(f, e)
        x = restrict(f, e)
        y = restrict(f, e.complement())
        j = join([x, y])
        for w in words6:
            assert oracle_image(h, w) == oracle_compose_image(f, g, w)
            img = oracle_image(f, w)
            if img not in (None, SHALLOW):
                assert oracle_image(s, img) == w
            expected = img if e.contains_word(w) else None
            assert oracle_image(r, w) == expected
            ox = oracle_image(x, w)
            assert oracle_image(j, w) == (ox if ox is not None else oracle_image(y, w))
    duration = time.time() - started
    assert duration < 60, f"oracle suite took {duration:.1f}s"
    report(2, "pointwise oracle equivalence", started)


def test_criterion_03_distributivity_over_joins():
    started = time.time()
    rng = random.Random(30)
    for _ in range(500):
        d = rng.choice((2, 3))
        cells = atoms(2, d)
        s_base = random_pmap(rng, d)
        t_base = random_pmap(rng, d)
        s_parts = [
            p
            for p in (restrict(s_base, c) for c in cells if rng.random() < 0.5)
            if not p.is_zero()
        ] or [pmap.zero(d)]
        t_parts = [
            p
            for p in (restrict(t_base, c) for c in cells if rng.random() < 0.5)
            if not p.is_zero()
        ] or [pmap.zero(d)]
        s = join(s_parts)
        t = join(t_parts)
        products = [compose(a, b) for a in s_parts for b in t_parts]
        assert eq(compose(s, t), join(products))
    report(3, "distributivity over joins", started)


def test_criterion_04_multisection_homomorphism():
    started = time.time()
    images = {
        3: ("001", "010"),
        4: ("001", "010", "011"),
        5: ("001", "010", "011", "100"),
    }
    for degree, rans in images.items():
        s = build(clo("{000}"), [pm(2, f"000->{w}") for w in rans])
        units = {pi: element(s, pi) for pi in sym_perms(degree)}
        # injectivity: d! pairwise distinct units
        keys = list(units)
        for i in range(len(keys)):
            assert is_unit(units[keys[i]])
            for jj in range(i + 1, len(keys)):
                assert not eq(units[keys[i]], units[keys[jj]])
        # homomorphism
        for a in keys:
            for b in keys:
                assert eq(
                    compose(units[a], units[b]), units[perm_compose(a, b)]
                )
        # a d-cycle has order exactly d
        cyc = cycle_perm(degree, list(range(degree)))
        acc = units[cyc]
        order = 1
        while not eq(acc, one(2)):
            acc = compose(units[cyc], acc)
            order += 1
        assert order == degree
    report(4, "multisection homomorphism (d = 3, 4, 5)", started)


def test_criterion_05_cover_factorization():
    started = time.time()
    s = build(clo("{000}"), [pm(2, f"000->{w}") for w in ("001", "010", "011", "100")])

    disjoint = cover_of(s, [clo("{0000}"), clo("{0001}")])
    for pi in alt_perms(5):
        target = element(s, pi)
        cert = factor_over_cover(target, pi, disjoint)
        assert cert.is_witness()
        if pi != identity_perm(5):
            assert len(cert.witness["word"]) == 2
        assert eq(word_product(cert.witness["word"], disjoint.pieces, 2), target)

    overlapping = overlapping_cover(s, [clo("{0000, 00010}"), clo("{0001}")])
    for pi in alt_perms(5):
        target = element(s, pi)
        cert = factor_over_cover(target, pi, overlapping, node_budget=100_000)
        assert cert.is_witness()
        assert eq(word_product(cert.witness["word"], overlapping.pieces, 2), target)
    report(5, "cover factorization for all 60 alternating units", started)


def test_criterion_06_degree_extension():
    started = time.time()
    rng = random.Random(60)
    fam = higman_thompson(2)
    units = list(fam.table.mapping.values())
    base = cylinder((0, 0, 1), 2)
    maps = []
    images = [base]
    while len(maps) < 2:
        m = units[rng.randrange(len(units))]
        if rng.random() < 0.5:
            m = compose(m, units[rng.randrange(len(units))])
        r = restrict(m, base)
        img = ran(r)
        if all(img.meet(x).is_empty() for x in images):
            maps.append(r)
            images.append(img)
    s3 = build(base, maps)

    cert4 = extend_degree(s3, fam.table, word_len=3)
    assert cert4.is_witness()
    for piece, sec4 in zip(cert4.witness["subdivision"], cert4.witness["sections"]):
        assert sec4.degree == 4
        r3 = restrict_msec(s3, piece)
        for i in range(3):
            assert eq(sec4.transporters[i], r3.transporters[i])
        cert5 = extend_degree(sec4, fam.table, word_len=3)
        assert cert5.is_witness()
        for piece5, sec5 in zip(cert5.witness["subdivision"], cert5.witness["sections"]):
            assert sec5.degree == 5
            r4 = restrict_msec(sec4, piece5)
            for i in range(4):
                assert eq(sec5.transporters[i], r4.transporters[i])
    report(6, "degree extension to 4- and 5-sections", started)


def test_criterion_07_generating_kit_pipeline():
    started = time.time()
    fam = higman_thompson(2)
    parts = atoms(3, 2)
    kit = build_kit(fam.table, parts)
    rep = verify_separating(kit.family, n_orbit=5)
    assert rep["ok"], rep
    assert len(kit.sections) > 0

    rng = random.Random(70)
    units = list(fam.table.mapping.values())

    def sample_three_cycle():
        while True:
            depth = rng.choice((4, 4, 5))
            c = cylinder(tuple(rng.randrange(2) for _ in range(depth)), 2)
            maps, images = [], [c]
            for _ in range(2):
                m = units[rng.randrange(len(units))]
                if rng.random() < 0.6:
                    m = compose(m, units[rng.randrange(len(units))])
                r = restrict(m, c)
                img = ran(r)
                if any(not img.meet(x).is_empty() for x in images):
                    break
                maps.append(r)
                images.append(img)
            if len(maps) == 2:
                return build(c, maps)

    pi = cycle_perm(3, [0, 1, 2])
    for i in range(20):
        n = sample_three_cycle()
        target = element(n, pi)
        cert = express(target, kit, n, pi, node_budget=100_000)
        assert cert.is_witness(), f"sample {i}: {cert.detail}"
        got = one(2)
        for sec_idx, perm in cert.witness["word"]:
            got = compose(got, element(kit.sections[sec_idx][0], perm))
        assert eq(got, target)
    duration = time.time() - started
    assert duration < 600, f"kit pipeline took {duration:.1f}s"
    report(7, "generating kit pipeline with 20 expressed 3-cycles", started)


def test_criterion_08_dynamics_fixtures():
    started = time.time()
    v2 = DynContext(higman_thompson(2).table)

    cert = expansive_certificate(v2, atoms(1, 2), depth=5, word_len=6)
    assert cert.is_witness()

    from cantorfull.completion import GeneratorTable
    from cantorfull.pmap import Branch, PartialMap
    from cantorfull.tails import adding_machine, state

    adding = DynContext(
        GeneratorTable(
            2, {"a": PartialMap(2, [Branch((), (), state(adding_machine(2), "a"))])}
        )
    )
    cert = expansive_certificate(adding, atoms(1, 2), depth=2, word_len=32)
    assert cert.is_refuted()

    sample = fully_compressible_sample(v2, depth=2, word_len=8)
    assert sample["ok"], sample["failures"][:3]

    cert = orbit_lower_bound(v2, (0,), k=5, word_len=6)
    assert cert.is_witness()
    report(8, "dynamics fixtures", started)


def test_criterion_09_constructive_splitting():
    started = time.time()
    rng = random.Random(90)
    fam = higman_thompson(2)
    units = list(fam.table.mapping.values())
    done = 0
    while done < 200:
        g = one(2)
        for _ in range(rng.randrange(1, 5)):
            g = compose(g, units[rng.randrange(len(units))])
        if eq(g, one(2)):
            continue
        cert = split_unit(g)
        assert cert.is_witness(), cert.detail
        w = cert.witness
        assert eq(compose(w["g1"], w["g2"]), g)
        assert not w["fixed1"].is_empty()
        assert not w["fixed2"].is_empty()
        assert eq(restrict(w["g1"], w["fixed1"]), as_idempotent(w["fixed1"]))
        assert eq(restrict(w["g2"], w["fixed2"]), as_idempotent(w["fixed2"]))
        done += 1
    report(9, "constructive splitting of 200 units", started)


def test_criterion_10_rigid_decomposition():
    started = time.time()
    rng = random.Random(100)
    for _ in range(100):
        cells = atoms(2, 2)
        order = list(range(len(cells)))
        rng.shuffle(order)
        k = rng.randrange(2, 4)
        groups = [order[i::k] for i in range(k)]
        parts = [
            union_all([cells[i] for i in group], 2) for group in groups if group
        ]
        g = one(2)
        for part in parts:
            if rng.random() < 0.3:
                continue
            deep = part.words_at_depth(4)
            u, v = rng.sample(deep, 2)
            swap = join(
                [
                    pm(2, f"{''.join(map(str, u))}->{''.join(map(str, v))}"),
                    pm(2, f"{''.join(map(str, v))}->{''.join(map(str, u))}"),
                    as_idempotent(
                        union_all([cylinder(u, 2), cylinder(v, 2)], 2).complement()
                    ),
                ]
            )
            g = compose(g, swap)
        factors = rigid_parts(g, parts)
        acc = one(2)
        for f in factors:
            acc = compose(acc, f)
        assert eq(acc, g)
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                assert eq(
                    compose(factors[i], factors[j]), compose(factors[j], factors[i])
                )
    report(10, "rigid decomposition of 100 partwise stabilizers", started)


def test_criterion_11_automaton_tail_oracle():
    started = time.time()
    machine = grigorchuk()
    for relation in ("a*a", "b*b", "c*c", "d*d", "b*c*d"):
        assert is_identity(word(machine, relation))
    ab8 = word(machine, "*".join(["a", "b"] * 8))
    ab16 = word(machine, "*".join(["a", "b"] * 16))
    assert not is_identity(ab8)
    assert is_identity(ab16)
    # cross-check the section-closure verdicts against full depth-8 evaluation
    from cantorfull.tails import apply_prefix

    disagreement = False
    for w in product(range(2), repeat=8):
        if apply_prefix(ab8, w)[0] != w:
            disagreement = True
        assert apply_prefix(ab16, w)[0] == w
    assert disagreement
    report(11, "automaton tail oracle (Grigorchuk relations)", started)
