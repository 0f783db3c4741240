import json
import random
import shlex
from collections import Counter
from itertools import product

import pytest

from cantorfull.clopen import Clopen, atoms, cylinder, union_all
from cantorfull.completion import GeneratorTable
from cantorfull.errors import CantorError, KitConstructionFailed, NotInAlt
from cantorfull.factor import word_product
from cantorfull.families import higman_thompson, rover_units
from cantorfull.kit import (
    GeneratingKit,
    build_kit,
    express,
    verify_separating,
)
from cantorfull import cli
from cantorfull import kit as kit_module
from cantorfull import pmap as pmap_module
from cantorfull.msec import (
    alt_perms,
    build,
    cycle_perm,
    element,
    identity_perm,
    Multisection,
)
from cantorfull.pmap import (
    Branch,
    Dedup,
    PartialMap,
    WordBall,
    compose,
    dom,
    eq,
    image_clopen,
    one,
    ran,
    restrict,
    star,
    zero,
)
from cantorfull.tails import MealyMachine, apply_prefix, state, trivial

from oracles import (
    clo,
    pm,
    random_antichain,
    random_pmap,
    random_tail,
    reference_conditions_2_3,
    reference_kit_sections,
    reference_part_of,
    reference_parts_met,
    right_extending_words,
)
from test_msec import random_three_section


SIGMA_TABLE = GeneratorTable(2, {"s": pm(2, "0->1", "1->0")})
PARTS1 = atoms(1, 2)


def desk():
    fam = higman_thompson(2)
    return fam, build_kit(fam.table, atoms(3, 2))


def derived_family(table, parts, word_len=2):
    """The derivation's transporter family, as a plain list."""
    return kit_module._derive(table, parts, word_len).A


def test_derive_transporters_sigma():
    fam = derived_family(SIGMA_TABLE, PARTS1, word_len=1)
    assert len(fam) == 2
    assert any(eq(t, pm(2, "0->1")) for t in fam)
    assert any(eq(t, pm(2, "1->0")) for t in fam)


# {0}, {10}, {11}: a partition that is not the atoms of one depth
COARSE_PARTS = [clo("{0}"), clo("{10}"), clo("{11}")]
# a table with a non-unit generator: its words and restrictions can be zero
NON_UNIT_TABLE = GeneratorTable(2, {"s": pm(2, "0->1", "1->0"), "a": pm(2, "0->10")})


# a letter that fixes {00} but not the rest of the part {0}: a skip that
# asks only whether the letter is an idempotent on {0} loses s.a|{0} = [00->10]
PARTIAL_FIX_TABLE = GeneratorTable(2, {"s": pm(2, "0->1", "1->0"), "a": pm(2, "00->00", "1->01")})


def reference_family(table, parts, word_len):
    """(family, zero restrictions met): every (word, part) pair restricted
    and its parts read off by a scan, with no table or pair skipped."""
    units = list(table.mapping.values())
    out = Dedup()
    expected, zeros = [], 0
    for w, _ in right_extending_words(units, word_len, table.d):
        for e in parts:
            t = restrict(w, e)
            if t.is_zero():
                zeros += 1
                continue
            pd, pr = reference_part_of(parts, dom(t)), reference_part_of(parts, ran(t))
            if pd is None or pr is None or pd == pr:
                continue
            for candidate in (t, star(t)):
                rep, _, new = out.add(candidate)
                if new:
                    expected.append(rep)
    return expected, zeros


def random_partial_table(rng):
    """One to three partial letters over two letters, each permuting some
    cylinders of a random antichain, so fixed cylinders are common."""
    letters = {}
    for k in range(rng.randrange(1, 4)):
        doms = random_antichain(rng, 2, 3, 4)
        rans = rng.sample(doms, len(doms))
        kept = rng.randrange(1, len(doms) + 1)
        letters[f"g{k}"] = PartialMap(2, [
            Branch(u, v, random_tail(rng, 2, ("trivial", "trivial", "grigorchuk")))
            for u, v in zip(doms[:kept], rans[:kept])
        ])
    return GeneratorTable(2, letters)


def test_derive_transporters_matches_word_loop():
    # the Röver words carry Grigorchuk tails
    v2, rover = higman_thompson(2), rover_units()
    cases = [
        (v2.table, atoms(3, 2), 2),
        (rover.table, atoms(3, 2), 2),
        (v2.table, atoms(3, 2), 0),
        (v2.table, atoms(3, 2), 1),
        (rover.table, atoms(3, 2), 1),
        (v2.table, COARSE_PARTS, 2),
        (higman_thompson(3).table, atoms(2, 3), 1),
        (NON_UNIT_TABLE, atoms(2, 2), 2),
        (PARTIAL_FIX_TABLE, atoms(1, 2), 2),
    ]
    zeros = 0
    for table, parts, word_len in cases:
        expected, met = reference_family(table, parts, word_len)
        zeros += met
        # the empty word alone carries no part out of itself
        assert bool(expected) == (word_len > 0)
        assert repr(derived_family(table, parts, word_len=word_len)) == repr(expected)
    # only the non-unit tables restrict to zero
    assert zeros > 0
    # partial letters that fix some cylinders of a part and move others
    rng = random.Random(4701)
    for _ in range(100):
        table = random_partial_table(rng)
        parts = rng.choice([atoms(1, 2), atoms(2, 2), COARSE_PARTS])
        expected, _ = reference_family(table, parts, 2)
        assert repr(derived_family(table, parts)) == repr(expected)


def test_a_non_partition_is_refused_before_the_family_is_derived():
    # {0} holds {00}; part_lookup needs pairwise-disjoint parts
    parts = [clo("{0}"), clo("{00}"), clo("{1}")]
    table = higman_thompson(2).table
    for call in (derived_family, build_kit):
        with pytest.raises(CantorError, match="parts do not form a partition"):
            call(table, parts)


def test_verify_separating_sigma():
    fam = derived_family(SIGMA_TABLE, PARTS1, word_len=1)
    report = verify_separating(fam, PARTS1, n_orbit=2)
    assert report["ok"]
    # with only two parts there is no way to meet five of them
    report5 = verify_separating(fam, PARTS1, n_orbit=5)
    assert not report5["condition3"]["ok"]


def test_verify_separating_flags_part_preserving():
    fam = [pm(2, "00->01")]  # domain and range both inside part {0}
    report = verify_separating(fam, PARTS1, n_orbit=2)
    assert not report["condition2"]["ok"]
    assert report["condition2"]["failures"][0]["element"] == 0


def test_verify_separating_single_part_partition():
    from cantorfull.clopen import full

    fam = derived_family(SIGMA_TABLE, PARTS1, word_len=1)
    report = verify_separating(fam, [atoms(0, 2)[0]], n_orbit=2)
    assert not report["condition1"]["ok"]


def test_verify_separating_refines_coarse_parts():
    # {0} is coarser than the depth-2 atoms, so condition 4 splits it by the
    # family's domains and ranges
    fam = higman_thompson(2)
    parts = [clo("{0}"), clo("{10}"), clo("{11}")]
    report = verify_separating(derived_family(fam.table, parts), parts, n_orbit=3)
    assert report["condition4"] == {"ok": True, "failures": []}
    assert report["ok"], report
    empty = verify_separating([], parts, n_orbit=3)
    assert empty["condition4"] == {"ok": False, "failures": [{"cell": "{0}"}]}


def test_verify_separating_refines_by_pairwise_products():
    # the family's domains and ranges ({0}, {10}, {1}) leave the part {0}
    # whole; only the product [1->0][0->10], which carries {0} to {00}, splits
    # it into depth-2 cells
    parts = [clo("{0}"), clo("{10}"), clo("{11}")]
    pair = [pm(2, "0->10"), pm(2, "10->0")]
    fam = pair + [pm(2, "1->0"), pm(2, "0->1")]
    assert verify_separating(fam, parts, n_orbit=3)["condition4"] == {"ok": True, "failures": []}
    # [0->10] and its star alone have only idempotent products
    alone = verify_separating(pair, parts, n_orbit=3)
    assert alone["condition4"] == {"ok": False, "failures": [{"cell": "{0}"}]}


def test_verify_separating_matches_the_per_atom_reference():
    # condition 1 walks each depth-n atom from scratch in the reference,
    # testing every family domain with Clopen.leq
    seen = Counter()
    for fam, parts in (
        (higman_thompson(2), atoms(3, 2)),
        (rover_units(), atoms(3, 2)),
        (higman_thompson(2), COARSE_PARTS),
    ):
        for word_len in (1, 2):
            family = derived_family(fam.table, parts, word_len=word_len)
            parts_met = reference_parts_met(family, parts)
            for n_orbit in (2, 3, 5):
                report = verify_separating(family, parts, n_orbit)
                bad1 = [{"atom": a, "parts_met": met} for a, met in parts_met if len(met) < n_orbit]
                bad2, bad3 = reference_conditions_2_3(family, parts, n_orbit)
                assert report["condition1"] == {"ok": not bad1, "failures": bad1}
                assert report["condition2"] == {"ok": not bad2, "failures": bad2}
                assert report["condition3"] == {"ok": not bad3, "failures": bad3}
                seen["condition 1 fails" if bad1 else "condition 1 holds"] += 1
    assert len(seen) == 2, seen


# {0}, {10}, {110}, ..., {11111110}, {11111111}: nine parts down to depth 8
CHAIN9 = [cylinder((1,) * k + (0,), 2) for k in range(8)] + [cylinder((1,) * 8, 2)]


def test_condition_4_splits_once_per_distinct_boundary(monkeypatch):
    # the chain's cells stay coarse after the family's domains and ranges, so
    # condition 4 splits by the domains and ranges of all |A|^2 products, most
    # of them repeated; the report is the one computed by splitting every
    # cell by every product, complementing per cell
    family = derived_family(higman_thompson(2).table, CHAIN9)
    calls = Counter()
    complement = Clopen.complement

    def counting_complement(self):
        calls["complement"] += 1
        return complement(self)

    monkeypatch.setattr(Clopen, "complement", counting_complement)
    report = verify_separating(family, CHAIN9, n_orbit=5)
    first_cells = [
        "{000010}", "{0000110}", "{00000}", "{00010}", "{000110}",
        "{0001110}", "{00100}", "{0010110}", "{001010}", "{00110}",
    ]
    assert report == {
        "n_orbit": 5,
        "depth": 8,
        "condition2": {"ok": True, "failures": []},
        "condition3": {
            "ok": False,
            "failures": [
                {"part": 0, "targets": [1]},
                {"part": 1, "targets": [0, 2, 3]},
                {"part": 8, "targets": [0, 1, 2]},
            ],
        },
        "condition1": {"ok": True, "failures": []},
        "condition4": {"ok": False, "failures": [{"cell": c} for c in first_cells]},
        "ok": False,
    }
    stage1 = {c for a in family for c in (dom(a), ran(a))}
    products = [compose(a, b) for a in family for b in family]
    stage2 = {c for m in products if not m.is_zero() for c in (dom(m), ran(m))}
    assert 0 < calls["complement"] <= len(stage1) + len(stage2) < len(products)


def test_condition_4_composes_only_the_products_that_exist(monkeypatch):
    # a product a.b is nonzero exactly when dom(a) meets ran(b); the chain's
    # 264 elements make 69,696 pairs, of which 5,070 meet
    family = derived_family(higman_thompson(2).table, CHAIN9)
    report = verify_separating(family, CHAIN9, n_orbit=5)
    meeting = sum(not compose(a, b).is_zero() for a in family for b in family)
    calls = Counter()

    def counting_compose(f, g):
        calls["compose"] += 1
        return compose(f, g)

    monkeypatch.setattr(kit_module, "compose", counting_compose)
    assert verify_separating(family, CHAIN9, n_orbit=5) == report
    assert 0 < calls["compose"] <= meeting < len(family) ** 2


def test_conditions_2_and_3_match_the_part_scan():
    # seeded families over atom and non-atom partitions: derived transporters
    # (domains that are a whole part), their restrictions to a child cylinder
    # (domains strictly inside a part), units restricted to two parts
    # (domains that straddle), zero maps, eq-duplicates and random maps with
    # automaton tails
    rng = random.Random(5)
    v2 = higman_thompson(2)
    units = list(v2.table.mapping.values())
    partitions = [
        atoms(1, 2),
        atoms(2, 2),
        atoms(3, 2),
        [clo("{0, 11}"), clo("{10}")],
        [clo("{00, 11}"), clo("{01}"), clo("{10}")],
    ]
    seen = Counter()
    for parts in partitions:
        derived = derived_family(v2.table, parts)
        for _ in range(24):
            family = rng.sample(derived, rng.randrange(min(len(derived), 10) + 1))
            for _ in range(rng.randrange(3)):
                family.append(restrict(rng.choice(units), union_all(rng.sample(parts, 2), 2)))
            for a in rng.sample(family, min(len(family), 2)):
                w = rng.choice(dom(a).antichain) + (rng.randrange(2),)
                family.append(restrict(a, cylinder(w, 2)))
            family += [random_pmap(rng, 2) for _ in range(rng.randrange(3))]
            if rng.random() < 0.4:
                family.append(zero(2))
            if family and rng.random() < 0.4:
                family.append(PartialMap(2, list(rng.choice(family).branches)))
            rng.shuffle(family)
            n_orbit = rng.choice((2, 3, 5))

            report = verify_separating(family, parts, n_orbit)
            bad2, bad3 = reference_conditions_2_3(family, parts, n_orbit)
            assert report["condition2"] == {"ok": not bad2, "failures": bad2}
            assert report["condition3"] == {"ok": not bad3, "failures": bad3}
            seen["condition 3 fails" if bad3 else "condition 3 holds"] += 1
            for a in family:
                pd = reference_part_of(parts, dom(a))
                if a.is_zero():
                    seen["zero map"] += 1
                elif pd is None:
                    # a straddling domain that carries some part out of itself
                    carried = any(
                        e.leq(dom(a)) and reference_part_of(parts, image_clopen(a, e)) not in (None, i)
                        for i, e in enumerate(parts)
                    )
                    seen["straddles and carries a part" if carried else "straddles"] += 1
                else:
                    seen["a whole part" if dom(a) == parts[pd] else "strictly inside a part"] += 1
            if any(a is not b and eq(a, b) for a in family for b in family):
                seen["eq-duplicate"] += 1
            if any(len(p.antichain) > 1 for p in parts):
                seen["non-atom partition"] += 1
    assert len(seen) == 9 and min(seen.values()) >= 10, seen


def _initial_tables(sections):
    return [(repr(s.base), repr(s.transporters), repr(t)) for s, t in sections]


@pytest.mark.parametrize("family", ["v2", "rover"])
def test_initial_sections_match_the_reference_kit(family):
    # Röver's family carries automaton tails
    table = (higman_thompson(2) if family == "v2" else rover_units()).table
    parts = atoms(3, 2)
    A = derived_family(table, parts)
    got = GeneratingKit(table, parts, A).sections
    assert len(got) == len(A)
    assert _initial_tables(got) == _initial_tables(reference_kit_sections(parts, A))


def test_initial_sections_of_a_hand_made_family():
    # a zero map, a straddler and its star, an eq-duplicate, and ahead of A
    # a map from part {000} whose range straddles, which carries the base of
    # the section around [0000->1000] into the part {010}
    table = higman_thompson(2).table
    parts = atoms(3, 2)
    A = derived_family(table, parts)
    straddler = restrict(next(iter(table.mapping.values())), parts[0].union(parts[1]))
    assert reference_part_of(parts, dom(straddler)) is None
    inner = restrict(A[0], cylinder((0, 0, 0, 0), 2))
    assert repr(inner) == "PartialMap(d=2, [[0000->1000]])"
    family = [zero(2), straddler, pm(2, "000->01"), pm(2, "01->000")] + A[:5]
    family += [PartialMap(2, list(A[2].branches)), star(straddler), inner, star(inner)] + A[5:]
    got = GeneratingKit(table, parts, family).sections
    assert len(got) == len(A) + 2
    assert [repr(f) for f in got[5][0].transporters[1:3]] == [
        "PartialMap(d=2, [[0000->1000]])",
        "PartialMap(d=2, [[0000->010]])",
    ]
    # the straddler's domain holds the base {000}, but spares come from
    # elements whose domain lies inside the base's part
    assert _initial_tables(got) == _initial_tables(reference_kit_sections(parts, family))


README_EXPRESS = (
    "genkit express --gens higman_thompson:2 --partition atoms:3"
    " --msec 'msec({0000}; s00_01@{0000}, s00_10@{0000})' --perm 1,2,0 --json"
)


def test_readme_express_builds_only_the_sections_it_reads(monkeypatch, capsys):
    # the witness is a one-letter lookup among the kit sections on {0000}
    bases, kits = [], []
    init, real_build_kit = Multisection.__init__, kit_module.build_kit

    def counting_init(self, base, transporters):
        bases.append(str(base))
        init(self, base, transporters)

    def keeping_build_kit(*args, **kwargs):
        kits.append(real_build_kit(*args, **kwargs))
        return kits[-1]

    monkeypatch.setattr(Multisection, "__init__", counting_init)
    monkeypatch.setattr(kit_module, "build_kit", keeping_build_kit)
    assert cli.main(shlex.split(README_EXPRESS)) == 0
    assert json.loads(capsys.readouterr().out)["witness"] == {"word": [[155, [3, 1, 0, 2, 4]]]}
    assert len(kits[0].sections) == 184
    assert 0 < len(bases) <= 4 and set(bases) == {"{0000}"}


@pytest.mark.parametrize(
    "family, parts",
    [("v2", atoms(3, 2)), ("rover", atoms(3, 2)), ("v3", atoms(2, 3))],
)
def test_a_built_kit_reads_its_stars_and_part_pairs_off_the_derivation(family, parts):
    table = {"v2": higman_thompson(2), "rover": rover_units(), "v3": higman_thompson(3)}[family].table
    kit = build_kit(table, parts)
    for i, a in enumerate(kit.A):
        first = next(j for j, b in enumerate(kit.A) if eq(b, star(a)))
        assert kit._star_of[i] == first
        assert kit._pair_of[i] == (reference_part_of(parts, dom(a)), reference_part_of(parts, ran(a)))
    # the derivation's Dedup is the section Dedup: a copy of A[i] finds section i
    for i in range(0, len(kit.A), 7):
        copy = PartialMap(kit.d, list(kit.A[i].branches))
        assert kit.section_for(copy, *kit._pair_of[i]).kit_index == i
    assert len(kit.sections) == len(kit.A)


def test_a_v2_build_indexes_its_family_once(monkeypatch):
    # the derivation fingerprints each first-met restriction and its star and
    # looks up each one's range part; the gate and the kit add no lookups and
    # no fingerprints (the parent made 1,077 fingerprints and 904 lookups)
    counts = Counter()
    fingerprint, part_lookup = pmap_module.fingerprint, kit_module.part_lookup

    def counting_fingerprint(m):
        counts["fingerprint"] += 1
        return fingerprint(m)

    def counting_part_lookup(parts):
        lookup = part_lookup(parts)

        def counted(c):
            counts["part lookup"] += 1
            return lookup(c)

        return counted

    monkeypatch.setattr(pmap_module, "fingerprint", counting_fingerprint)
    monkeypatch.setattr(kit_module, "part_lookup", counting_part_lookup)
    kit = build_kit(higman_thompson(2).table, atoms(3, 2))
    assert len(kit.sections) == 184
    assert counts["fingerprint"] <= 341 and counts["part lookup"] <= 168, counts


def test_a_v2_verify_derives_each_fact_once(monkeypatch, capsys):
    # the derivation restricts a word to a part only when the word's first
    # letter does not fix the part, and cfl genkit verify reads the part pairs
    # off the derivation's record (the parent made 656 restrictions, and its
    # verify made 648 part lookups)
    counts = Counter()
    compose, restrict, part_lookup = kit_module.compose, kit_module.restrict, kit_module.part_lookup

    def counting_compose(f, g):
        counts["compose"] += 1
        return compose(f, g)

    def counting_restrict(f, e):
        counts["compose"] += 1
        return restrict(f, e)

    def counting_part_lookup(parts):
        lookup = part_lookup(parts)

        def counted(c):
            counts["part lookup"] += 1
            return lookup(c)

        return counted

    monkeypatch.setattr(kit_module, "compose", counting_compose)
    monkeypatch.setattr(kit_module, "restrict", counting_restrict)
    monkeypatch.setattr(kit_module, "part_lookup", counting_part_lookup)
    kit_module._derive(higman_thompson(2).table, atoms(3, 2), 2)
    assert counts["compose"] <= 500, counts
    counts.clear()
    assert cli.main(["genkit", "verify", "--gens", "higman_thompson:2", "--partition", "atoms:3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert counts["part lookup"] <= 280, counts
    # the record and its plain list give one report
    family = kit_module._derive(higman_thompson(2).table, atoms(3, 2), 2)
    assert verify_separating(family, atoms(3, 2), 5) == verify_separating(family.A, atoms(3, 2), 5)


@pytest.mark.parametrize("family", ["v2", "rover"])
def test_sections_read_in_any_order_equal_the_eager_build(family):
    table = (higman_thompson(2) if family == "v2" else rover_units()).table
    kit = build_kit(table, atoms(3, 2))
    order = list(range(len(kit.sections)))
    random.Random(0).shuffle(order)
    read = {i: kit.sections[i] for i in order}
    got = [read[i] for i in range(len(order))]
    assert _initial_tables(got) == _initial_tables(reference_kit_sections(kit.parts, kit.A))
    # a section is built once, and the container reads as a sequence
    assert list(kit.sections) == got
    assert kit.sections[-1] is got[-1] and kit.sections[2:7:2] == got[2:7:2]
    with pytest.raises(IndexError):
        kit.sections[len(got)]


@pytest.mark.parametrize("family", ["v2", "rover"])
def test_build_kit_names_the_first_part_short_of_targets(family):
    # the depth-2 atoms are four parts, so each part reaches three others and
    # condition 3 asks for four
    table = (higman_thompson(2) if family == "v2" else rover_units()).table
    with pytest.raises(KitConstructionFailed) as failed:
        build_kit(table, atoms(2, 2))
    assert str(failed.value) == (
        "no three suitable transporters for {'part': 0, 'targets': [1, 2, 3]} at None"
    )


def test_desk_instance_passes():
    fam, kit = desk()
    report = verify_separating(kit.A, kit.parts, n_orbit=5)
    assert report["ok"], report
    assert len(kit.sections) > 0
    for section, _prov in kit.sections[:10]:
        assert section.degree == 5


def test_kit_construction_failure():
    # surrounding any transporter with a 5-section needs three further parts,
    # and the depth-1 partition has only two
    fam = derived_family(SIGMA_TABLE, PARTS1, word_len=1)
    with pytest.raises(KitConstructionFailed):
        GeneratingKit(SIGMA_TABLE, PARTS1, fam)


def desk_three_cycle(fam, words, prefix):
    c = cylinder(prefix, 2)
    maps = [restrict(fam.table[w], c) for w in words]
    return build(c, maps)


def test_express_kit_element_short_word():
    fam, kit = desk()
    # a kit section's own alternating element expresses with one letter
    section, _ = kit.sections[0]
    pi = cycle_perm(5, [0, 1, 2])
    target = element(section, pi)
    cert = express(target, kit, section, pi)
    assert cert.is_witness()
    assert len(cert.witness["word"]) == 1


def test_express_product_of_kit_elements():
    fam, kit = desk()
    section, _ = kit.sections[0]
    p1 = cycle_perm(5, [0, 1, 2])
    p2 = cycle_perm(5, [2, 3, 4])
    target = compose(element(section, p1), element(section, p2))
    from cantorfull.msec import perm_compose

    pi = perm_compose(p1, p2)
    cert = express(target, kit, section, pi)
    assert cert.is_witness()
    assert len(cert.witness["word"]) <= 2


def test_express_three_cycle_depth_four():
    fam, kit = desk()
    n = desk_three_cycle(fam, ("s00_01", "s00_10"), (0, 0, 0, 0))
    pi = cycle_perm(3, [0, 1, 2])
    target = element(n, pi)
    cert = express(target, kit, n, pi)
    assert cert.is_witness(), cert.detail
    word = cert.witness["word"]
    got = one(2)
    for sec_idx, perm in word:
        got = compose(got, element(kit.sections[sec_idx][0], perm))
    assert eq(got, target)


def test_express_subdivides_a_mixed_depth_base_shortest_word_first():
    fam, kit = desk()
    n = build(clo("{1, 00}"), [pm(2, "1->0100", "00->0101"), pm(2, "1->0110", "00->0111")])
    pi = cycle_perm(3, [0, 1, 2])
    cert = express(element(n, pi), kit, n, pi)
    assert cert.is_witness(), cert.detail
    # the base's words are stored {00, 1}; the pieces of 1 come first
    bases = [str(kit.sections[i][0].base) for i, _ in cert.witness["word"]]
    assert list(dict.fromkeys(bases)) == ["{100}", "{101}", "{110}", "{111}", "{000}", "{001}"]


def test_express_identity_is_the_empty_word():
    fam, kit = desk()
    n = desk_three_cycle(fam, ("s00_01", "s00_10"), (0, 0, 0, 0))
    cert = express(one(2), kit, n, identity_perm(3))
    assert cert.is_witness()
    assert cert.witness["word"] == [] and cert.nodes_explored == 0


def test_express_rejects_odd():
    fam, kit = desk()
    section, _ = kit.sections[0]
    pi = (1, 0, 2, 3, 4)
    with pytest.raises(NotInAlt):
        express(element(section, pi), kit, section, pi)


def test_express_exhausts_gracefully():
    fam, kit = desk()
    n = searched_three_cycles(kit, 1)[0]
    pi = cycle_perm(3, [0, 1, 2])
    cert = express(element(n, pi), kit, n, pi, node_budget=1)
    assert cert.is_exhausted()


def in_a_section(kit, n):
    """True iff a kit section has n's base and all of n's idempotents."""
    return any(
        section.base == n.base and all(e in section.idems for e in n.idems)
        for section, _ in kit.sections
    )


def searched_three_cycles(kit, count, seed=4):
    """3-sections on depth-4 cylinders that no kit section contains, so that
    express searches rather than looks the answer up."""
    rng = random.Random(seed)
    units = list(kit.table.mapping.values())
    out = []
    while len(out) < count:
        n = random_three_section(rng, units, 4)
        if not in_a_section(kit, n):
            out.append(n)
    return out


def criterion_07_three_section(rng, units, degree=3):
    """Criterion 07's sampler: a 3-section (or a section of the given degree)
    on a cylinder of depth 4, 4 or 5 whose transporters are units or
    products of two units."""
    d = units[0].d
    while True:
        c = cylinder(tuple(rng.randrange(d) for _ in range(rng.choice((4, 4, 5)))), d)
        maps, images = [], [c]
        for _ in range(degree - 1):
            m = units[rng.randrange(len(units))]
            if rng.random() < 0.6:
                m = compose(m, units[rng.randrange(len(units))])
            r = restrict(m, c)
            if any(not ran(r).disjoint(x) for x in images):
                break
            maps.append(r)
            images.append(ran(r))
        if len(maps) == degree - 1:
            return build(c, maps)


def test_first_express_on_a_v3_kit_reads_few_words(monkeypatch):
    # a fresh V3 kit's first searched express used to build every distinct
    # unit word up to length 3 (57,102 maps, about 6 s) and read 24 of them
    fam = higman_thompson(3)
    kit = build_kit(fam.table, atoms(2, 3))
    rng = random.Random(0)
    units = list(fam.table.mapping.values())
    n = criterion_07_three_section(rng, units)
    while in_a_section(kit, n):
        n = criterion_07_three_section(rng, units)
    honest = pmap_module.Dedup.add
    adds = []

    def counted(self, m, payload=None):
        adds.append(m)
        return honest(self, m, payload)

    def grown(self):
        raise AssertionError("express grew a word ball")

    monkeypatch.setattr(pmap_module.Dedup, "add", counted)
    monkeypatch.setattr(pmap_module.WordBall, "_grow", grown)
    express_and_recheck(kit, n)
    assert len(adds) < 5_000


def test_express_skips_zero_detours():
    # the first searched 3-cycle of criterion 07's sampler over the Röver
    # units, seeds 2 and 5: a detour whose product is zero ended the search
    # with "zero product while factoring a word" instead of trying the next
    fam = rover_units()
    kit = build_kit(fam.table, atoms(3, 2))
    units = list(fam.table.mapping.values())
    for seed in (2, 5):
        rng = random.Random(seed)
        n = criterion_07_three_section(rng, units)
        while in_a_section(kit, n):
            n = criterion_07_three_section(rng, units)
        express_and_recheck(kit, n)


def searched_five_section(kit, seed):
    """A 5-section of criterion 07's sampler that no kit section contains."""
    units = list(kit.table.mapping.values())
    rng = random.Random(seed)
    n = criterion_07_three_section(rng, units, degree=5)
    while in_a_section(kit, n):
        n = criterion_07_three_section(rng, units, degree=5)
    return n


def express_and_recheck(kit, n, pi=cycle_perm(3, [0, 1, 2])):
    """express element(n, pi), by default the 3-cycle of a 3-section, over
    the kit; assert a witness whose word word_product re-evaluates to the
    target."""
    target = element(n, pi)
    cert = express(target, kit, n, pi, node_budget=100_000)
    assert cert.is_witness(), cert.detail
    sections = [section for section, _ in kit.sections]
    assert eq(word_product(cert.witness["word"], sections, kit.d), target)
    return cert


@pytest.mark.parametrize(
    "family, seed",
    [
        ("v2", 54), ("v2", 135), ("v2", 263), ("v2", 330),
        ("rover", 27), ("rover", 361), ("rover", 679),
    ],
)
def test_express_factors_at_the_target_base(family, seed):
    # the first draw of criterion 07's sampler: a same-part transporter whose
    # detour section was built around the whole word product, with a column
    # that missed the target base ("factored section does not cover the
    # target base"); factored at the base, each is a witness.  Röver seed 27
    # writes a transporter as a word of more than three letters, which is
    # split at its two outermost letters
    fam = higman_thompson(2) if family == "v2" else rover_units()
    kit = build_kit(fam.table, atoms(3, 2))
    n = criterion_07_three_section(random.Random(seed), list(fam.table.mapping.values()))
    assert not in_a_section(kit, n)
    express_and_recheck(kit, n)


def test_rover_twin_of_criterion_07():
    # criterion 07's pipeline over the Röver units: 20 3-cycles that no kit
    # section contains when drawn, each expressed and re-verified
    fam = rover_units()
    kit = build_kit(fam.table, atoms(3, 2))
    units = list(fam.table.mapping.values())
    rng = random.Random(71)
    for _ in range(20):
        n = criterion_07_three_section(rng, units)
        while in_a_section(kit, n):
            n = criterion_07_three_section(rng, units)
        express_and_recheck(kit, n)


def test_express_rechecks_every_letter(monkeypatch):
    # a 3-cycle's word is one commutator and repeats no letter; the 3-cycle
    # (1 2 3) of a 5-section, which fixes the base, is routed through it
    fam, kit = desk()
    n = searched_five_section(kit, 1)
    pi = cycle_perm(5, [1, 2, 3])
    target = element(n, pi)
    honest = kit_module._factor_section
    changed = []

    def tampered(*args):
        word = honest(*args)
        # change one occurrence of a repeated letter to another even
        # permutation of its section: a letter memo keyed on less than the
        # whole letter would reuse the old unit and pass the wrong word
        for k in range(len(word) - 1, -1, -1):
            if word.count(word[k]) > 1:
                idx, perm = word[k]
                other = next(p for p in alt_perms(5) if p not in (perm, identity_perm(5)))
                word[k] = (idx, other)
                changed.append(k)
                return word
        raise AssertionError("witness word repeats no letter")

    assert express(target, kit, n, pi).is_witness()
    monkeypatch.setattr(kit_module, "_factor_section", tampered)
    cert = express(target, kit, n, pi)
    assert changed
    assert cert.is_exhausted()
    assert cert.detail == "verification failed"


def test_express_factors_only_the_moved_columns(monkeypatch):
    # the 3-cycle (0 1 2) moves two transporters: each is wordified once, and
    # the two kit sections they factor into glue to one cross commutator
    fam, kit = desk()
    n = searched_three_cycles(kit, 1)[0]
    honest = kit_module._wordify
    asked = []

    def spy(kit, m, budget):
        asked.append(m)
        return honest(kit, m, budget)

    monkeypatch.setattr(kit_module, "_wordify", spy)
    cert = express_and_recheck(kit, n)
    assert [m.branches for m in asked] == [m.branches for m in n.transporters[1:]]
    assert len(cert.witness["word"]) == 4


@pytest.mark.parametrize("family", ["v2", "rover"])
def test_express_on_five_sections(family, monkeypatch):
    # (1 2 3) fixes the base and (0 1 2) fixes columns 3 and 4; only the
    # transporters a permutation moves are wordified
    fam = higman_thompson(2) if family == "v2" else rover_units()
    kit = build_kit(fam.table, atoms(3, 2))
    n = searched_five_section(kit, 0)
    honest = kit_module._wordify
    asked = []

    def spy(kit, m, budget):
        asked.append(m.branches)
        return honest(kit, m, budget)

    monkeypatch.setattr(kit_module, "_wordify", spy)
    for cycle in ([1, 2, 3], [0, 1, 2]):
        asked.clear()
        express_and_recheck(kit, n, cycle_perm(5, cycle))
        assert asked == [n.transporters[k].branches for k in cycle if k]


def test_express_on_one_kit_matches_fresh_kits():
    fam = higman_thompson(2)
    pi = cycle_perm(3, [0, 1, 2])
    shared = build_kit(fam.table, atoms(3, 2))

    def letters(kit, cert):
        # a kit numbers its sections in the order it builds them, so a
        # letter is compared by its section's transporters, not its index
        return [(kit.sections[idx][0].transporters, perm) for idx, perm in cert.witness["word"]]

    for n in searched_three_cycles(shared, 2):
        target = element(n, pi)
        again = express(target, shared, n, pi)
        fresh_kit = build_kit(fam.table, atoms(3, 2))
        fresh = express(target, fresh_kit, n, pi)
        assert again.is_witness(), again.detail
        assert fresh.is_witness(), fresh.detail
        assert again.nodes_explored == fresh.nodes_explored
        assert letters(shared, again) == letters(fresh_kit, fresh)


@pytest.mark.parametrize("family, max_len", [("v2", 5), ("rover", 4)])
def test_cylinder_steps_agree_with_eval_at(family, max_len):
    # the domain index finds, for every family element and its star, exactly
    # the branch eval_at finds over each short word, with the same image and
    # residual; Röver branches carry automaton tails, so some residuals are
    # not trivial, and the cylinder search drops those for a trivial-tail
    # transporter and carries them for a decorated one
    fam = higman_thompson(2) if family == "v2" else rover_units()
    kit = build_kit(fam.table, atoms(3, 2))
    words = [w for n in range(max_len + 1) for w in product(range(2), repeat=n)]
    residuals = set()
    for backward in (False, True):
        maps = [star(a) if backward else a for a in kit.A]
        for w in words:
            steps = kit.cylinder_steps(w, backward)
            found = dict(steps)
            assert list(found) == sorted(found) and len(found) == len(steps)
            for idx, m in enumerate(maps):
                r = pmap_module.eval_at(m, w)
                if r.kind != pmap_module.IMAGE:
                    assert idx not in found, (idx, w)
                    continue
                b = found[idx]
                img, residual = apply_prefix(b.tail, w[len(b.dom) :])
                assert (b.ran + img, residual) == (r.prefix, r.residual), (idx, w)
                residuals.add(bool(residual.factors))
    assert residuals == ({False, True} if family == "rover" else {False})


def roadmap_sweep(table, kit, n, word_len, bases=None):
    """The exhaustive sweep of the ROADMAP, in its order: for each depth-n
    cylinder c (each of bases, when given), the first word of length at most
    word_len for each image of c that misses c, and for each ordered pair of
    disjoint images the 3-cycle of build(c, [restrict(m1, c), restrict(m2,
    c)]), expressed over kit; the certificates in order."""
    pi = cycle_perm(3, [0, 1, 2])
    words = [m for m, _ in WordBall(list(table.mapping.values()), table.d).words(word_len)]
    certs = []
    for c in bases or atoms(n, table.d):
        first = {}
        for m in words:
            if c.leq(dom(m)):
                img = image_clopen(m, c)
                if img.disjoint(c):
                    first.setdefault(img, m)
        for i1, m1 in first.items():
            for i2, m2 in first.items():
                if i1.disjoint(i2):
                    s = build(c, [restrict(m1, c), restrict(m2, c)])
                    certs.append(express(element(s, pi), kit, s, pi, node_budget=100_000))
    return certs


def test_v2_sweep_at_depth_three_keeps_its_sections_and_nodes():
    # the depth-3, one-letter slice of the sweep, pinned to the counts of a
    # cylinder search that spends one node per index hit it reads
    fam = higman_thompson(2)
    certs = roadmap_sweep(fam.table, build_kit(fam.table, atoms(3, 2)), 3, 1)
    assert len(certs) == 192
    assert sum(not cert.is_witness() for cert in certs) == 0
    assert sum(cert.nodes_explored for cert in certs) == 23_198


def coloured_table(d, perms):
    """V_d with one root-decorated unit per permutation: each is a state of
    one machine that outputs its permutation and returns to itself on every
    letter (Lederle's constant colouring)."""
    states = [f"f{i}" for i in range(len(perms))]
    machine = MealyMachine("colour", d, {s: (s,) * d for s in states}, dict(zip(states, perms)))
    mapping = dict(higman_thompson(d).table.mapping)
    for s in states:
        mapping[s] = PartialMap(d, [Branch((), (), state(machine, s))])
    return GeneratorTable(d, mapping)


def test_coloured_sweep_spends_by_work_not_by_family_size():
    # the base-{00} slice of the sweep over V_3 coloured by Alt(3), a family
    # of 1,260 elements: charged one node per (state, family element), 34 of
    # its 204 3-cycles ran out of the default budget
    table = coloured_table(3, [(1, 2, 0), (2, 0, 1)])
    kit = build_kit(table, atoms(2, 3))
    assert len(kit.A) == 1260
    certs = roadmap_sweep(table, kit, 2, 1, bases=[cylinder((0, 0), 3)])
    assert len(certs) == 204
    assert all(cert.is_witness() for cert in certs)


@pytest.mark.parametrize("family", ["v2", "rover"])
def test_sweep_subdivides_multi_branch_transporters(family, monkeypatch):
    # the base-{00} slice of the n = 2 sweep: six of its 3-cycles ran the
    # budget out in a blind map search over multi-branch transporters such
    # as 000->01, 001->11; such a transporter now spends no node, and
    # _factor_cover subdivides its base, whose children give single-branch
    # transporters
    fam = higman_thompson(2) if family == "v2" else rover_units()
    kit = build_kit(fam.table, atoms(3, 2))
    honest_wordify, honest_cover = kit_module._wordify, kit_module._factor_cover
    multi, splits = [], []

    def wordify(kit, m, budget):
        before = budget.nodes
        word = honest_wordify(kit, m, budget)
        if len(m.branches) > 1:
            multi.append((word, budget.nodes - before))
        return word

    def cover(kit, section, perm, budget, split_left=3):
        splits.append(split_left)
        return honest_cover(kit, section, perm, budget, split_left)

    monkeypatch.setattr(kit_module, "_wordify", wordify)
    monkeypatch.setattr(kit_module, "_factor_cover", cover)
    certs = roadmap_sweep(fam.table, kit, 2, 2, bases=[clo("{00}")])
    assert len(certs) == 112
    assert sum(not cert.is_witness() for cert in certs) == 0
    assert multi and set(multi) == {(None, 0)}
    assert min(splits) < 3


def decorated_three_sections(kit, count, seed=0):
    """3-sections whose first transporter is decorated and not one family
    letter: r = restrict(a * b, c), with a a family element with a decorated
    branch and c a depth-4 or depth-5 cylinder inside the product's domain,
    kept when r has one branch, a nontrivial tail and a range that misses c,
    and no family element restricted to c equals it; the second transporter
    is a prefix exchange from c to a disjoint cylinder of the same depth."""
    rng = random.Random(seed)
    A, d = kit.A, kit.d
    decorated = [i for i, a in enumerate(A) if any(b.tail.factors for b in a.branches)]
    out = []
    while len(out) < count:
        p = compose(A[rng.choice(decorated)], A[rng.randrange(len(A))])
        if p.is_zero():
            continue
        b = rng.choice(p.branches)
        depth = rng.choice((4, 5))
        if len(b.dom) > depth:
            continue
        u = b.dom + tuple(rng.randrange(d) for _ in range(depth - len(b.dom)))
        c = cylinder(u, d)
        r = restrict(p, c)
        if len(r.branches) != 1 or not r.branches[0].tail.factors or not ran(r).disjoint(c):
            continue
        if any(eq(restrict(a, c), r) for a in A):
            continue
        v = tuple(rng.randrange(d) for _ in range(depth))
        if cylinder(v, d).disjoint(c) and cylinder(v, d).disjoint(ran(r)):
            out.append(build(c, [r, PartialMap(d, [Branch(u, v, trivial(d))])]))
    return out


def test_express_decorated_transporters_that_are_not_one_letter(monkeypatch):
    # of the first 40 draws, a lookup of one family letter restricted to c
    # writes 19 as witnesses, and running out of subdivisions or nodes loses
    # the rest, these among them; the cylinder search carries the tails and
    # finds a word for each decorated transporter at c itself
    fam = rover_units()
    kit = build_kit(fam.table, atoms(3, 2))
    draws = decorated_three_sections(kit, 12)
    honest = kit_module._wordify
    found = {}

    def spy(kit, m, budget):
        word = honest(kit, m, budget)
        found[m.branches] = word
        return word

    monkeypatch.setattr(kit_module, "_wordify", spy)
    for k in (2, 3, 4, 7, 11):
        n = draws[k]
        express_and_recheck(kit, n)
        assert found[n.transporters[1].branches] is not None
