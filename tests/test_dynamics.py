import random
import tracemalloc
from itertools import product

import pytest

from cantorfull import dynamics, pmap
from cantorfull.clopen import atoms, cylinder, full, normalize
from cantorfull.completion import GeneratorTable
from cantorfull.dynamics import (
    DynContext,
    compress_search,
    expansive_certificate,
    fully_compressible_sample,
    minimal_certificate,
    orbit_lower_bound,
    rigid_parts,
    split_unit,
    subshift_code,
)
from cantorfull.errors import (
    AlphabetMismatch,
    CantorError,
    EmptyInput,
    IdentityInput,
    NotPartwiseStabilizing,
)
from cantorfull.families import family_by_name, grigorchuk_units, higman_thompson, rover_units
from cantorfull.parser import expr_to_text
from cantorfull.pmap import Branch, PartialMap, compose, eq, image_clopen, one
from cantorfull.tails import adding_machine, state

from oracles import (
    SHALLOW,
    clo,
    oracle_compose_image,
    oracle_image,
    pm,
    reference_expansive_certificate,
    reference_fully_compressible_sample,
    reference_split_unit,
)


def v2_ctx():
    return DynContext(higman_thompson(2).table)


def v3_ctx():
    return DynContext(higman_thompson(3).table)


def rover_ctx():
    return DynContext(rover_units().table)


def adding_ctx():
    unit = PartialMap(2, [Branch((), (), state(adding_machine(2), "a"))])
    return DynContext(GeneratorTable(2, {"a": unit}))


def identity_ctx():
    return DynContext(GeneratorTable(2, {"one": one(2)}))


@pytest.mark.parametrize(
    "spec",
    [
        "higman_thompson:2",
        "higman_thompson:3",
        "higman_thompson:2:1",
        "higman_thompson:3:5",
        "grigorchuk",
        "rover",
        "depth_aut:1",
        "depth_aut:2",
        "depth_aut:1:3",
    ],
)
def test_ctx_units_and_names_are_the_tables_letters(spec):
    table = family_by_name(spec).table
    ctx = DynContext(table)
    assert ctx.units == tuple(m for m, _ in table.letters())
    assert ctx.names == tuple(expr_to_text(x) for _, x in table.letters())


def test_ctx_walks_one_of_two_equal_generators():
    # as in the completion searches, a generator eq to an earlier letter is
    # not a letter of its own
    swap = pm(2, "0->1", "1->0")
    ctx = DynContext(GeneratorTable(2, {"s": swap, "t": pm(2, "1->0", "0->1")}))
    assert ctx.units == (swap,) and ctx.names == ("s",)


# -- expansivity -----------------------------------------------------------------


def test_expansive_v2():
    cert = expansive_certificate(v2_ctx(), atoms(1, 2), depth=3, word_len=4)
    assert cert.is_witness()
    assert cert.witness["word_len"] <= 4


def test_expansive_adding_machine_refuted():
    cert = expansive_certificate(adding_ctx(), atoms(1, 2), depth=2, word_len=32)
    assert cert.is_refuted()
    assert "pair" in cert.refuted


def test_expansive_refuses_parts_over_another_alphabet():
    # the walk checks the parts before its first level, so no depth-2 atom
    # mask is looked up with a d = 3 word
    with pytest.raises(AlphabetMismatch):
        expansive_certificate(v2_ctx(), atoms(1, 3), 2, 2)


def test_expansive_identity_table_depth1():
    cert = expansive_certificate(identity_ctx(), atoms(1, 2), depth=1, word_len=1)
    assert cert.is_witness()
    assert cert.witness["word_len"] == 0


# V3 at depth 4 is left out: its reference runs take about 15 s
EXPANSIVE_GRID = [
    (make_ctx, parts_depth, depth, word_len)
    for make_ctx in (rover_ctx, v2_ctx, v3_ctx, adding_ctx)
    for parts_depth in (1, 2)
    for depth in range(4 if make_ctx is v3_ctx else 5)
    for word_len in range(-1, 5)
]


def test_expansive_matches_reference_on_grid():
    ctxs = {}
    statuses = set()
    for make_ctx, parts_depth, depth, word_len in EXPANSIVE_GRID:
        ctx = ctxs.setdefault(make_ctx, make_ctx())
        parts = atoms(parts_depth, ctx.d)
        cert = expansive_certificate(ctx, parts, depth, word_len)
        ref = reference_expansive_certificate(ctx, parts, depth, word_len)
        assert cert.to_json() == ref.to_json(), (make_ctx.__name__, parts_depth, depth, word_len)
        statuses.add(cert.status)
    assert statuses == {"witness", "refuted_at_bound"}


def random_partition(rng, max_depth, max_parts):
    """A partition of two-letter space into unions of cylinders: split
    random leaves down to max_depth, then deal the leaves into parts."""
    leaves = [()]
    while len(leaves) < 2 * max_parts or rng.random() < 0.5:
        splittable = [w for w in leaves if len(w) < max_depth]
        if not splittable:
            break
        w = rng.choice(splittable)
        leaves.remove(w)
        leaves += [w + (0,), w + (1,)]
    rng.shuffle(leaves)
    k = rng.randrange(2, min(max_parts, len(leaves)) + 1)
    return [normalize(leaves[i::k], 2) for i in range(k)]


def test_expansive_matches_reference_on_non_atom_partitions():
    # parts that are unions of cylinders of mixed depths give hulls that meet
    # a cell whose own hull misses theirs, so a pair is unseparated only when
    # both masks hold the other cell; the atom grid rarely tells the two apart
    ctxs = [v2_ctx(), rover_ctx(), adding_ctx()]
    rng = random.Random(4702)
    statuses = set()
    for _ in range(200):
        ctx = rng.choice(ctxs)
        parts = random_partition(rng, 3, 4)
        depth, word_len = rng.randrange(1, 5), rng.randrange(3)
        cert = expansive_certificate(ctx, parts, depth, word_len)
        ref = reference_expansive_certificate(ctx, parts, depth, word_len)
        assert cert.to_json() == ref.to_json(), ([str(p) for p in parts], depth, word_len)
        statuses.add(cert.status)
    assert statuses == {"witness", "refuted_at_bound"}


def test_expansive_refuses_more_than_1024_cells_before_pairing_them(monkeypatch):
    # depth 10 over two letters and depth 6 over three are the deepest allowed
    class Paired(Exception):
        pass

    def paired(cells, depth):
        raise Paired

    monkeypatch.setattr(dynamics, "_atom_masks", paired)
    for ctx, deepest in ((v2_ctx(), 10), (v3_ctx(), 6)):
        parts = atoms(1, ctx.d)
        with pytest.raises(Paired):
            expansive_certificate(ctx, parts, deepest, 0)
        for depth in (deepest + 1, 10**9):
            message = rf"depth-{depth} cells number {ctx.d}\^{depth}, over 1024"
            with pytest.raises(CantorError, match=message):
                expansive_certificate(ctx, parts, depth, 0)


def test_expansive_keeps_one_mask_per_cell_not_the_pairs():
    # 1,024 depth-10 cells make 523,776 pairs; one mask per cell, of the
    # cells its hull meets, takes under a megabyte
    ctx = v2_ctx()
    tracemalloc.start()
    try:
        cert = expansive_certificate(ctx, atoms(1, 2), 10, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.refuted["pair"] == ["{0000000000}", "{0000000001}"]
    assert peak < 5_000_000


def test_expansive_matches_reference_at_depth_8():
    # the parts {1}, {01}, ..., {00000001}, {00000000} separate the first two
    # depth-8 cells from every cell, so the refuted pair is not the first pair
    chain = [cylinder((0,) * k + (1,), 2) for k in range(8)] + [cylinder((0,) * 8, 2)]
    for ctx, parts in ((v2_ctx(), atoms(1, 2)), (v2_ctx(), chain), (rover_ctx(), chain)):
        cert = expansive_certificate(ctx, parts, 8, 2)
        assert cert.to_json() == reference_expansive_certificate(ctx, parts, 8, 2).to_json()
        assert cert.is_refuted()
    assert cert.refuted["pair"] == ["{00000010}", "{00000011}"]


def test_expansive_separates_by_a_meet_of_two_translates():
    # s swaps 010 and 011, so the part {00, 010} has the translate {00, 011};
    # each meets the cell {01}, and no translate contains {01}, so only
    # their meet {00} separates {00} from {01}
    s = pm(2, "00->00", "010->011", "011->010", "1->1")
    ctx = DynContext(GeneratorTable(2, {"s": s}))
    parts = [clo("{00, 010}"), clo("{011}"), clo("{10}"), clo("{11}")]
    cert = expansive_certificate(ctx, parts, depth=2, word_len=1)
    assert cert.to_json() == reference_expansive_certificate(ctx, parts, 2, 1).to_json()
    assert cert.is_witness()
    assert cert.witness["word_len"] == 1
    assert cert.nodes_explored == 6
    refuted = expansive_certificate(ctx, parts, depth=2, word_len=0)
    assert refuted.refuted["pair"] == ["{00}", "{01}"]


# -- coding ----------------------------------------------------------------------


def test_subshift_code_identity():
    ctx = identity_ctx()
    parts = atoms(1, 2)
    assert subshift_code(ctx, parts, (0, 1), [one(2)]) == [0]


def test_subshift_code_adding_machine():
    ctx = adding_ctx()
    a = ctx.units[0]
    aa = compose(a, a)
    assert subshift_code(ctx, atoms(1, 2), (0, 1), [a, aa]) == [1, 0]


def test_subshift_code_too_shallow():
    ctx = v2_ctx()
    deep = ctx.table["s00_01"]
    assert subshift_code(ctx, atoms(1, 2), (0,), [deep]) == ["too_shallow"]


# -- minimality --------------------------------------------------------------------


def test_minimal_v2():
    cert = minimal_certificate(v2_ctx(), depth=2, word_len=3)
    assert cert.is_witness()


def test_minimal_identity_refuted():
    cert = minimal_certificate(identity_ctx(), depth=1, word_len=2)
    assert cert.is_refuted()
    assert cert.refuted["pair"] == ["{0}", "{1}"]


def test_minimal_single_transposition():
    table = GeneratorTable(2, {"s": pm(2, "0->1", "1->0"), "one": one(2)})
    cert = minimal_certificate(DynContext(table), depth=1, word_len=1)
    assert cert.is_witness()


# -- compressibility ----------------------------------------------------------------


def test_compress_v2_into_disjoint():
    cert = compress_search(v2_ctx(), clo("{0}"), clo("{11}"), word_len=4)
    assert cert.is_witness()


def test_compress_proper_self():
    cert = compress_search(v2_ctx(), clo("{0}"), clo("{0}"), word_len=4)
    assert cert.is_witness()
    assert cert.witness["image"] != "{0}"


def test_compress_identity_exhausts():
    cert = compress_search(identity_ctx(), clo("{0}"), clo("{0}"), word_len=4)
    assert cert.is_exhausted()


def test_compress_empty_input():
    with pytest.raises(EmptyInput):
        compress_search(v2_ctx(), normalize([], 2), clo("{0}"), 2)


def test_fully_compressible_v2():
    report = fully_compressible_sample(v2_ctx(), depth=2, word_len=8)
    assert report["ok"], report["failures"][:3]


def test_fully_compressible_adding_machine_fails():
    report = fully_compressible_sample(adding_ctx(), depth=1, word_len=4)
    assert not report["ok"]
    assert report["failures"]


@pytest.mark.parametrize(
    "make_ctx, word_len",
    [(v2_ctx, 1), (v2_ctx, 2), (rover_ctx, 1), (rover_ctx, 2)],
    ids=["V2-len1", "V2-len2", "rover-len1", "rover-len2"],
)
def test_fully_compressible_matches_reference(make_ctx, word_len):
    ctx = make_ctx()
    report = fully_compressible_sample(ctx, depth=2, word_len=word_len)
    assert report == reference_fully_compressible_sample(ctx, 2, word_len)


def test_fully_compressible_depth0_vacuous():
    report = fully_compressible_sample(v2_ctx(), depth=0, word_len=2)
    assert report["ok"]
    assert report["pairs"] == 0


# -- orbit sizes ---------------------------------------------------------------------


def test_orbit_lower_bound_v2():
    cert = orbit_lower_bound(v2_ctx(), (0,), k=5, word_len=6)
    assert cert.is_witness()
    assert len(cert.witness["words"]) == 5


def unit_word(ctx, names):
    """The product of the named units of ctx, the last applied first."""
    g = one(ctx.d)
    for name in names:
        g = compose(g, ctx.units[ctx.names.index(name)])
    return g


@pytest.mark.parametrize(
    "fam", [higman_thompson(2), rover_units()], ids=["V2", "rover"]
)
def test_orbit_witness_words_carry_the_cylinder(fam):
    ctx = DynContext(fam.table)
    base = cylinder((0,), 2)
    for k, word_len in ((4, 3), (5, 6), (6, 4)):
        cert = orbit_lower_bound(ctx, (0,), k=k, word_len=word_len)
        assert cert.is_witness()
        words, images = cert.witness["words"], cert.witness["images"]
        assert len(words) == len(images) == k
        carried = [image_clopen(unit_word(ctx, w), base) for w in words]
        assert [str(c) for c in carried] == images
        assert all(len(w) <= word_len for w in words)
        for i, c in enumerate(carried):
            assert not c.is_empty()
            assert all(c.disjoint(x) for x in carried[:i])


def test_orbit_identity_exhausts():
    cert = orbit_lower_bound(identity_ctx(), (0,), k=2, word_len=3)
    assert cert.is_exhausted()


def test_orbit_k1_identity_word():
    cert = orbit_lower_bound(identity_ctx(), (0,), k=1, word_len=1)
    assert cert.is_witness()
    assert cert.witness["words"] == [[]]


# -- splitting ----------------------------------------------------------------------


def test_split_unit_sigma():
    g = pm(2, "0->1", "1->0")
    cert = split_unit(g)
    assert cert.is_witness()
    w = cert.witness
    assert eq(compose(w["g1"], w["g2"]), g)
    assert not w["fixed1"].is_empty()
    assert not w["fixed2"].is_empty()


def test_split_unit_identity_raises():
    with pytest.raises(IdentityInput):
        split_unit(one(2))


def test_split_unit_with_fixed_clopen():
    # g already fixes {1} pointwise; splitting still works
    g = pm(2, "00->01", "01->00", "1->1")
    cert = split_unit(g)
    assert cert.is_witness()
    assert eq(compose(cert.witness["g1"], cert.witness["g2"]), g)


def test_split_unit_rejects_factors_that_do_not_reverify(monkeypatch):
    # a broken join makes g1 the identity, so g2 = g does not fix Z
    monkeypatch.setattr(dynamics, "join", lambda elems: one(2))
    with pytest.raises(CantorError):
        split_unit(pm(2, "0->1", "1->0"))


def counted_word_images(monkeypatch):
    """The (map, word) pairs that pmap._word_image is asked for, as a list
    that grows while the test runs."""
    honest = pmap._word_image
    calls = []

    def counted(f, w):
        calls.append((id(f), w))
        return honest(f, w)

    monkeypatch.setattr(pmap, "_word_image", counted)
    return calls


def test_orbit_search_computes_only_the_levels_it_reads(monkeypatch):
    # a witness found early computes no longer level: at word_len 50 the
    # search maps as many images as at the witness's own length; each search
    # gets a fresh ctx, whose walker has mapped nothing yet
    calls = counted_word_images(monkeypatch)
    cert = orbit_lower_bound(v2_ctx(), (0,), k=4, word_len=50)
    assert cert.is_witness()
    longest = max(len(w) for w in cert.witness["words"])
    assert longest >= 2
    mapped = len(calls)
    calls.clear()
    ctx = v2_ctx()
    again = orbit_lower_bound(ctx, (0,), k=4, word_len=longest)
    assert (again.witness, again.nodes_explored) == (cert.witness, cert.nodes_explored)
    assert len(calls) == mapped < len(ctx.units) ** 3


def test_a_second_search_on_one_ctx_maps_no_word_again(monkeypatch):
    # the ctx's walker keeps every (unit, word) image it has computed
    calls = counted_word_images(monkeypatch)
    searches = [
        lambda ctx: orbit_lower_bound(ctx, (0,), k=4, word_len=3),
        lambda ctx: expansive_certificate(ctx, atoms(1, 2), depth=3, word_len=3),
    ]
    for search in searches:
        ctx = rover_ctx()
        calls.clear()
        cert = search(ctx)
        assert calls
        calls.clear()
        again = search(ctx)
        assert calls == []
        assert again.to_json() == cert.to_json()


def dynamics_answers(make_ctx):
    """The answers of the walking searches over the ctx that make_ctx()
    gives, in an order that interleaves searches and bounds; make_ctx is
    called once per search."""
    ctx = make_ctx()
    d = ctx.d
    out = []
    for word_len in (2, 0, 3, 1):
        out.append(orbit_lower_bound(make_ctx(), (0,), k=3, word_len=word_len).to_json())
        out.append(
            expansive_certificate(make_ctx(), atoms(1, d), depth=2, word_len=word_len).to_json()
        )
        out.append(
            compress_search(
                make_ctx(), cylinder((0,), d), cylinder((1, 1), d), word_len=word_len
            ).to_json()
        )
        out.append(orbit_lower_bound(make_ctx(), (1, 0), k=5, word_len=word_len + 1).to_json())
        if d == 2:
            out.append(fully_compressible_sample(make_ctx(), depth=2, word_len=word_len))
        out.append(fully_compressible_sample(make_ctx(), depth=1, word_len=word_len))
        out.append(
            expansive_certificate(make_ctx(), atoms(2, d), depth=3, word_len=word_len).to_json()
        )
    return out


@pytest.mark.parametrize("make_ctx", [v2_ctx, v3_ctx, rover_ctx, adding_ctx])
def test_one_long_lived_ctx_answers_as_a_fresh_ctx_per_search(make_ctx):
    shared = make_ctx()
    answers = dynamics_answers(lambda: shared)
    assert answers == dynamics_answers(make_ctx)
    # the answers are not all of one kind
    statuses = {a["status"] for a in answers if "status" in a}
    assert {"exhausted_at_bound", "refuted_at_bound"} <= statuses


def random_v2_units():
    """The 25 random V2 words of length 1-4 that split_unit is tested on,
    identities dropped."""
    units = list(higman_thompson(2).table.mapping.values())
    rng = random.Random(77)
    out = []
    for _ in range(25):
        g = one(2)
        for _ in range(rng.randrange(1, 5)):
            g = compose(g, units[rng.randrange(len(units))])
        if not eq(g, one(2)):
            out.append(g)
    return out


def test_moved_cylinders_in_order():
    # every cylinder of depth 1..4 inside the region that g moves off itself,
    # shallowest first and lexicographic within a depth
    regions = [full(2), clo("{1, 01}"), clo("{0010, 011, 1}"), clo("{}")]
    for g in random_v2_units()[:8]:
        for region in regions:
            expected = [
                (c, image_clopen(g, c))
                for depth in range(1, 5)
                for w in product(range(2), repeat=depth)
                for c in [cylinder(w, 2)]
                if c.leq(region) and image_clopen(g, c).disjoint(c)
            ]
            assert list(dynamics._moved_cylinders(g, region, 4)) == expected


def test_split_unit_random_words():
    for g in random_v2_units():
        cert = split_unit(g)
        assert cert.is_witness(), cert.detail
        w = cert.witness
        assert eq(compose(w["g1"], w["g2"]), g)


def _agrees(left, right, w, extra=2):
    """left and right give the same image word on every word below w, read
    where both images are defined and `extra` letters deeper; each takes a
    word to its image word, to SHALLOW, or to None off its domain."""
    a, b = left(w), right(w)
    if a == SHALLOW or b == SHALLOW:
        return all(_agrees(left, right, w + (x,), extra) for x in range(2))
    return a is not None and all(
        left(w + t) == right(w + t) for t in product(range(2), repeat=extra)
    )


def test_split_unit_splits_wherever_the_word_search_did():
    # the reference searches unit words of length <= 2 over each unit's own
    # table; every witness is re-checked pointwise through the oracles
    adder = PartialMap(2, [Branch((), (), state(adding_machine(2), "a"))])
    v2 = v2_ctx()
    cases = [(g, v2) for g in random_v2_units()]
    cases.append((adder, DynContext(GeneratorTable(2, {"a": adder}))))
    for fam in (grigorchuk_units(), rover_units()):
        ctx = DynContext(fam.table)
        cases += [(g, ctx) for g in fam.table.mapping.values()]
    assert len(cases) == 45
    for g, ctx in cases:
        cert = split_unit(g)
        if reference_split_unit(g, ctx, word_len=2).is_witness():
            assert cert.is_witness(), cert.detail
        if not cert.is_witness():
            continue
        assert cert.nodes_explored <= 3
        w = cert.witness
        g1, g2 = w["g1"], w["g2"]
        assert _agrees(
            lambda u: oracle_compose_image(g1, g2, u), lambda u: oracle_image(g, u), ()
        )
        for fixed, f in ((w["fixed1"], g1), (w["fixed2"], g2)):
            assert not fixed.is_empty()
            for u in fixed.antichain:
                assert _agrees(lambda v: oracle_image(f, v), lambda v: v, u)


# -- rigid decomposition ---------------------------------------------------------------


def test_rigid_parts_supported_inside_one_part():
    g = pm(2, "00->01", "01->00", "1->1")
    parts = [clo("{0}"), clo("{1}")]
    factors = rigid_parts(g, parts)
    assert eq(factors[0], g)
    assert eq(factors[1], one(2))


def test_rigid_parts_two_blocks():
    g = pm(2, "00->01", "01->00", "10->11", "11->10")
    parts = [clo("{0}"), clo("{1}")]
    factors = rigid_parts(g, parts)
    assert eq(compose(factors[0], factors[1]), g)
    assert eq(compose(factors[1], factors[0]), g)
    for f in factors:
        assert not eq(f, one(2))


def test_rigid_parts_rejects_part_movers():
    with pytest.raises(NotPartwiseStabilizing):
        rigid_parts(pm(2, "0->1", "1->0"), [clo("{0}"), clo("{1}")])


def test_compress_witness_reverifies():
    ctx = v2_ctx()
    cert = compress_search(ctx, clo("{0}"), clo("{11}"), word_len=4)
    assert cert.is_witness()
    img = clo("{0}")
    for name in reversed(cert.witness["word"]):
        g = ctx.units[ctx.names.index(name)]
        img = image_clopen(g, img)
    assert str(img) == cert.witness["image"]
    assert img.leq(clo("{11}")) and img != clo("{11}")


def test_witness_monotone_in_word_length():
    ctx = v2_ctx()
    cert = minimal_certificate(ctx, depth=2, word_len=3)
    assert cert.is_witness()
    for longer in (4, 5):
        again = minimal_certificate(ctx, depth=2, word_len=longer)
        assert again.is_witness()
    cert = expansive_certificate(ctx, atoms(1, 2), depth=3, word_len=4)
    assert cert.is_witness()
    again = expansive_certificate(ctx, atoms(1, 2), depth=3, word_len=6)
    assert again.is_witness()
