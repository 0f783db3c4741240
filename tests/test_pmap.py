import os
import random
import subprocess
import sys
import textwrap
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cantorfull import pmap, tails
from cantorfull.clopen import atoms, cylinder, empty, full, normalize
from cantorfull.errors import AlphabetMismatch, CantorError, IncompatiblePair
from cantorfull.completion import _letters, depth_clopens
from cantorfull.families import grigorchuk_units, higman_thompson, rover_units
from cantorfull.kit import derive_family
from cantorfull.pmap import (
    Branch,
    Dedup,
    PartialMap,
    as_idempotent,
    compatible,
    compose,
    disjoint,
    dom,
    eq,
    eval_at,
    image_clopen,
    image_walks,
    is_idempotent,
    is_unit,
    join,
    leq,
    one,
    ran,
    restrict,
    star,
    WordBall,
    zero,
)
from cantorfull.tails import (
    MealyMachine,
    TailElement,
    adding_machine,
    depth_perm,
    free_reduce,
    invert,
    state,
)

from oracles import (
    ADD2,
    GRI,
    INVOLUTION,
    ORDER_FOUR,
    all_word_images,
    clo,
    oracle_compose_image,
    oracle_image,
    pair_scan_compose,
    pm,
    random_antichain,
    random_pmap,
    random_tail,
    reference_compatible,
    reference_image_levels,
    reference_is_idempotent,
    reference_join,
    reference_leq,
    reference_merge_family,
    right_extending_words,
    word,
)

SWAP = pm(2, "0->1", "1->0")


def assert_oracle_equal(h, oracle, depth=6):
    """h's branch table agrees with the oracle image function at this depth."""
    for w in product(range(h.d), repeat=depth):
        assert oracle_image(h, w) == oracle(w)


# -- compose ------------------------------------------------------------------


def test_compose_example():
    f = pm(2, "0->10")
    g = pm(2, "1->0")
    h = compose(f, g)
    assert_oracle_equal(h, lambda w: oracle_compose_image(f, g, w), depth=5)
    assert eq(h, pm(2, "1->10"))


def test_compose_ff_star_is_range_idempotent():
    f = pm(2, "0->10", ("11->01", state(ADD2, "a")))
    p = compose(f, star(f))
    assert is_idempotent(p)
    assert eq(p, as_idempotent(ran(f)))


def test_compose_empty_overlap():
    f = pm(2, "0->1")
    assert compose(f, f).is_zero()


def test_compose_with_units():
    f = pm(2, "0->10", "10->0", "11->11")
    assert eq(compose(f, one(2)), f)
    assert eq(compose(one(2), f), f)
    assert compose(f, zero(2)).is_zero()
    assert compose(zero(2), f).is_zero()


# -- star ---------------------------------------------------------------------


def test_star_swaps_branches():
    t = word(GRI, "a*b")
    f = pm(2, ("0->10", t))
    g = star(f)
    assert g.branches[0].dom == (1, 0)
    assert g.branches[0].ran == (0,)
    assert tails.equal(g.branches[0].tail, tails.invert(t))


def test_star_zero_and_idempotents():
    assert star(zero(2)).is_zero()
    e = as_idempotent(clo("{01, 1}"))
    assert eq(star(e), e)


# -- dom / ran / as_idempotent -------------------------------------------------


def test_dom_ran_example():
    f = pm(2, "0->10")
    assert dom(f) == clo("{0}")
    assert ran(f) == clo("{10}")


def test_as_idempotent_empty():
    assert as_idempotent(empty(2)).is_zero()


def test_dom_of_join():
    j = join([pm(2, "0->1"), pm(2, "10->01")])
    assert dom(j) == clo("{0, 10}")


# -- restrict -----------------------------------------------------------------


def test_restrict_example():
    f = pm(2, "0->1")
    r = restrict(f, clo("{00}"))
    assert_oracle_equal(r, lambda w: oracle_compose_image(f, as_idempotent(clo("{00}")), w), depth=5)
    assert eq(r, pm(2, "00->10"))


def test_restrict_full_and_empty():
    f = pm(2, "0->10", ("11->01", state(ADD2, "a")))
    assert eq(restrict(f, full(2)), f)
    assert restrict(f, empty(2)).is_zero()
    assert eq(restrict(f, clo("{0}")), compose(f, as_idempotent(clo("{0}"))))


# -- leq ----------------------------------------------------------------------


def test_leq_examples():
    assert leq(pm(2, "00->100"), pm(2, "0->10"))
    assert leq(zero(2), pm(2, "0->10"))
    assert leq(zero(2), zero(2))
    assert not leq(pm(2, "0->1"), pm(2, "0->0"))


# -- compatible / disjoint ----------------------------------------------------


def test_disjoint_implies_compatible():
    x, y = pm(2, "0->1"), pm(2, "10->01")
    assert disjoint(x, y)
    assert compatible(x, y)


def test_disjoint_is_orthogonality():
    rng = random.Random(83)
    verdicts = set()
    for _ in range(200):
        x, y = random_pmap(rng, 2), random_pmap(rng, 2)
        orthogonal = compose(star(x), y).is_zero() and compose(x, star(y)).is_zero()
        assert disjoint(x, y) == orthogonal
        verdicts.add(orthogonal)
    assert verdicts == {True, False}


def test_incompatible_pair():
    assert not compatible(pm(2, "0->0"), pm(2, "0->1"))
    assert compatible(pm(2, "0->1"), pm(2, "0->1"))


PROOF_FAMILIES = {
    "V2": lambda: higman_thompson(2),
    "grigorchuk": grigorchuk_units,
    "rover": rover_units,
}


def family_pieces(family):
    """A strategy drawing restrictions of the family's letter words of
    length <= 2 to depth-2 clopens, and those clopens."""
    table = PROOF_FAMILIES[family]().table
    words = [m for m, _ in WordBall([m for m, _ in _letters(table)], 2).words(2)]
    clopens = depth_clopens(2, 2)
    return st.builds(restrict, st.sampled_from(words), st.sampled_from(clopens)), clopens


@pytest.mark.parametrize("family", PROOF_FAMILIES)
def test_table_proofs_match_references(family):
    pieces, clopens = family_pieces(family)
    seen = set()

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(pieces, pieces, st.sampled_from(clopens), st.booleans())
    def check(x, y, c, related):
        if related:
            # a restriction of x lies below x and glues with it
            y = restrict(x, c)
        for a, b in ((x, y), (y, x)):
            verdict = compatible(a, b)
            assert verdict == reference_compatible(a, b)
            seen.add(("compatible", verdict))
            verdict = leq(a, b)
            assert verdict == reference_leq(a, b)
            seen.add(("leq", verdict))
            m = compose(star(a), b)
            verdict = is_idempotent(m)
            assert verdict == reference_is_idempotent(m)
            seen.add(("is_idempotent", verdict))

    check()
    assert seen == {(p, v) for p in ("compatible", "leq", "is_idempotent") for v in (True, False)}


def test_table_proofs_construct_no_map(monkeypatch):
    rng = random.Random(84)
    f = random_pmap(rng, 2, kinds=("adding", "grigorchuk"))
    pairs = [(restrict(f, c), restrict(f, e)) for c in depth_clopens(2, 2) for e in atoms(1, 2)]
    pairs += [(random_pmap(rng, 2), random_pmap(rng, 2)) for _ in range(40)]
    verdicts = {compatible(x, y) for x, y in pairs}
    assert verdicts == {True, False}
    constructed = []
    init = PartialMap.__init__

    def spy(self, d, branches):
        constructed.append(d)
        init(self, d, branches)

    monkeypatch.setattr(PartialMap, "__init__", spy)
    for x, y in pairs:
        compatible(x, y)
        leq(x, y)
        eq(x, y)
        is_idempotent(x)
    assert constructed == []


# -- join ---------------------------------------------------------------------


def test_join_disjoint_supports():
    j = join([pm(2, "0->1"), pm(2, "10->01")])
    assert eq(j, pm(2, "0->1", "10->01"))


def test_join_disjoint_idempotents():
    e = as_idempotent(clo("{00}"))
    f = as_idempotent(clo("{01, 1}"))
    assert eq(join([e, f]), as_idempotent(clo("{00}").union(clo("{01, 1}"))))


def test_join_incompatible_raises():
    with pytest.raises(IncompatiblePair) as exc:
        join([pm(2, "0->1"), pm(2, "01->10")])
    assert (exc.value.i, exc.value.j) == (0, 1)


def test_join_absorbs_restrictions():
    f = pm(2, "0->10", "10->0", "11->11")
    r = restrict(f, clo("{01}"))
    assert eq(join([f, r]), f)
    assert leq(r, join([f, r]))


JOIN_FAMILIES = {"V2": lambda: higman_thompson(2), "rover": rover_units}


@pytest.mark.parametrize("family, seed", [("V2", 80), ("rover", 81)])
def test_join_of_orthogonal_pieces_is_the_union_of_tables(monkeypatch, family, seed):
    units = list(JOIN_FAMILIES[family]().table.mapping.values())
    letters = units + [star(u) for u in units]
    rng = random.Random(seed)

    def no_pairwise_proof(x, y):
        raise AssertionError("orthogonal inputs were proved compatible pair by pair")

    for _ in range(30):
        u = one(2)
        for _ in range(rng.randrange(1, 4)):
            u = compose(u, rng.choice(letters))
        # a unit restricted to the parts of a partition: disjoint domains,
        # and disjoint ranges because a unit is injective
        groups = {}
        for cell in atoms(rng.randrange(1, 4), 2):
            groups.setdefault(rng.randrange(4), []).append(cell.antichain[0])
        pieces = [restrict(u, normalize(ws, 2)) for ws in groups.values()]
        pieces = rng.sample(pieces, rng.randrange(1, len(pieces) + 1))
        expected = reference_join(pieces)
        with monkeypatch.context() as patch:
            patch.setattr(pmap, "compatible", no_pairwise_proof)
            assert join(pieces) == expected


def test_join_of_overlapping_inputs_matches_reference():
    rng = random.Random(82)
    outcomes = set()
    for _ in range(150):
        f = random_pmap(rng, 2)
        # restrictions of one map overlap and glue; a random map mostly does not
        elems = []
        for _ in range(rng.randrange(2, 4)):
            c = normalize(random_antichain(rng, 2, 3, 3), 2)
            elems.append(restrict(f, c) if rng.random() < 0.7 else random_pmap(rng, 2))
        if all(disjoint(x, y) for i, x in enumerate(elems) for y in elems[i + 1 :]):
            continue
        try:
            expected = reference_join(elems)
        except IncompatiblePair as err:
            with pytest.raises(IncompatiblePair) as exc:
                join(elems)
            assert (exc.value.i, exc.value.j) == (err.i, err.j)
            outcomes.add("incompatible")
        else:
            assert join(elems) == expected
            outcomes.add("glued")
    assert outcomes == {"incompatible", "glued"}


# -- eq -----------------------------------------------------------------------


def test_eq_reflexive():
    f = pm(2, ("0->1", word(GRI, "a*b")))
    assert eq(f, f)


def test_eq_expansion_identity():
    t = state(ADD2, "a")
    images = [t.apply_letter(x) for x in range(2)]
    expanded = PartialMap(2, [Branch((0, x), (1, y), section) for x, (y, section) in enumerate(images)])
    assert eq(pm(2, ("0->1", t)), expanded)


def test_eq_grigorchuk_square_is_one():
    u = pm(2, ("~->~", word(GRI, "a*a")))
    assert eq(u, one(2))
    assert is_unit(u)


def test_eq_distinguishes():
    assert not eq(pm(2, "0->1", "1->0"), one(2))
    assert not eq(pm(2, ("~->~", word(GRI, "a*b"))), one(2))


# -- eval ---------------------------------------------------------------------


def test_eval_examples():
    f = pm(2, "0->10")
    r = eval_at(f, (0, 1, 1))
    assert r.kind == pmap.IMAGE
    assert r.prefix == (1, 0, 1, 1)
    assert not free_reduce(r.residual.factors)

    assert eval_at(f, (1,)).kind == pmap.UNDEFINED
    assert eval_at(f, ()).kind == pmap.TOO_SHALLOW

    g = pm(2, ("0->1", state(ADD2, "a")))
    r = eval_at(g, (0, 1, 1))
    assert r.prefix == (1, 0, 0)
    assert tails.equal(r.residual, state(ADD2, "a"))


# -- is_unit ------------------------------------------------------------------


def test_is_unit():
    assert is_unit(one(2))
    assert is_unit(SWAP)
    assert not is_unit(pm(2, "0->10"))
    assert not is_unit(zero(2))


# -- semi-canonical form ------------------------------------------------------


def test_trivial_tail_merge():
    f = PartialMap(2, [Branch((0, x), (1, x), tails.trivial(2)) for x in range(2)])
    assert f.branches == pm(2, "0->1").branches


def test_merge_recovers_odometer_parent():
    a = state(ADD2, "a")
    expanded = [
        Branch((0,), (1,), tails.state(ADD2, "e")),
        Branch((1,), (0,), a),
    ]
    f = PartialMap(2, expanded)
    assert len(f.branches) == 1
    assert f.branches[0].dom == ()
    assert tails.equal(f.branches[0].tail, a)


def test_no_merge_for_genuinely_split_map():
    f = pm(2, "00->01", "01->00", "1->1")
    assert len(f.branches) == 3


def test_merge_cascades_identity_to_one():
    t = tails.trivial(2)
    f = PartialMap(2, [Branch(w, w, t) for w in product(range(2), repeat=3)])
    assert f.branches == one(2).branches
    assert pm(2, "0->0", "10->10", "110->110", "111->111").branches == one(2).branches


def test_merge_cascades_odometer_to_root():
    a = state(ADD2, "a")
    expanded = []
    for w in product(range(2), repeat=2):
        img, section = tails.apply_prefix(a, w)
        expanded.append(Branch(w, img, section))
    f = PartialMap(2, expanded)
    assert f.branches == (Branch((), (), a),)


def test_merge_only_where_a_complete_family_exists():
    t = tails.trivial(2)
    f = pm(2, "00->00", "01->01", "10->110", "110->10", "111->111")
    assert f.branches == (
        Branch((0,), (0,), t),
        Branch((1, 0), (1, 1, 0), t),
        Branch((1, 1, 0), (1, 0), t),
        Branch((1, 1, 1), (1, 1, 1), t),
    )
    # complete domain families that stay split: ranges that are not
    # siblings, and swapped sibling ranges, which no trivial tail produces
    assert len(pm(2, "00->00", "01->10").branches) == 2
    assert len(pm(2, "00->01", "01->00").branches) == 2


# a and b swap the root letter and have trivial sections, so a word that
# holds g and h merges the same with a or b in front: the sibling merge
# takes the machine that appears first
SWAP_1 = MealyMachine(
    "m1", 2, {"a": ("e", "e"), "e": ("e", "e"), "g": ("g", "a")},
    {"a": (1, 0), "e": (0, 1), "g": (0, 1)},
)
SWAP_2 = MealyMachine(
    "m2", 2, {"b": ("f", "f"), "f": ("f", "f"), "h": ("h", "b")},
    {"b": (1, 0), "f": (0, 1), "h": (0, 1)},
)


def _random_factors(rng, machines, max_len):
    return tuple(
        (m, rng.choice(m.states), rng.choice((1, -1)))
        for m in (rng.choice(machines) for _ in range(rng.randrange(max_len + 1)))
    )


def _expansion(u, v, t):
    """The complete sibling family that the branch u -> v : t expands to,
    each child's tail freely reduced as the constructor keeps it."""
    images = [t.apply_letter(x) for x in range(t.d)]
    return [
        Branch(u + (x,), v + (y,), TailElement(t.d, free_reduce(section.factors)))
        for x, (y, section) in enumerate(images)
    ]


@pytest.mark.parametrize(
    "d, machines",
    [
        (2, (GRI,)),
        (2, (ADD2,)),
        (2, (GRI, ADD2)),
        (2, (SWAP_1, SWAP_2)),
        (3, (adding_machine(3),)),
    ],
    ids=["grigorchuk", "adding", "grigorchuk-and-adding", "two-swaps", "adding-3"],
)
def test_merge_family_matches_the_candidate_list_scan(d, machines):
    rng = random.Random(3400 + d * len(machines))
    merged = set()
    for _ in range(400):
        u = tuple(rng.randrange(d) for _ in range(rng.randrange(3)))
        v = tuple(rng.randrange(d) for _ in range(rng.randrange(3)))
        family = _expansion(u, v, TailElement(d, _random_factors(rng, machines, 4)))
        if rng.random() < 0.3:
            x = rng.randrange(d)
            tail = TailElement(d, free_reduce(_random_factors(rng, machines, 3)))
            family[x] = Branch(family[x].dom, family[x].ran, tail)
        if rng.random() < 0.1:
            family[0], family[1] = (
                Branch(family[0].dom, family[1].ran, family[0].tail),
                Branch(family[1].dom, family[0].ran, family[1].tail),
            )
        got = pmap._merge_family(d, u, family)
        assert got == reference_merge_family(d, u, family)
        merged.add(got is not None and bool(got.tail.factors))
    assert merged == {True, False}


def test_merge_family_matches_the_candidate_list_scan_on_rover_words():
    ball = WordBall([m for m, _ in _letters(rover_units().table)], 2).words(2)
    branches = [b for m, _ in ball for b in m.branches if b.tail.factors]
    assert branches
    merged = 0
    for b in branches:
        family = _expansion(b.dom, b.ran, b.tail)
        got = pmap._merge_family(2, b.dom, family)
        assert got == reference_merge_family(2, b.dom, family)
        if got is not None:
            assert tails.equal(got.tail, b.tail)
            merged += 1
    # a parent whose children reduce to trivial tails but permute the
    # letters, such as 0->0:a, is out of the candidates' reach (ROADMAP
    # item 10)
    assert 0 < merged < len(branches)


def test_merge_family_reads_only_the_states_with_the_family_permutation(monkeypatch):
    # (f,) + rc permutes the root letters as rc does and then as f does, so
    # only the signed states f that carry rc's permutation to the family's
    # are read, each once per child tail tried; the candidate-list scan
    # walks all ten signed states of the Grigorchuk machine
    reads = []
    real = tails.apply_state

    def spy(f, y):
        reads.append((f, real(f, y)[0]))
        return real(f, y)

    monkeypatch.setattr(tails, "apply_state", spy)
    rng = random.Random(4343)
    read, merged = 0, set()
    for _ in range(300):
        family = _expansion((0,), (1,), TailElement(2, _random_factors(rng, (GRI,), 5)))
        x = rng.randrange(2)
        tail = TailElement(2, free_reduce(_random_factors(rng, (GRI,), 2)))
        family[x] = Branch(family[x].dom, family[x].ran, tail)
        rho = tuple(b.ran[-1] for b in family)
        reads.clear()
        got = pmap._merge_family(2, (0,), family)
        assert got == reference_merge_family(2, (0,), family)
        merged.add(got is not None)
        # the two letters of each state read, in the order of rc's permutation
        for (f, first), (g, second) in zip(reads[::2], reads[1::2]):
            assert f == g and (first, second) == rho
        states = [f for f, _ in reads[::2]]
        assert len(states) <= 8 * sum(bool(free_reduce(b.tail.factors)) for b in family)
        read += len(states)
    assert read and merged == {True, False}


def test_sibling_merge_takes_machines_in_first_appearance_order():
    f = PartialMap(
        2,
        [
            Branch((0,), (1,), TailElement(2, ((SWAP_1, "g", 1), (SWAP_2, "h", 1)))),
            Branch((1,), (0,), TailElement(2, ((SWAP_1, "a", 1), (SWAP_2, "b", 1)))),
        ],
    )
    # SWAP_1.a*g*h and SWAP_2.b*g*h both expand to this family
    assert f.branches == (
        Branch((), (), TailElement(2, ((SWAP_1, "a", 1), (SWAP_1, "g", 1), (SWAP_2, "h", 1)))),
    )


# -- constructor checks ----------------------------------------------------------


@pytest.mark.parametrize(
    "specs",
    [
        # 00 and one of the 01 branches form a mergeable family
        ("00->00", "01->01", "01->10"),
        ("00->00", "01->10", "01->01"),
        ("1->1", "00->00", "01->01", "01->01"),
        ("00->00", "01->01", "10->10", "10->11"),
    ],
)
def test_constructor_rejects_duplicate_domains(specs):
    with pytest.raises(CantorError):
        pm(2, *specs)


@pytest.mark.parametrize(
    "specs",
    [
        # 0 and 001 are comparable, with 11 between them in (length, word) order
        ("0->00", "11->01", "001->1"),
        ("00->0", "01->11", "1->001"),
        # 01 and 0111, with 000 and 001 between them
        ("1->11", "000->10", "001->00", "01->010", "0111->011"),
        ("11->1", "10->000", "00->001", "010->01", "011->0111"),
        ("0->00", "00->01"),
        ("00->0", "01->00"),
    ],
)
def test_constructor_rejects_comparable_words(specs):
    with pytest.raises(CantorError, match="comparable|duplicate"):
        pm(2, *specs)


@pytest.mark.parametrize(
    "dom, ran",
    [((2,), (0,)), ((0, -1), (0,)), ((0,), (2,)), ((0,), (0, -1))],
)
def test_constructor_rejects_letters_out_of_range(dom, ran):
    t = tails.trivial(2)
    with pytest.raises(CantorError, match="out of range"):
        PartialMap(2, [Branch(dom, ran, t), Branch((1,), (1,), t)])


def test_constructor_checks_survive_python_O():
    script = textwrap.dedent(
        """
        import sys
        from cantorfull import pmap
        from cantorfull.errors import AlphabetMismatch, CantorError
        from cantorfull.pmap import Branch, PartialMap
        from cantorfull.tails import trivial

        t = trivial(2)
        bad = [
            [((0,), (0, 0)), ((1, 1), (0, 1)), ((0, 0, 1), (1,))],
            [((0, 0), (0,)), ((0, 1), (1, 1)), ((1,), (0, 0, 1))],
            [((0, 0), (0, 0)), ((0, 1), (0, 1)), ((0, 1), (1, 0))],
            [((2,), (0,))],
            [((0,), (2,))],
        ]
        for table in bad:
            try:
                PartialMap(2, [Branch(u, v, t) for u, v in table])
            except AlphabetMismatch:
                sys.exit(f"wrong error for {table}")
            except CantorError:
                continue
            sys.exit(f"accepted {table}")
        try:
            PartialMap(2, [Branch((), (), trivial(3))])
        except AlphabetMismatch:
            pass
        else:
            sys.exit("accepted a tail over 3 letters")

        # product checks each intermediate table: [1 -> 2], added at the
        # second step, is dropped again by the last letter
        e0 = PartialMap(2, [Branch((0,), (0,), t)])
        honest = pmap._compose_branches
        calls = []

        def faulty(*args):
            calls.append(None)
            out = honest(*args)
            return out + [Branch((1,), (2,), t)] if len(calls) == 2 else out

        pmap._compose_branches = faulty
        try:
            pmap.product(2, [e0, pmap.one(2), pmap.one(2), e0])
        except AlphabetMismatch:
            sys.exit("wrong error for the faulty product")
        except CantorError as err:
            if "out of range" not in str(err):
                sys.exit(f"wrong message for the faulty product: {err}")
        else:
            sys.exit("accepted a faulty intermediate table")
        print("checked, optimize", sys.flags.optimize)
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.strip() == "checked, optimize 1"


# -- product ---------------------------------------------------------------------


def compose_fold(maps, d):
    acc = one(d)
    for m in maps:
        acc = compose(acc, m)
    return acc


def units_and_stars(units):
    units = list(units)
    return units + [star(u) for u in units]


@pytest.mark.parametrize("d, seed", [(2, 70), (3, 71)])
def test_product_matches_compose_fold_on_higman_thompson_words(d, seed):
    rng = random.Random(seed)
    letters = units_and_stars(higman_thompson(d).table.mapping.values())
    for _ in range(40):
        # repeated objects exercise the per-map sorting memo
        word = [rng.choice(letters) for _ in range(rng.randrange(1, 30))]
        assert pmap.product(d, word) == compose_fold(word, d)


@pytest.mark.parametrize("d", [2, 3])
def test_product_matches_compose_fold_through_zero(d):
    rng = random.Random(72 + d)
    zero_partway = 0
    for _ in range(150):
        word = [random_pmap(rng, d, kinds=("trivial",)) for _ in range(rng.randrange(2, 7))]
        got = pmap.product(d, word)
        assert got == compose_fold(word, d)
        # right-to-left, some proper suffix of the word already multiplies to 0
        zero_partway += any(compose_fold(word[k:], d).is_zero() for k in range(1, len(word)))
    assert zero_partway >= 20


@pytest.mark.parametrize(
    "letters",
    [
        units_and_stars(rover_units().table.mapping.values()),
        [m for m, _ in _letters(grigorchuk_units().table)],
    ],
    ids=["rover units", "Grigorchuk letters"],
)
def test_product_matches_compose_fold_by_eq_over_automaton_tails(letters):
    rng = random.Random(73)
    for _ in range(40):
        word = [rng.choice(letters) for _ in range(rng.randrange(1, 12))]
        assert eq(pmap.product(2, word), compose_fold(word, 2))


def test_product_edges():
    assert pmap.product(2, []) == one(2)
    assert pmap.product(3, []) == one(3)
    f = pm(2, "0->10", "10->0", "11->11")
    assert pmap.product(2, [f]) == f
    assert pmap.product(2, [zero(2)]) == zero(2)
    with pytest.raises(AlphabetMismatch):
        pmap.product(2, [f, one(3)])
    with pytest.raises(AlphabetMismatch):
        pmap.product(3, [f])


def _lexicographic(m):
    doms = [b.dom for b in m.branches]
    return doms == sorted(doms)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_branches_are_stored_in_lexicographic_domain_order(seed, d):
    rng = random.Random(seed)
    f, g = random_pmap(rng, d), random_pmap(rng, d)
    assert _lexicographic(f) and _lexicographic(g)
    assert _lexicographic(compose(f, g))
    assert _lexicographic(pmap.product(d, [f, g, star(f), g]))
    # a restriction overlaps the map it restricts, so join takes its sweep
    part = restrict(f, normalize(random_antichain(rng, d, 3, 3), d))
    assert _lexicographic(join([part, f]))


def test_product_checks_every_intermediate_table(monkeypatch):
    # at the second step a faulty branch loop adds [1 -> 2]; the last letter
    # [0 -> 0] drops it, so a check made only at the end would miss it
    e0 = pm(2, "0->0")
    bad = Branch((1,), (2,), tails.trivial(2))
    assert pmap._compose_branches(e0.branches, [bad]) == []
    assert pmap.product(2, [e0, one(2), one(2), e0]) == e0
    honest = pmap._compose_branches
    calls = []

    def faulty(*args):
        calls.append(None)
        out = honest(*args)
        return out + [bad] if len(calls) == 2 else out

    monkeypatch.setattr(pmap, "_compose_branches", faulty)
    with pytest.raises(CantorError, match="out of range"):
        pmap.product(2, [e0, one(2), one(2), e0])
    assert len(calls) == 2


# -- inverse monoid laws on random samples -------------------------------------


def test_inverse_monoid_axioms_random():
    rng = random.Random(100)
    for _ in range(150):
        d = rng.choice((2, 3))
        x = random_pmap(rng, d)
        y = random_pmap(rng, d)
        assert eq(compose(compose(x, star(x)), x), x)
        assert eq(star(compose(x, y)), compose(star(y), star(x)))
        e = as_idempotent(dom(x))
        f = as_idempotent(ran(y))
        assert eq(compose(e, f), compose(f, e))


def test_faithfulness_on_idempotents():
    # trivial-tail samples; separating idempotent exists at depth max prefix + 1
    rng = random.Random(101)
    found_pairs = 0
    while found_pairs < 60:
        x = random_pmap(rng, 2, kinds=("trivial",))
        y = random_pmap(rng, 2, kinds=("trivial",))
        if eq(x, y):
            continue
        found_pairs += 1
        depth = 1 + max(
            [len(b.dom) for b in x.branches + y.branches]
            + [len(b.ran) for b in x.branches + y.branches]
            + [0]
        )
        hits = []
        for w in product(range(2), repeat=depth):
            e = as_idempotent(cylinder(w, 2))
            lhs = compose(compose(x, e), star(x))
            rhs = compose(compose(y, e), star(y))
            if not eq(lhs, rhs):
                hits.append(w)
                break
        assert hits, f"no separating idempotent for {x} vs {y}"


def test_distributivity_over_joins():
    rng = random.Random(102)
    for _ in range(60):
        d = rng.choice((2, 3))
        base = random_pmap(rng, d)
        cells = atoms(2, d)
        s_parts = [restrict(base, c) for c in cells[: rng.randrange(1, len(cells))]]
        t_base = random_pmap(rng, d)
        t_parts = [restrict(t_base, c) for c in cells[rng.randrange(len(cells)) :]]
        s_parts = [p for p in s_parts if not p.is_zero()] or [zero(d)]
        t_parts = [p for p in t_parts if not p.is_zero()] or [zero(d)]
        s = join(s_parts)
        t = join(t_parts)
        products = [compose(a, b) for a in s_parts for b in t_parts]
        assert eq(compose(s, t), join(products))


def test_disjointness_preserved_by_translation():
    rng = random.Random(103)
    for _ in range(80):
        d = 2
        x = random_pmap(rng, d)
        y = random_pmap(rng, d)
        z = random_pmap(rng, d)
        if not disjoint(x, y):
            continue
        assert disjoint(compose(x, z), compose(y, z))
        assert disjoint(compose(z, x), compose(z, y))


def test_leq_implies_compatible_and_join_laws():
    rng = random.Random(104)
    for _ in range(60):
        d = rng.choice((2, 3))
        y = random_pmap(rng, d)
        e = normalize(
            [w for w in dom(y).antichain if rng.random() < 0.7], d
        )
        x = restrict(y, e)
        assert leq(x, y)
        assert compatible(x, y)
        assert eq(join([x, y]), y)
        assert eq(join([y, x]), y)
        assert eq(join([x, x]), x)


@pytest.mark.parametrize("family", PROOF_FAMILIES)
def test_inverse_monoid_laws_on_unit_families(family):
    pieces, clopens = family_pieces(family)
    seen = set()

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(pieces, pieces, pieces, st.sampled_from(clopens))
    def check(x, y, z, c):
        xy = compose(x, y)
        # compose: the pair-scan table, and associative
        assert xy == pair_scan_compose(x, y)
        assert eq(compose(xy, z), compose(x, compose(y, z)))
        # star: an inverse and an anti-homomorphism
        assert eq(compose(compose(x, star(x)), x), x)
        assert eq(star(star(x)), x)
        assert eq(star(xy), compose(star(y), star(x)))
        # eq: reflexive and symmetric; x x* is the identity on ran(x)
        assert eq(x, x)
        verdict = eq(x, y)
        assert verdict == eq(y, x)
        seen.add(verdict)
        assert eq(compose(x, star(x)), as_idempotent(ran(x)))
        # join: x glues back from its pieces on and off c, and composition
        # distributes over the join
        parts = [restrict(x, c), restrict(x, c.complement())]
        assert eq(join(parts), x)
        assert eq(compose(y, join(parts)), join([compose(y, p) for p in parts]))

    check()
    assert seen == {True, False}


def fitted_pmap(rng, g, kinds):
    """A map whose domains sit on g's ranges: some equal a range of g, some
    are several extensions of one range, and some ranges get nothing."""
    d = g.d
    doms = []
    for b in g.branches:
        kind = rng.randrange(3)
        if kind == 0:
            doms.append(b.ran)
        elif kind == 1:
            ext = list(product(range(d), repeat=rng.choice((1, 2))))
            doms += [b.ran + w for w in rng.sample(ext, rng.randrange(2, min(len(ext), 3) + 1))]
    rans = rng.sample(list(product(range(d), repeat=5 if d == 2 else 3)), len(doms))
    return PartialMap(d, [Branch(u, v, random_tail(rng, d, kinds)) for u, v in zip(doms, rans)])


def test_operation_outputs_agree_with_eval_oracle():
    rng = random.Random(105)
    kinds = ("trivial", "adding", "grigorchuk")
    equal_ranges = several_extensions = 0
    for i in range(200):
        d = (2, 3)[i % 2]
        g = random_pmap(rng, d, maxdepth=5, maxsize=8, kinds=kinds)
        if i % 3 == 0:
            f = fitted_pmap(rng, g, kinds)
        else:
            f = random_pmap(rng, d, maxdepth=5, maxsize=8, kinds=kinds)
        doms = [b.dom for b in f.branches]
        for gb in g.branches:
            equal_ranges += gb.ran in doms
            several_extensions += sum(len(u) > len(gb.ran) and u[: len(gb.ran)] == gb.ran for u in doms) > 1
        h = compose(f, g)
        assert h == pair_scan_compose(f, g)
        for w in product(range(d), repeat=6):
            assert oracle_image(h, w) == oracle_compose_image(f, g, w)
        s = star(f)
        for w in product(range(d), repeat=6):
            img = oracle_image(f, w)
            if img not in (None, "shallow"):
                assert oracle_image(s, img) == w
    assert equal_ranges >= 30 and several_extensions >= 30


def test_image_clopen():
    f = pm(2, "0->10", "10->0", "11->11")
    assert image_clopen(f, clo("{00}")) == clo("{100}")
    assert image_clopen(f, full(2)) == full(2)
    # a word scattered over several deeper branch domains
    assert image_clopen(SCATTERING[0], clo("{0}")) == clo("{11, 100, 1010}")
    with pytest.raises(AlphabetMismatch):
        image_clopen(f, full(3))


def random_depth_perm(rng, k):
    """A depth_perm tail from random letter permutations at every node."""
    perms = {}
    for n in range(k):
        for u in product(range(2), repeat=n):
            perms[u] = rng.sample(range(2), 2)
    assign = {
        w: tuple(perms[w[:j]][x] for j, x in enumerate(w))
        for w in product(range(2), repeat=k)
    }
    return tails.depth_perm(k, assign)


def test_image_clopen_matches_restricted_range():
    rng = random.Random(31)
    v2 = list(higman_thompson(2).table.mapping.values())
    rover = list(rover_units().table.mapping.values())

    def unit_word(units):
        f = one(2)
        for _ in range(rng.randrange(1, 5)):
            f = compose(f, rng.choice(units))
        return f

    maps = [unit_word(v2) for _ in range(25)] + [unit_word(rover) for _ in range(25)]
    maps += [
        PartialMap(2, [Branch((), (), random_depth_perm(rng, rng.randrange(1, 4)))])
        for _ in range(20)
    ]
    maps += [random_pmap(rng, 2) for _ in range(20)]
    for f in maps:
        for _ in range(10):
            words = [
                tuple(rng.randrange(2) for _ in range(rng.randrange(5)))
                for _ in range(rng.randrange(5))
            ]
            c = normalize(words, 2)
            assert image_clopen(f, c) == ran(restrict(f, c))


def test_dedup():
    d = Dedup()
    a = pm(2, "0->1")
    b = PartialMap(2, [Branch((0, x), (1, x), tails.trivial(2)) for x in range(2)])
    rep, _, new = d.add(a)
    assert new and rep is a
    rep, _, new = d.add(b)
    assert not new and rep is a
    u = pm(2, ("~->~", word(GRI, "a*a")))
    d2 = Dedup()
    d2.add(one(2))
    assert u in d2


# -- WordBall -------------------------------------------------------------------

# letters, the longest word, and an order in which readers grow the ball
WORD_BALLS = [
    ("V2 units", list(higman_thompson(2).table.mapping.values()), 2, (1, 0, 2)),
    ("Grigorchuk letters", [m for m, _ in _letters(grigorchuk_units().table)], 3, (2, 0, 3, 1)),
    ("rover units", list(rover_units().table.mapping.values()), 2, (0, 2, 1)),
]


def ball_tables(pairs):
    return [(m.branches, w) for m, w in pairs]


@pytest.mark.parametrize(
    "letters, max_len", [c[1:3] for c in WORD_BALLS], ids=[c[0] for c in WORD_BALLS]
)
def test_word_ball_matches_reference(letters, max_len):
    ball = list(WordBall(letters, 2).words(max_len))
    reference = right_extending_words(letters, max_len, 2)
    assert ball_tables(ball) == ball_tables(reference)
    assert ball[0] == (one(2), ())
    for m, w in ball:
        acc = one(2)
        for i in w:
            acc = compose(acc, letters[i])
        assert eq(acc, m)
    # Dedup merges eq-equal maps that share a fingerprint; the fingerprint is
    # exact for trivial tails only, so only there must no two maps be eq
    exact = all(not b.tail.factors for m in letters for b in m.branches)
    for i, (m, _) in enumerate(ball):
        for x, _ in ball[:i]:
            if exact or pmap.fingerprint(x) == pmap.fingerprint(m):
                assert not eq(x, m)


@pytest.mark.parametrize(
    "letters, max_len, order", [c[1:] for c in WORD_BALLS], ids=[c[0] for c in WORD_BALLS]
)
def test_word_ball_grows_on_demand(letters, max_len, order):
    ball = WordBall(letters, 2)
    assert ball._levels == []
    longest = 0
    for n in order:
        got = list(ball.levels(n))
        longest = max(longest, n)
        assert len(got) == n + 1
        assert len(ball._levels) == longest + 1
    fresh = list(WordBall(letters, 2).levels(max_len))
    assert [ball_tables(level) for level in ball.levels(max_len)] == [
        ball_tables(level) for level in fresh
    ]
    assert len(ball._levels) == max_len + 1


def test_word_ball_survives_interrupted_growth(monkeypatch):
    letters = WORD_BALLS[0][1]
    ball = WordBall(letters, 2)
    list(ball.levels(1))
    honest = pmap.compose
    calls = []

    def interrupted(f, g):
        calls.append(f)
        if len(calls) == 5:
            raise KeyboardInterrupt
        return honest(f, g)

    monkeypatch.setattr(pmap, "compose", interrupted)
    with pytest.raises(KeyboardInterrupt):
        list(ball.levels(2))
    monkeypatch.undo()
    # a level cut short is not kept, and its words do not shadow the rebuild
    assert ball._levels == []
    got = list(ball.words(2))
    assert ball_tables(got) == ball_tables(WordBall(letters, 2).words(2))


def test_grigorchuk_word_ball_holds_one_map_per_eq_class():
    # the tail key merges eq-equal words such as b*c and d, so the ball keeps
    # exactly one map per eq class
    letters = [m for m, _ in _letters(grigorchuk_units().table)]
    ball = [m for m, _ in WordBall(letters, 2).words(3)]
    assert len(ball) == 23
    for i, m in enumerate(ball):
        assert not any(eq(x, m) for x in ball[:i])


def test_word_ball_edges():
    assert list(WordBall([], 2).words(3)) == [(one(2), ())]
    assert list(WordBall([SWAP], 2).words(0)) == [(one(2), ())]
    # the swap is an involution: its square is the identity, already kept
    assert list(WordBall([SWAP], 2).words(4)) == [(one(2), ()), (SWAP, (0,))]


# -- image walks ------------------------------------------------------------------

# maps, sources and the longest word: units, automaton-tail units, and
# partial part-to-part transporters, whose domains leave words unapplied
IMAGE_WALKS = [
    ("V2 units", list(higman_thompson(2).table.mapping.values()), [clo("{0}"), clo("{10, 11}")], 3),
    ("rover units", list(rover_units().table.mapping.values()), [clo("{01}"), clo("{1}")], 3),
    (
        "V2 transporters",
        derive_family(higman_thompson(2).table, atoms(3, 2), 2).A,
        [clo("{000}"), clo("{101}")],
        2,
    ),
]


@pytest.mark.parametrize(
    "maps, sources, max_len", [c[1:] for c in IMAGE_WALKS], ids=[c[0] for c in IMAGE_WALKS]
)
def test_image_levels_match_every_word(maps, sources, max_len):
    levels = list(image_walks(maps)(sources, max_len))
    reference = all_word_images(maps, sources, max_len)
    assert len(levels) == max_len + 1
    kept = []
    for n, level in enumerate(levels):
        for img, word, src in level:
            assert len(word) == n and src in sources
            carried = src
            for i in reversed(word):
                assert carried.leq(dom(maps[i]))
                carried = image_clopen(maps[i], carried)
            assert carried == img
            kept.append(img.antichain)
        if n:
            # extended from kept images only, in their order, each under
            # every map in order
            parent = {(w, s.antichain): j for j, (_, w, s) in enumerate(levels[n - 1])}
            order = [(parent[word[1:], src.antichain], word[0]) for _, word, src in level]
            assert order == sorted(order)
        # the images reached by words of length <= n, each once
        assert len(set(kept)) == len(kept)
        assert set(kept) == reference[n]
    assert len(reference[-1]) > len(reference[1]) > len(sources)


# partial maps where a short word's image is several deeper branch ranges:
# the first carries {0} onto {11, 100, 1010}, and the walk keeps growing
SCATTERING = [
    pm(2, "00->100", ("010->1010", state(ADD2, "a")), "011->11"),
    pm(2, "1->0"),
    pm(2, ("10->00", state(ADD2, "a")), "11->01"),
]


@pytest.mark.parametrize(
    "maps, sources, max_len",
    [(IMAGE_WALKS[2][1], [atom], 3) for atom in atoms(3, 2)]
    + [
        (IMAGE_WALKS[1][1], atoms(2, 2), 3),
        (IMAGE_WALKS[1][1], [clo("{0, 11}")], 4),
        (IMAGE_WALKS[1][1], atoms(1, 2), 3),
        (list(higman_thompson(3).table.mapping.values()), atoms(1, 3), 2),
        (SCATTERING, [clo("{0}"), clo("{1}"), clo("{01}")], 5),
    ],
    ids=[f"V2 kit family from {atom}" for atom in atoms(3, 2)]
    + [
        "rover units from the depth-2 atoms",
        "rover units from {0, 11}",
        "rover units from the depth-1 atoms",
        "V3 units from the depth-1 atoms",
        "partial maps scattering a word over deeper ranges",
    ],
)
def test_image_levels_match_the_leq_scan(maps, sources, max_len):
    assert list(image_walks(maps)(sources, max_len)) == list(
        reference_image_levels(maps, sources, max_len)
    )


def test_image_walks_map_each_word_once_per_walker(monkeypatch):
    # the walker keeps each (map, word) image, across its walks too
    maps = IMAGE_WALKS[2][1]
    calls = []
    honest = pmap._word_image

    def counted(f, w):
        calls.append((id(f), w))
        return honest(f, w)

    monkeypatch.setattr(pmap, "_word_image", counted)
    walk = pmap.image_walks(maps)
    for atom in atoms(3, 2):
        assert list(walk([atom], 3)) == list(reference_image_levels(maps, [atom], 3))
    assert len(calls) == len(set(calls)) > 0
    # a new walker starts from nothing
    shared = len(calls)
    list(pmap.image_walks(maps)([atoms(3, 2)[0]], 3))
    assert len(calls) > shared


def test_image_walks_normalize_each_raw_image_once_per_walker(monkeypatch):
    # a repeated walk on one walker normalizes nothing and gives the same levels
    maps = IMAGE_WALKS[1][1]
    calls = []
    honest = pmap.normalize

    def counted(words, d):
        calls.append(tuple(words))
        return honest(words, d)

    monkeypatch.setattr(pmap, "normalize", counted)
    walk = pmap.image_walks(maps)
    first = list(walk(atoms(2, 2), 3))
    assert len(calls) == len(set(calls)) > 0
    calls.clear()
    assert list(walk(atoms(2, 2), 3)) == first == list(reference_image_levels(maps, atoms(2, 2), 3))
    assert calls == []


def test_image_walks_empty_their_memos_at_the_bound(monkeypatch):
    # with room for 8 entries per memo the levels stay right, and a repeated
    # walk maps words again because the memos were emptied on the way
    monkeypatch.setattr(pmap, "WALK_MEMO_SIZE", 8)
    maps = IMAGE_WALKS[1][1]
    calls = []
    honest = pmap._word_image

    def counted(f, w):
        calls.append((id(f), w))
        return honest(f, w)

    monkeypatch.setattr(pmap, "_word_image", counted)
    walk = pmap.image_walks(maps)
    for sources, max_len in [(atoms(2, 2), 3), ([clo("{0, 11}")], 4), (atoms(2, 2), 3)]:
        calls.clear()
        assert list(walk(sources, max_len)) == list(reference_image_levels(maps, sources, max_len))
    # the last walk repeats the first
    assert calls


def test_image_walks_refuse_another_alphabet():
    # a d = 3 source that no d = 2 domain holds is refused, not walked
    units = IMAGE_WALKS[0][1]
    with pytest.raises(AlphabetMismatch):
        list(image_walks(units)([clo("{0}"), cylinder((2,), 3)], 2))
    with pytest.raises(AlphabetMismatch):
        next(image_walks(units)([cylinder((2,), 3)], 0))
    # a walk over no maps has no alphabet to check
    c = cylinder((2,), 3)
    assert list(image_walks([])([c], 1)) == [[(c, (), c)], []]


def test_image_levels_edges():
    assert list(image_walks([SWAP])([clo("{0}")], -1)) == []
    assert list(image_walks([SWAP])([clo("{0}")], 0)) == [[(clo("{0}"), (), clo("{0}"))]]
    # the swap carries {0} onto {1}, the other source, and back
    levels = list(image_walks([SWAP])([clo("{0}"), clo("{1}")], 3))
    assert [len(level) for level in levels] == [2, 0, 0, 0]


# -- the operation memos ------------------------------------------------------


def fresh_star(f):
    """star(f) built by the constructor alone."""
    return PartialMap(f.d, [Branch(b.ran, b.dom, invert(b.tail)) for b in f.branches])


OPERATIONS = (compose, star, as_idempotent)


def clear_operation_memos():
    for op in OPERATIONS:
        op.cache_clear()


def test_operation_memos_are_bounded():
    clear_operation_memos()
    rng = random.Random(110)
    maps = list(dict.fromkeys(random_pmap(rng, 2, maxdepth=6) for _ in range(1200)))
    cells = atoms(4, 2)
    clopens = list(dict.fromkeys(
        normalize([c.antichain[0] for c in cells if rng.random() < 0.5], 2) for _ in range(1200)
    ))
    # each operation gets more distinct operands than the 1,024 results a memo keeps
    assert len(maps) > 1024 and len(clopens) > 1024
    pairs = [(x, y) for x in maps[:33] for y in maps[:33]]
    for _ in range(2):
        for x, y in pairs:
            assert compose(x, y) == pair_scan_compose(x, y)
        for f in maps:
            assert star(f) == fresh_star(f)
        for c in clopens:
            assert as_idempotent(c) == PartialMap(2, [Branch(w, w, tails.trivial(2)) for w in c.antichain])
        for op in OPERATIONS:
            info = op.cache_info()
            assert info.currsize == info.maxsize == 1024


def test_operation_memos_tell_same_named_machines_apart():
    # both machines are named depthperm2; their tables differ
    inv, ord4 = depth_perm(2, INVOLUTION), depth_perm(2, ORDER_FOUR)
    assert inv.factors[0][0].name == ord4.factors[0][0].name
    swaps = [PartialMap(2, [Branch((0,), (1,), t), Branch((1,), (0,), t)]) for t in (inv, ord4)]
    e = as_idempotent(cylinder((0,), 2))
    clear_operation_memos()
    for first, second in (swaps, swaps[::-1]):
        # the first map's results are in the memos when the second asks
        for f in (first, second):
            assert compose(f, f) == pair_scan_compose(f, f)
            assert compose(f, e) == pair_scan_compose(f, e)
            assert star(f) == fresh_star(f)
    # the involution's square is 1, the order-four element's is not
    assert eq(compose(swaps[0], swaps[0]), pmap.one(2))
    assert not eq(compose(swaps[1], swaps[1]), pmap.one(2))


CACHE_PIECES = {
    **{family: lambda family=family: family_pieces(family)[0] for family in PROOF_FAMILIES},
    "random": lambda: st.builds(
        lambda seed, d: random_pmap(random.Random(seed), d),
        st.integers(0, 10**6),
        st.sampled_from((2, 3)),
    ),
}


@pytest.mark.parametrize("family", CACHE_PIECES)
def test_cached_operations_match_fresh_builds(family):
    pieces = CACHE_PIECES[family]()

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(pieces, pieces)
    def check(x, y):
        assume(x.d == y.d)
        # the second round reads what the first one cached
        for _ in range(2):
            assert compose(x, y) == pair_scan_compose(x, y)
            assert compose(y, x) == pair_scan_compose(y, x)
            assert star(x) == fresh_star(x)

    check()


def test_operation_memos_store_only_built_maps(monkeypatch):
    clear_operation_memos()
    with pytest.raises(AlphabetMismatch):
        compose(one(2), one(3))
    merge = pmap._greedy_merge

    def failing(d, table):
        raise CantorError("constructor failed")

    monkeypatch.setattr(pmap, "_greedy_merge", failing)
    with pytest.raises(CantorError, match="constructor failed"):
        compose(SWAP, SWAP)
    with pytest.raises(CantorError, match="constructor failed"):
        star(SWAP)
    assert [op.cache_info().currsize for op in OPERATIONS] == [0, 0, 0]
    monkeypatch.setattr(pmap, "_greedy_merge", merge)
    assert eq(compose(SWAP, SWAP), one(2))


def test_product_and_eq_do_not_read_the_operation_memos():
    rng = random.Random(111)
    maps = [random_pmap(rng, 2) for _ in range(6)]

    def reads():
        return [op.cache_info().hits + op.cache_info().misses for op in OPERATIONS]

    before = reads()
    products = [pmap.product(2, maps[:n]) for n in range(len(maps) + 1)]
    for x in products:
        for y in maps:
            eq(x, y)
            eq(y, x)
    assert reads() == before
