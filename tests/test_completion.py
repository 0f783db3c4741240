import random

import pytest

from cantorfull import clopen, completion, pmap
from cantorfull.clopen import atoms, cylinder, empty, full
from cantorfull.completion import (
    ElementLeaf,
    GeneratorRef,
    GeneratorTable,
    Join,
    Product,
    Restrict,
    Star,
    bi_enumerate,
    depth_clopens,
    evaluate,
    piecewise_member,
)
from cantorfull.errors import CantorError, IncompatibleJoin, NotAUnit, UnknownGenerator
from cantorfull.families import grigorchuk_units, higman_thompson, rover_units
from cantorfull.pmap import (
    as_idempotent,
    compose,
    eq,
    is_idempotent,
    one,
    ran,
    restrict,
    star,
    zero,
)

from oracles import clo, pm, random_pmap, reference_bi_enumerate, reference_compatible

SWAP = pm(2, "0->1", "1->0")
TABLE = GeneratorTable(2, {"s": SWAP})


def test_evaluate_product_star():
    x = pm(2, "0->10", "10->0", "11->11")
    table = GeneratorTable(2, {"x": x})
    expr = Product((GeneratorRef("x"), Star(GeneratorRef("x"))))
    val = evaluate(expr, table)
    assert is_idempotent(val)
    assert eq(val, as_idempotent(ran(x)))


def test_evaluate_join_of_unit_restrictions():
    table = GeneratorTable(2, {"g": one(2), "h": one(2)})
    expr = Join(
        (
            Restrict(GeneratorRef("g"), clo("{0}")),
            Restrict(GeneratorRef("h"), clo("{1}")),
        )
    )
    assert eq(evaluate(expr, table), one(2))


def test_evaluate_restrict_example():
    expr = Restrict(GeneratorRef("s"), clo("{01}"))
    assert eq(evaluate(expr, TABLE), pm(2, "01->11"))


def test_evaluate_unknown_generator():
    with pytest.raises(UnknownGenerator):
        evaluate(GeneratorRef("nope"), TABLE)


def test_evaluate_incompatible_join_path():
    expr = Join((ElementLeaf(pm(2, "0->0")), ElementLeaf(pm(2, "0->1"))))
    with pytest.raises(IncompatibleJoin) as exc:
        evaluate(expr, TABLE)
    assert exc.value.path == (0, 1)
    # child 0 is orthogonal to both others; children 1 and 2 disagree on [1]
    three = Join(tuple(ElementLeaf(pm(2, c)) for c in ("00->00", "1->1", "1->01")))
    with pytest.raises(IncompatibleJoin) as exc:
        evaluate(Product((ElementLeaf(one(2)), three)), TABLE)
    assert exc.value.path == (1, 1, 2)


def test_depth_clopens():
    cs = depth_clopens(2, 1)
    assert len(cs) == 4
    assert cs[0] == empty(2)
    assert full(2) in cs


def test_bi_enumerate_swap_table():
    got = list(bi_enumerate(TABLE, word_len=1, join_arity=1, depth=1))
    elements = [m for m, _ in got]
    targets = [
        SWAP,
        one(2),
        zero(2),
        pm(2, "0->1"),
        pm(2, "1->0"),
        as_idempotent(clo("{0}")),
        as_idempotent(clo("{1}")),
    ]
    for t in targets:
        assert any(eq(m, t) for m in elements), f"missing {t}"
    # distinct by eq
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            assert not eq(elements[i], elements[j])
    # every expression re-evaluates to its element
    for m, expr in got:
        assert eq(evaluate(expr, TABLE), m)


def test_bi_enumerate_empty_table_is_idempotents():
    table = GeneratorTable(2, {})
    got = [m for m, _ in bi_enumerate(table, word_len=2, join_arity=2, depth=1)]
    expected = [as_idempotent(c) for c in depth_clopens(2, 1)]
    assert len(got) == len(expected)
    for m in got:
        assert any(eq(m, e) for e in expected)


def test_bi_enumerate_word_len_zero_matches_empty_table():
    with_gens = [m for m, _ in bi_enumerate(TABLE, word_len=0, join_arity=1, depth=1)]
    without = [
        m for m, _ in bi_enumerate(GeneratorTable(2, {}), word_len=1, join_arity=1, depth=1)
    ]
    assert len(with_gens) == len(without)
    for m in with_gens:
        assert any(eq(m, n) for n in without)


def test_bi_enumerate_closure_properties():
    got = [m for m, _ in bi_enumerate(TABLE, word_len=1, join_arity=2, depth=1)]
    # closed under star within the same bounds
    for m in got:
        assert any(eq(star(m), n) for n in got)
    # products land within doubled word length
    big = [m for m, _ in bi_enumerate(TABLE, word_len=2, join_arity=2, depth=1)]
    for m in got[:8]:
        for n in got[:8]:
            p = compose(m, n)
            assert any(eq(p, q) for q in big)


def test_grigorchuk_rows_are_one_per_eq_class():
    table = grigorchuk_units().table
    # a* = a for every generator, so the stars add no letter
    assert len(completion._letters(table)) == 4
    rows = [m for m, _ in bi_enumerate(table, 1, 1, 1)]
    assert len(rows) == 14
    for i, m in enumerate(rows):
        assert not any(eq(x, m) for x in rows[:i])


def test_bi_enumerate_rows_match_reference_compatible(monkeypatch):
    table = grigorchuk_units().table
    rows = list(bi_enumerate(table, 1, 2, 1))
    proofs = []

    def spy(x, y):
        proofs.append((x, y))
        return reference_compatible(x, y)

    monkeypatch.setattr(pmap, "compatible", spy)
    assert list(bi_enumerate(table, 1, 2, 1)) == rows
    assert proofs


NON_UNITS = GeneratorTable(
    2,
    {
        "x": pm(2, "0->10"),
        "y": pm(2, "1->0", "00->11"),
        "z": pm(2, "01->1"),
        "s": SWAP,
    },
)


@pytest.mark.parametrize(
    "table, bounds, exact",
    [
        (grigorchuk_units().table, (1, 3, 1), False),
        (grigorchuk_units().table, (2, 2, 1), False),
        (grigorchuk_units().table, (1, 2, 2), False),
        (higman_thompson(2).table, (1, 3, 1), True),
        (higman_thompson(2).table, (1, 2, 2), True),
        (rover_units().table, (1, 3, 1), False),
        (rover_units().table, (1, 2, 2), False),
        (NON_UNITS, (1, 3, 1), True),
        (NON_UNITS, (1, 2, 2), True),
        (NON_UNITS, (2, 3, 1), True),
    ],
    ids=["grig-131", "grig-221", "grig-122", "v2-131", "v2-122", "rover-131", "rover-122",
         "non-units-131", "non-units-122", "non-units-231"],
)
def test_bi_enumerate_matches_joining_every_combination(table, bounds, exact):
    rows = list(bi_enumerate(table, *bounds))
    reference = reference_bi_enumerate(table, *bounds)
    # the pieces come first and are the reference's, expressions included
    pieces = [row for row in rows if not isinstance(row[1], Join)]
    assert pieces == [row for row in reference if not isinstance(row[1], Join)]
    assert rows[: len(pieces)] == pieces
    if exact:
        assert rows == reference
        return
    # the rows are a subsequence of the reference's, by table and expression,
    # and each reference row left out is eq to an earlier one: a union of atom
    # pieces already met, whose join Dedup's fingerprint keeps apart
    kept = iter(range(len(reference)))
    positions = [next((i for i in kept if reference[i] == row), None) for row in rows]
    assert None not in positions
    left_out = sorted(set(range(len(reference))) - set(positions))
    assert left_out
    for i in left_out:
        assert any(eq(m, reference[i][0]) for m, _ in reference[:i])


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize(
    "table",
    [grigorchuk_units().table, rover_units().table, higman_thompson(2).table, NON_UNITS],
    ids=["grigorchuk", "rover", "v2", "non-units"],
)
def test_pieces_are_compatible_exactly_when_their_atom_pieces_are(table, depth):
    # the rule bi_enumerate decides its pairs by, judged by the compose/star/eq
    # proof: a set is compatible when it is pairwise compatible, and
    # compatibility distributes over the orthogonal join of a piece's atoms
    pieces = [m for m, _ in bi_enumerate(table, 1, 1, depth)]
    atom_pieces = [
        [r for r in (restrict(m, a) for a in atoms(depth, table.d)) if not r.is_zero()]
        for m in pieces
    ]
    rng = random.Random(4300 + depth)
    verdicts = set()
    for _ in range(300):
        i, j = rng.randrange(len(pieces)), rng.randrange(len(pieces))
        whole = reference_compatible(pieces[i], pieces[j])
        assert whole == all(
            reference_compatible(x, y) for x in atom_pieces[i] for y in atom_pieces[j]
        )
        verdicts.add(whole)
    assert verdicts == {True, False}


def test_bi_enumerate_joins_only_undecided_pairs(monkeypatch):
    table = grigorchuk_units().table
    joins = []
    real_join = pmap.join

    def counting(elems):
        joins.append(len(elems))
        return real_join(elems)

    monkeypatch.setattr(pmap, "join", counting)
    assert len(list(bi_enumerate(table, 1, 1, 1))) == 14
    assert joins == []
    # of the 91 pairs of the 14 pieces, 13 hold the zero piece, and most of
    # the rest are decided by the atom pieces: one piece below the other, or
    # incompatible on an atom; of the rest, the unions of 4 are new, and
    # each of them joins (a join that raised would propagate)
    assert len(list(bi_enumerate(table, 1, 2, 1))) == 18
    assert joins == [2] * 4


def test_the_pair_rule_reads_signatures_as_bitmasks_of_atom_pieces():
    # one signature holding the other is decided, whatever the table says;
    # otherwise the pair is decided when an atom piece of the second is
    # incompatible with one of the first's
    assert completion._decided(0b0101, 0b0111, 0)
    assert completion._decided(0b0111, 0b0100, 0)
    assert not completion._decided(0b0101, 0b0110, 0b1000)
    assert completion._decided(0b0101, 0b0110, 0b0010)


def test_bi_enumerate_joins_no_union_of_identity_pieces(monkeypatch):
    # V3's identity restricted to the 512 unions of the 9 depth-2 atoms:
    # every union of two pieces' signatures is a piece's signature
    def refuse(elems):
        raise AssertionError("bi_enumerate joined a union already met")

    monkeypatch.setattr(pmap, "join", refuse)
    rows = list(bi_enumerate(higman_thompson(3).table, 0, 2, 2))
    assert len(rows) == 512
    assert not any(isinstance(expr, Join) for _, expr in rows)


def test_bi_enumerate_joins_once_per_join_row(monkeypatch):
    joins = []
    real_join = pmap.join
    monkeypatch.setattr(pmap, "join", lambda elems: joins.append(len(elems)) or real_join(elems))
    rows = list(bi_enumerate(higman_thompson(2).table, 2, 2, 2))
    assert len(rows) == 9095
    assert len(joins) == sum(isinstance(expr, Join) for _, expr in rows) == 8216


def test_bi_enumerate_decides_pairs_only_as_its_combinations_read_them(monkeypatch):
    # before the first join row, not every pair of pieces is decided: V2 at
    # (2, 2, 2) has 879 pieces and 385,881 pairs; nor is every pair of atom
    # pieces proved compatible or not
    decisions = []
    proofs = []
    honest, compatible = completion._decided, pmap.compatible

    def counted(*args):
        decisions.append(args)
        return honest(*args)

    monkeypatch.setattr(completion, "_decided", counted)
    monkeypatch.setattr(pmap, "compatible", lambda x, y: proofs.append(x) or compatible(x, y))
    for table, bounds in [
        (higman_thompson(2).table, (2, 2, 2)),
        (grigorchuk_units().table, (1, 2, 1)),
        (grigorchuk_units().table, (1, 3, 1)),
        (rover_units().table, (1, 2, 1)),
    ]:
        decisions.clear()
        proofs.clear()
        pieces = 0
        for _, expr in bi_enumerate(table, *bounds):
            if isinstance(expr, Join):
                break
            pieces += 1
        assert 0 < len(decisions) <= pieces, bounds
        before = len(proofs)
        proofs.clear()
        list(bi_enumerate(table, *bounds))
        assert before < len(proofs), bounds


def test_bi_enumerate_limit_bounds_the_restrictions(monkeypatch):
    calls = []
    real_restrict = completion.restrict

    def counting(m, c):
        calls.append(c)
        return real_restrict(m, c)

    monkeypatch.setattr(completion, "restrict", counting)
    rows = bi_enumerate(higman_thompson(2).table, word_len=1, join_arity=2, depth=3)
    first = [next(rows) for _ in range(3)]
    # the identity restricted to the empty clopen and to the first two atoms,
    # where a table of 12 words would take 12 x 256 restrictions
    assert len(calls) == 3
    assert [m for m, _ in first] == [zero(2)] + [as_idempotent(c) for c in calls[1:]]


def test_bi_enumerate_builds_only_the_clopens_its_rows_reach(monkeypatch):
    calls = []
    real_normalize = completion.normalize

    def counting(words, d):
        calls.append(tuple(words))
        return real_normalize(words, d)

    monkeypatch.setattr(completion, "normalize", counting)
    table = higman_thompson(2).table
    # depth 4 has 2^16 clopens; three rows read the first three masks
    rows = bi_enumerate(table, word_len=1, join_arity=1, depth=4)
    first = [next(rows) for _ in range(3)]
    assert calls == [(), ((0, 0, 0, 0),), ((0, 0, 0, 1),)]
    clopens = [empty(2), cylinder((0, 0, 0, 0), 2), cylinder((0, 0, 0, 1), 2)]
    assert first == [(as_idempotent(c), Restrict(Product(()), c)) for c in clopens]
    # later words read the clopens the first word built
    reference = reference_bi_enumerate(table, 1, 1, 1)
    calls.clear()
    assert list(bi_enumerate(table, 1, 1, 1)) == reference
    assert len(calls) == 2 ** len(atoms(1, 2))


# -- the table's letters and ball ---------------------------------------------

SHARED_BALL_BOUNDS = [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 2, 2)]


@pytest.mark.parametrize(
    "family",
    [grigorchuk_units, rover_units, lambda: higman_thompson(2)],
    ids=["grigorchuk", "rover", "v2"],
)
def test_warm_and_fresh_tables_give_the_same_rows_and_certificates(family):
    warm = family().table
    g, h = list(warm.mapping.values())[:2]
    # found at word length 2, exhausted at 1, and g itself at word length 0
    targets = [(compose(g, h), 2, 1), (compose(g, h), 1, 1), (g, 0, 1)]

    def answers(table_for):
        rows = [list(bi_enumerate(table_for(), *bounds)) for bounds in SHARED_BALL_BOUNDS]
        found = [piecewise_member(t, table_for(), w, d).to_json() for t, w, d in targets]
        return rows, found

    first = answers(lambda: warm)
    assert [c["status"] for c in first[1]] == ["witness", "exhausted_at_bound", "exhausted_at_bound"]
    assert answers(lambda: warm) == first
    assert answers(lambda: family().table) == first


def test_a_table_builds_its_letters_and_ball_once(monkeypatch):
    built = []
    real_letters, real_ball, real_grow = completion._letters, pmap.WordBall, pmap.WordBall._grow
    monkeypatch.setattr(completion, "_letters", lambda t: built.append("letters") or real_letters(t))
    monkeypatch.setattr(pmap, "WordBall", lambda letters, d: built.append("ball") or real_ball(letters, d))
    monkeypatch.setattr(real_ball, "_grow", lambda ball: built.append("level") or real_grow(ball))
    table = grigorchuk_units().table
    list(bi_enumerate(table, 1, 1, 1))
    list(bi_enumerate(table, 3, 2, 1))
    piecewise_member(compose(table["a"], table["b"]), table, word_len=2, depth=1)
    # the ball is grown to length 3, the longest asked, a level at a time
    assert built == ["letters", "ball"] + ["level"] * 4


def test_a_table_is_fixed_when_built():
    given = dict(grigorchuk_units().table.mapping)
    table = GeneratorTable(2, given)
    rows = list(bi_enumerate(table, 1, 2, 1))
    with pytest.raises(TypeError):
        table.mapping["x"] = table["a"]
    for attr, value in (("mapping", {}), ("d", 3)):
        with pytest.raises(AttributeError):
            setattr(table, attr, value)
    # editing the dict the table was built from leaves the table as it was
    given["x"] = pm(2, "00->1", "1->00", "01->01")
    given["a"] = given["x"]
    assert "x" not in table and table.d == 2
    assert list(bi_enumerate(table, 1, 2, 1)) == rows


def test_a_generator_over_another_alphabet_is_refused():
    with pytest.raises(CantorError, match="generator x has alphabet 3, not 2"):
        GeneratorTable(2, {"a": pm(2, "0->1", "1->0"), "x": one(3)})


def test_le_equals_el():
    rng = random.Random(9)
    for _ in range(40):
        g = random_pmap(rng, 2)
        e = clo("{0}") if rng.random() < 0.5 else clo("{01, 1}")
        lhs = restrict(g, e)
        geg = compose(compose(g, as_idempotent(e)), star(g))
        rhs = compose(as_idempotent(ran(geg)), g)
        assert eq(lhs, rhs)


def test_piecewise_member_generator_itself():
    cert = piecewise_member(SWAP, TABLE, word_len=1, depth=1)
    assert cert.is_witness()
    assert isinstance(cert.witness, Join)
    assert len(cert.witness.children) == 1
    assert eq(evaluate(cert.witness, TABLE), SWAP)


def test_piecewise_member_piecewise_of_generator():
    s01 = pm(2, "00->01", "01->00", "1->1")
    table = GeneratorTable(2, {"s01": s01})
    h = pm(2, "00->01", "01->00", "1->1")
    cert = piecewise_member(h, table, word_len=1, depth=2)
    assert cert.is_witness()
    assert eq(evaluate(cert.witness, table), h)


def test_piecewise_member_three_cycle_over_transpositions():
    a = pm(2, "00->01", "01->00", "1->1")
    b = pm(2, "01->1", "1->01", "00->00")
    table = GeneratorTable(2, {"a": a, "b": b})
    # the 3-cycle 00 -> 01 -> 1 -> 00 equals b*a piecewise
    h = pm(2, "00->01", "01->1", "1->00")
    cert = piecewise_member(h, table, word_len=2, depth=2)
    assert cert.is_witness()
    assert eq(evaluate(cert.witness, table), h)


def test_piecewise_member_rejects_expression_that_does_not_reevaluate(monkeypatch):
    monkeypatch.setattr(completion, "evaluate", lambda expr, table: zero(2))
    with pytest.raises(CantorError):
        piecewise_member(SWAP, TABLE, word_len=1, depth=1)


def test_piecewise_member_not_a_unit():
    with pytest.raises(NotAUnit):
        piecewise_member(pm(2, "0->10"), TABLE, 1, 1)


def test_piecewise_member_builds_each_atom_only_when_it_tries_it(monkeypatch):
    # no word of length 0 agrees with the swap on any atom, so each depth
    # gives up at its first atom: one node and one cell per depth
    table = grigorchuk_units().table
    piecewise_member(SWAP, table, word_len=0, depth=1)
    built = []
    real_init = clopen.Clopen.__init__

    def counting(self, d, antichain):
        built.append(antichain)
        real_init(self, d, antichain)

    monkeypatch.setattr(clopen.Clopen, "__init__", counting)
    cert = piecewise_member(SWAP, table, word_len=0, depth=10)
    assert cert.is_exhausted() and cert.nodes_explored == 11
    assert len(built) <= cert.nodes_explored


def test_piecewise_member_exhausts():
    v = pm(2, "0->00", "10->01", "11->1")
    cert = piecewise_member(v, TABLE, word_len=2, depth=1)
    assert cert.is_exhausted()
