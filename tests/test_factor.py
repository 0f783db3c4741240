import random

import pytest

from cantorfull import factor as factor_module
from cantorfull.clopen import normalize, union_all
from cantorfull.completion import GeneratorTable
from cantorfull.errors import AlphabetMismatch, CantorError, NotInAlt
from cantorfull.factor import (
    KitSection,
    combine_factored,
    factor_over_cover,
    inverse_word,
    word_product,
)
from cantorfull.families import higman_thompson
from cantorfull.msec import (
    alt_perms,
    build,
    cover_of,
    cycle_perm,
    element,
    extend_degree,
    identity_perm,
    overlapping_cover,
    restrict_msec,
)
from cantorfull.pmap import compose, eq, one

from oracles import clo, pm


def five_section():
    base = clo("{000}")
    return build(base, [pm(2, f"000->{w}") for w in ("001", "010", "011", "100")])


def test_factor_disjoint_two_piece_cover():
    s = five_section()
    cov = cover_of(s, [clo("{0000}"), clo("{0001}")])
    for pi in (cycle_perm(5, [0, 1, 2]), cycle_perm(5, [0, 1, 2, 3, 4])):
        target = element(s, pi)
        cert = factor_over_cover(target, pi, cov)
        assert cert.is_witness()
        assert len(cert.witness["word"]) == 2
        assert eq(word_product(cert.witness["word"], cov.pieces, 2), target)


def test_word_product_with_repeated_letters():
    s = five_section()
    cov = cover_of(s, [clo("{0000}"), clo("{0001}")])
    rng = random.Random(8)
    letters = [(k, pi) for k in range(2) for pi in alt_perms(5)[:4]]
    word = [rng.choice(letters) for _ in range(40)]
    word += [(k, list(pi)) for k, pi in word[:3]]  # a list perm names the same letter
    folded = one(2)
    for k, pi in word:
        folded = compose(folded, element(cov.pieces[k], pi))
    assert len(set((k, tuple(pi)) for k, pi in word)) < len(word)
    assert word_product(word, cov.pieces, 2) == folded


def test_factor_trivial_cover():
    s = five_section()
    cov = cover_of(s, [s.base])
    pi = cycle_perm(5, [0, 1, 2])
    cert = factor_over_cover(element(s, pi), pi, cov)
    assert cert.is_witness()
    assert len(cert.witness["word"]) == 1


def test_factor_overlapping_cover():
    s = five_section()
    b1 = clo("{0000, 00010}")
    b2 = clo("{0001}")
    assert not b1.meet(b2).is_empty()
    cov = overlapping_cover(s, [b1, b2])
    for pi in (
        cycle_perm(5, [0, 1, 2]),
        cycle_perm(5, [0, 1, 2, 3, 4]),
        cycle_perm(5, [2, 3, 4]),
    ):
        target = element(s, pi)
        cert = factor_over_cover(target, pi, cov)
        assert cert.is_witness(), cert.detail
        word = cert.witness["word"]
        assert len(word) <= 40
        assert eq(word_product(word, cov.pieces, 2), target)


def test_factor_skips_a_piece_inside_the_earlier_pieces():
    # the second piece {0000} lies inside the first, the whole base, so the
    # word names only piece 0: one letter, at one node
    s = five_section()
    cov = overlapping_cover(s, [clo("{000}"), clo("{0000}")])
    pi = (1, 2, 0, 3, 4)
    target = element(s, pi)
    cert = factor_over_cover(target, pi, cov)
    assert cert.is_witness() and cert.nodes_explored == 1
    assert cert.witness == {"word": [(0, pi)], "pieces": 2}
    assert eq(word_product(cert.witness["word"], cov.pieces, 2), target)


def test_factor_overlapping_cover_verifies_its_construction(monkeypatch):
    s = five_section()
    cov = overlapping_cover(s, [clo("{0000, 00010}"), clo("{0001}")])
    pi = cycle_perm(5, [0, 1, 2])
    target = element(s, pi)
    assert factor_over_cover(target, pi, cov).is_witness()
    # the identity pair leaves the shared cells uncorrected, so the emitted
    # word misses the target and only the re-check can tell
    ident = identity_perm(5)
    monkeypatch.setattr(factor_module, "_commutator_product_pair", lambda p: (ident, ident))
    cert = factor_over_cover(target, pi, cov)
    assert cert.is_exhausted()
    assert cert.detail == "construction failed verification"


def chain_cover(s, k):
    """{000000} and k - 1 pairs of consecutive depth-6 atoms under {000}, each
    meeting the one before, plus one piece for the rest when there is one."""
    under = [(0, 0, 0) + tuple(int(x) for x in f"{i:03b}") for i in range(8)]
    pieces = [normalize([under[0]], 2)]
    pieces += [normalize([under[i], under[i + 1]], 2) for i in range(k - 1)]
    rest = s.base.meet(union_all(pieces, 2).complement())
    return overlapping_cover(s, pieces + ([] if rest.is_empty() else [rest]))


def test_factor_eight_piece_chain_cover():
    s = five_section()
    cov = chain_cover(s, 8)
    assert len(cov.pieces) == 8
    for pi in (cycle_perm(5, [0, 1, 2]), cycle_perm(5, [0, 1, 2, 3, 4])):
        target = element(s, pi)
        cert = factor_over_cover(target, pi, cov)
        assert cert.is_witness(), cert.detail
        word = cert.witness["word"]
        assert cert.nodes_explored == len(word) <= 64
        assert eq(word_product(word, cov.pieces, 2), target)


@pytest.mark.parametrize("k", range(2, 9))
def test_factor_chain_cover_word_is_linear_in_its_pieces(k):
    s = five_section()
    cov = chain_cover(s, k)
    pi = cycle_perm(5, [0, 1, 2])
    target = element(s, pi)
    cert = factor_over_cover(target, pi, cov)
    assert cert.is_witness(), cert.detail
    word = cert.witness["word"]
    assert len(word) <= 10 * k
    assert eq(word_product(word, cov.pieces, 2), target)


def test_factor_three_pieces_meeting_in_one_cell():
    s = five_section()
    cov = overlapping_cover(
        s, [clo("{000000, 000001}"), clo("{000000, 00001}"), clo("{000000, 0001}")]
    )
    for pi in alt_perms(5):
        target = element(s, pi)
        cert = factor_over_cover(target, pi, cov)
        assert cert.is_witness(), (pi, cert.detail)
        assert eq(word_product(cert.witness["word"], cov.pieces, 2), target)


def test_factor_degree_four_overlapping_cover():
    # Alt(4) is not perfect: only its double transpositions are products of
    # two commutators with pi, so its 3-cycles have no meet word
    s = build(clo("{000}"), [pm(2, f"000->{w}") for w in ("001", "010", "011")])
    cov = overlapping_cover(s, [clo("{0000, 00010}"), clo("{0001}")])
    for pi in ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
        target = element(s, pi)
        cert = factor_over_cover(target, pi, cov)
        assert cert.is_witness(), cert.detail
        assert eq(word_product(cert.witness["word"], cov.pieces, 2), target)
    for pi in alt_perms(4):
        if sum(pi[i] != i for i in range(4)) == 3:
            with pytest.raises(CantorError, match="no commutator pair"):
                factor_over_cover(element(s, pi), pi, cov)


def test_factor_rejects_odd_permutation():
    s = five_section()
    cov = cover_of(s, [s.base])
    pi = (1, 0, 2, 3, 4)
    with pytest.raises(NotInAlt):
        factor_over_cover(element(s, pi), pi, cov)


def test_inverse_word():
    s = five_section()
    pi = cycle_perm(5, [0, 1, 2])
    word = [(0, pi), (0, cycle_perm(5, [1, 2, 3]))]
    inv = inverse_word(word)
    prod = word_product(word + inv, [s], 2)
    assert eq(prod, one(2))


# -- combined factored sections -------------------------------------------------


def make_pair():
    s1 = build(clo("{00}"), [pm(2, f"00->{w}") for w in ("010", "011", "100", "101")])
    s2 = build(
        clo("{010}"),
        [pm(2, f"010->{w}") for w in ("1100", "1101", "1110", "1111")],
    )
    return KitSection(s1, 0), KitSection(s2, 1)


def test_combine_factored_structure():
    fg, fh = make_pair()
    cs = combine_factored(fg, (0, 1, 2), fh, (0, 1, 2))
    assert cs.msec.degree == 5
    assert cs.msec.base == clo("{010}")
    assert cs.col_of[0] == ("g", 1)


def test_combine_factored_words_evaluate():
    fg, fh = make_pair()
    sections = [fg.msec, fh.msec]
    cs = combine_factored(fg, (0, 1, 2), fh, (0, 1, 2))
    rng = random.Random(8)
    perms = alt_perms(5)
    sample = [
        identity_perm(5),
        cycle_perm(5, [0, 1, 2]),
        cycle_perm(5, [0, 3, 4]),
        cycle_perm(5, [1, 2, 3]),
        cycle_perm(5, [0, 1, 2, 3, 4]),
        (1, 0, 3, 2, 4),
    ] + [rng.choice(perms) for _ in range(6)]
    for pi in sample:
        word = cs.word_for(pi)
        got = word_product(word, sections, 2)
        assert eq(got, element(cs.msec, pi)), pi


def test_combine_factored_all_sixty():
    fg, fh = make_pair()
    sections = [fg.msec, fh.msec]
    cs = combine_factored(fg, (0, 1, 2), fh, (0, 1, 2))
    for pi in alt_perms(5):
        word = cs.word_for(pi)
        assert eq(word_product(word, sections, 2), element(cs.msec, pi))


def test_nested_combine():
    # combine the combined section with a third section at a fresh idempotent
    fg, fh = make_pair()
    cs = combine_factored(fg, (0, 1, 2), fh, (0, 1, 2))
    # third section based at the combined column {011}: images inside {101}
    s3 = build(
        clo("{011}"),
        [pm(2, f"011->{w}") for w in ("10100", "10101", "10110", "10111")],
    )
    f3 = KitSection(s3, 2)
    col_011 = list(cs.msec.idems).index(clo("{011}"))
    cs2 = combine_factored(cs, (0, col_011, 1), f3, (0, 1, 2))
    assert cs2.msec.degree == 5
    sections = [fg.msec, fh.msec, s3.msec if hasattr(s3, "msec") else s3]
    for pi in (cycle_perm(5, [0, 1, 2]), cycle_perm(5, [0, 2, 4]), (1, 0, 3, 2, 4)):
        word = cs2.word_for(pi)
        got = word_product(word, sections, 2)
        assert eq(got, element(cs2.msec, pi)), pi


@pytest.mark.parametrize(
    "g_cols, h_cols", [((0, 1, 2, 3), (0, 1, 2)), ((0, 1, 2, 3, 4), (0, 1, 2, 3))]
)
def test_combine_factored_wider_sides(g_cols, h_cols):
    # each cross 3-cycle picks its third columns among more than one spare
    fg, fh = make_pair()
    sections = [fg.msec, fh.msec]
    cs = combine_factored(fg, g_cols, fh, h_cols)
    degree = len(g_cols) + len(h_cols) - 1
    assert cs.msec.degree == degree
    perms = alt_perms(degree)
    if len(perms) > 360:
        perms = random.Random(18).sample(perms, 40)
    for pi in perms:
        word = cs.word_for(pi)
        assert eq(word_product(word, sections, 2), element(cs.msec, pi)), pi


@pytest.mark.parametrize("g_cols, h_cols", [((0, 1), (0, 1, 2)), ((0, 1, 2), (0, 1))])
def test_combine_factored_two_column_side_has_no_cross_cycle(g_cols, h_cols):
    fg, fh = make_pair()
    cs = combine_factored(fg, g_cols, fh, h_cols)
    assert cs.msec.degree == 4
    g_col = next(u for u in range(1, 4) if cs.col_of[u][0] == "g")
    h_col = next(u for u in range(1, 4) if cs.col_of[u][0] == "h")
    for u, v in ((g_col, h_col), (h_col, g_col)):
        with pytest.raises(CantorError):
            cs._cross_cycle_word(u, v)
    with pytest.raises(CantorError):
        cs.word_for(cycle_perm(4, [0, 1, 2]))


# -- extend_degree ---------------------------------------------------------------


def extension_table():
    return GeneratorTable(
        2,
        {
            "s": pm(2, "0->1", "1->0"),
            "t": pm(2, "00->01", "01->00", "1->1"),
            "w": pm(2, "0->110", "110->0", "10->10", "111->111"),
            "u": pm(2, "00->111", "111->00", "01->01", "10->10", "110->110"),
        },
    )


def test_extend_degree_witness():
    table = extension_table()
    s3 = build(clo("{00}"), [pm(2, "00->01"), pm(2, "00->10")])
    cert = extend_degree(s3, table, word_len=2)
    assert cert.is_witness(), cert.detail
    for sec in cert.witness["sections"]:
        assert sec.degree == 4
        # contains the restriction of the original
        r = restrict_msec(s3, sec.base)
        for i in range(3):
            assert eq(sec.transporters[i], r.transporters[i])


def test_extend_degree_exhausts_for_empty_table():
    s3 = build(clo("{00}"), [pm(2, "00->01"), pm(2, "00->10")])
    cert = extend_degree(s3, GeneratorTable(2, {}), word_len=2)
    assert cert.is_exhausted()

    ident_only = GeneratorTable(2, {"one": one(2)})
    cert = extend_degree(s3, ident_only, word_len=3)
    assert cert.is_exhausted()


def test_extend_degree_refuses_a_table_over_another_alphabet():
    # the words come from the table's unit ball, over the table's alphabet;
    # its identity already meets the section's pieces, so even an empty
    # table or a search without letters is refused
    s3 = build(clo("{00}"), [pm(2, "00->01"), pm(2, "00->10")])
    for table in (higman_thompson(3).table, GeneratorTable(3, {})):
        for word_len in (0, 2):
            with pytest.raises(AlphabetMismatch):
                extend_degree(s3, table, word_len=word_len)
