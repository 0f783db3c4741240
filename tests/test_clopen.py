import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorfull import clopen
from cantorfull.clopen import (
    atoms,
    cylinder,
    empty,
    full,
    holders,
    is_partition,
    normalize,
    part_lookup,
    union_all,
            word_from_text,
)
from cantorfull.errors import AlphabetMismatch, LetterOutOfRange

from oracles import reference_part_of


def C(text, d=2):
    """Clopen from a literal like "{00, 01, 1}"."""
    body = text.strip()[1:-1].strip()
    if not body:
        return empty(d)
    return normalize([word_from_text(t.strip()) for t in body.split(",")], d)


def brute_words(c, n):
    """Indicator of c on all depth-n words, by raw prefix checking."""
    from itertools import product

    out = set()
    for w in product(range(c.d), repeat=n):
        if any(w[: len(u)] == u for u in c.antichain if len(u) <= n):
            out.add(w)
    return out


def depth_words(words, d, n):
    """The depth-n words below the listed words, by raw expansion."""
    from itertools import product

    return {w + t for w in words for t in product(range(d), repeat=n - len(w))}


def test_normalize_covers_full_space():
    assert C("{00, 01, 1}") == full(2)
    assert str(C("{00, 01, 1}")) == "{~}"


def test_normalize_prefix_absorption():
    assert C("{0, 01}") == C("{0}")


def test_normalize_derived_example():
    # oracle: indicator functions on all depth-3 words
    got = C("{10, 11, 00}")
    expected = C("{00, 1}")
    assert brute_words(got, 3) == brute_words(expected, 3)
    assert got == expected


def test_normalize_is_retraction():
    rng = random.Random(7)
    for _ in range(600):
        d = rng.choice((2, 3))
        words = [
            tuple(rng.randrange(d) for _ in range(rng.randrange(6)))
            for _ in range(rng.randrange(8))
        ]
        # duplicates, extensions of listed words and whole sibling families
        for w in rng.sample(words, min(len(words), 2)):
            words.append(w)
            words.append(w + (rng.randrange(d),))
            words.extend(w[:-1] + (x,) for x in range(d))
        rng.shuffle(words)
        c = normalize(words, d)
        again = normalize(c.antichain, d)
        assert c == again
        assert depth_words(c.antichain, d, 6) == depth_words(words, d, 6)
        # canonical invariants
        for i, u in enumerate(c.antichain):
            for j, v in enumerate(c.antichain):
                if i != j:
                    assert not clopen.is_prefix(u, v)
        for u in c.antichain:
            if u:
                parent = u[:-1]
                assert not all(parent + (x,) in c.antichain for x in range(d))
        assert list(c.antichain) == sorted(c.antichain)


def test_words_are_stored_lexicographically_and_printed_shortest_first():
    c = normalize([(1,), (0, 0), (0, 1, 0)], 2)
    assert c.antichain == ((0, 0), (0, 1, 0), (1,))
    assert str(c) == "{1, 00, 010}"
    assert repr(c) == "Clopen(d=2, {1, 00, 010})"
    assert str(empty(2)) == "{}" and str(full(2)) == "{~}"
    assert c.complement().antichain == ((0, 1, 1),)
    assert C("{1, 010}").complement().antichain == ((0, 0), (0, 1, 1))
    assert c.words_at_depth(3) == sorted(c.words_at_depth(3))


def test_letter_out_of_range():
    with pytest.raises(LetterOutOfRange):
        normalize([(0, 2)], 2)


def test_meet_disjoint_cylinders():
    assert C("{0}").meet(C("{1}")) == empty(2)


def test_complement_derived_example():
    got = C("{00}").complement()
    assert brute_words(got, 3) == brute_words(C("{01, 1}"), 3)
    assert got == C("{01, 1}")


def test_leq_cylinder_containment():
    assert C("{010}").leq(C("{01}"))
    assert not C("{01}").leq(C("{010}"))


def test_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        C("{0}", d=2).union(C("{0}", d=3))
    with pytest.raises(AlphabetMismatch):
        union_all([C("{0}", d=2), C("{0}", d=3)], 2)


def test_atoms():
    assert atoms(0, 2) == [full(2)]
    assert atoms(1, 2) == [C("{0}"), C("{1}")]
    a = atoms(2, 3)
    assert len(a) == 9
    assert a[0] == cylinder((0, 0), 3)
    assert a[-1] == cylinder((2, 2), 3)


def test_atoms_always_partition():
    for d in (2, 3):
        for n in range(4):
            assert is_partition(atoms(n, d))


def test_is_partition_examples():
    assert is_partition([C("{0}"), C("{1}")])
    assert not is_partition([C("{0}"), C("{01}")])
    assert not is_partition([C("{0}"), C("{1}"), empty(2)])


def test_part_lookup_examples():
    assert part_lookup([C("{0}"), C("{1}")])(C("{01}")) == 0
    assert part_lookup([C("{00}"), C("{01}"), C("{1}")])(C("{0}")) is None
    assert part_lookup([C("{0}"), C("{1}")])(empty(2)) is None
    assert part_lookup([C("{0, 11}"), C("{10}")])(C("{00, 110}")) == 0
    assert part_lookup([C("{0, 11}"), C("{10}")])(C("{00, 10}")) is None
    assert part_lookup([full(3)])(C("{2, 01}", d=3)) == 0


def test_part_lookup_matches_reference_scan():
    seen = Counter()

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(st.data())
    def check(data):
        d = data.draw(st.sampled_from((2, 3)))
        # a partition by random splitting, its cells grouped into parts
        cells = [()]
        for _ in range(data.draw(st.integers(0, 8))):
            w = cells.pop(data.draw(st.integers(0, len(cells) - 1)))
            cells += [w + (x,) for x in range(d)] if len(w) < 4 else [w]
        labels = data.draw(st.lists(st.integers(0, 2), min_size=len(cells), max_size=len(cells)))
        parts = [normalize([w for w, k in zip(cells, labels) if k == j], d) for j in sorted(set(labels))]
        # words near the cells, mostly near one: a cell, cut short (which may
        # straddle) or extended
        home = data.draw(st.sampled_from(cells))
        letters = st.lists(st.integers(0, d - 1), max_size=2).map(tuple)
        near = st.tuples(st.sampled_from([home] * 3 + cells), st.integers(0, 1), letters)
        words = data.draw(st.lists(near, max_size=4))
        c = normalize([w[: len(w) - cut] + ext for w, cut, ext in words], d)
        expected = reference_part_of(parts, c)
        assert part_lookup(parts)(c) == expected
        if c.is_empty():
            seen["empty"] += 1
        elif expected is None:
            seen["straddles"] += 1
        # drawn on purpose whenever a part has several words: extensions of
        # two or more of them, which stay several words after normalizing,
        # since a part's words are incomparable and never all the children
        # of one word
        several = [j for j, p in enumerate(parts) if len(p.antichain) > 1]
        if several:
            j = data.draw(st.sampled_from(several))
            picked = data.draw(st.lists(st.sampled_from(parts[j].antichain), min_size=2, unique=True))
            c = normalize([w + data.draw(letters) for w in picked], d)
            assert len(c.antichain) > 1
            assert part_lookup(parts)(c) == reference_part_of(parts, c) == j
            seen["several words inside a several-word part"] += 1

    check()
    assert len(seen) == 3 and min(seen.values()) >= 10, seen


@pytest.mark.parametrize("d", [2, 3])
def test_holders_match_the_leq_scan(d):
    rng = random.Random(d)
    seen = Counter()
    for _ in range(80):
        clopens = [random_clopen(rng, d, 3) for _ in range(rng.randrange(1, 8))]
        clopens += [full(d), empty(d), rng.choice(clopens)]
        rng.shuffle(clopens)
        holding = holders(clopens)
        cs = [empty(d), full(d)] + [random_clopen(rng, d, 4) for _ in range(6)]
        # clopens inside a listed one: some of its words, extended
        for x in rng.sample(clopens, 3):
            words = rng.sample(x.antichain, rng.randrange(len(x.antichain) + 1))
            cs.append(normalize([w + (rng.randrange(d),) * rng.randrange(3) for w in words], d))
        for c in cs:
            expected = [i for i, x in enumerate(clopens) if c.leq(x)]
            assert holding(c) == expected
            if c.is_empty():
                seen["empty"] += 1
            elif c.is_full():
                seen["full"] += 1
            elif len(c.antichain) > 1 and len(expected) > 2:
                seen["several words held by several"] += 1
            elif len(expected) == 1:
                seen["held by the full clopen alone"] += 1
    assert len(seen) == 4 and min(seen.values()) >= 20, seen


def random_clopen(rng, d, maxdepth):
    words = [
        tuple(rng.randrange(d) for _ in range(rng.randrange(maxdepth + 1)))
        for _ in range(rng.randrange(5))
    ]
    return normalize(words, d)


def test_boolean_laws_random():
    rng = random.Random(2024)
    for _ in range(1000):
        d = rng.choice((2, 3))
        a = random_clopen(rng, d, 5)
        b = random_clopen(rng, d, 5)
        c = random_clopen(rng, d, 5)
        assert a.union(b.union(c)) == a.union(b).union(c)
        assert union_all([a, b, c], d) == a.union(b).union(c)
        assert a.meet(b.meet(c)) == a.meet(b).meet(c)
        assert a.meet(b.union(c)) == a.meet(b).union(a.meet(c))
        assert a.union(b.meet(c)) == a.union(b).meet(a.union(c))
        assert a.union(b).complement() == a.complement().meet(b.complement())
        assert a.meet(b).complement() == a.complement().union(b.complement())
        assert a.complement().complement() == a
        # order agrees with the algebra
        assert a.leq(b) == a.meet(b.complement()).is_empty()


def test_complement_matches_brute_force():
    # a depth-n word lies in the complement exactly when it is not in the set
    from itertools import product

    rng = random.Random(25)
    for d in (2, 3):
        for c in [empty(d), full(d)] + [random_clopen(rng, d, 5) for _ in range(300)]:
            n = max((len(w) for w in c.antichain), default=0) + 1
            got = c.complement()
            every = set(product(range(d), repeat=n))
            assert set(got.words_at_depth(n)) == every - set(c.words_at_depth(n))
            assert got == normalize(got.antichain, d)


def test_disjoint_matches_empty_meet():
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    for d in (2, 3):
        for _ in range(600):
            a = random_clopen(rng, d, 5)
            b = random_clopen(rng, d, 5)
            if rng.random() < 0.3:
                b = b.meet(a.complement())  # force many disjoint pairs
            expected = a.meet(b).is_empty()
            assert a.disjoint(b) == expected
            assert b.disjoint(a) == expected
            seen[expected] += 1
    assert min(seen.values()) > 100
    assert C("{0}").disjoint(empty(2)) and empty(2).disjoint(full(2))
    assert not C("{01}").disjoint(full(2))
    with pytest.raises(AlphabetMismatch):
        C("{0}", d=2).disjoint(C("{1}", d=3))


def test_zero_and_one_flow_through():
    a = C("{01}")
    assert a.union(empty(2)) == a
    assert a.meet(full(2)) == a
    assert a.meet(empty(2)) == empty(2)
    assert empty(2).complement() == full(2)


def test_words_at_depth():
    c = C("{0, 11}")
    assert c.words_at_depth(2) == [(0, 0), (0, 1), (1, 1)]
    with pytest.raises(ValueError):
        c.words_at_depth(1)
