import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorfull import pmap, tails
from cantorfull.errors import AlphabetMismatch, CantorError
from cantorfull.tails import (
    TailElement,
    adding_machine,
    apply_prefix,
    canonical_key,
    compose,
    depth_perm,
    free_reduce,
    grigorchuk,
    invert,
    is_identity,
    parse_machines,
    state,
    trivial,
)

from oracles import INVOLUTION, ORDER_FOUR, tail_section, tail_walk, word

GRI = grigorchuk()
ADD2 = adding_machine(2)


# -- independent oracles ------------------------------------------------------


def odometer_oracle(w, d):
    """Increment w as a little-endian base-d integer; also return wrap flag."""
    out = list(w)
    for i, x in enumerate(out):
        if x < d - 1:
            out[i] = x + 1
            return tuple(out), False
        out[i] = 0
    return tuple(out), True


def grig_oracle(letter_name, w):
    """Recursive evaluation of a Grigorchuk generator on a finite word."""
    if not w:
        return ()
    x, z = w[0], w[1:]
    if letter_name == "a":
        return (1 - x,) + z
    if letter_name == "b":
        return (x,) + grig_oracle("a" if x == 0 else "c", z)
    if letter_name == "c":
        return (x,) + grig_oracle("a" if x == 0 else "d", z)
    if letter_name == "d":
        return (x,) + (z if x == 0 else grig_oracle("b", z))
    raise AssertionError(letter_name)


def grig_word_oracle(names, w):
    for name in reversed(names):
        w = grig_oracle(name, w)
    return w


# -- apply_prefix -------------------------------------------------------------


def test_apply_prefix_identity():
    img, res = apply_prefix(trivial(2), (0, 1, 0, 1))
    assert img == (0, 1, 0, 1)
    assert not free_reduce(res.factors)


def test_apply_prefix_adding_machine():
    a = state(ADD2, "a")
    # oracle: evaluate a(11z) on all depth-5 suffixes z
    img, res = apply_prefix(a, (1, 1))
    assert img == (0, 0)
    for z in product(range(2), repeat=5):
        expected, _ = odometer_oracle((1, 1) + z, 2)
        got = apply_prefix(a, (1, 1) + z)[0]
        assert got == expected
        assert img + apply_prefix(res, z)[0] == got
    assert tails.equal(res, a)

    img, res = apply_prefix(a, (0, 1))
    assert img == (1, 1)
    assert is_identity(res)


def test_adding_machine_all_ones():
    a = state(ADD2, "a")
    img, res = apply_prefix(a, (1, 1, 1))
    assert img == (0, 0, 0)
    assert tails.equal(res, a)
    for w in product(range(2), repeat=5):
        assert apply_prefix(a, w)[0] == odometer_oracle(w, 2)[0]


def test_adding_machine_base3():
    a = state(adding_machine(3), "a")
    for w in product(range(3), repeat=4):
        assert apply_prefix(a, w)[0] == odometer_oracle(w, 3)[0]


# -- compose / invert ---------------------------------------------------------


def test_compose_with_identity():
    t = word(GRI, "a*b")
    assert compose(t, trivial(2)) == t
    assert compose(trivial(2), t) == t


def test_invert_involution():
    t = word(GRI, "a*b*c^-1")
    assert tails.equal(invert(invert(t)), t)


def test_inverse_law():
    a = state(ADD2, "a")
    assert is_identity(compose(a, invert(a)))
    assert is_identity(compose(invert(a), a))


# -- is_identity --------------------------------------------------------------


def test_is_identity_trivial():
    assert is_identity(trivial(2))
    assert is_identity(trivial(3))


def test_grigorchuk_involutions():
    for name in "abcd":
        sq = word(GRI, f"{name}*{name}")
        assert is_identity(sq)
        # spot-check on all depth-6 words
        for w in product(range(2), repeat=6):
            assert apply_prefix(sq, w)[0] == w


def test_grigorchuk_bcd():
    assert is_identity(word(GRI, "b*c*d"))


def test_grigorchuk_ab_order_16():
    ab8 = word(GRI, "*".join(["a", "b"] * 8))
    ab16 = word(GRI, "*".join(["a", "b"] * 16))
    assert not is_identity(ab8)
    assert is_identity(ab16)
    # cross-check against evaluation on all depth-8 words
    assert any(apply_prefix(ab8, w)[0] != w for w in product(range(2), repeat=8))
    assert all(apply_prefix(ab16, w)[0] == w for w in product(range(2), repeat=8))


def test_grigorchuk_against_oracle():
    rng = random.Random(11)
    for _ in range(50):
        names = [rng.choice("abcd") for _ in range(rng.randrange(1, 6))]
        t = word(GRI, "*".join(names))
        for _ in range(20):
            w = tuple(rng.randrange(2) for _ in range(6))
            assert apply_prefix(t, w)[0] == grig_word_oracle(names, w)


def test_identity_congruence_witness():
    rng = random.Random(5)
    for _ in range(30):
        names = [rng.choice("abcd") for _ in range(rng.randrange(4))]
        s = word(GRI, "*".join(names) if names else "1")
        t = compose(s, word(GRI, "d*d"))
        assert tails.equal(s, t)
        for w in product(range(2), repeat=6):
            assert apply_prefix(s, w)[0] == apply_prefix(t, w)[0]


def test_section_cocycle_law():
    rng = random.Random(17)
    for _ in range(40):
        factors = []
        for _ in range(rng.randrange(4)):
            if rng.random() < 0.5:
                factors.append((GRI, rng.choice("abcde"), rng.choice((1, -1))))
            else:
                factors.append((ADD2, rng.choice("ae"), rng.choice((1, -1))))
        t = TailElement(2, factors)
        w1 = tuple(rng.randrange(2) for _ in range(rng.randrange(4)))
        w2 = tuple(rng.randrange(2) for _ in range(rng.randrange(4)))
        i12, r12 = apply_prefix(t, w1 + w2)
        i1, r1 = apply_prefix(t, w1)
        i2, r2 = apply_prefix(r1, w2)
        assert i12 == i1 + i2
        assert tails.equal(r12, r2)


# -- depth_perm ---------------------------------------------------------------


def test_depth_perm_swap():
    t = depth_perm(1, {(0,): (1,), (1,): (0,)})
    img, res = apply_prefix(t, (0,))
    assert img == (1,)
    assert is_identity(res)
    for w in product(range(2), repeat=3):
        assert apply_prefix(t, w)[0] == (1 - w[0],) + w[1:]


def test_depth_perm_two_levels():
    # swap the subtrees below 0, fix everything below 1
    assign = {(0, 0): (0, 1), (0, 1): (0, 0), (1, 0): (1, 0), (1, 1): (1, 1)}
    t = depth_perm(2, assign)
    for w, v in assign.items():
        assert apply_prefix(t, w)[0] == v
    for w in product(range(2), repeat=4):
        assert apply_prefix(t, w)[0] == assign[w[:2]] + w[2:]


def test_depth_perm_rejects_non_tree_permutation():
    # transposition of 00 and 11 is not induced by letter permutations
    assign = {(0, 0): (1, 1), (1, 1): (0, 0), (0, 1): (0, 1), (1, 0): (1, 0)}
    with pytest.raises(CantorError):
        depth_perm(2, assign)


# -- machine text format ------------------------------------------------------


def test_machine_text_roundtrip():
    text = GRI.to_text()
    back = parse_machines(text)["grigorchuk"]
    assert back == GRI
    t = word(back, "a*b")
    assert tails.equal(t, word(GRI, "a*b"))


def test_parse_machines_rejects_garbage():
    with pytest.raises(CantorError):
        parse_machines("machine m 2\nstate s perm 0 1 oops e e")


@pytest.mark.parametrize(
    "text",
    [
        "state s perm 1 0 to s s",  # no machine yet
        "machine m two\nstate s perm 1 0 to s s",
        "machine m 2\nstate s perm 1 0",
        "machine m 2\nstate s perm 1 x to s s",
        "machine m 2\nstate s perm 1 0 to s s\nstate s perm 0 1 to s s",
        "machine m 2\nstate s perm 1 0 to s s\nmachine m 2\nstate s perm 0 1 to s s",
        "machine m 2\nstate x-1 perm 1 0 to x-1 x-1",
        "machine f-o 2\nstate s perm 1 0 to s s",
        "machine m 2\nstate 1x perm 1 0 to 1x 1x",
    ],
    ids=[
        "state-first", "alphabet", "short-state", "perm-letter", "state-twice", "machine-twice",
        "state-name", "machine-name", "state-name-digit-first",
    ],
)
def test_parse_machines_rejects_malformed_lines(text):
    with pytest.raises(CantorError):
        parse_machines(text)


# -- machine identity ---------------------------------------------------------

def test_same_named_machines_are_told_apart():
    # both machines are named depthperm2; their tables differ
    inv, ord4 = depth_perm(2, INVOLUTION), depth_perm(2, ORDER_FOUR)
    assert inv.factors[0][0].name == ord4.factors[0][0].name
    assert inv != ord4
    for first, second in ((inv, ord4), (ord4, inv)):
        # the first call leaves its answer in the cache for the second
        assert is_identity(compose(first, first)) == (first is inv)
        assert is_identity(compose(second, second)) == (second is inv)
    units = [pmap.PartialMap(2, [pmap.Branch((), (), t)]) for t in (inv, ord4)]
    assert not pmap.eq(*(pmap.compose(u, u) for u in units))


def test_machines_are_identified_by_their_tables():
    renamed = parse_machines(GRI.to_text().replace("grigorchuk", "other"))["other"]
    # the live table keeps the name it was first built under
    assert renamed is GRI and renamed.name == "grigorchuk"
    assert word(renamed, "b*c") == word(GRI, "b*c")
    assert is_identity(compose(word(renamed, "b*c"), word(GRI, "d")))


def _tree_perm(k, perms):
    """The depth-k assignment whose letter permutation below the i-th prefix
    (in length-then-lexicographic order) is perms[i]."""
    prefixes = [w for n in range(k) for w in product(range(2), repeat=n)]
    below = dict(zip(prefixes, perms))
    return {
        w: tuple(below[w[:i]][w[i]] for i in range(k)) for w in product(range(2), repeat=k)
    }


def _depth_perms(k):
    perm = st.sampled_from([(0, 1), (1, 0)])
    return st.lists(perm, min_size=2**k - 1, max_size=2**k - 1).map(
        lambda perms: depth_perm(k, _tree_perm(k, perms))
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(st.just(k), _depth_perms(k), _depth_perms(k))))
def test_default_named_depth_perms_against_tail_walks(case):
    # the identity cache is never cleared: answers for one machine must not
    # leak to another machine of the same name
    k, s, t = case
    words = list(product(range(2), repeat=k))
    both = compose(s, t)
    for w in words:
        assert tail_walk(both, w) == tail_walk(s, tail_walk(t, w))
        # below depth k every tail acts trivially
        assert is_identity(TailElement(2, tail_section(both, w)[1]))
    assert is_identity(s) == all(tail_walk(s, w) == w for w in words)
    assert is_identity(compose(s, s)) == all(tail_walk(s, tail_walk(s, w)) == w for w in words)
    assert is_identity(both) == all(tail_walk(both, w) == w for w in words)
    assert tails.equal(s, t) == all(tail_walk(s, w) == tail_walk(t, w) for w in words)


def test_identity_cache_is_bounded(monkeypatch):
    cases = [
        (word(GRI, "*".join(["a", "b"] * 8)), False),
        (word(GRI, "*".join(["a", "b"] * 16)), True),
        (word(GRI, "b*c*d"), True),
        (word(GRI, "a*c*a*d"), False),
        (compose(depth_perm(2, ORDER_FOUR), depth_perm(2, ORDER_FOUR)), False),
        (compose(depth_perm(2, INVOLUTION), depth_perm(2, INVOLUTION)), True),
    ]
    monkeypatch.setattr(tails, "IDENTITY_CACHE_SIZE", 4)
    monkeypatch.setattr(tails, "_identity_cache", {})
    for _ in range(3):
        for t, truth in cases:
            assert is_identity(t) == truth
            assert len(tails._identity_cache) <= 4


def test_identity_check_reads_each_node_once(monkeypatch):
    # (ab)^16 = 1 in the Grigorchuk group; the closure visits 10 nodes, and
    # each node's root permutation and sections come from one letter sweep
    calls = []
    expand = tails.expand

    def counted(d, factors):
        calls.append(factors)
        return expand(d, factors)

    monkeypatch.setattr(tails, "_identity_cache", {})
    monkeypatch.setattr(tails, "expand", counted)
    assert is_identity(word(GRI, "*".join(["a", "b"] * 16)))
    assert len(calls) == 10 and len(set(calls)) == 10
    # the cache now holds every node, so a second decision sweeps none
    assert is_identity(word(GRI, "*".join(["a", "b"] * 16)))
    assert len(calls) == 10


def test_identity_check_budget_guard(monkeypatch):
    from cantorfull.errors import BudgetExceeded

    monkeypatch.setattr(tails, "_identity_cache", {})
    deep = word(GRI, "*".join(["a", "b"] * 8))
    with monkeypatch.context() as budget:
        budget.setattr(tails, "DEFAULT_NODE_BUDGET", 1)
        with pytest.raises(BudgetExceeded):
            is_identity(deep)
    # and with a real budget the answer is still computed, never guessed
    assert not is_identity(deep)


# -- the letter sweep against the oracle ----------------------------------------


def _depth_perm_3():
    """A depth-2 automorphism over three letters: a 3-cycle at the root and
    a different letter permutation below each root letter."""
    root, below = (1, 2, 0), {0: (0, 2, 1), 1: (1, 2, 0), 2: (0, 1, 2)}
    assign = {(x, y): (root[x], below[x][y]) for x in range(3) for y in range(3)}
    return depth_perm(2, assign, d=3).factors[0][0]


# the machines of the sweep tests; each word may mix both machines of its
# alphabet, and draws states with either exponent, trivial states included
SWEEP_MACHINES = {2: (GRI, ADD2), 3: (adding_machine(3), _depth_perm_3())}


def _signed_word(rng, machines, n):
    picked = [rng.choice(machines) for _ in range(n)]
    return tuple((m, rng.choice(m.states), rng.choice((1, -1))) for m in picked)


@pytest.mark.parametrize("d", sorted(SWEEP_MACHINES))
def test_expand_is_the_section_oracle_then_free_reduce(d):
    rng = random.Random(4200 + d)
    for _ in range(400):
        factors = _signed_word(rng, SWEEP_MACHINES[d], rng.randrange(13))
        t = TailElement(d, factors)
        perm, sections = tails.expand(d, factors)
        assert len(perm) == len(sections) == d
        for x in range(d):
            image, residual = tail_section(t, (x,))
            assert perm[x] == image[0]
            assert sections[x] == tails.free_reduce(residual)
            # the letter step itself leaves the residual word unreduced
            assert t.apply_letter(x) == (image[0], TailElement(d, residual))


def _relator_of(rng, m):
    """A word over m that acts as the identity: a Grigorchuk relator, a
    state of order at most 6 raised to its order, or else a trivial state."""
    if m is GRI:
        return tuple((m, s, 1) for s in rng.choice(GRI_RELATORS).split("*"))
    s = rng.choice(m.states)
    for n in range(1, 7):
        if is_identity(TailElement(m.d, ((m, s, 1),) * n)):
            return ((m, s, rng.choice((1, -1))),) * n
    return ((m, "e", 1),)


@pytest.mark.parametrize("d", sorted(SWEEP_MACHINES))
def test_equal_agrees_with_tail_walks_on_every_depth_6_word(d):
    rng = random.Random(4300 + d)
    words = list(product(range(d), repeat=6))
    verdicts = set()
    for _ in range(40):
        s = _signed_word(rng, SWEEP_MACHINES[d], rng.randrange(1, 9))
        if rng.random() < 0.5:
            cut = rng.randrange(len(s) + 1)
            relator = _relator_of(rng, rng.choice(SWEEP_MACHINES[d]))
            t = s[:cut] + relator + s[cut:]
        else:
            t = _signed_word(rng, SWEEP_MACHINES[d], rng.randrange(1, 9))
        s, t = TailElement(d, s), TailElement(d, t)
        same = tails.equal(s, t)
        assert same == all(tail_walk(s, w) == tail_walk(t, w) for w in words)
        verdicts.add(same)
    assert verdicts == {True, False}


def test_equal_refuses_tails_over_different_alphabets():
    two, three = state(ADD2, "a"), state(adding_machine(3), "a")
    for s, t in ((two, three), (three, two), (trivial(2), three)):
        with pytest.raises(AlphabetMismatch):
            tails.equal(s, t)


# -- canonical keys -------------------------------------------------------------

GRI_RELATORS = ("a*a", "b*b", "c*c", "d*d", "b*c*d", "a*d*a*d*a*d*a*d")


def _with_relator(text, relator, cut):
    letters = text.split("*")
    return "*".join(letters[:cut] + relator.split("*") + letters[cut:])


def _rover_ball_tails():
    from cantorfull.families import rover_units

    ball = pmap.WordBall(list(rover_units().table.mapping.values()), 2).words(2)
    return list(dict.fromkeys(b.tail for m, _ in ball for b in m.branches))


def _key_pairs():
    rng = random.Random(5)
    text = "*".join(rng.choice("abcd") for _ in range(9))
    swap = depth_perm(1, {(0,): (1,), (1,): (0,)})
    inv, ord4 = depth_perm(2, INVOLUTION), depth_perm(2, ORDER_FOUR)
    pairs = [
        (word(GRI, "b*c"), word(GRI, "d")),
        (word(GRI, "a"), word(GRI, "a^-1")),
        (word(GRI, "a*d*a*d*a*d*a*d"), trivial(2)),
        (word(GRI, text), word(GRI, _with_relator(text, "b*c*d", 4))),
        (word(GRI, text), word(GRI, text + "*a")),
        (word(GRI, "b*c"), word(GRI, "c*b")),
        (word(GRI, "a*b"), word(GRI, "b*a")),
        (word(ADD2, "a*a^-1*a"), word(ADD2, "a")),
        (word(ADD2, "a*a"), word(ADD2, "a")),
        # a root swap whatever the machine: one action, one key
        (swap, word(GRI, "a")),
        (swap, word(ADD2, "a")),
        # same-named machines with different tables
        (inv, ord4),
        (compose(inv, inv), trivial(2)),
        (compose(ord4, ord4), trivial(2)),
        (compose(ord4, ord4), compose(inv, inv)),
    ]
    rover = _rover_ball_tails()
    pairs += [(s, t) for i, s in enumerate(rover) for t in rover[:i]]
    return pairs


def test_canonical_key_is_eq_invariant():
    pairs = _key_pairs()
    equal_pairs = 0
    for s, t in pairs:
        same = tails.equal(s, t)
        equal_pairs += same
        assert (canonical_key(s) == canonical_key(t)) == same, (s, t)
    # both sides of the equivalence are exercised
    assert 0 < equal_pairs < len(pairs)
    assert canonical_key(trivial(2)) == canonical_key(word(GRI, "b*c*d")) == ()


_GRI_LETTER = st.tuples(st.sampled_from("abcd"), st.sampled_from(["", "^-1"])).map("".join)
_GRI_WORD = st.lists(_GRI_LETTER, min_size=1, max_size=6).map("*".join)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_GRI_WORD, _GRI_WORD, st.sampled_from(GRI_RELATORS), st.integers(0, 6))
def test_canonical_key_matches_equal_on_short_grigorchuk_words(s, t, relator, cut):
    x, y = word(GRI, s), word(GRI, t)
    assert (canonical_key(x) == canonical_key(y)) == tails.equal(x, y)
    assert canonical_key(word(GRI, _with_relator(s, relator, cut))) == canonical_key(x)


# the lamplighter machine: not contracting, so the closure of a^n has all
# 2^n words of n letters over {a, b} as sections
LAMP = parse_machines(
    """
    machine lamp 2
    state a perm 1 0 to a b
    state b perm 0 1 to a b
    """
)["lamp"]


def _lamp_unit(text):
    return pmap.PartialMap(2, [pmap.Branch((), (), word(LAMP, text))])


@pytest.fixture
def key_budget(monkeypatch):
    """Sets tails.DEFAULT_NODE_BUDGET; the key memo is emptied whenever the
    budget changes, so no key made under one budget is read under another."""

    def set_budget(n):
        monkeypatch.setattr(tails, "DEFAULT_NODE_BUDGET", n)
        tails._minimal_rows.cache_clear()

    yield set_budget
    tails._minimal_rows.cache_clear()


def test_canonical_key_falls_back_to_the_word_past_the_budget(key_budget):
    key_budget(256)
    # 256 sections are minimized; 512 are not, and the key is the free-reduced
    # word instead of a BudgetExceeded
    assert len(canonical_key(word(LAMP, "*".join("a" * 8)))) == 256
    long = word(LAMP, "*".join("a" * 9))
    assert canonical_key(long) == long.factors
    # the fallback key is memoized under the free-reduced word
    hits = tails._minimal_rows.cache_info().hits
    assert canonical_key(word(LAMP, "*".join("a" * 9) + "*b*b^-1")) == long.factors
    assert tails._minimal_rows.cache_info().hits == hits + 1
    # a fallback key is never a minimized one, so equal keys still act alike
    assert canonical_key(long) != canonical_key(word(LAMP, "a"))


def test_dedup_over_a_non_contracting_machine_past_the_key_budget(key_budget):
    letters = [_lamp_unit(x) for x in ("a", "b", "a^-1", "b^-1")]
    exact = [m for m, _ in pmap.WordBall(letters, 2).words(3)]
    for i, m in enumerate(exact):
        assert not any(pmap.eq(x, m) for x in exact[:i])
    # with a budget below most closures the ball keeps eq-equal words, but
    # it covers the same eq classes and raises nothing
    budget = tails.DEFAULT_NODE_BUDGET
    key_budget(2)
    coarse = [m for m, _ in pmap.WordBall(letters, 2).words(3)]
    deep = pmap.Dedup()
    texts = ("*".join("a" * 20), "*".join("a" * 20) + "*b*b^-1", "*".join("a" * 21))
    assert [deep.add(_lamp_unit(text))[2] for text in texts] == [True, False, True]
    # the identity checks below walk more sections than a budget of 2 allows
    key_budget(budget)
    assert len(coarse) > len(exact)
    assert all(any(pmap.eq(x, m) for x in coarse) for m in exact)
    assert all(any(pmap.eq(x, m) for x in exact) for m in coarse)


# sixteen states that swap the root letter and stay put: each word over them
# is its own only section, so its key is quick to find
FLAT = parse_machines(
    "machine flat 2\n" + "".join(f"state s{i} perm 1 0 to s{i} s{i}\n" for i in range(16))
)["flat"]


def test_minimal_rows_memo_is_bounded():
    cases = [
        word(GRI, "*".join(["a", "b"] * 8)),
        word(GRI, "*".join(["a", "b"] * 16)),
        word(GRI, "b*c*d"),
        word(GRI, "a*c*a*d"),
        compose(depth_perm(2, ORDER_FOUR), depth_perm(2, ORDER_FOUR)),
        compose(depth_perm(2, INVOLUTION), depth_perm(2, INVOLUTION)),
    ]
    tails._minimal_rows.cache_clear()
    first = [canonical_key(t) for t in cases]
    states = [(FLAT, s, 1) for s in FLAT.states]
    # 4,096 words of three states and 28,704 of four: past the 32,768 keys
    # the memo keeps, so the first keys are evicted and made again
    flood = [w for n in (3, 4) for w in product(states, repeat=n)][:32800]
    for w in flood:
        assert canonical_key(TailElement(2, w)) == ((((1, 0), (0, 0)),) if len(w) % 2 else ())
    assert [canonical_key(t) for t in cases] == first
    info = tails._minimal_rows.cache_info()
    assert info.misses == len(flood) + 2 * len(cases)
    assert info.currsize == info.maxsize == 32768
