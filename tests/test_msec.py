import random

import pytest

from cantorfull.clopen import atoms, cylinder, normalize
from cantorfull.families import higman_thompson, rover_units
from cantorfull.kit import build_kit
from cantorfull.errors import (
    BadSubdivision,
    DomainMismatch,
    EmptyIntersection,
    EmptyRestriction,
    NotInAlt,
    SupportsOverlapElsewhere,
)
from cantorfull.msec import (
    alt_perms,
    build,
    combine,
    cover_of,
    cycle_perm,
    element,
    embed_subperm,
    identity_perm,
    is_even,
    perm_compose,
    perm_inverse,
    pivot_three_cycles,
    restrict_msec,
    sub_section,
    sym_perms,
)
from cantorfull.pmap import (
    as_idempotent,
    compose,
    eq,
    eval_at,
    is_unit,
    join,
    one,
    ran,
    restrict,
    star,
)

from oracles import clo, pm


def three_section():
    # base {00}, transporters to {01} and {10}
    return build(clo("{00}"), [pm(2, "00->01"), pm(2, "00->10")])


def test_perm_helpers():
    assert is_even((0, 1, 2))
    assert not is_even((1, 0, 2))
    assert is_even((1, 2, 0))
    p = cycle_perm(3, [0, 1, 2])
    assert p == (1, 2, 0)
    assert perm_compose(p, perm_inverse(p)) == identity_perm(3)
    assert len(sym_perms(3)) == 6
    assert len(alt_perms(3)) == 3
    assert embed_subperm((1, 0), (0, 2), 4) == (2, 1, 0, 3)


@pytest.mark.parametrize("n", [5, 6])
def test_pivot_three_cycles(n):
    for perm in alt_perms(n):
        for pivot in range(n):
            acc = identity_perm(n)
            for y, x in pivot_three_cycles(perm, pivot):
                assert len({pivot, y, x}) == 3
                acc = perm_compose(acc, cycle_perm(n, [pivot, y, x]))
            assert acc == perm
    for perm in sym_perms(n):
        if not is_even(perm):
            for pivot in range(n):
                with pytest.raises(NotInAlt):
                    pivot_three_cycles(perm, pivot)


def test_build_examples():
    s = three_section()
    assert s.degree == 3
    assert s.idems == (clo("{00}"), clo("{01}"), clo("{10}"))

    s2 = build(clo("{0}"), [pm(2, "0->1")])
    assert s2.degree == 2

    with pytest.raises(DomainMismatch):
        build(clo("{00}"), [pm(2, "00->01"), pm(2, "01->10")])


def test_build_rejects_overlapping_images():
    from cantorfull.errors import OverlappingIdempotents

    with pytest.raises(OverlappingIdempotents):
        build(clo("{00}"), [pm(2, "00->01"), pm(2, "00->010")])


def test_element_three_cycle():
    s = three_section()
    h = element(s, cycle_perm(3, [0, 1, 2]))
    assert is_unit(h)
    assert eq(h, pm(2, "00->01", "01->10", "10->00", "11->11"))
    cube = compose(h, compose(h, h))
    assert eq(cube, one(2))
    assert perm_msec_order(s, cycle_perm(3, [0, 1, 2])) == 3


def perm_msec_order(s, pi):
    h = element(s, pi)
    acc = h
    n = 1
    while not eq(acc, one(s.d)):
        acc = compose(h, acc)
        n += 1
    return n


def test_element_identity_and_transposition():
    s = three_section()
    assert eq(element(s, identity_perm(3)), one(2))
    s2 = build(clo("{0}"), [pm(2, "0->1")])
    assert eq(element(s2, (1, 0)), pm(2, "0->1", "1->0"))


def test_element_homomorphism_random():
    rng = random.Random(3)
    s = three_section()
    perms = sym_perms(3)
    for _ in range(20):
        a, b = rng.choice(perms), rng.choice(perms)
        assert eq(
            compose(element(s, a), element(s, b)), element(s, perm_compose(a, b))
        )


def test_element_supported_on_idempotents():
    s = three_section()
    h = element(s, cycle_perm(3, [0, 1, 2]))
    comp = s.support().complement()
    assert eq(restrict(h, comp), restrict(one(2), comp))


def joined_element(s, pi):
    """element(s, pi) the way join defines it: the parts f_pi(i) f_i* and
    the identity off the support, glued after pairwise compatibility checks."""
    parts = [
        compose(s.transporters[pi[i]], star(s.transporters[i]))
        for i in range(s.degree)
    ]
    comp = s.support().complement()
    if not comp.is_empty():
        parts.append(as_idempotent(comp))
    return join(parts)


def random_three_section(rng, units, depth):
    """A 3-section on a random depth-n cylinder with unit-word transporters."""
    while True:
        c = cylinder(tuple(rng.randrange(2) for _ in range(depth)), 2)
        maps, images = [], [c]
        for _ in range(2):
            m = compose(rng.choice(units), rng.choice(units))
            r = restrict(m, c)
            if any(not ran(r).disjoint(x) for x in images):
                break
            maps.append(r)
            images.append(ran(r))
        if len(maps) == 2:
            return build(c, maps)


def test_element_is_join_of_parts():
    rng = random.Random(11)
    v2 = list(higman_thompson(2).table.mapping.values())
    sections = [three_section()] + [random_three_section(rng, v2, 3) for _ in range(4)]
    kit = build_kit(higman_thompson(2).table, atoms(3, 2))
    sections += [section for section, _ in kit.sections[:2]]
    rover = list(rover_units().table.mapping.values())
    decorated = []
    while len(decorated) < 4:
        s = random_three_section(rng, rover, 2)
        if any(b.tail.factors for f in s.transporters for b in f.branches):
            decorated.append(s)
    sections += decorated
    for s in sections:
        for pi in sym_perms(s.degree):
            assert element(s, pi) == joined_element(s, pi)  # structurally


def test_restrict_msec():
    s = three_section()
    r = restrict_msec(s, clo("{000}"))
    assert r.base == clo("{000}")
    # idempotents are the transporter images of the restricted base
    assert r.idems == (clo("{000}"), clo("{010}"), clo("{100}"))
    for i in range(3):
        img = eval_at(s.transporters[i], (0, 0, 0))
        assert r.idems[i] == cylinder(img.prefix, 2)

    same = restrict_msec(s, s.base)
    for i in range(3):
        assert eq(same.transporters[i], s.transporters[i])

    with pytest.raises(EmptyRestriction):
        restrict_msec(s, normalize([], 2))


def test_cover_of():
    s = three_section()
    cov = cover_of(s, [clo("{000}"), clo("{001}")])
    assert len(cov.pieces) == 2
    for i in range(3):
        glued = compose(cov.pieces[0].transporters[i], one(2))
        # parent transporter is the join of the piece transporters
        from cantorfull.pmap import join

        assert eq(join([p.transporters[i] for p in cov.pieces]), s.transporters[i])

    one_piece = cover_of(s, [s.base])
    assert len(one_piece.pieces) == 1

    with pytest.raises(BadSubdivision):
        cover_of(s, [clo("{000}"), clo("{0}")])
    with pytest.raises(BadSubdivision):
        cover_of(s, [clo("{000}")])


def test_combine_degrees():
    # 3-section with f1 = {01} meets 3-section with f2 = {01} support-only there
    s1 = build(clo("{00}"), [pm(2, "00->01"), pm(2, "00->100")])
    s2 = build(clo("{01}"), [pm(2, "01->101"), pm(2, "01->110")])
    s3 = combine(s1, s2)
    assert s3.degree == 5
    # the glued base is the shared idempotent; both families appear as columns
    assert s3.base == clo("{01}")
    assert set(s3.idems) == {
        clo("{01}"),
        clo("{00}"),
        clo("{100}"),
        clo("{101}"),
        clo("{110}"),
    }
    for f in s3.transporters:
        assert eq(restrict(f, s3.base), f)


def test_combine_requires_single_overlap():
    s1 = build(clo("{00}"), [pm(2, "00->01")])
    s2 = build(clo("{10}"), [pm(2, "10->11")])
    with pytest.raises(EmptyIntersection):
        combine(s1, s2)

    s3 = build(clo("{00}"), [pm(2, "00->01"), pm(2, "00->10")])
    s4 = build(clo("{01}"), [pm(2, "01->00"), pm(2, "01->10")])
    with pytest.raises(SupportsOverlapElsewhere):
        combine(s3, s4)
    # {0} meets both {00} and {01}: two pairs, though {0} is one idempotent
    s5 = build(clo("{00}"), [pm(2, "00->01")])
    s6 = build(clo("{0}"), [pm(2, "0->10")])
    with pytest.raises(SupportsOverlapElsewhere, match="in 2 idempotent pairs"):
        combine(s5, s6)


def test_combine_contains_restrictions_of_inputs():
    s1 = build(clo("{00}"), [pm(2, "00->01"), pm(2, "00->100")])
    s2 = build(clo("{01}"), [pm(2, "01->101"), pm(2, "01->110")])
    s3 = combine(s1, s2)
    system = [
        s3.transporter_between(i, j)
        for i in range(s3.degree)
        for j in range(s3.degree)
    ]
    # restrictions of both inputs' transporters live in the combined system
    for s, pullback in ((s1, clo("{00}")), (s2, clo("{01}"))):
        for f in s.transporters:
            r = restrict(f, pullback)
            assert any(eq(r, g) for g in system)


def test_sub_section():
    base = clo("{000}")
    maps = [pm(2, f"000->{w}") for w in ("001", "010", "011", "100")]
    s5 = build(base, maps)
    s3 = sub_section(s5, (0, 2, 4))
    assert s3.degree == 3
    assert s3.idems == (s5.idems[0], s5.idems[2], s5.idems[4])
    # alt elements of the sub-section are alt elements of the parent
    pi = cycle_perm(3, [0, 1, 2])
    assert eq(element(s3, pi), element(s5, embed_subperm(pi, (0, 2, 4), 5)))
    # a sub-section based at a non-zero column
    r3 = sub_section(s5, (2, 0, 4))
    assert r3.base == s5.idems[2]
    assert r3.idems == (s5.idems[2], s5.idems[0], s5.idems[4])
    assert eq(r3.transporters[1], s5.transporter_between(2, 0))
    for pi in alt_perms(3):
        assert eq(element(r3, pi), element(s5, embed_subperm(pi, (2, 0, 4), 5)))
