import pytest

from cantorfull import families
from cantorfull.clopen import full
from cantorfull.errors import CantorError
from cantorfull.families import (
    depth_aut_units,
    family_by_name,
    grigorchuk_units,
    higman_thompson,
    rover_units,
)
from cantorfull.pmap import PartialMap, compose, eq, is_unit, one, star

from oracles import clo, pm


def test_higman_thompson_table_members():
    fam = higman_thompson(2)
    units = list(fam.table.mapping.values())
    assert any(eq(u, pm(2, "0->1", "1->0")) for u in units)
    assert any(eq(u, pm(2, "00->01", "01->00", "1->1")) for u in units)
    # swaps with unequal prefix depths are present (these make the group V)
    assert any(eq(u, pm(2, "0->10", "10->0", "11->11")) for u in units)


def test_higman_thompson_all_units_and_symmetric():
    fam = higman_thompson(2)
    units = list(fam.table.mapping.values())
    assert len(units) == 11
    for u in units:
        assert is_unit(u)
        assert any(eq(star(u), v) for v in units)


def test_higman_thompson_d3():
    fam = higman_thompson(3)
    units = list(fam.table.mapping.values())
    for u in units:
        assert is_unit(u)
    cyc = fam.table["cyc"]
    assert eq(compose(cyc, compose(cyc, cyc)), one(3))


def test_higman_thompson_k_must_fit():
    with pytest.raises(CantorError):
        higman_thompson(3, 2)
    fam = higman_thompson(3, 5)
    assert len({str(u) for u in fam.table.mapping}) == len(fam.table.mapping)


def test_higman_thompson_is_sized_before_it_is_built(monkeypatch):
    # higman_thompson:10 swaps pairs of its 10 x 11 = 110 words, the most
    # allowed; the count comes from d and k alone, so nothing is built first
    class Built(Exception):
        pass

    def built(d, k):
        raise Built

    monkeypatch.setattr(families, "_root_antichain", built)
    for d, k in ((10, 10), (2, 36), (9, 1)):
        with pytest.raises(Built):
            higman_thompson(d, k)
    for d, k, per_root in ((2, 37, 3), (10, 1, 111), (3, 10**9, 4)):
        with pytest.raises(CantorError, match=f"higman_thompson:{d}:{k} swaps {k} x {per_root} "):
            higman_thompson(d, k)
    with pytest.raises(CantorError, match="over 110"):
        family_by_name("higman_thompson:2:1000")


def test_higman_thompson_dedups_without_pairwise_comparison(monkeypatch):
    # each new swap is looked up once, not compared with every unit kept so
    # far (340,725 comparisons for d = 6 when it was)
    calls = []
    honest = PartialMap.__eq__
    monkeypatch.setattr(
        PartialMap, "__eq__", lambda self, other: calls.append(1) or honest(self, other)
    )
    fam = higman_thompson(6)
    assert len(fam.table) == 826
    assert len(calls) < 2000


def test_grigorchuk_relations():
    fam = grigorchuk_units()
    a, b, c, d = (fam.table[x] for x in "abcd")
    for g in (a, b, c, d):
        assert is_unit(g)
        assert eq(compose(g, g), one(2))
    assert eq(compose(b, compose(c, d)), one(2))


def test_rover_table():
    fam = rover_units()
    assert len(fam.table) == 4 + len(higman_thompson(2).table)
    for u in fam.table.mapping.values():
        assert is_unit(u)


def test_depth_aut_units():
    fam = depth_aut_units(1)
    units = list(fam.table.mapping.values())
    assert len(units) == 2
    assert any(eq(u, one(2)) for u in units)
    assert any(eq(u, pm(2, "0->1", "1->0")) for u in units)
    fam2 = depth_aut_units(2)
    assert len(fam2.table) == 8


def test_depth_aut_units_refuses_before_listing_permutations(monkeypatch):
    def unlisted(*args):
        raise AssertionError("permutations listed before the size check")

    monkeypatch.setattr(families, "permutations", unlisted)
    with pytest.raises(CantorError):
        depth_aut_units(1, 11)
    # 2^16383 elements: a size too long to print in decimal
    with pytest.raises(CantorError, match=r"2\^16383"):
        depth_aut_units(14)


def test_family_by_name():
    fam = family_by_name("higman_thompson:2")
    assert fam.parameters == {"d": 2, "k": 2}
    assert family_by_name("grigorchuk").name == "grigorchuk"
    with pytest.raises(CantorError):
        family_by_name("nonsense")


def test_family_notes_certificates():
    # the advertised dynamics certificates for the V table hold
    from cantorfull.clopen import atoms
    from cantorfull.dynamics import DynContext, expansive_certificate, minimal_certificate

    ctx = DynContext(higman_thompson(2).table)
    assert minimal_certificate(ctx, depth=2, word_len=3).is_witness()
    assert expansive_certificate(ctx, atoms(1, 2), depth=3, word_len=4).is_witness()
