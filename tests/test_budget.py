"""Every bounded search spends one node budget the same way: a Witness never
reports more nodes than its budget, and a run-out stops at the first node
over it with the detail "node budget".  A search whose bounds have no
node_budget counts its nodes through the same Budget and never runs out."""

import json
import random

import pytest

from cantorfull import kit as kit_module
from cantorfull.certs import DEFAULT_NODE_BUDGET, Budget, GiveUp
from cantorfull.cli import main
from cantorfull.clopen import atoms, normalize, union_all
from cantorfull.completion import piecewise_member
from cantorfull.dynamics import (
    DynContext,
    compress_search,
    expansive_certificate,
    minimal_certificate,
    orbit_lower_bound,
    split_unit,
)
from cantorfull.factor import factor_over_cover
from cantorfull.families import higman_thompson, rover_units
from cantorfull.kit import build_kit, express
from cantorfull.msec import build, cycle_perm, element, extend_degree, overlapping_cover
from cantorfull.pmap import compose, restrict

from oracles import clo, pm
from test_msec import random_three_section

FAM = higman_thompson(2)
PI3 = cycle_perm(3, [0, 1, 2])
README_KIT_ARGS = ("--gens", "higman_thompson:2", "--partition", "atoms:3")
README_MSEC = "msec({0000}; s00_01@{0000}, s00_10@{0000})"


@pytest.fixture(scope="module")
def kit():
    return build_kit(FAM.table, atoms(3, 2))


def searched_three_cycle():
    """A 3-section on a depth-4 cylinder that no kit section contains."""
    return random_three_section(random.Random(2), list(FAM.table.mapping.values()), 4)


def contained_three_cycle():
    """The README's 3-section, which a kit section contains."""
    c = clo("{0000}")
    return build(c, [restrict(FAM.table["s00_01"], c), restrict(FAM.table["s00_10"], c)])


def five_section():
    return build(clo("{000}"), [pm(2, f"000->{w}") for w in ("001", "010", "011", "100")])


def extendable_three_section():
    return build(clo("{00}"), [pm(2, "00->01"), pm(2, "00->10")])


def budgeted_searches(kit, node_budget):
    """(name, certificate) for each search that takes node_budget."""
    searched, contained = searched_three_cycle(), contained_three_cycle()
    s5 = five_section()
    pi5 = (1, 2, 0, 3, 4)
    overlapping = overlapping_cover(s5, [clo("{0000, 00010}"), clo("{0001}")])
    table = FAM.table
    return [
        ("express searched", express(element(searched, PI3), kit, searched, PI3,
                                     node_budget=node_budget)),
        ("express contained", express(element(contained, PI3), kit, contained, PI3,
                                      node_budget=node_budget)),
        ("extend_degree", extend_degree(extendable_three_section(), table,
                                        node_budget=node_budget)),
        ("piecewise_member", piecewise_member(
            compose(table["s00_01"], table["s00_10"]), table, 2, 2, node_budget=node_budget)),
        ("orbit_lower_bound", orbit_lower_bound(
            DynContext(table), (0,), 5, 4, node_budget=node_budget)),
        ("factor_over_cover", factor_over_cover(
            element(s5, pi5), pi5, overlapping, node_budget=node_budget)),
    ]


@pytest.mark.parametrize("node_budget", [1, 3, 50, 400, DEFAULT_NODE_BUDGET])
def test_budget_contract(kit, node_budget):
    statuses = {}
    for name, cert in budgeted_searches(kit, node_budget):
        assert cert.bounds["node_budget"] == node_budget, name
        if cert.is_witness():
            assert cert.nodes_explored <= node_budget, name
        else:
            assert cert.is_exhausted(), name
            assert cert.detail == "node budget", (name, cert.detail)
            assert cert.nodes_explored == node_budget + 1, name
        statuses[name] = cert.status
    # both sides of the contract are exercised: at budget 1 only the
    # kit-section lookup answers, at the default every search does
    witnesses = [name for name, status in statuses.items() if status == "witness"]
    if node_budget == 1:
        assert witnesses == ["express contained"]
    if node_budget == DEFAULT_NODE_BUDGET:
        assert witnesses == list(statuses)


def test_fixed_search_bounds_are_echoed(kit):
    # express searches transporter words up to length 6, and
    # extend_degree splits a piece at most 3 letters below the base; neither
    # bound is a parameter, and every certificate reports both as before
    contained = contained_three_cycle()
    found = [
        express(element(contained, PI3), kit, contained, PI3, node_budget=1),
        extend_degree(extendable_three_section(), FAM.table, node_budget=1),
    ]
    assert [cert.bounds for cert in found] == [
        {"word_len": 6, "node_budget": 1},
        {"word_len": 3, "split_depth": 3, "node_budget": 1},
    ]


def test_kit_section_lookup_spends_no_nodes(capsys):
    code = main(["genkit", "express", *README_KIT_ARGS, "--msec", README_MSEC,
                 "--perm", "1,2,0", "--budget", "3", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["status"] == "witness"
    assert payload["nodes_explored"] == 0


def test_run_out_is_not_retried_on_a_subdivision():
    # a kit of its own: the module's kit already holds the section this
    # 3-cycle needs, built at its base by an earlier search, and would
    # answer it by lookup.  Nodes 1-6 find the first transporter's word, so
    # node 4 runs out inside that search; a retry on a subdivision would
    # spend past it
    n = searched_three_cycle()
    cert = express(element(n, PI3), build_kit(FAM.table, atoms(3, 2)), n, PI3, node_budget=3)
    assert cert.is_exhausted()
    assert cert.detail == "node budget"
    assert cert.nodes_explored == 4


def test_cover_word_stops_at_the_first_letter_over_budget():
    # ten pieces {c0, ci} over depth-7 cells that all share c0, so every set
    # of them meets and the meet words grow fourfold with the set's size
    s5 = five_section()
    cells = [(0, 0, 0) + tuple(int(x) for x in f"{i:04b}") for i in range(11)]
    pieces = [normalize([cells[0], cells[i]], 2) for i in range(1, 11)]
    pieces.append(s5.base.meet(union_all(pieces, 2).complement()))
    pi = (1, 2, 0, 3, 4)
    cert = factor_over_cover(element(s5, pi), pi, overlapping_cover(s5, pieces), node_budget=1000)
    assert cert.is_exhausted()
    assert cert.detail == "node budget"
    assert cert.nodes_explored == 1001


def test_orbit_subset_search_spends_the_budget():
    # no 14 images of {0} under V2 words of length <= 3 are pairwise
    # disjoint, and the subset search examines about four million candidates
    # before it says so; each candidate is a node, so the budget stops it
    cert = orbit_lower_bound(DynContext(FAM.table), (0,), 14, 3, node_budget=10_000)
    assert cert.is_exhausted()
    assert cert.detail == "node budget"
    assert cert.nodes_explored == 10_001


def test_budget_stops_at_the_first_node_over_its_limit():
    budget = Budget({"node_budget": 3})
    for _ in range(3):
        budget.tick()
    assert not budget.spent
    with pytest.raises(GiveUp, match="node budget"):
        budget.tick()
    assert budget.spent
    cert = budget.exhausted("node budget")
    assert (cert.nodes_explored, cert.bounds, cert.detail) == (4, {"node_budget": 3}, "node budget")


def test_run_out_inside_the_first_word_search():
    # the first transporter's cylinder search spends nodes 1-6, one per hit
    # it reads; a limit inside it stops at the first node over it
    n = searched_three_cycle()
    cert = express(element(n, PI3), build_kit(FAM.table, atoms(3, 2)), n, PI3, node_budget=5)
    assert cert.is_exhausted()
    assert (cert.detail, cert.nodes_explored) == ("node budget", 6)


def test_express_spends_one_node_per_step_read_and_per_factoring(monkeypatch):
    # nodes_explored counts the work: each cylinder step the word searches
    # read from the kit's domain index, and each word factored at the base
    read, factored = [], []
    honest_steps = kit_module.GeneratingKit.cylinder_steps
    honest_factored = kit_module._factored_for_word

    def cylinder_steps(self, w, backward):
        for hit in honest_steps(self, w, backward):
            read.append(hit)
            yield hit

    def factored_for_word(kit, word, c, budget):
        factored.append(word)
        return honest_factored(kit, word, c, budget)

    monkeypatch.setattr(kit_module.GeneratingKit, "cylinder_steps", cylinder_steps)
    monkeypatch.setattr(kit_module, "_factored_for_word", factored_for_word)
    for fam in (FAM, rover_units()):
        kit = build_kit(fam.table, atoms(3, 2))
        units = list(fam.table.mapping.values())
        for seed in range(6):
            n = random_three_section(random.Random(seed), units, 4)
            del read[:], factored[:]
            cert = express(element(n, PI3), kit, n, PI3)
            assert cert.is_witness(), cert.detail
            assert cert.nodes_explored == len(read) + len(factored)


def test_budget_without_a_limit_never_runs_out():
    budget = Budget({"word_len": 2})
    for _ in range(10**6):
        budget.tick()
    assert not budget.spent
    assert budget.witness(None).nodes_explored == 10**6


def test_unlimited_searches_report_the_same_nodes_and_bounds():
    # the counts the dynamics searches reported before they spent through
    # Budget, one case per status each search can return
    ctx = DynContext(FAM.table)
    cyc = FAM.table["cyc"]
    cases = [
        (expansive_certificate(ctx, atoms(1, 2), 3, 4), "witness", {"depth": 3, "word_len": 4}, 46),
        (expansive_certificate(ctx, atoms(1, 2), 3, 1), "refuted_at_bound",
         {"depth": 3, "word_len": 1}, 14),
        (minimal_certificate(ctx, 2, 3), "witness", {"depth": 2, "word_len": 3}, 4),
        (minimal_certificate(ctx, 2, 0), "refuted_at_bound", {"depth": 2, "word_len": 0}, 1),
        (compress_search(ctx, clo("{0}"), clo("{1}"), 2), "witness", {"word_len": 2}, 3),
        (compress_search(ctx, clo("{0}"), clo("{00}"), 0), "exhausted_at_bound",
         {"word_len": 0}, 1),
        (split_unit(cyc), "witness", {"max_depth": 6}, 3),
        (split_unit(cyc, max_depth=1), "exhausted_at_bound", {"max_depth": 1}, 0),
    ]
    for cert, status, bounds, nodes in cases:
        assert (cert.status, cert.bounds, cert.nodes_explored, cert.detail) == (
            status, bounds, nodes, ""
        )
