"""Library calls refuse bad input with a named error before doing any work.

Each case calls one public function with an input it must refuse, as a
library user would, and checks the error's class and message exactly.  Most
of these inputs cannot come from a cfl command, which refuses them earlier.
"""

import pytest

from cantorfull import dynamics, factor, families, kit, msec, pmap, tails
from cantorfull.clopen import atoms, cylinder, empty, is_partition
from cantorfull.dynamics import DynContext
from cantorfull.errors import (
    AlphabetMismatch,
    BadSubdivision,
    CantorError,
    DomainMismatch,
    EmptyRestriction,
    NotInAlt,
    ParseError,
)
from cantorfull.parser import Parser

from oracles import pm


def v2_ctx():
    return DynContext(families.higman_thompson(2).table)


def section():
    """The degree-3 multisection on {00} of the README's msec element."""
    return msec.build(cylinder((0, 0), 2), [pm(2, "00->01"), pm(2, "00->10")])


def halves():
    """The degree-3 multisection above, covered by the halves of its base."""
    return msec.cover_of(section(), [cylinder((0, 0, 0), 2), cylinder((0, 0, 1), 2)])


def mealy(transition, output):
    return lambda: tails.MealyMachine("m", 2, transition, output)


# the parts {0} and {00} overlap, and miss {1}
NOT_A_PARTITION = [cylinder((0,), 2), cylinder((0, 0), 2)]
# a permutation of four depth-2 words over 0 and 1, one of them 15: every
# word keeps its first letter's image, but below 0 the letters 0 and 1 go to
# 5 and 0
STRAY_LETTER = {(0, 0): (1, 5), (0, 1): (1, 0), (1, 0): (0, 0), (1, 5): (0, 1)}

CASES = {
    "orbit_lower_bound k=0": (
        lambda: dynamics.orbit_lower_bound(v2_ctx(), (0,), 0, 2),
        CantorError, "k must be positive",
    ),
    "expansive_certificate non-partition": (
        lambda: dynamics.expansive_certificate(v2_ctx(), NOT_A_PARTITION, 2, 2),
        CantorError, "translate certificate needs a partition",
    ),
    "rigid_parts non-partition": (
        lambda: dynamics.rigid_parts(pmap.one(2), NOT_A_PARTITION),
        CantorError, "rigid decomposition needs a partition",
    ),
    "element wrong permutation length": (
        lambda: msec.element(section(), (1, 0)),
        CantorError, "permutation of length 2 for degree 3",
    ),
    "restrict_msec outside the base": (
        lambda: msec.restrict_msec(section(), cylinder((1,), 2)),
        EmptyRestriction, "{1} is not below the base {00}",
    ),
    "cover_of empty part": (
        lambda: msec.cover_of(section(), [cylinder((0, 0), 2), empty(2)]),
        BadSubdivision, "part 1 is empty",
    ),
    "Multisection empty base": (
        lambda: msec.Multisection(empty(2), [pmap.zero(2)]),
        EmptyRestriction, "multisection base is empty",
    ),
    "Multisection first transporter not the identity": (
        lambda: msec.Multisection(cylinder((0, 0), 2), [pm(2, "00->01")]),
        DomainMismatch, "first transporter must be the identity on the base",
    ),
    "join of no elements": (
        lambda: pmap.join([]),
        CantorError, "join of no elements has no context",
    ),
    "tails.state unknown state": (
        lambda: tails.state(tails.adding_machine(2), "z"),
        CantorError, "z is not a state of adding",
    ),
    "higman_thompson(1)": (
        lambda: families.higman_thompson(1),
        CantorError, "alphabet size must be at least 2",
    ),
    "higman_thompson(2, 0)": (
        lambda: families.higman_thompson(2, 0),
        CantorError, "root arity must be at least 1",
    ),
    "depth_aut_units(0)": (
        lambda: families.depth_aut_units(0),
        CantorError, "depth must be at least 1",
    ),
    # an even permutation whose element is not the given target
    "express target not the witness element": (
        lambda: kit.express(
            pmap.one(2), kit.build_kit(families.higman_thompson(2).table, atoms(3, 2)), section(), (1, 2, 0)
        ),
        NotInAlt, "target does not match the witnessing multisection element",
    ),
    "factor_over_cover target not the parent element": (
        lambda: factor.factor_over_cover(pmap.one(2), (1, 2, 0), halves()),
        NotInAlt, "target is not the parent element of the supplied permutation",
    ),
    "MealyMachine output not a permutation": (
        mealy({"a": ("a", "a")}, {"a": (0, 0)}),
        CantorError, "output of state a is not a permutation",
    ),
    "MealyMachine short transition row": (
        mealy({"a": ("a",)}, {"a": (1, 0)}),
        CantorError, "transition of state a is not total",
    ),
    "MealyMachine unknown target state": (
        mealy({"a": ("a", "b")}, {"a": (1, 0)}),
        CantorError, "transition target b is not a state",
    ),
    "depth_perm empty assignment": (
        lambda: tails.depth_perm(1, {}),
        CantorError, "empty assignment needs an explicit alphabet size",
    ),
    "depth_perm wrong size": (
        lambda: tails.depth_perm(1, {(0,): (1,)}, d=2),
        CantorError, "assignment must permute all 2**1 depth-1 words",
    ),
    "depth_perm not a permutation": (
        lambda: tails.depth_perm(1, {(0,): (1,), (1,): (1,)}),
        CantorError, "assignment is not a permutation",
    ),
    "depth_perm letters not permuted": (
        lambda: tails.depth_perm(2, STRAY_LETTER, d=2),
        CantorError, "letters below (0,) are not permuted",
    ),
    "is_partition mixed alphabets": (
        lambda: is_partition([cylinder((0,), 2), cylinder((1,), 3)]),
        AlphabetMismatch, "mixed alphabets in partition",
    ),
    "PartialMap tail over another alphabet": (
        lambda: pmap.PartialMap(2, [pmap.Branch((0,), (1,), tails.trivial(3))]),
        AlphabetMismatch, "tail alphabet 3 in context 2",
    ),
    "TailElement machine over another alphabet": (
        lambda: tails.TailElement(3, [(tails.adding_machine(2), "a", 1)]),
        AlphabetMismatch, "machine adding has alphabet 2, not 3",
    ),
    "tails.compose over two alphabets": (
        lambda: tails.compose(tails.trivial(2), tails.trivial(3)),
        AlphabetMismatch, "alphabet 2 vs 3",
    ),
    "parser unknown tail state": (
        lambda: Parser(2).parse_element("[0->1:zz]"),
        ParseError, "line 1, col 7: expected a registered machine state (got 'zz')",
    ),
    "parser tail factor not a name": (
        lambda: Parser(2).parse_element("[0->1,\n 1->0:2]"),
        ParseError, "line 2, col 7: expected a tail factor name or 1",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_library_call_refuses_bad_input(case):
    call, error, message = CASES[case]
    with pytest.raises(CantorError) as raised:
        call()
    assert (type(raised.value), str(raised.value)) == (error, message)

