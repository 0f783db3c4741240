"""Library calls refuse bad input with a named error before doing any work.

Each case calls one public function with an input it must refuse, as a
library user would, and checks the error's class and message exactly.  Most
of these inputs cannot come from a cfl command, which refuses them earlier.
"""

import pytest

from cantorfull import dynamics, families, msec, pmap, tails
from cantorfull.clopen import cylinder, empty
from cantorfull.dynamics import DynContext
from cantorfull.errors import BadSubdivision, CantorError, DomainMismatch, EmptyRestriction

from oracles import pm


def v2_ctx():
    return DynContext(families.higman_thompson(2).table)


def section():
    """The degree-3 multisection on {00} of the README's msec element."""
    return msec.build(cylinder((0, 0), 2), [pm(2, "00->01"), pm(2, "00->10")])


# the parts {0} and {00} overlap, and miss {1}
NOT_A_PARTITION = [cylinder((0,), 2), cylinder((0, 0), 2)]

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
}


@pytest.mark.parametrize("case", list(CASES))
def test_library_call_refuses_bad_input(case):
    call, error, message = CASES[case]
    with pytest.raises(CantorError) as raised:
        call()
    assert (type(raised.value), str(raised.value)) == (error, message)

