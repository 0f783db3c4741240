"""Ready-made generator tables for the rooted-tree examples.

Each family is a named table of units over a fixed alphabet; the
Higman-Thompson generator choice (all swaps of disjoint cylinders up to depth
two, plus the cycle of root cylinders) is a documented fixed set, chosen for
reproducibility rather than minimality.
"""

from dataclasses import dataclass
from inspect import signature
from itertools import permutations, product
from math import factorial

from .clopen import checked_alphabet, cylinder, union_all, word_to_text
from .completion import GeneratorTable
from .errors import CantorError
from .pmap import Branch, PartialMap
from .tails import grigorchuk, state, trivial


@dataclass
class NamedFamily:
    name: str
    parameters: dict
    table: GeneratorTable
    notes: str = ""


def _swap_unit(d, u, v):
    """The unit exchanging the disjoint cylinders of u and v, fixing the rest."""
    rest = union_all([cylinder(u, d), cylinder(v, d)], d).complement()
    t = trivial(d)
    branches = [Branch(tuple(u), tuple(v), t), Branch(tuple(v), tuple(u), t)]
    branches += [Branch(w, w, t) for w in rest.antichain]
    return PartialMap(d, branches)


def _root_antichain(d, k):
    """k pairwise disjoint cylinders covering the space: repeatedly expand the
    last word; reachable sizes are exactly k = 1 mod (d-1)."""
    words = [()]
    while len(words) < k:
        last = words.pop()
        words.extend(last + (x,) for x in range(d))
    if len(words) != k:
        raise CantorError(f"no root antichain of size {k} over {d} letters")
    return words


# the swap words of higman_thompson:10, the largest default family: 10 roots,
# each with its 1 + 10 words
MAX_SWAP_WORDS = 110


def higman_thompson(d, k=None):
    """Prefix-exchange generators of the Higman-Thompson group V_{d,k}.

    The swaps range over pairs of the k * (1 + d + ... + d^rel) words below
    the roots, so more than MAX_SWAP_WORDS words are refused before any
    swap is built.
    """
    if d < 2:
        raise CantorError("alphabet size must be at least 2")
    if k is None:
        k = d
    if k < 1:
        raise CantorError("root arity must be at least 1")
    rel = 2 if k == 1 else 1
    per_root = sum(d**l for l in range(rel + 1))
    if k * per_root > MAX_SWAP_WORDS:
        raise CantorError(
            f"higman_thompson:{d}:{k} swaps {k} x {per_root} cylinder words, over {MAX_SWAP_WORDS}"
        )
    roots = _root_antichain(d, k)
    words = []
    for r in roots:
        for l in range(rel + 1):
            for w in product(range(d), repeat=l):
                words.append(r + w)
    words = sorted(set(words), key=lambda w: (len(w), w))

    mapping = {}
    if k >= 2:
        cyc = [Branch(roots[i], roots[(i + 1) % k], trivial(d)) for i in range(k)]
        mapping["cyc"] = PartialMap(d, cyc)
    seen = set(mapping.values())
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            if u[: len(v)] == v or v[: len(u)] == u:
                continue
            unit = _swap_unit(d, u, v)
            if unit not in seen:
                seen.add(unit)
                mapping[f"s{word_to_text(u)}_{word_to_text(v)}"] = unit
    table = GeneratorTable(d, mapping)
    return NamedFamily(
        "higman_thompson",
        {"d": d, "k": k},
        table,
        notes="swaps of disjoint cylinders up to depth two plus the root cycle",
    )


def grigorchuk_units():
    """The four Grigorchuk generators as units decorated on the root branch."""
    machine = grigorchuk()
    mapping = {
        name: PartialMap(2, [Branch((), (), state(machine, name))])
        for name in "abcd"
    }
    return NamedFamily(
        "grigorchuk",
        {},
        GeneratorTable(2, mapping),
        notes="first Grigorchuk group generators a, b, c, d",
    )


def rover_units():
    """Grigorchuk generators together with the Higman-Thompson table."""
    grig = grigorchuk_units()
    ht = higman_thompson(2)
    mapping = dict(grig.table.mapping)
    mapping.update(ht.table.mapping)
    return NamedFamily(
        "rover",
        {},
        GeneratorTable(2, mapping),
        notes="Grigorchuk generators adjoined to the V table",
    )


def depth_aut_units(k, d=2):
    """All units induced by letter permutations down to depth k."""
    if k < 1:
        raise CantorError("depth must be at least 1")
    nodes = [w for l in range(k) for w in product(range(d), repeat=l)]
    # sized before any permutation is listed: d! of them grow fast, and the
    # size is named as a power, which may have too many digits to print
    if factorial(d) ** len(nodes) > 20000:
        raise CantorError(
            f"depth-{k} automorphism family has {factorial(d)}^{len(nodes)} elements"
        )
    perms = list(permutations(range(d)))
    mapping = {}
    for combo in product(range(len(perms)), repeat=len(nodes)):
        assign = dict(zip(nodes, (perms[i] for i in combo)))
        branches = []
        for w in product(range(d), repeat=k):
            img = tuple(assign[w[:j]][x] for j, x in enumerate(w))
            branches.append(Branch(w, img, trivial(d)))
        unit = PartialMap(d, branches)
        mapping[f"p{len(mapping)}"] = unit
    return NamedFamily(
        "depth_aut", {"k": k, "d": d}, GeneratorTable(d, mapping),
        notes=f"letter permutations down to depth {k}",
    )


FAMILY_BUILDERS = {
    "higman_thompson": higman_thompson,
    "grigorchuk": grigorchuk_units,
    "rover": rover_units,
    "depth_aut": depth_aut_units,
}


def family_by_name(spec):
    """Family from a CLI-style spec like "higman_thompson:2" or "grigorchuk".

    The alphabet, the parameter d (2 for a builder without one), is checked
    to print as digit strings before anything is built.
    """
    name, *params = spec.split(":")
    if name not in FAMILY_BUILDERS:
        raise CantorError(f"unknown family {name!r}")
    builder = FAMILY_BUILDERS[name]
    try:
        args = [int(x) for x in params]
        bound = signature(builder).bind(*args)
    except (TypeError, ValueError):
        raise CantorError(f"bad parameters {params} for family {name!r}") from None
    bound.apply_defaults()
    checked_alphabet(bound.arguments.get("d", 2))
    return builder(*args)
