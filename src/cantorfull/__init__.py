"""Exact computation in the Boolean inverse monoid of clopen partial
homeomorphisms of the Cantor space, with multisection constructions and
finite-depth dynamical certificates."""

from . import certs, clopen, completion, dynamics, factor, families, kit, msec, parser, pmap, tails
from .certs import Certificate, EXHAUSTED, REFUTED, WITNESS
from .clopen import Clopen, atoms, cylinder, is_partition, normalize
from .completion import (
    GeneratorTable,
    bi_enumerate,
    evaluate,
    piecewise_member,
)
from .dynamics import (
    DynContext,
    compress_search,
    expansive_certificate,
    fully_compressible_sample,
    minimal_certificate,
    orbit_lower_bound,
    rigid_parts,
    split_unit,
    subshift_code,
)
from .factor import factor_over_cover
from .families import (
    depth_aut_units,
    family_by_name,
    grigorchuk_units,
    higman_thompson,
    rover_units,
)
from .kit import (
    GeneratingKit,
    build_kit,
    express,
    verify_separating,
)
from .msec import (
    Cover,
    Multisection,
    build,
    combine,
    cover_of,
    element,
    extend_degree,
    restrict_msec,
)
from .parser import Parser, element_to_text, expr_to_text
from .pmap import (
    Branch,
    PartialMap,
    as_idempotent,
    compatible,
    compose,
    disjoint,
    dom,
    eq,
    eval_at,
    is_idempotent,
    is_unit,
    join,
    leq,
    one,
    ran,
    restrict,
    star,
    zero,
)
from .tails import (
    MealyMachine,
    TailElement,
    adding_machine,
    apply_prefix,
    depth_perm,
    grigorchuk,
    is_identity,
    trivial,
)
