"""The four benchmark workloads: set-up, seeded inputs and per-operation checks.

A workload's `setup()` builds everything a user pays for once (tables,
DynContexts, kits).  `cycles(state, rng)` yields cycles of operations
forever; the runner times each operation's `call()` and runs its
`check(result)` outside the timed region.  Inputs are generated outside the
timed region too, and come only from the seeded `rng`.

A run does a fixed number of whole cycles, `cycles_per_s` times its
`--seconds`, so one seed gives the same operations, and the same failures,
however fast the machine or the program runs.  `cycles_per_s` was set at the
seed on the 2-core tuning machine (Python 3.11), at its usual speed (speed
probe about 12 ms), so that the timed operations take about `--seconds`.
"""

import contextlib
import io
import json
from itertools import product

import oracle
from oracle import Element, Table, chains_agree, fixes, parse_antichain, parse_table


class Defect:
    """A recorded defect of the program: failures of one operation kind for
    one reason ("wrong" or "exhausted").  They count as failed operations.
    The run stays correct while they are at most `cap` of that kind's
    operations, a share well above the most seen in one run at the seed;
    every other failure makes the run incorrect.
    """

    def __init__(self, name, reason, cap):
        self.name = name
        self.reason = reason
        self.cap = cap


# ROADMAP item 1: depth_perm names every depth-k machine depthperm{k}, and eq
# compares machines by name; at the seed 58-68 % of these verdicts per run
# were wrong
SAME_NAMED_MACHINES = Defect("same-named depth_perm machines", "wrong", cap=0.85)
# kit.express gives up (ExhaustedAtBound, with one of several details) on
# some searched 3-cycles: at the seed about 1 % of them, at most 1 in a run
EXPRESS_GIVES_UP = Defect("express gives up", "exhausted", cap=0.15)


class Op:
    """One top-level library or CLI call that returns a verdict or certificate.

    `defect` is the recorded Defect that this operation kind may show, if any.
    """

    __slots__ = ("kind", "call", "check", "defect")

    def __init__(self, kind, call, check, defect=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.defect = defect


def _witness(cert):
    return cert.status == "witness"


# -- split-v2 -------------------------------------------------------------------


class SplitV2:
    """dynamics.split_unit on random V2 words of length 1-4 (the criterion-09
    generator), with word bound 2.

    With the default bound 4, a call either splits early (about 10 ms) or
    first walks the whole 2,570-word ball (about 1 s); the median then falls
    between the two modes and jumps from seed to seed.  With bound 2 the
    times are unimodal and no call was seen to fail.
    """

    name = "split-v2"
    tail_percentile = 95
    cycles_per_s = 50
    word_len = 2

    def setup(self):
        from cantorfull import dynamics, families

        fam = families.higman_thompson(2)
        ctx = dynamics.DynContext(fam.table)
        return {"ctx": ctx, "units": list(fam.table.mapping.values())}

    def cycles(self, state, rng):
        from cantorfull import dynamics
        from cantorfull.pmap import compose, eq, one

        ctx, units = state["ctx"], state["units"]
        identity = one(2)
        while True:
            g = identity
            for _ in range(rng.randrange(1, 5)):
                g = compose(g, units[rng.randrange(len(units))])
            if eq(g, identity):
                continue
            yield [Op("split_unit",
                      lambda g=g: dynamics.split_unit(g, ctx, word_len=self.word_len),
                      lambda cert, g=g: _check_split(g, cert))]


def _check_split(g, cert):
    if not _witness(cert):
        return False
    w = cert.witness
    g1, g2 = Table.of(w["g1"]), Table.of(w["g2"])
    fixed1 = [tuple(u) for u in w["fixed1"].antichain]
    fixed2 = [tuple(u) for u in w["fixed2"].antichain]
    return (
        bool(fixed1) and bool(fixed2)
        and chains_agree([g2, g1], [Table.of(g)], 2)
        and fixes(g1, fixed1, 2)
        and fixes(g2, fixed2, 2)
    )


# -- kit-express ----------------------------------------------------------------


class KitExpress:
    """kit.express on criterion-07 3-cycles over build_kit(V2, atoms:3).

    About a third of random criterion-07 3-cycles are already contained in a
    kit section (same base, every idempotent one of the section's); express
    then answers by lookup in milliseconds instead of searching for half a
    second.  Left to chance, that share swings the median from seed to seed,
    so each cycle fixes it: three searched 3-cycles (base depths 4, 4, 5 as
    in criterion 07) and one contained one.
    """

    name = "kit-express"
    tail_percentile = 75
    cycles_per_s = 0.8
    pattern = (("search", 4), ("search", 4), ("contained", 4), ("search", 5))

    def setup(self):
        from cantorfull import clopen, families, kit

        fam = families.higman_thompson(2)
        built = kit.build_kit(fam.table, clopen.atoms(3, 2))
        return {"kit": built, "units": list(fam.table.mapping.values())}

    def cycles(self, state, rng):
        while True:
            yield self._cycle(state, rng)

    def _cycle(self, state, rng):
        """The cycle's operations, each generated just before it runs, so
        that containment is judged against the kit as it is then."""
        from cantorfull import kit, msec

        built = state["kit"]
        pi = msec.cycle_perm(3, [0, 1, 2])
        for kind, depth in self.pattern:
            while True:
                n = self._three_cycle_msec(state["units"], depth, rng)
                if _contained(built, n) == (kind == "contained"):
                    break
            target = msec.element(n, pi)
            yield Op(
                f"express-{kind}",
                lambda t=target, n=n: kit.express(t, built, n, pi, node_budget=100_000),
                lambda cert, n=n: self._check_word(built, cert, [Element.of(n.transporters, pi)]),
                defect=EXPRESS_GIVES_UP if kind == "search" else None,
            )

    @staticmethod
    def _three_cycle_msec(units, depth, rng):
        """The criterion-07 sampler (which draws the depth from 4, 4, 5) at a
        given base depth: a 3-section on a random cylinder."""
        from cantorfull.clopen import cylinder
        from cantorfull.msec import build
        from cantorfull.pmap import compose, ran, restrict

        while True:
            c = cylinder(tuple(rng.randrange(2) for _ in range(depth)), 2)
            maps, images = [], [c]
            for _ in range(2):
                m = units[rng.randrange(len(units))]
                if rng.random() < 0.6:
                    m = compose(m, units[rng.randrange(len(units))])
                r = restrict(m, c)
                img = ran(r)
                if any(not img.meet(x).is_empty() for x in images):
                    break
                maps.append(r)
                images.append(img)
            if len(maps) == 2:
                return build(c, maps)

    @staticmethod
    def _check_word(built, cert, target_chain):
        if not _witness(cert):
            return False
        steps = [Element.of(built.sections[idx][0].transporters, tuple(perm))
                 for idx, perm in reversed(cert.witness["word"])]
        return chains_agree(steps, target_chain, 2)


def _contained(built, n):
    """True iff a kit section has n's base and all of n's idempotents."""
    for section, _ in built.sections:
        if section.base == n.base and all(e in section.idems for e in n.idems):
            return True
    return False


# -- automaton ------------------------------------------------------------------

RELATORS = ("a*a", "b*b", "c*c", "d*d", "b*c*d", "a*d*a*d*a*d*a*d")


class Automaton:
    """Mealy-machine tails: Grigorchuk word problems, depth_perm squares,
    rover dynamics and small completion searches."""

    name = "automaton"
    tail_percentile = 95
    cycles_per_s = 19
    check_depth = 4

    def setup(self):
        from cantorfull import dynamics, families

        rover = families.rover_units()
        grig = families.grigorchuk_units()
        return {
            "ctx": dynamics.DynContext(rover.table),
            "grig": grig.table,
            "machine": grig.table["a"].branches[0].tail.factors[0][0],
        }

    def cycles(self, state, rng):
        # search sizes alternate between cycles instead of being drawn, so
        # every run has the same mix of small and large searches
        parity = 0
        while True:
            cycle = []
            # two rounds of the cheap word problems, so that cheap operations
            # are well over half of each cycle and the median lies inside
            # their times rather than in the gap above them
            cycle += self._word_problems(state, rng) + self._word_problems(state, rng)
            cycle += self._depth_perm_squares(rng, 2 + parity)
            cycle += self._searches(state, rng, parity)
            yield cycle
            parity = 1 - parity

    # Grigorchuk word problems with verdicts known by construction

    def _word_problems(self, state, rng):
        from cantorfull import pmap, tails
        from cantorfull.pmap import Branch, PartialMap
        from cantorfull.tails import TailElement

        m = state["machine"]

        def word(n):
            return [(m, rng.choice("abcd"), 1) for _ in range(n)]

        def relator():
            return [(m, s, 1) for s in rng.choice(RELATORS).split("*")]

        def unit(factors):
            return PartialMap(2, [Branch((), (), TailElement(2, factors))])

        def inverse(factors):
            return [(mm, s, -e) for mm, s, e in reversed(factors)]

        ops = []
        w = word(rng.randrange(4, 11))
        cut = rng.randrange(len(w) + 1)
        x, y = unit(w), unit(w[:cut] + relator() + w[cut:])
        ops.append(Op("grig-eq", lambda x=x, y=y: pmap.eq(x, y), lambda r: r is True))
        w = word(rng.randrange(4, 11))
        x, y = unit(w), unit(w + [(m, "a", 1)])
        ops.append(Op("grig-eq", lambda x=x, y=y: pmap.eq(x, y), lambda r: r is False))
        w = word(rng.randrange(3, 9))
        t = TailElement(2, w + relator() + inverse(w))
        ops.append(Op("grig-is-identity", lambda t=t: tails.is_identity(t), lambda r: r is True))
        w = word(rng.randrange(3, 9))
        t = TailElement(2, w + [(m, "a", 1)] + inverse(w))
        ops.append(Op("grig-is-identity", lambda t=t: tails.is_identity(t), lambda r: r is False))
        return ops

    # depth_perm squares with the default machine name (a recorded defect)

    def _depth_perm_squares(self, rng, k):
        from cantorfull import pmap
        from cantorfull.pmap import Branch, PartialMap
        from cantorfull.tails import TailElement, depth_perm

        s, t = depth_perm(k, _random_tree_perm(rng, k)), depth_perm(k, _random_tree_perm(rng, k))
        x = PartialMap(2, [Branch((), (), TailElement(2, s.factors * 2))])
        y = PartialMap(2, [Branch((), (), TailElement(2, t.factors * 2))])
        truth = all(
            oracle.tail_walk(s.factors * 2, w) == oracle.tail_walk(t.factors * 2, w)
            for w in oracle.words_at(2, k)
        )
        return [Op("depth-perm-square-eq", lambda: pmap.eq(x, y),
                   lambda r: r is truth, defect=SAME_NAMED_MACHINES)]

    # searches over the rover and Grigorchuk tables

    def _searches(self, state, rng, parity):
        from cantorfull import completion, dynamics
        from cantorfull.clopen import atoms
        from cantorfull.pmap import Branch, PartialMap
        from cantorfull.tails import TailElement

        ctx, grig, m = state["ctx"], state["grig"], state["machine"]
        ops = []
        u = tuple(rng.randrange(2) for _ in range(2 + parity))
        k = 3 + parity
        ops.append(Op(
            "orbit_lower_bound",
            lambda: dynamics.orbit_lower_bound(ctx, u, k, word_len=2),
            lambda cert: _check_orbit(ctx, u, k, cert),
        ))
        depth = 2 + parity
        ops.append(Op(
            "expansive_certificate",
            lambda: dynamics.expansive_certificate(ctx, atoms(1, 2), depth=depth, word_len=3),
            lambda cert: _witness(cert)
            and cert.witness["word_len"] == _expansive_truth(state, lambda: ctx.table, depth, 3),
        ))
        arity = 1 + parity
        ops.append(Op(
            "bi_enumerate",
            lambda: list(completion.bi_enumerate(grig, 1, arity, 1)),
            lambda rows: bool(rows) and all(
                _expression_matches(expr, elem, grig, self.check_depth) for elem, expr in rows
            ),
        ))
        h = PartialMap(2, [Branch((), (), TailElement(
            2, [(m, rng.choice("abcd"), 1) for _ in range(1 + parity)]))])
        ops.append(Op(
            "piecewise_member",
            lambda: completion.piecewise_member(h, grig, word_len=2, depth=1),
            lambda cert: _witness(cert) and _expression_matches(cert.witness, h, grig, self.check_depth),
        ))
        return ops


def _random_tree_perm(rng, k):
    """A random letter permutation at every node above depth k, as a word map."""
    swap = {w: rng.random() < 0.5 for j in range(k) for w in product(range(2), repeat=j)}
    return {
        w: tuple(x ^ swap[w[:j]] for j, x in enumerate(w))
        for w in product(range(2), repeat=k)
    }


def _unit_steps(table):
    """Pointwise steps for a generator table's unit names, stars included."""
    steps = {}
    for name, m in table.items():
        steps[name] = Table.of(m)
        steps[f"{name}^-1"] = Table.of(m, inverse=True)
    return steps


def _cylinder_image(chain, u, d=2, extra=4):
    """Image of the cylinder of u under a chain of unit steps, as the set of
    image cylinders of all words extra letters below u."""
    out = []
    for z in product(range(d), repeat=extra):
        img = oracle.point_image(chain, u + z)
        if img is None or img is oracle.SHALLOW:
            return None
        out.append(img)
    return out


def _check_orbit(ctx, u, k, cert):
    if not _witness(cert):
        return False
    steps = _unit_steps(ctx.table)
    w = cert.witness
    if len(w["words"]) != k:
        return False
    images = []
    for names, printed in zip(w["words"], w["images"]):
        chain = [steps[n] for n in reversed(names)]
        img = _cylinder_image(chain, u)
        if img is None or not oracle.same_set(img, parse_antichain(printed), 2):
            return False
        images.append(img)
    depth = max(len(x) for img in images for x in img)
    expanded = [oracle.expand(img, depth, 2) for img in images]
    return all(
        not (expanded[i] & expanded[j]) for i in range(k) for j in range(i + 1, k)
    )


def _expansive_truth(state, get_table, depth, word_len):
    """The least word length whose translates of atoms(1) under the units of
    `get_table()` separate the depth cells, recomputed pointwise once per
    (depth, bound) and kept in `state`: the inputs repeat from cycle to cycle."""
    truths = state.setdefault("expansive", {})
    key = (depth, word_len)
    if key not in truths:
        steps = list(_unit_steps(get_table()).values())
        truths[key] = oracle.first_separating_length(steps, [[(0,)], [(1,)]], depth, word_len, 2)
    return truths[key]


def _expression_matches(expr, elem, table, depth):
    step = oracle.expression_steps(expr, table)
    return oracle.chains_agree_at_depth([step], [Table.of(elem)], 2, depth)


# -- cli ------------------------------------------------------------------------

README_COMMANDS = [
    (["eq", "[0->1,1->0]", "[1->0,0->1]"], "result"),
    (["compose", "[0->10]", "[1->0]"], "compose"),
    (["eval", "[0->1:adder]", "011"], "eval"),
    (["normalize", "{00, 01, 1}"], "normalize"),
    (["gen", "list"], "value"),
    (["gen", "show", "higman_thompson:2"], "generators"),
    (["bi", "enumerate", "--gens", "higman_thompson:2", "--len", "1", "--depth", "1"], "elements"),
    (["bi", "member", "cyc", "--gens", "higman_thompson:2", "--len", "1", "--depth", "1"], "witness"),
    (["msec", "element", "msec({00}; [00->01], [00->10])", "--perm", "1,2,0"], "msec-element"),
    (["msec", "factor", "msec({000}; [000->001], [000->010], [000->011], [000->100])",
      "--perm", "1,2,0,3,4", "--parts", "{0000}", "{0001}"], "witness"),
    (["genkit", "verify", "--gens", "higman_thompson:2", "--partition", "atoms:3"], "ok"),
    (["genkit", "express", "--gens", "higman_thompson:2", "--partition", "atoms:3",
      "--msec", "msec({0000}; s00_01@{0000}, s00_10@{0000})", "--perm", "1,2,0"], "witness"),
    (["dyn", "expansive", "--gens", "higman_thompson:2", "--partition", "atoms:1",
      "--depth", "3", "--len", "4"], "expansive"),
    (["dyn", "split", "--gens", "higman_thompson:2", "--element", "cyc"], "split"),
]


class Cli:
    """The README's `cfl ... --json` commands plus seeded element literals,
    each run in-process through cantorfull.cli.main with a fresh Session."""

    name = "cli"
    tail_percentile = 95
    cycles_per_s = 2.6
    literal_kinds = ("eq", "compose", "star", "restrict", "normalize") * 2

    def setup(self):
        import cantorfull.cli  # noqa: F401  (the import is the set-up)

        from cantorfull.tails import adding_machine

        return {"adder": adding_machine(2)}

    def cycles(self, state, rng):
        while True:
            ops = [self._readme_op(state, argv, check) for argv, check in README_COMMANDS]
            ops += [self._literal_op(rng, kind) for kind in self.literal_kinds]
            rng.shuffle(ops)
            yield ops

    @staticmethod
    def _run(argv):
        import cantorfull.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cantorfull.cli.main(argv + ["--json"])
        return code, out.getvalue()

    def _op(self, kind, argv, check, code=0):
        def verify(result):
            if result[0] != code:
                return False
            text = result[1]
            try:
                payload = json.loads(text)
            except ValueError:
                return False
            return bool(check(payload))

        return Op(kind, lambda: self._run(argv), verify)

    def _readme_op(self, state, argv, check):
        kind = "cfl " + " ".join(argv[:2] if argv[0] in ("gen", "bi", "msec", "genkit", "dyn") else argv[:1])
        if check == "result":
            fn = lambda p: p["result"] is True
        elif check == "compose":
            fn = lambda p: chains_agree([Table(parse_table("[1->0]")), Table(parse_table("[0->10]"))],
                                        [Table(parse_table(p["value"]))], 2)
        elif check == "eval":
            expect = (1,) + oracle.tail_walk(((state["adder"], "a", 1),), (1, 1))
            fn = lambda p: tuple(p["prefix"]) == expect
        elif check == "normalize":
            fn = lambda p: oracle.same_set(parse_antichain(p["value"]), [(0, 0), (0, 1), (1,)], 2)
        elif check == "value":
            fn = lambda p: bool(p["value"])
        elif check == "generators":
            fn = lambda p: "cyc" in p["generators"]
        elif check == "elements":
            fn = lambda p: bool(p["elements"])
        elif check == "msec-element":
            # transporters of msec({00}; ...): the identity on 00, then the listed maps
            n = Element([[((0, 0), (0, 0), ())], [((0, 0), (0, 1), ())], [((0, 0), (1, 0), ())]],
                        (1, 2, 0))
            fn = lambda p: chains_agree([n], [Table(parse_table(p["value"]))], 2)
        elif check == "expansive":
            fn = lambda p: p["status"] == "witness" and p["witness"]["word_len"] == \
                _expansive_truth(state, _v2_table, 3, 4)
        elif check == "witness":  # checked by status only
            fn = lambda p: p["status"] == "witness"
        elif check == "ok":
            fn = lambda p: p["ok"] is True
        else:  # split of cyc: g1 g2 = cyc pointwise
            cyc = Table(parse_table("[0->1, 1->0]"))
            fn = lambda p: p["status"] == "witness" and chains_agree(
                [Table(parse_table(p["witness"]["g2"])), Table(parse_table(p["witness"]["g1"]))],
                [cyc], 2)
        return self._op(kind, argv, fn)

    def _literal_op(self, rng, kind):
        a, b = _random_table(rng), _random_table(rng)
        ta, tb = Table(a), Table(b)
        if kind == "eq":
            if rng.random() < 0.5:
                b = _split_branch(a, rng)
                tb = Table(b)
            expect = chains_agree([ta], [tb], 2)
            return self._op("cfl eq", ["eq", _text(a), _text(b)],
                            lambda p: p["result"] is expect, code=0 if expect else 1)
        if kind == "compose":
            return self._op("cfl compose", ["compose", _text(a), _text(b)],
                            lambda p: chains_agree([tb, ta], [Table(parse_table(p["value"]))], 2))
        if kind == "star":
            inverse = Table(a, inverse=True)
            return self._op("cfl star", ["star", _text(a)],
                            lambda p: chains_agree([inverse], [Table(parse_table(p["value"]))], 2))
        words = _random_antichain(rng, 3)
        clopen = "{" + ", ".join(_word_text(w) for w in words) + "}"
        if kind == "restrict":
            idem = Table([(w, w, ()) for w in words])
            return self._op("cfl restrict", ["restrict", _text(a), clopen],
                            lambda p: chains_agree([idem, ta], [Table(parse_table(p["value"]))], 2))
        return self._op("cfl normalize", ["normalize", clopen],
                        lambda p: oracle.same_set(parse_antichain(p["value"]), words, 2))


def _v2_table():
    from cantorfull import families

    return families.higman_thompson(2).table


def _random_antichain(rng, maxdepth, maxsize=4):
    words = []
    for _ in range(rng.randrange(1, maxsize + 1)):
        w = tuple(rng.randrange(2) for _ in range(rng.randrange(1, maxdepth + 1)))
        if not any(w[: len(u)] == u or u[: len(w)] == w for u in words):
            words.append(w)
    return words


def _random_table(rng):
    doms, rans = _random_antichain(rng, 3), _random_antichain(rng, 3)
    rng.shuffle(rans)
    return [(u, v, ()) for u, v in zip(doms, rans)]


def _split_branch(table, rng):
    """The same map with one branch written as its two child branches."""
    i = rng.randrange(len(table))
    u, v, t = table[i]
    return table[:i] + [(u + (x,), v + (x,), t) for x in range(2)] + table[i + 1:]


def _word_text(w):
    return "".join(map(str, w)) or "~"


def _text(table):
    return "[" + ", ".join(f"{_word_text(u)}->{_word_text(v)}" for u, v, _ in table) + "]"


WORKLOADS = {w.name: w for w in (SplitV2(), KitExpress(), Automaton(), Cli())}
