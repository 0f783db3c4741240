"""Command-line front end: parses the element/expression grammar, dispatches
to the library, and emits text or the JSON certificate schema.

Exit codes mirror the three-valued certificates: 0 for Witness or a true
predicate, 1 for RefutedAtBound or false, 2 for ExhaustedAtBound, 3 for
usage errors.
"""

import argparse
import json
import sys
from dataclasses import replace
from functools import cache

from . import certs, dynamics, factor, kit, msec, pmap
from .clopen import checked_alphabet, depth_cells, is_partition, word_from_text
from .completion import GeneratorRef, GeneratorTable, bi_enumerate, evaluate, piecewise_member
from .errors import CantorError, ParseError
from .families import FAMILY_BUILDERS, family_by_name
from .msec import build, cover_of
from .parser import Parser, element_to_text, expr_to_text
from .tails import TailElement, adding_machine, free_reduce, grigorchuk, parse_machines

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_EXHAUSTED = 2
EXIT_USAGE = 3


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's own report, with the usage exit code
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def default_registry(d):
    registry = {}
    if d == 2:
        g = grigorchuk()
        registry = {s: (g, s) for s in "abcd"}
    adder = adding_machine(d)
    registry["adder"] = (adder, "a")
    return registry


class Session:
    """Parsed context shared by one invocation.

    Output names each tail factor by the first registry name of its
    (machine, state), so printed elements parse back in the same session.
    """

    def __init__(self, args):
        # a family name takes precedence over a file of that name, and its
        # alphabet over -d, also for the tail registry
        gens = getattr(args, "gens", None)
        family = bool(gens) and gens.partition(":")[0] in FAMILY_BUILDERS
        d = checked_alphabet(args.alphabet)
        self.table = family_by_name(gens).table if family else GeneratorTable(d, {})
        self.d = self.table.d
        registry = default_registry(self.d)
        if getattr(args, "machines", None):
            with open(args.machines) as fh:
                for name, machine in parse_machines(fh.read()).items():
                    for s in machine.states:
                        registry[f"{name}.{s}"] = (machine, s)
        self.names = {}
        for name, pair in registry.items():
            self.names.setdefault(pair, name)
        self.parser = Parser(self.d, registry)
        if gens and not family:
            self.table = GeneratorTable(self.d, self.gens_file(gens))

    def gens_file(self, path):
        """The generators of a file of NAME = element lines ("#" starts a comment);
        a NAME that does not parse back as itself, or a repeated one, is refused,
        and a parse error in an element names its line and column in the file."""
        mapping = {}
        with open(path) as fh:
            text = fh.read()
        for number, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0]
            if not line.strip():
                continue
            lhs, _, rhs = line.partition("=")
            name = lhs.strip()
            try:
                readable = self.parser.parse_expr(name) == GeneratorRef(name)
            except ParseError:
                readable = False
            if not readable:
                raise CantorError(f"line {number} of {path}: {name!r} is not a generator name")
            if name in mapping:
                raise CantorError(f"line {number} of {path}: generator {name} is defined twice")
            try:
                mapping[name] = self.parser.parse_element(rhs)
            except ParseError as err:
                # an element is one line, and rhs starts after the first "="
                raise ParseError(number, len(lhs) + 1 + err.col, err.expected, text, path)
        return mapping

    def element(self, text):
        """Evaluate an expression (or literal) against the generator table."""
        return evaluate(self.parser.parse_expr(_given(text, "element")), self.table)

    def text(self, m):
        return element_to_text(m, self.names)

    def clopen(self, text):
        return self.parser.parse_clopen(_given(text, "clopen"))

    def partition(self, spec):
        if spec.startswith("atoms:"):
            return depth_cells(_count(spec.split(":", 1)[1], "atom depth"), self.d)
        parts = self.parser.parse_partition(spec)
        if not is_partition(parts):
            raise CantorError(f"{spec!r} is not a partition")
        return parts

    def msec(self, spec):
        """Multisection literal: msec(<clopen>; <expr>, <expr>, ...)."""
        base, exprs = self.parser.parse_msec(_given(spec, "multisection literal"))
        return build(base, [evaluate(x, self.table) for x in exprs])

    def perm(self, spec, degree):
        words = _given(spec, "permutation (--perm)").replace(",", " ").split()
        pi = tuple(_count(x, "permutation entry") for x in words)
        if sorted(pi) != list(range(degree)):
            raise CantorError(f"{spec!r} is not a permutation of 0..{degree - 1}")
        return pi


def _given(value, what):
    if value is None:
        raise CantorError(f"missing {what}")
    return value


def _count(text, what):
    try:
        return int(text)
    except ValueError:
        raise CantorError(f"{what} {text!r} is not a number") from None


def _bound(text):
    """A search bound from the command line: an integer, not negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a bound cannot be negative, not {value}")
    return value


def emit(args, exit_code, text, payload):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)
    return exit_code


def cert_exit(cert):
    if cert.is_witness():
        return EXIT_OK
    if cert.is_refuted():
        return EXIT_REFUTED
    return EXIT_EXHAUSTED


def emit_cert(args, op, cert, extra_text=""):
    text = f"{op}: {cert.status}"
    if extra_text:
        text += f" ({extra_text})"
    payload = {"op": op}
    payload.update(cert.to_json())
    return emit(args, cert_exit(cert), text, payload)


def emit_bool(args, op, value, detail=""):
    text = f"{op}: {value}" + (f" ({detail})" if detail else "")
    payload = {"op": op, "result": value}
    if detail:
        payload["detail"] = detail
    return emit(args, EXIT_OK if value else EXIT_REFUTED, text, payload)


def emit_value(args, op, text_value, payload_value=None):
    return emit(
        args,
        EXIT_OK,
        f"{op}: {text_value}",
        {"op": op, "value": payload_value if payload_value is not None else text_value},
    )


# -- handlers -------------------------------------------------------------------


def cmd_normalize(session, args):
    return emit_value(args, "normalize", str(session.clopen(args.clopen)))


def cmd_compose(session, args):
    out = pmap.compose(session.element(args.left), session.element(args.right))
    return emit_value(args, "compose", session.text(out))


def cmd_star(session, args):
    return emit_value(args, "star", session.text(pmap.star(session.element(args.element))))


def cmd_join(session, args):
    out = pmap.join([session.element(t) for t in args.elements])
    return emit_value(args, "join", session.text(out))


def cmd_restrict(session, args):
    out = pmap.restrict(session.element(args.element), session.clopen(args.clopen))
    return emit_value(args, "restrict", session.text(out))


def cmd_eq(session, args):
    return emit_bool(args, "eq", pmap.eq(session.element(args.left), session.element(args.right)))


def cmd_leq(session, args):
    return emit_bool(args, "leq", pmap.leq(session.element(args.left), session.element(args.right)))


def cmd_compat(session, args):
    x, y = session.element(args.left), session.element(args.right)
    compatible = pmap.compatible(x, y)
    detail = "disjoint" if compatible and pmap.disjoint(x, y) else ""
    return emit_bool(args, "compat", compatible, detail)


def cmd_eval(session, args):
    r = pmap.eval_at(session.element(args.element), word_from_text(args.word))
    if r.kind == pmap.IMAGE:
        residual = TailElement(r.residual.d, free_reduce(r.residual.factors)).to_text(session.names)
        text = f"{''.join(map(str, r.prefix)) or '~'} : {residual}"
        payload = {"op": "eval", "kind": r.kind, "prefix": list(r.prefix), "residual": residual}
        return emit(args, EXIT_OK, f"eval: {text}", payload)
    return emit(args, EXIT_REFUTED, f"eval: {r.kind}", {"op": "eval", "kind": r.kind})


def cmd_gen(session, args):
    if args.action == "list":
        names = sorted(FAMILY_BUILDERS)
        return emit_value(args, "gen list", ", ".join(names), names)
    fam = family_by_name(_given(args.name, "family name"))
    lines = [f"{name} = {session.text(m)}" for name, m in fam.table.items()]
    payload = {
        "name": fam.name,
        "parameters": fam.parameters,
        "notes": fam.notes,
        "generators": {name: session.text(m) for name, m in fam.table.items()},
    }
    return emit(args, EXIT_OK, "\n".join(lines), payload)


def cmd_bi(session, args):
    if args.action == "enumerate":
        rows = []
        for m, expr in bi_enumerate(session.table, args.len, args.arity, args.depth):
            rows.append((session.text(m), expr_to_text(expr, session.names)))
            if args.limit and len(rows) >= args.limit:
                break
        text = "\n".join(f"{e}\t{x}" for e, x in rows)
        return emit(args, EXIT_OK, text, {"op": "bi enumerate", "elements": rows})
    h = session.element(args.element)
    cert = piecewise_member(h, session.table, args.len, args.depth, node_budget=args.budget)
    if cert.is_witness():
        cert = replace(cert, witness=expr_to_text(cert.witness, session.names))
    return emit_cert(args, "bi member", cert)


def cmd_msec(session, args):
    s = session.msec(args.msec)
    if args.action == "build":
        text = f"degree {s.degree}; idempotents " + ", ".join(str(e) for e in s.idems)
        return emit_value(args, "msec build", text, {
            "degree": s.degree,
            "base": str(s.base),
            "idempotents": [str(e) for e in s.idems],
        })
    if args.action == "element":
        pi = session.perm(args.perm, s.degree)
        return emit_value(args, "msec element", session.text(msec.element(s, pi)))
    if args.action == "cover":
        parts = [session.clopen(t) for t in args.parts]
        cov = cover_of(s, parts)
        return emit_value(args, "msec cover", f"{len(cov.pieces)} pieces verified")
    if args.action == "combine":
        s3 = msec.combine(s, session.msec(args.other))
        return emit_value(args, "msec combine", f"degree {s3.degree}; base {s3.base}", {
            "degree": s3.degree,
            "base": str(s3.base),
            "idempotents": [str(e) for e in s3.idems],
        })
    if args.action == "extend":
        cert = msec.extend_degree(s, session.table, word_len=args.len, node_budget=args.budget)
        extra = ""
        if cert.is_witness():
            cert = replace(cert, witness={
                "pieces": [str(c) for c in cert.witness["subdivision"]],
                "degrees": [sec.degree for sec in cert.witness["sections"]],
            })
            extra = f"{len(cert.witness['pieces'])} pieces"
        return emit_cert(args, "msec extend", cert, extra)
    pi = session.perm(args.perm, s.degree)
    cov = msec.overlapping_cover(s, [session.clopen(t) for t in args.parts])
    target = msec.element(s, pi)
    cert = factor.factor_over_cover(target, pi, cov, node_budget=args.budget)
    return emit_cert(args, "msec factor", cert)


def cmd_genkit(session, args):
    parts = session.partition(args.partition)
    if args.action == "verify":
        family = kit._derive(session.table, parts, args.len)
        report = kit.verify_separating(family, parts, args.orbit)
        ok = report["ok"]
        text = "separating: " + (
            "all conditions pass"
            if ok
            else ", ".join(f"condition{i}" for i in (1, 2, 3, 4) if not report[f"condition{i}"]["ok"])
            + " fail"
        )
        return emit(args, EXIT_OK if ok else EXIT_REFUTED, text, {"op": "genkit verify", **report})
    if args.action == "build":
        built = kit.build_kit(session.table, parts, word_len=args.len)
        text = f"kit: |A| = {len(built.A)}, sections = {len(built.sections)}"
        return emit(args, EXIT_OK, text, {
            "op": "genkit build",
            "family_size": len(built.A),
            "sections": len(built.sections),
        })
    built = kit.build_kit(session.table, parts, word_len=args.len)
    witness_msec = session.msec(args.msec)
    pi = session.perm(args.perm, witness_msec.degree)
    target = msec.element(witness_msec, pi)
    cert = kit.express(target, built, witness_msec, pi, node_budget=args.budget)
    return emit_cert(args, "genkit express", cert)


def cmd_dyn(session, args):
    if args.action == "split":
        g = session.element(args.element)
        cert = dynamics.split_unit(g)
        if cert.is_witness():
            w = cert.witness
            cert = replace(cert, witness={
                "g1": session.text(w["g1"]),
                "g2": session.text(w["g2"]),
                "fixed1": str(w["fixed1"]),
                "fixed2": str(w["fixed2"]),
            })
        return emit_cert(args, "dyn split", cert)
    if args.action == "rigid":
        g = session.element(args.element)
        parts = session.partition(args.partition)
        factors = dynamics.rigid_parts(g, parts)
        lines = [session.text(f) for f in factors]
        return emit(args, EXIT_OK, "\n".join(lines), {"op": "dyn rigid", "factors": lines})
    # the other actions act by the table's units
    ctx = dynamics.DynContext(session.table)
    if args.action == "expansive":
        parts = session.partition(args.partition)
        cert = dynamics.expansive_certificate(ctx, parts, args.depth, args.len)
        return emit_cert(args, "dyn expansive", cert)
    if args.action == "code":
        parts = session.partition(args.partition)
        words = [session.element(t) for t in args.words]
        code = dynamics.subshift_code(ctx, parts, word_from_text(args.prefix), words)
        return emit_value(args, "dyn code", " ".join(map(str, code)), code)
    if args.action == "minimal":
        cert = dynamics.minimal_certificate(ctx, args.depth, args.len)
        return emit_cert(args, "dyn minimal", cert)
    if args.action == "compress":
        cert = dynamics.compress_search(
            ctx, session.clopen(args.source), session.clopen(args.target), args.len
        )
        return emit_cert(args, "dyn compress", cert)
    if args.action == "fullcompress":
        report = dynamics.fully_compressible_sample(ctx, args.depth, args.len)
        text = f"fullcompress: {'all pairs pass' if report['ok'] else 'failures: ' + str(len(report['failures']))}"
        return emit(args, EXIT_OK if report["ok"] else EXIT_REFUTED, text, {"op": "dyn fullcompress", **report})
    cert = dynamics.orbit_lower_bound(
        ctx, word_from_text(args.prefix), args.count, args.len, node_budget=args.budget
    )
    return emit_cert(args, "dyn orbit", cert)


# -- argument wiring ---------------------------------------------------------------


def _common(sub):
    sub.add_argument("--json", action="store_true", help="emit the JSON certificate schema")
    sub.add_argument("-d", "--alphabet", type=int, default=2, help="alphabet size")
    sub.add_argument("--gens", help="generator family (name[:params]) or file")
    sub.add_argument("--machines", help="file of Mealy machine definitions")


@cache
def build_arg_parser():
    """The cfl parser, built once per process: no handler mutates a default."""
    top = _ArgumentParser(prog="cfl", description=__doc__)
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("normalize");  _common(p); p.add_argument("clopen"); p.set_defaults(fn=cmd_normalize)
    p = subs.add_parser("compose");    _common(p); p.add_argument("left"); p.add_argument("right"); p.set_defaults(fn=cmd_compose)
    p = subs.add_parser("star");       _common(p); p.add_argument("element"); p.set_defaults(fn=cmd_star)
    p = subs.add_parser("join");       _common(p); p.add_argument("elements", nargs="+"); p.set_defaults(fn=cmd_join)
    p = subs.add_parser("restrict");   _common(p); p.add_argument("element"); p.add_argument("clopen"); p.set_defaults(fn=cmd_restrict)
    p = subs.add_parser("eq");         _common(p); p.add_argument("left"); p.add_argument("right"); p.set_defaults(fn=cmd_eq)
    p = subs.add_parser("leq");        _common(p); p.add_argument("left"); p.add_argument("right"); p.set_defaults(fn=cmd_leq)
    p = subs.add_parser("compat");     _common(p); p.add_argument("left"); p.add_argument("right"); p.set_defaults(fn=cmd_compat)
    p = subs.add_parser("eval");       _common(p); p.add_argument("element"); p.add_argument("word"); p.set_defaults(fn=cmd_eval)

    p = subs.add_parser("gen"); _common(p)
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.set_defaults(fn=cmd_gen)

    p = subs.add_parser("bi"); _common(p)
    p.add_argument("action", choices=("enumerate", "member"))
    p.add_argument("element", nargs="?")
    p.add_argument("--len", type=_bound, default=1)
    p.add_argument("--arity", type=_bound, default=1)
    p.add_argument("--depth", type=_bound, default=1)
    p.add_argument("--limit", type=_bound, default=0)
    p.set_defaults(fn=cmd_bi)

    p = subs.add_parser("msec"); _common(p)
    p.add_argument("action", choices=("build", "element", "cover", "combine", "extend", "factor"))
    p.add_argument("msec", help="multisection literal msec(e1; f2, ...)")
    p.add_argument("other", nargs="?", help="second multisection for combine")
    p.add_argument("--perm", help="permutation like 1,2,0")
    p.add_argument("--parts", nargs="*", default=[], help="cover pieces (clopens)")
    p.add_argument("--len", type=_bound, default=3)
    p.set_defaults(fn=cmd_msec)

    p = subs.add_parser("genkit"); _common(p)
    p.add_argument("action", choices=("verify", "build", "express"))
    p.add_argument("--partition", default="atoms:3")
    p.add_argument("--orbit", type=_bound, default=5)
    p.add_argument("--len", type=_bound, default=2)
    p.add_argument("--msec", help="witnessing multisection for express")
    p.add_argument("--perm", help="witnessing permutation for express")
    p.set_defaults(fn=cmd_genkit)

    p = subs.add_parser("dyn"); _common(p)
    p.add_argument("action", choices=("expansive", "code", "minimal", "compress", "fullcompress", "orbit", "split", "rigid"))
    p.add_argument("--partition", default="atoms:1")
    p.add_argument("--depth", type=_bound, default=2)
    p.add_argument("--len", type=_bound, default=4)
    p.add_argument("--prefix", default="")
    p.add_argument("--words", nargs="*", default=[])
    p.add_argument("--source", help="clopen Y for compress")
    p.add_argument("--target", help="clopen Z for compress")
    p.add_argument("--count", type=int, default=5, help="orbit size bound k")
    p.add_argument("--element", help="unit for split/rigid")
    p.set_defaults(fn=cmd_dyn)

    for name in ("bi", "msec", "genkit", "dyn"):
        subs.choices[name].add_argument(
            "--budget", type=_bound, default=certs.DEFAULT_NODE_BUDGET,
            help="node budget of bi member, msec extend, msec factor, genkit express and dyn orbit",
        )
    return top


def main(argv=None):
    top = build_arg_parser()
    try:
        args = top.parse_args(argv)
    except SystemExit as stop:
        return EXIT_USAGE if stop.code not in (0,) else 0
    try:
        session = Session(args)
        return args.fn(session, args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (CantorError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
