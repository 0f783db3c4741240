"""Tracing does not change what cfl prints.

perfbench's layer tracer swaps module functions, module-level dict values and
methods such as Parser.parse_expr for (*args, **kwargs) wrappers; each of the
README's cfl commands must print the same JSON and exit with the same code
under it as without it.
"""

import contextlib
import io
import sys
from pathlib import Path

from cantorfull import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import Tracer  # noqa: E402
from workloads import README_COMMANDS  # noqa: E402


def _run(argv):
    # each command builds its family table afresh, as in a fresh process, so
    # a traced command calls the tracer's wrapped builder
    cli._family.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--json"])
    return code, out.getvalue()


def test_tracing_keeps_every_readme_command_output():
    commands = [argv for argv, _ in README_COMMANDS]
    untraced = [_run(argv) for argv in commands]
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        traced = [_run(argv) for argv in commands]
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.calls[tracer.names.index("cli.main")] == len(commands)
    family_commands = [argv for argv in commands if "higman_thompson:2" in argv]
    assert tracer.calls[tracer.names.index("families.higman_thompson")] == len(family_commands) == 7
    for argv, plain, wrapped in zip(commands, untraced, traced):
        assert wrapped == plain, argv
    assert [code for code, _ in untraced] == [0] * len(commands)


def test_bad_family_parameters_are_a_usage_error_under_tracing():
    # the tracer puts a (*args, **kwargs) wrapper in FAMILY_BUILDERS, which
    # binds any parameters; the builder's own signature must still refuse them
    argv = ["gen", "show", "grigorchuk:3"]
    assert _run(argv) == (cli.EXIT_USAGE, "")
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        traced = _run(argv)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert traced == (cli.EXIT_USAGE, "")
