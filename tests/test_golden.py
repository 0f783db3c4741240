"""Fixed cfl commands print what the files under tests/golden/ record.

Each file holds one SHA-256 per command, keyed by the command line.  Each
digest covers canonical JSON of the command's exit code and stdout, in text
and in --json, run in-process through cli.main.  readme.json covers the
README's CLI block, and genkit_verify.json a slice of `cfl genkit verify`
over several families and partitions.  A change that alters an answer on
purpose rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and names the changed commands where it records the change.
"""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

from cantorfull import cli

from test_cli import readme_commands

GOLDEN = Path(__file__).resolve().parent / "golden"

# {0}; {10}; ...; {11111110}; {11111111}
CHAIN9 = "; ".join(["{" + "1" * k + "0}" for k in range(8)] + ["{" + "1" * 8 + "}"])


def genkit_verify_commands():
    """Separation reports over families, partitions, word lengths and orbit
    counts that pass and fail different conditions."""
    v2 = ["genkit", "verify", "--gens", "higman_thompson:2", "--partition"]
    return [
        ["genkit", "verify", "--gens", "rover", "--partition", "atoms:3"],
        v2 + ["atoms:2"],
        ["genkit", "verify", "--gens", "higman_thompson:3", "--partition", "atoms:2"],
        v2 + ["{0}; {10}; {11}", "--orbit", "3"],
        v2 + ["{10, 0001}; {001}; {11}; {01}; {0000}", "--len", "1", "--orbit", "3"],
        v2 + [CHAIN9],
    ]


# file name -> (command lists, how many)
CORPUS = {
    "readme.json": (readme_commands, 14),
    "genkit_verify.json": (genkit_verify_commands, 6),
}


def _output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return [code, out.getvalue()]


def digests(commands):
    """{command line: SHA-256 of its text and --json outputs} for each
    command."""
    out = {}
    for argv in commands:
        runs = [_output(argv), _output(argv + ["--json"])]
        blob = json.dumps(runs, sort_keys=True, separators=(",", ":"))
        out[shlex.join(["cfl", *argv])] = hashlib.sha256(blob.encode()).hexdigest()
    return out


def _check(name):
    commands, count = CORPUS[name]
    recorded = json.loads((GOLDEN / name).read_text())
    now = digests(commands())
    assert len(now) == count
    changed = sorted(cmd for cmd in recorded.keys() | now.keys() if recorded.get(cmd) != now.get(cmd))
    assert not changed, f"outputs differ from {name}: {changed}"


def test_readme_commands_print_the_recorded_outputs():
    _check("readme.json")


def test_genkit_verify_slice_prints_the_recorded_outputs():
    _check("genkit_verify.json")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (commands, _) in CORPUS.items():
        (GOLDEN / name).write_text(json.dumps(digests(commands()), indent=1) + "\n")
        print(f"wrote {GOLDEN / name}")
