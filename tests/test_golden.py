"""The README's cfl commands print what tests/golden/readme.json records.

The file holds one SHA-256 per command of the README's CLI block, keyed by
the command line.  Each digest covers canonical JSON of the command's exit
code and stdout, in text and in --json, run in-process through cli.main.
A change that alters an answer on purpose rewrites the file with

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

GOLDEN = Path(__file__).resolve().parent / "golden" / "readme.json"


def _output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return [code, out.getvalue()]


def digests():
    """{command line: SHA-256 of its text and --json outputs} for every
    README command."""
    out = {}
    for argv in readme_commands():
        runs = [_output(argv), _output(argv + ["--json"])]
        blob = json.dumps(runs, sort_keys=True, separators=(",", ":"))
        out[shlex.join(["cfl", *argv])] = hashlib.sha256(blob.encode()).hexdigest()
    return out


def test_readme_commands_print_the_recorded_outputs():
    recorded = json.loads(GOLDEN.read_text())
    now = digests()
    assert len(now) == 14
    changed = sorted(cmd for cmd in recorded.keys() | now.keys() if recorded.get(cmd) != now.get(cmd))
    assert not changed, f"outputs differ from {GOLDEN.name}: {changed}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
