import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cantorfull import cli, clopen, families, pmap, tails
from cantorfull.cli import Session, build_arg_parser, main
from cantorfull.completion import depth_clopens
from cantorfull.parser import Parser
from cantorfull.pmap import Branch, PartialMap, compose, eq, eval_at, star

from oracles import pm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main(list(argv) + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_eq_exit_codes(capsys):
    code, out = run(capsys, "eq", "[0->1,1->0]", "[1->0,0->1]")
    assert code == 0
    assert "True" in out
    code, _ = run(capsys, "eq", "[0->1,1->0]", "1")
    assert code == 1


def test_normalize(capsys):
    code, out = run(capsys, "normalize", "{00, 01, 1}")
    assert code == 0
    assert "{~}" in out


def test_compose_restrict_star_join_roundtrip(capsys):
    code, payload = run_json(capsys, "compose", "[0->10]", "[1->0]")
    assert code == 0
    assert eq(Parser(2).parse_element(payload["value"]), pm(2, "1->10"))

    code, payload = run_json(capsys, "restrict", "[0->1,1->0]", "{01}")
    assert eq(Parser(2).parse_element(payload["value"]), pm(2, "01->11"))

    code, payload = run_json(capsys, "star", "[0->10]")
    assert eq(Parser(2).parse_element(payload["value"]), pm(2, "10->0"))

    code, payload = run_json(capsys, "join", "[0->1]", "[10->01]")
    assert eq(Parser(2).parse_element(payload["value"]), pm(2, "0->1", "10->01"))


def test_leq_compat(capsys):
    assert run(capsys, "leq", "[00->100]", "[0->10]")[0] == 0
    assert run(capsys, "leq", "[0->1]", "[0->0]")[0] == 1
    assert run(capsys, "compat", "[0->1]", "[10->01]")[0] == 0
    assert run(capsys, "compat", "[0->0]", "[0->1]")[0] == 1
    # automaton tails: the odometer sends 00z to 11z and 01z to 10.adder(z)
    assert run(capsys, "leq", "[01->10:adder]", "[0->1:adder]")[0] == 0
    assert run(capsys, "leq", "[01->10]", "[0->1:adder]")[0] == 1
    assert run(capsys, "compat", "[0->1:adder]", "[00->11, 1->0]")[0] == 0
    assert run(capsys, "compat", "[0->1:adder]", "[00->10]")[0] == 1
    # disjoint domains, but the two inverses differ on the shared range 10
    assert run(capsys, "compat", "[01->10:adder]", "[1->10:adder]")[0] == 1


def test_compat_detail(capsys):
    code, out = run(capsys, "compat", "[0->1]", "[10->01]")
    assert code == 0 and "(disjoint)" in out
    assert run_json(capsys, "compat", "[0->1]", "[10->01]") == (
        0,
        {"op": "compat", "result": True, "detail": "disjoint"},
    )
    assert run_json(capsys, "compat", "[0->1:adder]", "[00->11]") == (
        0,
        {"op": "compat", "result": True},
    )
    assert run_json(capsys, "compat", "[0->0]", "[0->1]") == (
        1,
        {"op": "compat", "result": False},
    )


def test_eval_modes(capsys):
    code, payload = run_json(capsys, "eval", "[0->10]", "011")
    assert code == 0
    assert payload["prefix"] == [1, 0, 1, 1]
    code, payload = run_json(capsys, "eval", "[0->10]", "1")
    assert code == 1
    assert payload["kind"] == "undefined"


def test_expression_arguments(capsys):
    code, payload = run_json(
        capsys, "eq", "cyc * cyc", "1", "--gens", "higman_thompson:2"
    )
    assert code == 0 and payload["result"] is True
    code, _ = run(capsys, "eq", "s00_01 @{000}", "[000->010]", "--gens", "higman_thompson:2")
    assert code == 0


def test_gen_list_show(capsys):
    code, payload = run_json(capsys, "gen", "list")
    assert code == 0
    assert "higman_thompson" in payload["value"]
    code, payload = run_json(capsys, "gen", "show", "grigorchuk")
    assert code == 0
    assert set(payload["generators"]) == {"a", "b", "c", "d"}


def test_bi_enumerate_and_member(capsys):
    code, payload = run_json(
        capsys, "bi", "enumerate", "--gens", "higman_thompson:2", "--len", "1",
        "--depth", "1", "--limit", "5",
    )
    assert code == 0
    assert len(payload["elements"]) == 5
    code, payload = run_json(
        capsys, "bi", "member", "cyc", "--gens", "higman_thompson:2",
        "--len", "1", "--depth", "1",
    )
    assert code == 0
    assert payload["status"] == "witness"


def test_msec_commands(capsys):
    lit = "msec({00}; [00->01], [00->10])"
    code, payload = run_json(capsys, "msec", "build", lit)
    assert code == 0 and payload["value"]["degree"] == 3
    code, payload = run_json(capsys, "msec", "element", lit, "--perm", "1,2,0")
    assert code == 0
    assert eq(
        Parser(2).parse_element(payload["value"]),
        pm(2, "00->01", "01->10", "10->00", "11->11"),
    )
    code, _ = run(capsys, "msec", "cover", lit, "--parts", "{000}", "{001}")
    assert code == 0
    lit5 = "msec({000}; [000->001], [000->010], [000->011], [000->100])"
    code, payload = run_json(
        capsys, "msec", "factor", lit5, "--perm", "1,2,0,3,4",
        "--parts", "{0000}", "{0001}",
    )
    assert code == 0
    assert payload["status"] == "witness"
    assert len(payload["witness"]["word"]) == 2


def test_msec_combine(capsys):
    code, payload = run_json(
        capsys, "msec", "combine",
        "msec({00}; [00->01], [00->100])",
        "msec({01}; [01->101], [01->110])",
    )
    assert code == 0
    assert payload["value"]["degree"] == 5


def test_msec_extend_exit_codes(capsys):
    lit = "msec({00}; [00->01], [00->10])"
    code, _ = run(capsys, "msec", "extend", lit, "--gens", "higman_thompson:2")
    assert code == 0
    code, _ = run(capsys, "msec", "extend", lit, "--len", "1")
    assert code == 2  # no generators loaded: exhausted at bound


def test_genkit_pipeline(capsys):
    code, payload = run_json(
        capsys, "genkit", "verify", "--gens", "higman_thompson:2",
        "--partition", "atoms:3",
    )
    assert code == 0
    code, payload = run_json(
        capsys, "genkit", "build", "--gens", "higman_thompson:2",
        "--partition", "atoms:3",
    )
    assert code == 0 and payload["sections"] > 0
    assert set(payload) == {"op", "family_size", "sections"}
    code, payload = run_json(
        capsys, "genkit", "express", "--gens", "higman_thompson:2",
        "--partition", "atoms:3",
        "--msec", "msec({0000}; s00_01@{0000}, s00_10@{0000})",
        "--perm", "1,2,0",
    )
    assert code == 0
    assert payload["status"] == "witness"


def test_dyn_commands(capsys):
    code, payload = run_json(
        capsys, "dyn", "expansive", "--gens", "higman_thompson:2",
        "--partition", "atoms:1", "--depth", "3", "--len", "4",
    )
    assert code == 0 and payload["status"] == "witness"

    code, payload = run_json(
        capsys, "dyn", "minimal", "--gens", "higman_thompson:2",
        "--depth", "2", "--len", "3",
    )
    assert code == 0

    code, payload = run_json(
        capsys, "dyn", "compress", "--gens", "higman_thompson:2",
        "--source", "{0}", "--target", "{11}", "--len", "4",
    )
    assert code == 0

    code, payload = run_json(
        capsys, "dyn", "orbit", "--gens", "higman_thompson:2",
        "--prefix", "0", "--count", "5", "--len", "6",
    )
    assert code == 0

    code, payload = run_json(
        capsys, "dyn", "split", "--gens", "higman_thompson:2", "--element", "cyc"
    )
    assert code == 0

    code, payload = run_json(
        capsys, "dyn", "rigid", "--gens", "higman_thompson:2",
        "--element", "s00_01", "--partition", "{0};{1}",
    )
    assert code == 0

    code, payload = run_json(
        capsys, "dyn", "code", "--gens", "higman_thompson:2",
        "--partition", "atoms:1", "--prefix", "00", "--words", "cyc", "1",
    )
    assert code == 0 and payload["value"] == [1, 0]


def test_usage_errors(capsys):
    assert main(["nonsense"]) == 3
    assert main(["eq", "[0->"]) == 3
    assert main(["eq", "[0->1,1->0]"]) == 3
    assert main(["eq", "[0->1,1->0]", "[1->0,0->1]", "--seed", "1"]) == 3
    capsys.readouterr()
    # the usage line is followed by argparse's message
    assert main(["eq", "[0->1]"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: cfl eq")
    assert "cfl eq: error: the following arguments are required: right" in err
    assert main(["bi", "member", "x", "--len", "abc"]) == 3
    err = capsys.readouterr().err
    assert "cfl bi: error: argument --len: invalid int value: 'abc'" in err


MSEC = "msec({00}; [00->01], [00->10])"
HT2 = ["--gens", "higman_thompson:2"]


def test_genkit_verify_lists_failing_conditions_in_order(capsys):
    # the report's keys run 2, 3, 1, 4; the text names them by number
    code, out = run(capsys, "genkit", "verify", *HT2, "--partition", "atoms:3", "--len", "0")
    assert code == 1
    assert out.strip() == "separating: condition1, condition3 fail"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "[0->1]", "abc"],
        ["dyn", "orbit", *HT2, "--prefix", "0x"],
        ["msec", "element", MSEC, "--perm", "a,b"],
        ["msec", "element", MSEC, "--perm", "0,0,1"],
        ["genkit", "verify", *HT2, "--partition", "atoms:x"],
        ["genkit", "verify", *HT2, "--partition", "atoms:-1"],
        ["genkit", "verify", *HT2, "--partition", "{0};{0}"],
        ["dyn", "minimal", *HT2, "--depth", "-1"],
        ["gen", "show", "higman_thompson:x"],
        ["gen", "show", "grigorchuk:1"],
        ["gen", "show", "higman_thompson:2:3:4"],
        ["gen", "show", "higman_thompson:2:1000"],
        ["dyn", "expansive", *HT2, "--partition", "atoms:1", "--depth", "12"],
        ["eq", "1", "1", "--gens", "higman_thompson:x"],
        ["normalize", "{\u00b2}"],
        ["dyn", "split", *HT2],
        ["msec", "element", MSEC],
        ["msec", "combine", MSEC],
        ["genkit", "express", *HT2, "--perm", "1,2,0"],
        ["bi", "member", *HT2],
        ["dyn", "compress", *HT2, "--target", "{0}"],
        ["dyn", "compress", *HT2, "--source", "{0}"],
        ["gen", "show"],
        ["eq", "1", "1", "-d", "0"],
        ["eq", "1", "1", "-d", "11"],
        ["normalize", "{0}", "-d", "1000000"],
        ["eval", "[0->1]", "5"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_arguments_are_usage_errors(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.strip()


@pytest.mark.parametrize(
    "argv",
    [
        ["dyn", "expansive", *HT2, "--len", "-1", "--depth", "2"],
        ["dyn", "minimal", *HT2, "--depth", "-2"],
        ["dyn", "orbit", *HT2, "--budget", "-5"],
        ["bi", "enumerate", *HT2, "--arity", "-1"],
        ["bi", "enumerate", *HT2, "--limit", "-3"],
        ["genkit", "verify", *HT2, "--orbit", "-1"],
    ],
    ids=lambda argv: " ".join(argv[4:6]),
)
def test_negative_bounds_are_usage_errors(capsys, argv):
    assert main(argv + ["--json"]) == 3
    captured = capsys.readouterr()
    flag, value = argv[4], argv[5]
    assert f"argument {flag}: a bound cannot be negative, not {value}" in captured.err
    assert captured.out == ""


def test_depth_clopens_are_sized_before_they_are_listed(capsys):
    # 2^32 clopens at depth 5 over two letters, and 2^(2^10^9) at depth 10^9,
    # are refused at once; 2^16 at depth 4 is the most that is listed
    for command in (["bi", "enumerate"], ["dyn", "fullcompress"]):
        for depth in ("5", "1000000000"):
            assert main([*command, *HT2, "--depth", depth, "--json"]) == 3
            captured = capsys.readouterr()
            assert f"depth-{depth} clopens number 2^(2^{depth}), over 2^16" in captured.err
            assert captured.out == ""
    assert len(depth_clopens(2, 4)) == 2**16


def test_letters_and_alphabets_are_checked(capsys):
    assert main(["eq", "1", "1", "-d", "1"]) == 3
    assert "alphabet size must be at least 2" in capsys.readouterr().err
    # a word over more than ten letters would not print as a digit string:
    # [0->1:adder] takes 09 to 1 followed by the letter 10
    assert main(["eval", "[0->1:adder]", "09", "-d", "12"]) == 3
    assert "at most 10" in capsys.readouterr().err
    assert run(capsys, "eval", "[0->1:adder]", "09", "-d", "10") == (0, "eval: 10 : adder\n")
    # the same bound holds for an alphabet set by a family, checked before
    # the family is built: V_11 alone would list 8,419 generators
    for argv in (["eq", "1", "1", "--gens", "higman_thompson:11"],
                 ["gen", "show", "higman_thompson:11"],
                 ["gen", "show", "depth_aut:1:11"]):
        assert main(argv) == 3
        assert "at most 10" in capsys.readouterr().err
    for word in ("5", "15", "2"):
        assert main(["eval", "[0->1]", word]) == 3
        assert "out of range" in capsys.readouterr().err
    assert run(capsys, "eval", "[0->1]", "2", "-d", "3") == (1, "eval: undefined\n")
    # the prefix is checked also when no words are listed
    for extra in (["--words", "cyc", "--prefix", "7"], ["--prefix", "2"]):
        assert main(["dyn", "code", *HT2, *extra]) == 3
        assert "out of range" in capsys.readouterr().err


def _fresh_process(argv, **env_vars):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), **env_vars)
    done = subprocess.run(
        [sys.executable, "-m", "cantorfull.cli", *argv], capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout


def test_parser_is_built_once_and_defaults_stay_fresh(capsys):
    dyn_code = ["dyn", "code", *HT2, "--partition", "atoms:1", "--prefix", "00", "--json"]
    factor = ["msec", "factor", "msec({000}; [000->001], [000->010], [000->011], [000->100])",
              "--perm", "1,2,0,3,4", "--json"]
    # each command without its list option runs twice, so a handler that
    # mutated the shared default would change the second answer
    sequence = [
        dyn_code + ["--words", "cyc", "1"],
        dyn_code,
        dyn_code,
        factor + ["--parts", "{0000}", "{0001}"],
        factor,
        factor,
    ]
    assert build_arg_parser() is build_arg_parser()
    fresh = {}
    for argv in sequence:
        if tuple(argv) not in fresh:
            fresh[tuple(argv)] = _fresh_process(argv)
        assert run(capsys, *argv) == fresh[tuple(argv)]
    assert [exit_code for exit_code, _ in fresh.values()] == [0, 0, 0, 3]


def test_msec_literal_maps_may_have_several_branches(capsys):
    split = run_json(capsys, "msec", "build", "msec({0}; [00->10, 01->11])")
    joined = run_json(capsys, "msec", "build", "msec({0}; ([00->10] | [01->11]))")
    assert split == joined and split[0] == 0


def test_literal_errors_are_placed_in_the_users_text(capsys):
    assert main(["msec", "build", "msec({00}; [00->])"]) == 3
    assert "line 1, col 17: expected a word" in capsys.readouterr().err
    assert main(["dyn", "rigid", "--element", "[0->1, 1->0]", "--partition", "{0};{2}"]) == 3
    assert "line 1, col 6: expected letters below 2" in capsys.readouterr().err
    # an empty map between two commas is an error, not a map left out
    assert main(["msec", "build", "msec( {00} ; [00->01] ,, [00->10])"]) == 3
    assert "line 1, col 24: expected an expression atom" in capsys.readouterr().err


def test_adder_takes_the_alphabet_of_the_gens_family(capsys):
    given = run(capsys, "eval", "[0->1:adder]", "021", "-d", "3")
    assert given == (0, "eval: 102 : 1\n")
    assert run(capsys, "eval", "[0->1:adder]", "021", "--gens", "higman_thompson:3") == given


def test_budget_only_on_budgeted_commands(capsys):
    assert main(["eq", "[0->1,1->0]", "[1->0,0->1]", "--budget", "5"]) == 3
    argv = ["bi", "member", "cyc", "--gens", "higman_thompson:2", "--len", "1", "--depth", "1"]
    assert main(argv + ["--budget", "1"]) == 2


def test_msec_factor_usage_errors(capsys):
    argv = ["msec", "factor", "msec({000}; [000->001], [000->010], [000->011], [000->100])",
            "--perm", "1,2,0,3,4"]
    assert main(argv + ["--parts", "{0000}", "{}", "{0001}"]) == 3
    assert "restriction to the empty set" in capsys.readouterr().err
    assert main(argv + ["--parts", "{0000}"]) == 3
    assert main(argv) == 3


def test_generator_file(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("sw = [0->1, 1->0]\nid2 = 1\n")
    code, payload = run_json(capsys, "eq", "sw * sw", "id2", "--gens", str(gens))
    assert code == 0 and payload["result"] is True


def test_split_and_rigid_take_a_table_with_a_non_unit(tmp_path, capsys):
    # only the actions that act by the table's units need every generator
    # to be one
    gens = tmp_path / "gens.txt"
    gens.write_text("p = [0->1]\nu = [0->1, 1->0]\n")
    code, payload = run_json(capsys, "dyn", "split", "--gens", str(gens), "--element", "u")
    assert code == 0 and payload["status"] == "witness"
    code, payload = run_json(
        capsys, "dyn", "rigid", "--gens", str(gens),
        "--element", "[0->0, 10->11, 11->10]", "--partition", "{0}; {1}",
    )
    assert code == 0 and len(payload["factors"]) == 2
    code = main(["dyn", "minimal", "--gens", str(gens), "--depth", "1", "--len", "1"])
    assert code == 3
    assert "generator p is not a unit" in capsys.readouterr().err


def test_text_and_json_agree(capsys):
    code_t, out = run(capsys, "dyn", "minimal", "--gens", "higman_thompson:2", "--depth", "1", "--len", "2")
    code_j, payload = run_json(capsys, "dyn", "minimal", "--gens", "higman_thompson:2", "--depth", "1", "--len", "2")
    assert code_t == code_j == 0
    assert "witness" in out and payload["status"] == "witness"


CERT_SCHEMA = {
    "type": "object",
    "properties": {
        "status": {"enum": ["witness", "refuted_at_bound", "exhausted_at_bound"]},
        "bounds": {"type": "object"},
        "nodes_explored": {"type": "integer", "minimum": 0},
        "witness": {},
        "refuted": {},
        "detail": {"type": "string"},
    },
    "required": ["status", "bounds", "nodes_explored"],
}


def test_certificate_json_schema(capsys):
    import jsonschema

    for argv in (
        ["dyn", "expansive", "--gens", "higman_thompson:2", "--partition", "atoms:1",
         "--depth", "2", "--len", "3"],
        ["dyn", "orbit", "--gens", "higman_thompson:2", "--prefix", "0",
         "--count", "5", "--len", "6"],
        ["bi", "member", "cyc", "--gens", "higman_thompson:2", "--len", "1", "--depth", "1"],
        ["dyn", "minimal", "--gens", "higman_thompson:2", "--depth", "1", "--len", "0"],
    ):
        code, payload = run_json(capsys, *argv)
        payload.pop("op")
        jsonschema.validate(payload, CERT_SCHEMA)


def test_dyn_minimal_refuted_exits_1(capsys):
    # with words of length 0, {0} reaches only itself and never meets {1}
    code, payload = run_json(
        capsys, "dyn", "minimal", "--gens", "higman_thompson:2", "--depth", "1", "--len", "0"
    )
    assert code == 1
    assert payload["status"] == "refuted_at_bound"
    assert payload["refuted"]["pair"] == ["{0}", "{1}"]


def test_dyn_fullcompress_failures_exit_1(capsys):
    code, payload = run_json(
        capsys, "dyn", "fullcompress", "--gens", "higman_thompson:2", "--depth", "1", "--len", "1"
    )
    assert code == 1
    assert payload["ok"] is False
    assert payload["pairs"] == 4


MACHINES = """\
# foo.x swaps the first letter; bar.y is an odometer carrying on 0
machine foo 2
state x perm 1 0 to e e
state e perm 0 1 to e e
machine bar 2
state y perm 1 0 to y e
state e perm 0 1 to e e
"""


def machines_file(tmp_path, text=MACHINES):
    path = tmp_path / "machines.txt"
    path.write_text(text)
    return str(path)


def test_machine_states_are_named_machine_dot_state(tmp_path, capsys):
    machines = machines_file(tmp_path)
    assert run(capsys, "eq", "[~->~:foo.x]", "1", "--machines", machines) == (1, "eq: False\n")
    assert run(capsys, "eq", "[~->~:foo.x*foo.x]", "1", "--machines", machines) == (0, "eq: True\n")
    code, _ = run(capsys, "eq", "[~->~:bar.y*foo.x]", "[0->0:bar.e, 1->1:bar.y]", "--machines", machines)
    assert code == 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("state x perm 1 0 to x x\n", "malformed machine line"),
        ("machine foo two\n", "malformed machine line"),
        ("machine foo 2\nstate x perm 1 0\n", "malformed machine line"),
        (MACHINES + "machine foo 2\nstate e perm 0 1 to e e\n", "machine foo is defined twice"),
        ("machine foo 2\nstate x-1 perm 1 0 to x-1 x-1\n", "state name 'x-1'"),
        ("machine f-o 2\nstate x perm 1 0 to x x\n", "machine name 'f-o'"),
    ],
    ids=["state-first", "alphabet", "short-state", "machine-twice", "state-name", "machine-name"],
)
def test_malformed_machine_files_are_usage_errors(tmp_path, capsys, text, message):
    assert main(["eq", "1", "1", "--machines", machines_file(tmp_path, text)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("tail", ["adder", "bar.y", "a*bar.y^-1*foo.x"])
def test_printed_tails_parse_back(tmp_path, capsys, tail):
    opts = ["--machines", machines_file(tmp_path)]
    session = Session(build_arg_parser().parse_args(["eq", "1", "1", *opts]))
    x, y = f"[0->1:{tail}, 1->0]", f"[~->~:{tail}]"
    code, payload = run_json(capsys, "compose", x, y, *opts)
    assert code == 0
    assert eq(session.parser.parse_element(payload["value"]), compose(session.element(x), session.element(y)))
    code, payload = run_json(capsys, "star", x, *opts)
    assert code == 0
    assert eq(session.parser.parse_element(payload["value"]), star(session.element(x)))
    for w in ("011", "000", "1"):
        code, payload = run_json(capsys, "eval", y, w, *opts)
        assert code == 0
        residual = eval_at(session.element(y), tuple(map(int, w))).residual
        printed = session.parser.parse_element(f"[~->~:{payload['residual']}]")
        assert eq(printed, PartialMap(2, [Branch((), (), residual)]))


# m1.a and m2.b both swap the root letter with trivial sections, so the
# sibling merge of TWO_MACHINE_MAP may put either in front of g*h; these
# state names give different set orders under hash seeds 0 and 1
TWO_MACHINES = """\
machine m1 2
state a perm 1 0 to k k
state k perm 0 1 to k k
state g perm 0 1 to g a
machine m2 2
state b perm 1 0 to f f
state f perm 0 1 to f f
state h perm 0 1 to h b
"""
TWO_MACHINE_MAP = "[0->1:m1.g*m2.h, 1->0:m1.a*m2.b]"


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    machines = machines_file(tmp_path, TWO_MACHINES)
    commands = [
        ["compose", TWO_MACHINE_MAP, "1", "--machines", machines],
        ["bi", "enumerate", "--gens", "grigorchuk", "--len", "1", "--depth", "1", "--arity", "2"],
        ["genkit", "express", "--gens", "higman_thompson:2", "--partition", "atoms:3",
         "--msec", "msec({0000}; s00_01@{0000}, s00_10@{0000})", "--perm", "1,2,0"],
    ]
    for argv in commands:
        outputs = [_fresh_process([*argv, "--json"], PYTHONHASHSEED=seed) for seed in ("0", "1")]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1], argv
        if argv[0] == "compose":
            # m1 appears first in g*h
            assert json.loads(outputs[0][1])["value"] == "[~->~:m1.a*m1.g*m2.h]"


# Grigorchuk's table under another name
OTHER_GRIGORCHUK = """\
machine other 2
state a perm 1 0 to e e
state b perm 0 1 to a c
state c perm 0 1 to a d
state d perm 0 1 to e b
state e perm 0 1 to e e
"""


def test_the_default_registry_reads_no_machine_name():
    # a live machine with Grigorchuk's table is the one grigorchuk() returns,
    # so the session's Grigorchuk is named other here
    script = (
        "import sys\n"
        "from cantorfull import cli, tails\n"
        f"other = tails.parse_machines({OTHER_GRIGORCHUK!r})['other']\n"
        "assert tails.grigorchuk() is other and other.name == 'other'\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for argv, code, out in (
        (["eq", "[~->~:a*a]", "1"], 0, "eq: True\n"),
        (["eq", "[0->1:e]", "1"], 3, ""),
    ):
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
        )
        assert (done.returncode, done.stdout) == (code, out), done.stderr


def readme_commands():
    """The argument lists of the cfl commands in the README's CLI block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("cfl "):
            commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_print_the_same_warm_and_cold(capsys):
    commands = readme_commands()
    assert len(commands) == 14

    def outputs():
        return [run(capsys, *argv, *form) for argv in commands for form in ((), ("--json",))]

    cli._family.cache_clear()
    cold = outputs()
    # later rounds read the family tables, with their balls, and the
    # operation, identity and key caches the first round filled
    assert outputs() == cold
    assert outputs() == cold
    for memo in (cli._family, pmap.compose, pmap.star, pmap.as_idempotent, tails._minimal_rows):
        memo.cache_clear()
    tails._identity_cache.clear()
    assert outputs() == cold


def test_verify_builds_its_family_table_and_unit_ball_once_per_process(monkeypatch, capsys):
    counts = {"higman_thompson": 0, "WordBall": 0}
    builder = families.FAMILY_BUILDERS["higman_thompson"]

    def counting_builder(*args):
        counts["higman_thompson"] += 1
        return builder(*args)

    class CountingBall(pmap.WordBall):
        def __init__(self, letters, d):
            counts["WordBall"] += 1
            super().__init__(letters, d)

    monkeypatch.setitem(families.FAMILY_BUILDERS, "higman_thompson", counting_builder)
    monkeypatch.setattr(pmap, "WordBall", CountingBall)
    cli._family.cache_clear()
    verify = ["genkit", "verify", "--gens", "higman_thompson:2", "--partition", "atoms:3"]
    first = run(capsys, *verify)
    assert first[0] == 0
    for _ in range(49):
        assert run(capsys, *verify) == first
    assert counts == {"higman_thompson": 1, "WordBall": 1}
    cli._family.cache_clear()


def test_no_command_edits_a_shared_family_table(capsys):
    cli._family.cache_clear()
    table = cli._family("higman_thompson:2").table
    before = list(table.mapping.items())
    extra = [
        ["msec", "extend", "msec({00}; [00->01], [00->10])", *HT2],
        ["bi", "member", "[0->1,1->0]", *HT2, "--len", "1", "--depth", "1"],
    ]
    for argv in readme_commands() + extra:
        assert run(capsys, *argv)[0] == 0, argv
    assert cli._family("higman_thompson:2").table is table
    after = list(table.mapping.items())
    assert [name for name, _ in after] == [name for name, _ in before]
    assert all(m is n for (_, m), (_, n) in zip(after, before))


def test_idempotent_atoms_evaluate_in_expressions(capsys):
    assert run(capsys, "eq", "{0}", "[0->0]") == (0, "eq: True\n")
    code, out = run(capsys, "compose", "s00_01", "{00}", *HT2)
    assert (code, out) == (0, "compose: [00->01]\n")


@pytest.mark.parametrize(
    "text, line, message",
    [
        # "a b" would print as (a b)@{~} in bi enumerate, which does not parse back
        ("a b = [0->1, 1->0]\n", 1, "'a b' is not a generator name"),
        ("# two names\nx = [0->1, 1->0]\nx = 1\n", 3, "generator x is defined twice"),
        (" = 1\n", 1, "'' is not a generator name"),
        ("x^-1 = 1\n", 1, "'x^-1' is not a generator name"),
    ],
    ids=["space", "repeated", "empty", "star"],
)
def test_gens_file_refuses_unreadable_and_repeated_names(tmp_path, capsys, text, line, message):
    gens = tmp_path / "gens.txt"
    gens.write_text(text)
    assert main(["eq", "x", "1", "--gens", str(gens)]) == 3
    assert capsys.readouterr().err == f"error: line {line} of {gens}: {message}\n"


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("a = [0->1, 1->0]\nb = [0->]\n", 2, 9),
        # a comment line, indentation and spacing around "=" all count
        ("# c\n  a  =   [0->1, 1->0]  # swap\n\tb =[0->1, 1->]\n", 3, 15),
    ],
    ids=["plain", "spaced"],
)
def test_gens_file_parse_errors_name_the_file_line_and_column(tmp_path, capsys, text, line, col):
    gens = tmp_path / "gens.txt"
    gens.write_text(text)
    assert main(["eq", "a", "1", "--gens", str(gens)]) == 3
    err = capsys.readouterr().err
    assert err == f"parse error: line {line}, col {col} of {gens}: expected a word (digits or ~)\n"
    assert text.splitlines()[line - 1][col - 1] == "]"


def test_cell_lists_over_the_bound_are_refused_before_any_cell_is_built(monkeypatch, capsys):
    # the bound is 1,024 cells; four keeps every list here small
    def built(n, d):
        raise AssertionError(f"built the depth-{n} cells")

    monkeypatch.setattr(clopen, "MAX_CELLS", 4)
    for argv in (["genkit", "verify", *HT2, "--partition", "atoms:2"],
                 ["dyn", "minimal", *HT2, "--depth", "2", "--len", "1"]):
        assert main(argv) in (0, 1)
    capsys.readouterr()
    monkeypatch.setattr(clopen, "atoms", built)
    for argv in (["genkit", "verify", *HT2, "--partition", "atoms:3"],
                 ["dyn", "expansive", *HT2, "--partition", "{0};{1}", "--depth", "3"],
                 ["dyn", "minimal", *HT2, "--depth", "3"],
                 ["dyn", "minimal", *HT2, "--depth", "30"]):
        assert main(argv) == 3
        depth = argv[-1].rsplit(":", 1)[-1]
        assert capsys.readouterr().err == f"error: depth-{depth} cells number 2^{depth}, over 4\n"
