import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tsw.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_parse_human(capsys):
    code, out, err = run(capsys, "parse", "-f", "p & q + r")
    assert code == 0
    assert out == "(p & q) + r\n"
    assert err == ""


def test_parse_json(capsys):
    obj = run_json(capsys, "parse", "-f", "p & q + r", "--json")
    assert obj == {"formula": "(p & q) + r", "vars": ["p", "q", "r"]}


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "parse", "-f", "p & ")
    assert code == 1
    assert out == ""
    assert err == "error: expected an atom, found 'end of input' (at position 4)\n"


def test_eval_json_pin(capsys):
    obj = run_json(
        capsys, "eval", "-f", "=(p;q)", "-t", "[[1,0],[1,1]]", "--vars", "p,q", "--json"
    )
    assert obj == {"result": False}


def test_eval_human(capsys):
    code, out, _ = run(capsys, "eval", "-f", "p", "-t", "[[1]]", "--vars", "p")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "eval", "-f", "!p", "-t", "[[1]]", "--vars", "p")
    assert (code, out) == (0, "false\n")


def test_eval_team_from_file(capsys, tmp_path):
    path = tmp_path / "team.json"
    path.write_text(json.dumps({"vars": ["p", "q"], "team": [[1, 0], [1, 1]]}))
    code, out, _ = run(capsys, "eval", "-f", "p", "-t", str(path))
    assert (code, out) == (0, "true\n")


def test_eval_team_file_vars_must_agree(capsys, tmp_path):
    path = tmp_path / "team.json"
    path.write_text(json.dumps({"vars": ["p"], "team": [[1]]}))
    code, _, err = run(capsys, "eval", "-f", "p", "-t", str(path), "--vars", "p,q")
    assert code == 1
    assert err.startswith("error:")


def test_inline_team_requires_vars(capsys):
    code, _, err = run(capsys, "eval", "-f", "p", "-t", "[[1]]")
    assert code == 1
    assert "--vars" in err


def test_vars_flag_keeps_the_given_order(capsys, tmp_path):
    # inline rows are read in the --vars order, as a team file's rows are
    code, out, _ = run(capsys, "eval", "-f", "q", "-t", "[[1,0]]", "--vars", "q,p")
    assert (code, out) == (0, "true\n")
    path = tmp_path / "team.json"
    path.write_text(json.dumps({"vars": ["q", "p"], "team": [[1, 0]]}))
    code, out, _ = run(capsys, "eval", "-f", "q", "-t", str(path))
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "eval", "-f", "q", "-t", str(path), "--vars", "q,p")
    assert (code, out) == (0, "true\n")
    code, out, err = run(capsys, "eval", "-f", "q", "-t", "[[1,0]]", "--vars", "q,q")
    assert (code, out) == (1, "")
    assert err == "error: duplicate variables in variable set\n"


@pytest.mark.parametrize(
    "obj",
    [
        {"vars": [1], "team": [[0]]},
        {"vars": None, "team": [[0]]},
        {"vars": "pq", "team": [[0, 0]]},
        {"vars": ["p"], "team": [[0], 5]},
        {"vars": ["p"], "teams": [[[0]], 3]},
        "[0]",
        "[[0.0]]",
        "[[true]]",
    ],
    ids=[
        "int_var",
        "null_vars",
        "string_vars",
        "int_row",
        "int_team",
        "flat_rows",
        "float_cell",
        "bool_cell",
    ],
)
def test_malformed_team_input_exits_one(capsys, tmp_path, obj):
    if isinstance(obj, str):  # inline rows
        code, out, err = run(capsys, "eval", "-f", "p", "-t", obj, "--vars", "p")
    elif "teams" in obj:
        path = tmp_path / "family.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "synth", "--family", str(path), "--target", "pd")
    else:
        path = tmp_path / "team.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "eval", "-f", "p", "-t", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_truthset_human(capsys):
    code, out, _ = run(capsys, "truthset", "-f", "=(p)")
    assert code == 0
    assert out.splitlines() == ["3 teams over {p}", "[]", "[[0]]", "[[1]]"]


def test_truthset_json(capsys):
    obj = run_json(capsys, "truthset", "-f", "=(p)", "--json")
    assert obj == {"vars": ["p"], "teams": [[], [[0]], [[1]]]}


def test_truthset_cap_exit_codes(capsys):
    code, _, err = run(capsys, "truthset", "-f", "p & q & r & s")
    assert code == 2
    assert "force raises it to the hard maximum of 4" in err
    code, out, _ = run(capsys, "truthset", "-f", "p & q & r & s", "--force")
    assert code == 0
    assert out.splitlines()[0] == "2 teams over {p,q,r,s}"
    code, _, err = run(capsys, "truthset", "-f", "p & q & r & s & t", "--force")
    assert code == 2


def test_valid_entails_equiv(capsys):
    assert run(capsys, "valid", "-f", "p + !p")[:2] == (0, "true\n")
    assert run(capsys, "valid", "-f", "p | !p")[:2] == (0, "false\n")
    assert run(capsys, "entails", "-f", "p & q", "-f", "p")[:2] == (0, "true\n")
    assert run(capsys, "equiv", "-f", "p + p", "-f", "p")[:2] == (0, "true\n")
    assert run(capsys, "equiv", "-f", "p", "-f", "q")[:2] == (0, "false\n")


def test_two_formula_commands_require_exactly_two(capsys):
    code, _, err = run(capsys, "entails", "-f", "p")
    assert code == 1
    assert "exactly two" in err


def test_properties_human(capsys):
    code, out, _ = run(capsys, "properties", "-f", "=(p;q)", "--seed", "7")
    assert code == 0
    assert out.splitlines() == [
        "empty_team: pass  (the empty team satisfies the formula)",
        "downward_closure: pass  (satisfaction is closed under subteams)",
        "locality: pass  (the verdict is invariant under fresh-variable extension)",
        "disjunction_property: pass  (not a '|' formula; vacuous)",
    ]


def test_properties_json_deterministic(capsys):
    a = run_json(capsys, "properties", "-f", "(p + q) -> =(p)", "--seed", "3", "--json")
    b = run_json(capsys, "properties", "-f", "(p + q) -> =(p)", "--seed", "3", "--json")
    assert a == b
    assert a["ok"] is True


def test_theta_pins(capsys):
    code, out, _ = run(capsys, "theta", "-t", "[[1]]", "--vars", "p")
    assert (code, out) == (0, "!p\n")
    code, out, _ = run(capsys, "theta", "-t", "[[1]]", "--vars", "p", "--raw")
    assert (code, out) == (0, "bot + !p\n")


def test_theta_empty_team_rejected(capsys):
    code, _, err = run(capsys, "theta", "-t", "[]", "--vars", "p")
    assert code == 1
    assert err.startswith("error:")


def test_synth_pins(capsys, tmp_path):
    fam = {"vars": ["p"], "teams": [[], [[1]]]}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam))
    code, out, _ = run(capsys, "synth", "--family", str(path), "--target", "pd")
    assert (code, out) == (0, "p & =(p)\n")
    code, out, _ = run(capsys, "synth", "--family", str(path), "--target", "inql")
    assert (code, out) == (0, "p\n")


def test_synth_rejects_open_family(capsys, tmp_path):
    fam = {"vars": ["p"], "teams": [[[0], [1]]]}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam))
    code, _, err = run(capsys, "synth", "--family", str(path), "--target", "pd")
    assert code == 1
    assert err.startswith("error:")


def test_translate_roundtrip(capsys):
    code, out, _ = run(capsys, "translate", "-f", "=(p;q)", "--target", "inql")
    assert code == 0
    translated = out.strip()
    code, out, _ = run(capsys, "equiv", "-f", "=(p;q)", "-f", translated)
    assert (code, out) == (0, "true\n")


def test_subst(capsys):
    code, out, _ = run(capsys, "subst", "-c", "r1 + r2", "-f", "p", "-f", "!p")
    assert (code, out) == (0, "p + !p\n")


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "-c", "(bot & r1) + r2")
    assert (code, out) == (0, "r2\n")


def test_consistent(capsys):
    code, out, _ = run(capsys, "consistent", "-c", "bot & r1")
    assert (code, out) == (0, "false\n")
    code, out, _ = run(capsys, "consistent", "-c", "r1 + !p")
    assert (code, out) == (0, "true\n")
    # five variables: decided on singletons, with no team-enumeration cap
    code, out, _ = run(capsys, "consistent", "-c", "(=(p,q,r,s;t) + =(p,q,r,s;t)) & r1")
    assert (code, out) == (0, "true\n")
    # but teams over more than MAX_TEAM_VARS variables are refused before
    # any pattern mask is built
    wide = " & ".join(f"x{i}" for i in range(25))
    code, _, err = run(capsys, "consistent", "-c", wide)
    assert code == 2
    assert "teams over more than 24 variables are not supported" in err


def test_truthfn_human(capsys):
    code, out, _ = run(
        capsys, "truthfn", "-c", "r1 + r2", "-f", "p", "-f", "!p",
        "-t", "[[0],[1]]", "--vars", "p",
    )
    assert code == 0
    assert out.splitlines() == [
        "node 0  r1 + r2  ->  [[0], [1]]",
        "node 1  r1  ->  [[1]]",
        "node 2  r2  ->  [[0]]",
    ]


def test_truthfn_unsat(capsys):
    code, out, _ = run(
        capsys, "truthfn", "-c", "r1 & r2", "-f", "p", "-f", "!p",
        "-t", "[[0],[1]]", "--vars", "p",
    )
    assert code == 0
    assert out == "none (the team does not satisfy the instantiated context)\n"


def test_reduce_human_and_json(capsys):
    code, out, _ = run(capsys, "reduce", "-c", "r1 + r2", "--vars", "p")
    assert code == 0
    assert out.splitlines()[0] == "node 0  r1 + r2  ->  [[0], [1]]"
    obj = run_json(capsys, "reduce", "-c", "(bot + top) & (r1 + r2)", "--vars", "p", "--json")
    assert obj["context"] == "top & (r1 + r2)"
    assert obj["vars"] == ["p"]
    assert obj["nodes"][0]["team"] == [[0], [1]]


def test_reduce_precondition_failure(capsys):
    code, _, err = run(capsys, "reduce", "-c", "r1", "--vars", "p")
    assert code == 1
    assert err == "error: a placeholder leaf has no tensor ancestor\n"


def test_refute_json_schema(capsys):
    obj = run_json(capsys, "refute", "-c", "r1 + r2", "--connective", "or", "--json")
    assert obj == {
        "context": "r1 + r2",
        "connective": "or",
        "instances": ["=(p1)", "=(p1)"],
        "vars": ["p1"],
        "team": [[0], [1]],
        "lhs": True,
        "rhs": False,
    }


def test_refute_human(capsys):
    code, out, _ = run(capsys, "refute", "-c", "r1", "--connective", "or")
    assert code == 0
    assert "bot" in out and "top" in out


def test_refute_has_no_extended_flag(capsys):
    code, out, err = run(capsys, "refute", "-c", "r1 + r2", "--connective", "or", "--extended")
    assert code == 1
    assert out == ""
    assert err == "error: unrecognized arguments: --extended\n"


@pytest.mark.parametrize(
    "context",
    # the second one's alternatives exceed the budget, and the lattice the cap
    ["r1 + (a & b & c & d & e)", "r1 + (=(a,b,c,d;e) + =(a,b,c,d;e))"],
)
def test_refute_checks_the_team_cap_first(capsys, context):
    code, out, err = run(capsys, "refute", "-c", context, "--connective", "or")
    assert code == 2
    assert out == ""
    assert err == "error: enumerating teams over 5 variables exceeds the cap of 4\n"


def test_refute_and_consistent_on_a_long_context(capsys):
    context = "r1" + " & p" * 3000
    for connective, instances in (("or", ["bot", "top"]), ("imp", ["bot", "bot"])):
        obj = run_json(capsys, "refute", "-c", context, "--connective", connective, "--json")
        assert obj == {
            "context": context,
            "connective": connective,
            "instances": instances,
            "vars": ["p"],
            "team": [[0]],
            "lhs": False,
            "rhs": True,
        }
    assert run_json(capsys, "consistent", "-c", context, "--json") == {"result": True}


def test_search_json_deterministic(capsys):
    a = run_json(capsys, "search", "--connective", "or", "--max-size", "3", "--json")
    b = run_json(capsys, "search", "--connective", "or", "--max-size", "3", "--json")
    a.pop("elapsed_s")
    b.pop("elapsed_s")
    assert a == b
    assert a["refuted"] == 63
    assert a["by_instance"] == {"bot,top": 41, "top,bot": 8, "theta,theta": 14}


def test_search_has_no_jobs_flag(capsys):
    code, out, err = run(capsys, "search", "--connective", "imp", "--jobs", "2")
    assert code == 1
    assert out == ""
    assert err == "error: unrecognized arguments: --jobs 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["truthset", "-f", "p"],
        ["entails", "-f", "p", "-f", "p"],
        ["equiv", "-f", "p", "-f", "p"],
        ["properties", "-f", "p"],
        ["synth", "--family", "family.json", "--target", "pd"],
        ["translate", "-f", "p", "--target", "pd"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_max_vars_flag(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-vars", "3")
    assert code == 1
    assert out == ""
    assert err == "error: unrecognized arguments: --max-vars 3\n"


def test_search_closure_json(capsys):
    code, out, err = run(capsys, "search", "--connective", "imp", "--closure", "--json")
    assert code == 0, err
    obj = json.loads(out)
    witnesses = obj.pop("witnesses")
    assert obj == {
        "connective": "imp",
        "pool": ["r1", "r2", "bot", "top", "p", "!p", "=(p)"],
        "signatures": 36,
        "rounds": 3,
        "reachable": False,
    }
    assert len(witnesses) == 36
    assert witnesses[:4] == [
        {"context": "r1", "refuted_by": "bot,bot"},
        {"context": "r2", "refuted_by": "bot,bot"},
        {"context": "bot", "refuted_by": "bot,bot"},
        {"context": "top", "refuted_by": "top,bot"},
    ]
    assert {w["refuted_by"] for w in witnesses} == {"bot,bot", "top,bot"}


def test_search_closure_human(capsys):
    code, out, _ = run(capsys, "search", "--connective", "or", "--closure", "--pool", "r1,r2,top")
    assert code == 0
    assert out.splitlines() == [
        "7 signatures reachable in 2 rounds; none matches or on its battery",
        "  bot,top: r1",
        "  top,bot: r2",
        "  theta,theta: top",
        "  bot,top: r1 + r1",
        "  bot,top: r1 & r2",
        "  top,bot: r2 + r2",
        "  bot,top: (r1 + r1) & (r2 + r2)",
    ]


def test_import_loads_no_process_pool():
    # the CLI's cold start imports neither process pools nor their machinery
    code = (
        "import sys, tsw.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_search_human_summary(capsys):
    code, out, _ = run(capsys, "search", "--connective", "or", "--max-size", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("63/63 contexts refuted (size <= 3,")
    assert lines[1:] == ["  bot,top: 41", "  theta,theta: 14", "  top,bot: 8"]


def test_search_cap_exit_code(capsys):
    code, _, err = run(capsys, "search", "--connective", "or", "--max-size", "33")
    assert code == 2
    assert err.startswith("error:")


def test_search_even_size_rounds_down(capsys):
    # only odd tree sizes exist, so an even bound adds nothing
    even = run_json(capsys, "search", "--connective", "or", "--max-size", "4", "--json")
    assert even["total"] == 63


def test_conditions_human(capsys):
    code, out, _ = run(capsys, "conditions", "--connective", "contra")
    assert code == 0
    assert out.splitlines() == [
        "(i[1]) FAILS: every probed vector entails argument 1",
        "(i[2]) FAILS: every probed vector entails argument 2",
        "(ii) FAILS: the probed vectors are not valid  [top, top]",
        "(iii) holds: the full team refutes the designated vector  [top, top]",
    ]


def test_conditions_json(capsys):
    obj = run_json(capsys, "conditions", "--connective", "or", "--json")
    assert obj["all_hold"] is True
    assert [w["condition"] for w in obj["witnesses"]] == ["i[1]", "i[2]", "ii", "iii"]


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "eval", "-f", "p")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "refute", "-c", "r1", "--connective", "contra")[0] == 1


def test_vars_flag_tolerates_stray_commas(capsys):
    code, out, _ = run(capsys, "truthset", "-f", "p", "--vars", "p,,q")
    assert code == 0
    assert out.splitlines()[0].endswith("teams over {p,q}")


def test_vars_flag_rejects_empty_and_bad_names(capsys):
    code, _, err = run(capsys, "truthset", "-f", "p", "--vars", ",")
    assert code == 1
    assert err == "error: --vars needs at least one name\n"
    code, _, err = run(capsys, "truthset", "-f", "p", "--vars", "p,1x")
    assert code == 1


def test_every_formula_command_answers_on_a_deep_chain(capsys):
    # 3,000 conjuncts nest 2,999 deep; no command recurses per level
    formula = " & ".join(["(p + !q)"] * 3000)
    context = " & ".join(["(r1 + !p)"] * 3000)
    team = ["-t", "[[0,1]]", "--vars", "p,q"]
    commands = [
        ["parse", "-f", formula],
        ["eval", "-f", formula, *team],
        ["truthset", "-f", formula],
        ["valid", "-f", formula],
        ["entails", "-f", formula, "-f", formula],
        ["equiv", "-f", formula, "-f", formula],
        ["properties", "-f", formula],
        ["translate", "-f", formula, "--target", "inql"],
        ["subst", "-c", context, "-f", "q"],
        ["normalize", "-c", context],
        ["consistent", "-c", context],
        ["truthfn", "-c", context, "-f", "q", *team],
        ["reduce", "-c", context],
        ["refute", "-c", context, "--connective", "imp"],
    ]
    for argv in commands:
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, ""), argv[0]
    assert json.loads(out)["instances"] == ["bot", "bot"]


def test_search_pool_keeps_commas_inside_parentheses(capsys):
    search = ["search", "--connective", "or", "--max-size", "5", "--pool"]
    code, out, err = run(capsys, *search, "r1,r2,=(p,q;r)")
    assert (code, err) == (0, "")
    assert out.startswith("87/87 contexts refuted (size <= 5, ")
    obj = run_json(capsys, *search, " r1, r2 ,=(p, q; r)", "--closure", "--json")
    assert obj["pool"] == ["r1", "r2", "=(p,q;r)"]
    code, _, err = run(capsys, "search", "--connective", "or", "--pool", "r1,r2,(p,q)")
    assert code == 1


def test_parse_past_the_nesting_depth_exits_one(capsys):
    code, out, err = run(capsys, "parse", "-f", "(" * 600 + "p" + ")" * 600)
    assert code == 1
    assert out == ""
    assert err == "error: nesting deeper than 100 levels (at position 100)\n"


def test_valid_over_alternatives_budget_exits_two(capsys):
    code, out, err = run(capsys, "valid", "-f", "=(p,q,r,s,t;u) + =(p,q,r,s,t;u)")
    assert code == 2
    assert out == ""
    assert err.startswith("error: evaluation needs more than")
