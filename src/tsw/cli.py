"""Command-line front end.

Every command reads formulas in the text grammar and teams/families as
JSON, prints either a human-readable line or (with ``--json``) a stable
JSON document, and exits 0 on success, 1 on parse/validation problems,
2 when a variable or size cap is exceeded, and 3 on an internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

# Read as module attributes when a command runs: the package runs these two
# on first use, so a command that needs neither never runs them.
from . import definability, expressiveness
from .errors import (
    CapExceededError,
    InternalInvariantError,
    ParseError,
    ValidationError,
)
from .formulas import Variable, is_atom, substitute, to_text
from .parsing import parse
from .semantics import (
    check_basic_properties,
    entails,
    equivalent,
    evaluate,
    truth_set,
    valid,
    var_set,
)
from .teams import Team, TeamFamily, VarSet

DEFAULT_SEARCH_POOL = "r1,r2,bot,top,p,!p,=(p)"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code table
    instead of exiting 2."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    top = _Parser(prog="tsw", description="team-semantics workbench")
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, description=help)

    def flag_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON")

    def flag_vars(p):
        p.add_argument("--vars", help="comma-separated variable names")

    def flag_force(p):
        p.add_argument("--force", action="store_true", help="raise the cap to the hard maximum")

    p = cmd("parse", "parse a formula and print its canonical form")
    p.add_argument("-f", "--formula", required=True)
    flag_json(p)

    p = cmd("eval", "evaluate a formula on a team")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-t", "--team", required=True, help="team JSON file or inline rows")
    flag_vars(p)
    flag_json(p)

    p = cmd("truthset", "all satisfying teams over a variable set")
    p.add_argument("-f", "--formula", required=True)
    flag_vars(p)
    flag_force(p)
    flag_json(p)

    p = cmd("valid", "whether every team satisfies the formula")
    p.add_argument("-f", "--formula", required=True)
    flag_json(p)

    p = cmd("entails", "whether the first formula entails the second")
    p.add_argument("-f", "--formula", action="append", required=True)
    flag_force(p)
    flag_json(p)

    p = cmd("equiv", "whether two formulas have the same truth set")
    p.add_argument("-f", "--formula", action="append", required=True)
    flag_force(p)
    flag_json(p)

    p = cmd("properties", "check the guaranteed structural properties")
    p.add_argument("-f", "--formula", required=True)
    flag_vars(p)
    p.add_argument("--seed", type=int, default=0)
    flag_force(p)
    flag_json(p)

    p = cmd("theta", "the formula excluding one team from all its superteams")
    p.add_argument("-t", "--team", required=True, help="team JSON file or inline rows")
    flag_vars(p)
    p.add_argument("--raw", action="store_true", help="keep the two-sided tensor shape")
    flag_json(p)

    p = cmd("synth", "synthesize a formula for a downward-closed family")
    p.add_argument("--family", required=True, help="family JSON file")
    p.add_argument("--target", choices=["pd", "inql"], required=True)
    flag_force(p)
    flag_json(p)

    p = cmd("translate", "re-express a formula in a target fragment")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("--target", choices=["pd", "inql"], required=True)
    flag_force(p)
    flag_json(p)

    p = cmd("subst", "substitute instances into a context's placeholders")
    p.add_argument("-c", "--context", required=True)
    p.add_argument("-f", "--formula", action="append", required=True, help="instance for r1, r2, ...")
    flag_json(p)

    p = cmd("normalize", "remove inconsistent subformulas from a context")
    p.add_argument("-c", "--context", required=True)
    flag_json(p)

    p = cmd("consistent", "whether some nonempty team satisfies the all-top instance")
    p.add_argument("-c", "--context", required=True)
    flag_json(p)

    p = cmd("truthfn", "find a truth function for an instantiated context on a team")
    p.add_argument("-c", "--context", required=True)
    p.add_argument("-f", "--formula", action="append", required=True, help="instance for r1, r2, ...")
    p.add_argument("-t", "--team", required=True, help="team JSON file or inline rows")
    flag_vars(p)
    flag_json(p)

    p = cmd("reduce", "a truth function keeping placeholder leaves off the full team")
    p.add_argument("-c", "--context", required=True)
    flag_vars(p)
    flag_json(p)

    p = cmd("refute", "counterexample to a context defining a connective")
    p.add_argument("-c", "--context", required=True)
    p.add_argument("--connective", choices=["or", "imp"], required=True)
    flag_json(p)

    p = cmd("search", "refute every context up to a size bound")
    p.add_argument("--connective", choices=["or", "imp"], required=True)
    p.add_argument("--pool", default=DEFAULT_SEARCH_POOL, help="comma-separated atom pool")
    p.add_argument("--max-size", type=int, default=7, help="syntax-tree node bound (default 7)")
    p.add_argument(
        "--closure",
        action="store_true",
        help="check every size: the signatures reachable from the pool (ignores --max-size)",
    )
    flag_json(p)

    p = cmd("conditions", "check the non-definability preconditions of a connective")
    p.add_argument("--connective", choices=["or", "imp", "contra"], required=True)
    flag_json(p)

    return top


def _parse_vars(csv: Optional[str]) -> Optional[VarSet]:
    """The ``--vars`` names in the order given, as a team file lists them."""
    if csv is None:
        return None
    names = [part.strip() for part in csv.split(",") if part.strip()]
    if not names:
        raise ValidationError("--vars needs at least one name")
    return VarSet(tuple(Variable(n) for n in names))


def _load_team(arg: str, vars: Optional[VarSet]) -> Team:
    text = arg.strip()
    if text.startswith("["):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValidationError(f"bad inline team JSON: {e}") from None
        if vars is None:
            raise ValidationError("inline team rows need --vars")
        return Team.from_rows(vars, rows)
    try:
        with open(text) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise ValidationError(f"cannot read team file: {e}") from None
    except json.JSONDecodeError as e:
        raise ValidationError(f"bad team JSON in {text}: {e}") from None
    team = Team.from_json(obj)
    if vars is not None and team.vars != vars:
        raise ValidationError("--vars disagrees with the team file's variable set")
    return team


def _load_family(path: str) -> TeamFamily:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise ValidationError(f"cannot read family file: {e}") from None
    except json.JSONDecodeError as e:
        raise ValidationError(f"bad family JSON in {path}: {e}") from None
    return TeamFamily.from_json(obj)


def _two_formulas(texts: list[str], what: str):
    if len(texts) != 2:
        raise ValidationError(f"{what} needs exactly two -f/--formula arguments")
    return parse(texts[0]), parse(texts[1])


def _bool_result(value: bool) -> tuple[str, dict]:
    return ("true" if value else "false"), {"result": value}


def _formula_result(phi) -> tuple[str, dict]:
    return to_text(phi), {"formula": to_text(phi)}


def _truth_function_human(payload: dict) -> str:
    return "\n".join(
        f"node {n['id']}  {n['formula']}  ->  {json.dumps(n['team'])}" for n in payload["nodes"]
    )


def _run(args) -> tuple[str, dict]:
    """The command's output: its human-readable text and its JSON payload."""
    if args.command == "parse":
        phi = parse(args.formula)
        return to_text(phi), {"formula": to_text(phi), "vars": var_set(phi).names()}

    if args.command == "eval":
        phi = parse(args.formula)
        team = _load_team(args.team, _parse_vars(args.vars))
        return _bool_result(evaluate(phi, team))

    if args.command == "truthset":
        phi = parse(args.formula)
        vars = _parse_vars(args.vars)
        family = truth_set(phi, vars, force=args.force)
        lines = [f"{len(family)} teams over {{{','.join(family.vars.names())}}}"]
        lines += [json.dumps(team.rows()) for team in family.teams()]
        return "\n".join(lines), family.to_json()

    if args.command == "valid":
        return _bool_result(valid(parse(args.formula)))

    if args.command == "entails":
        a, b = _two_formulas(args.formula, "entails")
        return _bool_result(entails(a, b, force=args.force))

    if args.command == "equiv":
        a, b = _two_formulas(args.formula, "equiv")
        return _bool_result(equivalent(a, b, force=args.force))

    if args.command == "properties":
        phi = parse(args.formula)
        report = check_basic_properties(
            phi, _parse_vars(args.vars), seed=args.seed, force=args.force
        )
        human = "\n".join(
            f"{c.name}: {'pass' if c.passed else 'FAIL'}  ({c.detail})" for c in report.checks
        )
        return human, report.to_json()

    if args.command == "theta":
        team = _load_team(args.team, _parse_vars(args.vars))
        return _formula_result(expressiveness.theta_star(team, raw=args.raw))

    if args.command == "synth":
        family = _load_family(args.family)
        synth = expressiveness.synth_pd if args.target == "pd" else expressiveness.synth_inql
        return _formula_result(synth(family, force=args.force))

    if args.command == "translate":
        phi = parse(args.formula)
        return _formula_result(expressiveness.translate(phi, args.target, force=args.force))

    if args.command == "subst":
        context = parse(args.context)
        instances = [parse(t) for t in args.formula]
        return _formula_result(substitute(context, instances))

    if args.command == "normalize":
        return _formula_result(definability.normalize(parse(args.context)))

    if args.command == "consistent":
        return _bool_result(definability.is_consistent(parse(args.context)))

    if args.command == "truthfn":
        context = parse(args.context)
        instances = [parse(t) for t in args.formula]
        team = _load_team(args.team, _parse_vars(args.vars))
        tau = definability.find_truth_function(context, instances, team)
        if tau is None:
            human = "none (the team does not satisfy the instantiated context)"
            return human, {"found": False, "truth_function": None}
        payload = tau.to_json()
        return _truth_function_human(payload), {"found": True, "truth_function": payload}

    if args.command == "reduce":
        context = parse(args.context)
        vars = _parse_vars(args.vars)
        if vars is None:
            vars = var_set(context)
        tau = definability.build_reduced_truth_function(context, vars)
        payload = tau.to_json()
        payload["context"] = payload["nodes"][0]["formula"]
        return _truth_function_human(payload), payload

    if args.command == "refute":
        context = parse(args.context)
        c = definability.builtin_connective(args.connective)
        ce = definability.refute_uniform_definition(context, c)
        inst = ", ".join(to_text(t) for t in ce.instances)
        human = (
            f"instances: {inst}\n"
            f"team: {json.dumps(ce.team.rows())} over {{{','.join(ce.vars.names())}}}\n"
            f"context gives {str(ce.lhs).lower()}, connective gives {str(ce.rhs).lower()}"
        )
        return human, ce.to_json()

    if args.command == "search" and args.closure:
        c = definability.builtin_connective(args.connective)
        report = definability.closure_check(c, _parse_pool(args.pool))
        some = "one matches" if report.reachable else "none matches"
        lines = [
            f"{report.signatures} signatures reachable in {report.rounds} rounds; "
            f"{some} {report.connective} on its battery"
        ]
        lines += [f"  {w['refuted_by'] or 'unrefuted'}: {w['context']}" for w in report.witnesses]
        return "\n".join(lines), report.to_json()

    if args.command == "search":
        c = definability.builtin_connective(args.connective)
        report = definability.search_contexts(c, _parse_pool(args.pool), args.max_size)
        lines = [
            f"{report.refuted}/{report.total} contexts refuted "
            f"(size <= {report.max_size}, {report.elapsed_s}s)"
        ]
        lines += [f"  {label}: {count}" for label, count in sorted(report.by_instance.items())]
        if report.unrefuted:
            lines.append(f"unrefuted: {', '.join(report.unrefuted)}")
        return "\n".join(lines), report.to_json()

    if args.command == "conditions":
        report = definability.condition_check(definability.builtin_connective(args.connective))
        lines = []
        for w in report.witnesses:
            mark = "holds" if w.holds else "FAILS"
            inst = f"  [{', '.join(w.instances)}]" if w.instances else ""
            lines.append(f"({w.condition}) {mark}: {w.detail}{inst}")
        return "\n".join(lines), report.to_json()

    raise InternalInvariantError(f"unhandled command {args.command!r}")  # pragma: no cover


def _emit(args, human: str, payload: dict) -> None:
    print(json.dumps(payload, indent=2) if args.json else human)


def _parse_pool(csv: str) -> list:
    """The ``--pool`` atoms, split at commas outside parentheses such as ``=(p,q;r)``'s."""
    texts, depth = [""], 0
    for ch in csv:
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            texts.append("")
        else:
            texts[-1] += ch
    return [_parse_pool_atom(t) for t in texts]


def _parse_pool_atom(text: str):
    phi = parse(text.strip())
    if not is_atom(phi):
        raise ValidationError(f"pool entry {text.strip()!r} is not an atom")
    return phi


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _emit(args, *_run(args))
        return 0
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalInvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
