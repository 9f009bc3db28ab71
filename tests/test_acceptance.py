"""Acceptance gate: ten criteria, one printed verdict line each.

Verdict lines are registered with the conftest hook, which prints them
in the terminal summary once capture is released.  Each criterion also
asserts its stated tolerance, so a FAIL line always has a matching
test failure.
"""

import itertools
import random
import time

from tsw.definability import (
    build_reduced_truth_function,
    builtin_connective,
    condition_check,
    enumerate_contexts,
    find_truth_function,
    refute_uniform_definition,
    search_contexts,
    verify_counterexample,
    verify_truth_function,
)
from tsw.errors import ValidationError
from tsw.expressiveness import synth_inql, synth_pd, theta_star, translate
from tsw.formulas import (
    Fragment,
    Tensor,
    Variable,
    fragment_check,
    max_placeholder,
    substitute,
    to_text,
)
from tsw.parsing import parse
from tsw.randgen import random_formula, random_team
from tsw.semantics import (
    check_basic_properties,
    entails,
    equivalent,
    evaluate,
    truth_set,
    valid,
)
from tsw.teams import (
    VarSet,
    enumerate_downward_closed_families,
    enumerate_teams,
    full_team,
)

from .conftest import acceptance_lines
from .helpers import naive_tensor_holds

SEED = 20260816

CONTEXT_POOL = tuple(parse(s) for s in ("r1", "r2", "p", "!p", "bot", "top", "=(p)"))
INSTANCE_POOL = tuple(parse(s) for s in ("bot", "top", "p", "!p", "=(p)"))


def _report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    acceptance_lines.append(f"criterion {num:2d}: {verdict}  {detail}")


def test_criterion_01_basic_properties_random_sweep():
    rng = random.Random(SEED)
    pool = [Variable(n) for n in "pqr"]
    t0 = time.perf_counter()
    violations = []
    for i in range(1000):
        phi = random_formula(rng, pool[: rng.randint(0, 3)])
        report = check_basic_properties(phi, seed=rng.randrange(1 << 30))
        if not report.ok:
            violations.append((i, to_text(phi)))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60
    _report(1, ok, f"1000 random formulas, {len(violations)} violations, {elapsed:.1f}s")
    assert violations == []
    assert elapsed < 60


def test_criterion_02_tensor_split_against_naive_all_pairs():
    rng = random.Random(SEED + 2)
    pool = [Variable(n) for n in "pqr"]
    mismatches = 0
    for _ in range(500):
        nvars = rng.randint(0, 3)
        vs = pool[:nvars]
        phi = random_formula(rng, vs, max_depth=3)
        psi = random_formula(rng, vs, max_depth=3)
        varset = VarSet(tuple(sorted(set(vs))))
        x = random_team(rng, varset, max_size=4)
        fast = evaluate(Tensor(phi, psi), x)
        slow = naive_tensor_holds(phi, psi, x)
        if fast != slow:
            mismatches += 1
    _report(2, mismatches == 0, f"500 random split pairs, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_03_theta_law_exhaustive():
    t0 = time.perf_counter()
    checks = failures = 0
    for names in ((), ("p",), ("p", "q")):
        varset = VarSet.of(*names) if names else VarSet(())
        teams = list(enumerate_teams(varset))
        for x in teams:
            if x.is_empty:
                continue
            for raw in (False, True):
                phi = theta_star(x, raw=raw)
                for y in teams:
                    checks += 1
                    if evaluate(phi, y) != (not x.is_subteam_of(y)):
                        failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 5
    _report(3, ok, f"{checks} exclusion checks, {failures} failures, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 5


def test_criterion_04_synthesis_over_every_family():
    varset = VarSet.of("p", "q")
    t0 = time.perf_counter()
    count = failures = 0
    for fam in enumerate_downward_closed_families(varset):
        count += 1
        pd = synth_pd(fam)
        iq = synth_inql(fam)
        if truth_set(pd, varset) != fam:
            failures += 1
        if truth_set(iq, varset) != fam or not fragment_check(iq, Fragment.INQL):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and count == 167 and elapsed < 120
    _report(4, ok, f"{count} families synthesised both ways, {failures} failures, {elapsed:.1f}s")
    assert count == 167
    assert failures == 0
    assert elapsed < 120


def test_criterion_05_translation_round_trip():
    rng = random.Random(SEED + 5)
    pool = [Variable("p"), Variable("q")]
    failures = 0
    for _ in range(200):
        phi = random_formula(rng, pool[: rng.randint(0, 2)])
        pd = translate(phi, "pd")
        iq = translate(phi, "inql")
        back = translate(iq, "pd")
        good = (
            fragment_check(pd, Fragment.PD)
            and fragment_check(iq, Fragment.INQL)
            and fragment_check(back, Fragment.PD)
            and equivalent(phi, pd)
            and equivalent(phi, iq)
            and equivalent(iq, back)
        )
        if not good:
            failures += 1
    _report(5, failures == 0, f"200 formulas translated and round-tripped, {failures} failures")
    assert failures == 0


def test_criterion_06_truth_functions_exhaustive():
    varset = VarSet.of("p")
    teams = list(enumerate_teams(varset))
    t0 = time.perf_counter()
    contexts = list(enumerate_contexts(CONTEXT_POOL, 7))
    checks = mismatches = 0
    for c in contexts:
        k = max_placeholder(c)
        for vec in itertools.product(INSTANCE_POOL, repeat=k):
            grounded = substitute(c, list(vec))
            for x in teams:
                tau = find_truth_function(c, vec, x)
                sat = evaluate(grounded, x)
                if (tau is not None) != sat:
                    mismatches += 1
                elif tau is not None and not verify_truth_function(tau, c, vec):
                    mismatches += 1
                checks += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and len(contexts) == 15015
    _report(
        6,
        ok,
        f"{len(contexts)} contexts, {checks} witness checks, {mismatches} mismatches, {elapsed:.0f}s",
    )
    assert len(contexts) == 15015
    assert mismatches == 0


def test_criterion_07_regression_sextet():
    results = [
        entails(parse("p + p"), parse("p")) is True,
        entails(parse("=(p) + =(p)"), parse("=(p)")) is False,
        valid(parse("((p -> bot) -> bot) -> p")) is True,
        valid(parse("(((p | (p -> bot)) -> bot) -> bot) -> (p | (p -> bot))")) is False,
    ]
    varset = VarSet.of("p")
    nonempty = [x for x in enumerate_teams(varset) if not x.is_empty]
    results.append(all(evaluate(parse("bot -> bot"), x) for x in nonempty))
    results.append(all(not evaluate(parse("top -> bot"), x) for x in nonempty))
    passed = sum(results)
    _report(7, passed == 6, f"{passed}/6 exact regressions")
    assert results == [True] * 6


def test_criterion_08_condition_witnesses():
    disj = condition_check(builtin_connective("or")).to_json()
    imp = condition_check(builtin_connective("imp")).to_json()
    by_cond = lambda obj: {w["condition"]: w for w in obj["witnesses"]}
    d, m = by_cond(disj), by_cond(imp)
    expectations = [
        d["i[1]"]["holds"] and d["i[1]"]["instances"] == ["bot", "top"],
        d["i[2]"]["holds"] and d["i[2]"]["instances"] == ["top", "bot"],
        d["ii"]["holds"] and d["ii"]["instances"] == ["top", "top"],
        d["iii"]["holds"] and d["iii"]["instances"] == ["=(p)", "=(p)"],
        m["i[1]"]["holds"]
        and m["i[2]"]["holds"]
        and m["i[1]"]["instances"] == m["i[2]"]["instances"] == ["bot", "bot"],
        m["ii"]["holds"] and m["ii"]["instances"] == ["top", "top"],
        m["iii"]["holds"] and m["iii"]["instances"] == ["top", "=(p)"],
    ]
    passed = sum(expectations)
    _report(8, passed == 7, f"{passed}/7 condition witnesses exact")
    assert all(expectations)
    assert disj["all_hold"] and imp["all_hold"]


def test_criterion_09_exhaustive_refutation():
    t0 = time.perf_counter()
    summary = []
    all_refuted = True
    for name in ("or", "imp"):
        spec = builtin_connective(name)
        report = search_contexts(spec, CONTEXT_POOL, 5).to_json()
        reverified = 0
        for c in enumerate_contexts(CONTEXT_POOL, 5):
            cx = refute_uniform_definition(c, spec)
            if not verify_counterexample(cx):
                all_refuted = False
            reverified += 1
        if report["refuted"] != report["total"] or report["unrefuted"]:
            all_refuted = False
        summary.append(f"{name}: {report['refuted']}/{report['total']} (re-verified {reverified})")
    elapsed = time.perf_counter() - t0
    ok = all_refuted and elapsed < 600
    _report(9, ok, "; ".join(summary) + f", {elapsed:.1f}s")
    assert all_refuted
    assert elapsed < 600


def test_criterion_10_reduced_construction():
    varset = VarSet.of("p")
    full_mask = full_team(varset).mask
    built = skipped = failures = 0
    for c in enumerate_contexts(CONTEXT_POOL, 5):
        try:
            tau = build_reduced_truth_function(c, varset)
        except ValidationError:
            skipped += 1
            continue
        built += 1
        phi = tau.tree.nodes[0].formula
        theta = [parse("top")] * max_placeholder(phi)
        if not verify_truth_function(tau, phi, theta):
            failures += 1
            continue
        from tsw.formulas import Placeholder

        by_id = {n.id: n.formula for n in tau.tree.nodes}
        for node_id, team in tau.assignment.items():
            if isinstance(by_id[node_id], Placeholder) and team.mask == full_mask:
                failures += 1
    ok = failures == 0 and built > 0
    _report(
        10,
        ok,
        f"{built} constructions verified, {skipped} precondition-skipped, {failures} failures",
    )
    assert failures == 0
    assert built > 0
