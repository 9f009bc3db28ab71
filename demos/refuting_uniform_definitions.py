"""
Refuting uniform definitions of extra connectives
=================================================

Could a single context over '&' and '+' define the whole-team
disjunction uniformly, so that plugging any two formulas into its
slots always agrees with their '|'?  This script refutes candidate
contexts one at a time, then sweeps every context up to a size bound
and reports that none survives, then checks every size at once through
the closure of the contexts' signatures.  A semantic condition check explains
why: the candidates and the target disagree on basic entailment and
preservation behavior.
"""

from tsw.definability import (
    builtin_connective,
    closure_check,
    condition_check,
    refute_uniform_definition,
    search_contexts,
    verify_counterexample,
)
from tsw.parsing import parse

target = builtin_connective("or")

# A single candidate: "r1 + r2" is the natural first guess, and it
# fails, with a concrete pair of instances and a team on which the
# instantiated context and the real connective disagree.
ce = refute_uniform_definition(parse("r1 + r2"), target)
print("candidate r1 + r2 refuted:", ce is not None)
print("  instances:", [str(t) for t in ce.to_json()["instances"]])
print("  team:", ce.to_json()["team"])
print("  context verdict:", ce.lhs, "/ connective verdict:", ce.rhs)
print("  independently re-checked:", verify_counterexample(ce))

# The sweep: every context built from a fixed atom pool, up to the
# size bound, odd sizes only, commutative duplicates pruned.
pool = [parse(a) for a in ("r1", "r2", "bot", "top", "p", "!p", "=(p)")]
report = search_contexts(target, pool, 5)
print(f"swept {report.total} contexts: {report.refuted} refuted")
print("  most common refuting instance pairs:")
for label, count in sorted(report.by_instance.items(), key=lambda kv: -kv[1])[:3]:
    print(f"    {label}: {count}")

# Same story for implication.
imp = search_contexts(builtin_connective("imp"), pool, 5)
print(f"implication sweep: {imp.refuted}/{imp.total} refuted")

# Every size at once: contexts that agree on the battery share a signature,
# and '&' and '+' combine signatures, so the signatures reachable from the
# pool form a finite closure.  Neither connective's own is among them.
for name in ("or", "imp"):
    closure = closure_check(builtin_connective(name), pool)
    verdict = "reachable" if closure.reachable else "unreachable"
    print(
        f"closure for {name!r}: {closure.signatures} signatures in "
        f"{closure.rounds} rounds, the connective's own {verdict}"
    )

# The structural reasons, as checkable conditions with witnesses.
cond = condition_check(builtin_connective("or"))
print("semantic conditions for '|':")
for witness in cond.witnesses:
    print(f"  {witness.condition} (holds={witness.holds}): {witness.detail}")
