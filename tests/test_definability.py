import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsw.definability import (
    LISTING_MAX_SIZE,
    SEARCH_MAX_SIZE,
    _refute_or_none,
    builtin_connective,
    build_reduced_truth_function,
    check_monotone,
    closure_check,
    complete_from_leaves,
    condition_check,
    contra,
    enumerate_contexts,
    find_truth_function,
    instance_label,
    is_consistent,
    leaf_tensor_ancestor_check,
    normalize,
    proper_split,
    refute_uniform_definition,
    search_contexts,
    verify_counterexample,
    verify_truth_function,
)
from tsw.errors import CapExceededError, ValidationError
from tsw.formulas import Fragment, Tensor, Variable, syntax_tree, to_text
from tsw.parsing import parse
from tsw.semantics import evaluate
from tsw.teams import Team, VarSet, enumerate_teams, full_team

from .helpers import (
    P,
    PQ,
    context_texts_bruteforce,
    reference_is_consistent,
    reference_normalize,
    reference_pool_equivalent,
    reference_refute,
    reference_search,
    reference_split,
    reference_subformulas,
    reference_substitute,
    st_formula,
    subteams,
)

p, q = Variable("p"), Variable("q")

POOL = tuple(parse(s) for s in ("r1", "r2", "bot", "top", "p", "!p", "=(p)"))
SMALL_POOL = tuple(parse(s) for s in ("r1", "r2", "p", "!p", "bot"))
TWO_VAR_POOL = tuple(parse(s) for s in ("r1", "r2", "p1", "q", "=(q;p1)", "bot", "top"))


def test_builtin_connective_specs():
    disj = builtin_connective("or")
    assert (disj.name, disj.arity) == ("or", 2)
    imp = builtin_connective("imp")
    assert (imp.name, imp.arity) == ("imp", 2)
    neg = contra()
    assert (neg.name, neg.arity) == ("contra", 2)
    with pytest.raises(ValidationError):
        builtin_connective("xor")


def test_connective_evaluators_match_clauses():
    a, b = parse("p"), parse("!p")
    disj = builtin_connective("or")
    imp = builtin_connective("imp")
    for x in enumerate_teams(P):
        assert disj.evaluate((a, b), x) == evaluate(parse("p | !p"), x)
        assert imp.evaluate((a, b), x) == evaluate(parse("p -> !p"), x)


def test_contra_evaluator_holds_only_on_the_empty_team():
    neg = contra()
    for x in enumerate_teams(P):
        assert neg.evaluate((parse("p"), parse("top")), x) == x.is_empty
    with pytest.raises(ValidationError):
        contra(0)


def test_is_consistent_pins():
    assert is_consistent(parse("r1 + !p"))
    assert is_consistent(parse("r1"))
    assert is_consistent(parse("top"))
    assert not is_consistent(parse("bot"))
    assert not is_consistent(parse("bot & r1"))
    assert not is_consistent(parse("p & !p"))


def test_is_consistent_matches_the_all_top_alternatives():
    # decided on singletons, without alternatives: a context is consistent
    # iff one of the alternatives of its all-top instance is nonempty
    from tsw.formulas import max_placeholder
    from tsw.semantics import alternatives, var_set

    counts = []
    for pool in (POOL, TWO_VAR_POOL + (parse("!q"),)):
        contexts = enumerate_contexts(pool, 7)
        for phi in contexts:
            vars = var_set(phi)
            top = [[full_team(vars).mask]] * max_placeholder(phi)
            assert is_consistent(phi) == any(alternatives(phi, vars, top)), to_text(phi)
        counts.append(len(contexts))
    assert counts == [15_015, 24_920]
    # over five variables, where the lattice has no answer
    assert is_consistent(parse("(=(p,q,r,s;t) + =(p,q,r,s;t)) & r1"))
    assert not is_consistent(parse("(=(p,q,r,s;t) + =(p,q,r,s;t)) & ((t & !t) + bot)"))


def test_walks_match_their_recursive_references_on_every_context():
    from tsw.formulas import subformulas, substitute

    instances = (parse("p & q"), parse("=(p) + !q"))
    contexts = enumerate_contexts(POOL, 7)
    for phi in contexts:
        consistent = is_consistent(phi)
        assert consistent == reference_is_consistent(phi), to_text(phi)
        if consistent:
            assert normalize(phi) == reference_normalize(phi), to_text(phi)
        got, want = subformulas(phi), reference_subformulas(phi)
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want)), to_text(phi)
        assert substitute(phi, instances) == reference_substitute(phi, instances)
    assert len(contexts) == 15_015


def test_is_consistent_requires_pd():
    with pytest.raises(ValidationError):
        is_consistent(parse("p | q"))


def test_normalize_pins():
    assert to_text(normalize(parse("(bot & r1) + r2"))) == "r2"
    assert to_text(normalize(parse("r1 + r2"))) == "r1 + r2"
    assert to_text(normalize(parse("(bot + p) & r1"))) == "p & r1"
    assert to_text(normalize(parse("bot + r1"))) == "r1"
    assert to_text(normalize(parse("p & q"))) == "p & q"


def test_normalize_preserves_meaning():
    from tsw.formulas import substitute

    cases = ["(bot + p) & (r1 + r2)", "((p & !p) + r1) + r2", "top + (bot + p)"]
    inst = [parse("p"), parse("!p")]
    for text in cases:
        phi = parse(text)
        psi = normalize(phi)
        for x in enumerate_teams(P):
            assert evaluate(substitute(phi, inst), x) == evaluate(substitute(psi, inst), x)


def test_pool_check_matches_the_substituting_reference():
    # the pool check binds each pool instance's alternatives once; the
    # reference substitutes every vector and compares by equivalent.  Half
    # the pairs are a context and its normal form or its mirror image
    from tsw.definability import _pool_equivalent
    from tsw.formulas import fold

    rng = random.Random(1713)
    contexts = enumerate_contexts(POOL, 5) + enumerate_contexts(TWO_VAR_POOL, 4)
    verdicts = set()
    for i in range(400):
        a, b = rng.choice(contexts), rng.choice(contexts)
        if i % 4 == 1 and is_consistent(a):
            b = normalize(a)
        elif i % 4 == 3:  # both sides of every binary node swapped
            b = fold(a, lambda f: f, lambda f, left, right: type(f)(right, left))
        got = _pool_equivalent(a, b)
        assert got == reference_pool_equivalent(a, b), (to_text(a), to_text(b))
        verdicts.add(got)
    assert verdicts == {True, False}


def test_normalize_checks_the_pool_only_on_a_changed_context(monkeypatch):
    import tsw.definability as definability
    from tsw.errors import InternalInvariantError

    calls = []

    def refuse(a, b):
        calls.append((a, b))
        return False

    monkeypatch.setattr(definability, "_pool_equivalent", refuse)
    unchanged = parse("(r1 & p) + (r2 + =(p))")
    assert normalize(unchanged) is unchanged
    assert calls == []
    with pytest.raises(InternalInvariantError, match="changed the context"):
        normalize(parse("(bot & r1) + (r2 & p)"))
    assert [to_text(b) for _, b in calls] == ["r2 & p"]


def test_normalize_keeps_a_long_unchanged_chain():
    # returning the input itself, not an equal copy, needs no deep "=="
    chain = parse(" & ".join(["(r1 + p)"] * 3000))
    assert normalize(chain) is chain


def test_normalize_rejects_inconsistent_input():
    with pytest.raises(ValidationError):
        normalize(parse("bot & r1"))
    with pytest.raises(ValidationError):
        normalize(parse("p & !p"))


def test_check_monotone():
    stronger = [parse("p & q"), parse("p")]
    weaker = [parse("p"), parse("p + q")]
    assert check_monotone(parse("r1 + (r2 & p)"), stronger, weaker)
    assert check_monotone(parse("r1"), [parse("p & q")], [parse("p")])
    with pytest.raises(ValidationError):
        check_monotone(parse("r1 -> p"), stronger, weaker)
    with pytest.raises(ValidationError):
        check_monotone(parse("r1"), stronger, weaker[:1])


def test_find_truth_function_pin():
    phi = parse("r1 + r2")
    theta = (parse("p"), parse("!p"))
    tf = find_truth_function(phi, theta, full_team(P))
    assert tf is not None
    obj = tf.to_json()
    assert obj["vars"] == ["p"]
    teams = {node["id"]: node["team"] for node in obj["nodes"]}
    assert teams == {0: [[0], [1]], 1: [[1]], 2: [[0]]}
    assert verify_truth_function(tf, phi, theta)


def test_find_truth_function_unsat_returns_none():
    phi = parse("r1 & r2")
    tf = find_truth_function(phi, (parse("p"), parse("!p")), full_team(P))
    assert tf is None


def test_find_truth_function_iff_satisfaction_small_sweep():
    from tsw.formulas import substitute

    instances = (parse("p"), parse("!p"))
    for c in enumerate_contexts(SMALL_POOL, 3):
        grounded = substitute(c, instances)
        for x in enumerate_teams(P):
            tf = find_truth_function(c, instances, x)
            assert (tf is not None) == evaluate(grounded, x)
            if tf is not None:
                assert verify_truth_function(tf, c, instances)
                assert tf.root_team == x


INSTANCES = tuple(parse(s) for s in ("bot", "top", "p", "!p", "=(p)"))
INSTANCES_PQ = INSTANCES + tuple(parse(s) for s in ("q", "!q", "=(q)", "=(p;q)", "p + !q"))


def _assert_reference_splits(tf, theta, special=()):
    """Each node's children get the teams the reference split gives: at a
    ``special`` node, with an empty side replaced by the first satisfying
    singleton and the pair then made proper."""
    from tsw.formulas import And, substitute

    for node in tf.tree.nodes:
        if not node.children:
            continue
        team = tf.team(node.id)
        y, z = node.children
        if isinstance(node.formula, And):
            assert tf.team(y) == tf.team(z) == team
            continue
        left = reference_split(substitute(node.formula, theta), team)
        right = team.difference(left)
        if node.id in special:
            for side, child in ((0, y), (1, z)):
                if (left, right)[side].is_empty:
                    inst = substitute(tf.tree.node(child).formula, theta)
                    singletons = (x for x in enumerate_teams(team.vars) if x.size == 1)
                    first = next(x for x in singletons if evaluate(inst, x))
                    left, right = (first, right) if side == 0 else (left, first)
            left, right = proper_split(team, left, right)
        assert (tf.team(y), tf.team(z)) == (left, right)


def test_truth_function_splits_match_the_reference_scan():
    import itertools
    import random

    from tsw.formulas import max_placeholder

    checked = 0
    for c in enumerate_contexts(POOL, 5):
        for vec in itertools.product(INSTANCES, repeat=max_placeholder(c)):
            for x in enumerate_teams(P):
                tf = find_truth_function(c, vec, x)
                if tf is not None:
                    assert tf.root_team == x
                    _assert_reference_splits(tf, vec)
                    checked += 1
    rng = random.Random(20260905)
    contexts = enumerate_contexts(POOL, 7)
    teams = list(enumerate_teams(PQ))
    for _ in range(1500):
        c, x = rng.choice(contexts), rng.choice(teams)
        vec = (rng.choice(INSTANCES_PQ), rng.choice(INSTANCES_PQ))
        tf = find_truth_function(c, vec, x)
        if tf is not None:
            _assert_reference_splits(tf, vec)
            checked += 1
    assert checked > 5000


def test_reduced_truth_function_splits_match_the_reference_scan():
    from tsw.formulas import Top, max_placeholder

    built = 0
    for n in (P, PQ):
        for c in enumerate_contexts(POOL, 5):
            try:
                tf = build_reduced_truth_function(c, n)
            except ValidationError:
                continue
            tree = tf.tree
            special = {
                [a.id for a in tree.ancestors(leaf.id) if isinstance(a.formula, Tensor)][-1]
                for leaf in tree.placeholder_leaves()
            }
            assert tf.root_team == full_team(n)
            _assert_reference_splits(tf, [Top()] * max_placeholder(c), special)
            built += 1
    assert built > 100


def test_node_alternatives_match_evaluate_on_every_node_and_subteam():
    import itertools
    import random

    from tsw.formulas import max_placeholder, substitute, syntax_tree
    from tsw.semantics import node_alternatives

    def check(c, vec, x):
        tree = syntax_tree(c)
        alts = node_alternatives(tree, vec, x)
        for node in tree.nodes:
            assert all(a & ~x.mask == 0 for a in alts[node.id])
            inst = substitute(node.formula, vec)
            for t in subteams(x):
                assert any(t.mask & ~a == 0 for a in alts[node.id]) == evaluate(inst, t)
        return len(tree)

    checked = 0
    for c in enumerate_contexts(POOL, 5):
        for vec in itertools.product(INSTANCES, repeat=max_placeholder(c)):
            for x in enumerate_teams(P):
                checked += check(c, vec, x)
    rng = random.Random(20261018)
    contexts = enumerate_contexts(POOL, 7)
    teams = list(enumerate_teams(PQ))
    for _ in range(1500):
        c, x = rng.choice(contexts), rng.choice(teams)
        checked += check(c, (rng.choice(INSTANCES_PQ), rng.choice(INSTANCES_PQ)), x)
    assert checked > 50000


def test_node_alternatives_validate_as_evaluate_does():
    from tsw.formulas import substitute, syntax_tree
    from tsw.semantics import node_alternatives

    cases = [
        ("r1 + (r3 & q)", ["p"], PQ),  # a missing substituent
        ("r1 & r2", ["p", "r2"], P),  # a placeholder left in the instance
        ("(r1 & q) + s", ["t"], P),  # variables outside the team's
    ]
    for text, theta, vars in cases:
        phi, theta = parse(text), [parse(t) for t in theta]
        with pytest.raises(ValidationError) as expected:
            evaluate(substitute(phi, theta), full_team(vars))
        with pytest.raises(ValidationError) as got:
            node_alternatives(syntax_tree(phi), theta, full_team(vars))
        assert str(got.value) == str(expected.value)


def test_refutation_matches_the_per_team_reference():
    from tsw.definability import _refute_or_none

    disj, imp = builtin_connective("or"), builtin_connective("imp")
    contexts = enumerate_contexts(POOL, 7)
    for c in (disj, imp):
        for phi in contexts:
            assert _refute_or_none(phi, c) == reference_refute(phi, c)
    for phi in enumerate_contexts(POOL, 5):
        assert _refute_or_none(phi, contra()) == reference_refute(phi, contra())
    # Contexts with no variable share the battery variable p1 with those over
    # p1 alone, but their teams range over other variables; and two variables.
    mixed = tuple(parse(s) for s in ("r1", "r2", "p1", "q", "=(q;p1)", "bot", "top"))
    for phi in enumerate_contexts(mixed, 5):
        for c in (disj, imp, contra()):
            assert _refute_or_none(phi, c) == reference_refute(phi, c)


def test_refutation_keeps_the_connective_side_apart_per_variable_set():
    from tsw.definability import ConnectiveSpec, _refute_or_none

    # "top" has no variable, so its battery is over p1 as for "p1 + !p1",
    # while its constant vectors range over the teams on no variable.  There
    # the connective's side of (bot, top) is the one team [[]]; over p1 it is
    # the full team, which "p1 + !p1" matches until (theta, theta).  The spec
    # is a context of its own, so no earlier call has cached its side.
    spec = ConnectiveSpec("or", 2, parse("r2 | r1"))
    for text in ("top", "p1 + !p1", "r1", "p1 & r1", "top", "r1 + p1"):
        phi = parse(text)
        assert _refute_or_none(phi, spec) == reference_refute(phi, spec)


def test_refutation_over_four_variables_differs_only_on_the_full_team():
    from tsw.expressiveness import theta_star
    from tsw.formulas import IDisj, substitute
    from tsw.semantics import _truth_indicator

    phi = parse("r1 + r2 + =(a,b,c;d)")
    vars = VarSet.of("a", "b", "c", "d")
    theta = theta_star(full_team(vars))
    ce = _refute_or_none(phi, builtin_connective("or"))
    assert (ce.instances, ce.vars) == ((theta, theta), vars)
    assert (ce.team, ce.lhs, ce.rhs) == (full_team(vars), True, False)
    # Per-team evaluate of theta over four variables exceeds the budget on
    # the full team, so the verdicts are checked on the indicator engine:
    # the full team, last in enumerate_teams order, is the only difference.
    lhs = _truth_indicator(substitute(phi, ce.instances), vars)
    rhs = _truth_indicator(IDisj(theta, theta), vars)
    assert lhs ^ rhs == 1 << ce.team.mask
    assert lhs >> ce.team.mask & 1


def test_scans_past_the_budget_fall_back_to_single_teams():
    from tsw.definability import _refute_or_none

    # The alternatives of either tensor on the full team over p, q, r, s
    # take 65,536 candidates, so the two together are past the budget; the
    # verdicts come from the lattice fallback of `alternatives`.
    dep = "=(p,q,r;s)"
    phi = parse(f"({dep} + {dep}) & ({dep} + {dep}) & r1")
    with pytest.raises(CapExceededError):
        find_truth_function(phi, [parse("top")], full_team(VarSet.of("p", "q", "r", "s")))
    for c in (builtin_connective("or"), builtin_connective("imp")):
        assert _refute_or_none(phi, c) == reference_refute(phi, c)
    assert is_consistent(phi)
    assert not is_consistent(parse(f"({dep} + {dep}) & ({dep} + {dep}) & bot"))


def test_verify_truth_function_judges_the_root_team_it_is_given():
    phi = parse("r1 + r2")
    theta = (parse("p"), parse("!p"))
    one, zero = Team.from_rows(P, [[1]]), Team.from_rows(P, [[0]])
    tf = find_truth_function(phi, theta, one)
    assert verify_truth_function(tf, phi, theta)
    # rooted at a team the search never saw: valid, then not
    tf.assignment = {0: full_team(P), 1: one, 2: zero}
    assert verify_truth_function(tf, phi, theta)
    tf.assignment = {0: full_team(P), 1: full_team(P), 2: zero}
    assert not verify_truth_function(tf, phi, theta)


def test_verify_truth_function_rejects_tampering():
    from dataclasses import replace

    phi = parse("r1 + r2")
    theta = (parse("p"), parse("!p"))
    tf = find_truth_function(phi, theta, full_team(P))
    bad = dict(tf.assignment)
    bad[1] = full_team(P)  # leaf team no longer satisfies its formula
    assert not verify_truth_function(replace(tf, assignment=bad), phi, theta)
    shrunk = dict(tf.assignment)
    shrunk[0] = Team.from_rows(P, [[1]])  # split no longer unions to the root
    assert not verify_truth_function(replace(tf, assignment=shrunk), phi, theta)
    with pytest.raises(ValidationError):
        verify_truth_function(tf, parse("r1 & r2"), theta)


def test_truth_function_assignment_reads_as_a_mapping_of_teams():
    phi = parse("(r1 & p) + r2")
    theta = (parse("q + !q"), parse("!p"))
    X = full_team(PQ)
    tf = find_truth_function(phi, theta, X)
    teams = dict(tf.assignment)
    assert sorted(teams) == list(range(len(syntax_tree(phi))))
    assert all(type(t) is Team and t.vars == PQ for t in teams.values())
    assert dict(tf.assignment.items()) == teams and tf.assignment == teams
    assert len(tf.assignment) == 5 and 4 in tf.assignment
    assert 5 not in tf.assignment and -1 not in tf.assignment and "0" not in tf.assignment
    with pytest.raises(KeyError):
        tf.assignment[5]
    assert tf.root_team == X and tf.team(1) == teams[1]
    assert tf.to_json()["nodes"][0]["team"] == X.rows()
    # the same truth function as a plain dict verifies and prints the same
    plain = replace_assignment(tf, teams)
    assert verify_truth_function(plain, phi, theta) and plain.to_json() == tf.to_json()


def test_verify_truth_function_checks_the_variables_of_a_hand_made_dict():
    phi = parse("r1 + r2")
    theta = (parse("p"), parse("!p"))
    tf = find_truth_function(phi, theta, full_team(P))
    teams = dict(tf.assignment)
    teams[2] = Team(VarSet.of("q"), teams[2].mask)
    with pytest.raises(ValidationError, match="node 2 team is over a different variable set"):
        verify_truth_function(replace_assignment(tf, teams), phi, theta)
    del teams[2]
    with pytest.raises(ValidationError, match=r"assignment missing nodes \[2\]"):
        verify_truth_function(replace_assignment(tf, teams), phi, theta)


def replace_assignment(tf, assignment):
    from dataclasses import replace

    return replace(tf, assignment=assignment)


def test_complete_from_leaves_pin():
    phi = parse("r1 + r2")
    theta = (parse("p"), parse("!p"))
    leaves = {
        1: Team.from_rows(P, [[1]]),
        2: Team.from_rows(P, [[0]]),
    }
    tf = complete_from_leaves(phi, theta, leaves)
    assert tf is not None
    assert tf.root_team.rows() == [[0], [1]]
    assert verify_truth_function(tf, phi, theta)


def test_complete_from_leaves_conjunction_mismatch_is_none():
    phi = parse("r1 & r2")
    leaves = {
        1: Team.from_rows(P, [[1]]),
        2: Team.from_rows(P, [[0]]),
    }
    assert complete_from_leaves(phi, (parse("p"), parse("!p")), leaves) is None


def test_complete_from_leaves_validates_cover_and_leaf_teams():
    phi = parse("r1 + r2")
    with pytest.raises(ValidationError):
        complete_from_leaves(phi, (parse("p"), parse("!p")), {1: full_team(P)})
    bad_leaf = {1: full_team(P), 2: Team.empty(P)}
    with pytest.raises(ValidationError):
        complete_from_leaves(phi, (parse("p"), parse("!p")), bad_leaf)


def test_proper_split_cases():
    x = full_team(P)
    a, b = Team.from_rows(P, [[0]]), Team.from_rows(P, [[1]])
    # both sides already proper: unchanged
    assert proper_split(x, a, b) == (a, b)
    # both sides equal to the whole team: peel the smallest valuation
    y, z = proper_split(x, x, x)
    assert y.rows() == [[1]] and z.rows() == [[0]]
    # one side full, the other proper: shrink the full side
    y, z = proper_split(x, x, b)
    assert y.rows() == [[0]] and z.rows() == [[1]]
    y, z = proper_split(x, a, x)
    assert y.rows() == [[0]] and z.rows() == [[1]]


def test_proper_split_peels_smallest_pattern_of_larger_teams():
    # the singleton side gets the valuation with the smallest bit pattern
    x = Team.from_rows(PQ, [[0, 1], [1, 0], [1, 1]])
    y, z = proper_split(x, x, x)
    assert z.rows() == [[1, 0]]
    assert z.mask == 0b0010
    assert y.mask == x.mask & ~z.mask


def test_proper_split_validation():
    x = full_team(P)
    with pytest.raises(ValidationError):
        proper_split(x, Team.from_rows(P, [[0]]), Team.from_rows(P, [[0]]))
    with pytest.raises(ValidationError):
        proper_split(Team.from_rows(P, [[0]]), Team.from_rows(P, [[0]]), Team.from_rows(P, [[0]]))
    with pytest.raises(ValidationError):
        proper_split(x, full_team(PQ), x)


def test_leaf_tensor_ancestor_check_pins():
    # keyed by syntax-tree node id of each placeholder leaf
    assert leaf_tensor_ancestor_check(parse("r1 + r2")) == {1: True, 2: True}
    assert leaf_tensor_ancestor_check(parse("r1")) == {0: False}
    assert leaf_tensor_ancestor_check(parse("r1 & (r2 + p)")) == {1: False, 3: True}
    assert leaf_tensor_ancestor_check(parse("(r1 & q) + p")) == {2: True}


def top_instance_verifies(tf):
    from tsw.formulas import max_placeholder

    phi = tf.tree.nodes[0].formula
    theta = [parse("top")] * max_placeholder(phi)
    return verify_truth_function(tf, phi, theta)


def test_build_reduced_pin():
    tf = build_reduced_truth_function(parse("r1 + r2"), P)
    obj = tf.to_json()
    assert obj["vars"] == ["p"]
    by_formula = {node["formula"]: node["team"] for node in obj["nodes"]}
    assert by_formula["r1 + r2"] == [[0], [1]]
    assert sorted((by_formula["r1"], by_formula["r2"])) == [[[0]], [[1]]]
    assert top_instance_verifies(tf)


def test_build_reduced_descends_below_special_nodes():
    tf = build_reduced_truth_function(parse("(r1 & p) + r2"), P)
    assert top_instance_verifies(tf)
    obj = tf.to_json()
    by_formula = {node["formula"]: node["team"] for node in obj["nodes"]}
    assert by_formula["(r1 & p) + r2"] == [[0], [1]]
    assert by_formula["r1 & p"] == by_formula["r1"] == [[1]]
    assert by_formula["r2"] == [[0]]


def test_build_reduced_normalizes_first():
    tf = build_reduced_truth_function(parse("(bot + top) & (r1 + r2)"), P)
    texts = [node["formula"] for node in tf.to_json()["nodes"]]
    assert texts[0] == "top & (r1 + r2)"
    assert top_instance_verifies(tf)


def test_build_reduced_placeholder_teams_are_proper():
    for text in ("r1 + r2", "(r1 & p) + r2", "(r1 + r2) + r1"):
        tf = build_reduced_truth_function(parse(text), P)
        tree_by_id = {n.id: n.formula for n in tf.tree.nodes}
        from tsw.formulas import Placeholder

        for node_id, team in tf.assignment.items():
            if isinstance(tree_by_id[node_id], Placeholder):
                assert team.mask != full_team(P).mask


def test_build_reduced_named_failures():
    with pytest.raises(ValidationError) as exc:
        build_reduced_truth_function(parse("r1 -> r2"), P)
    assert str(exc.value) == "not a PD context: only '&', '+' and atoms are allowed"
    with pytest.raises(ValidationError):
        build_reduced_truth_function(parse("bot & r1"), P)
    with pytest.raises(ValidationError) as exc:
        build_reduced_truth_function(parse("r1"), P)
    assert str(exc.value) == "a placeholder leaf has no tensor ancestor"
    with pytest.raises(ValidationError) as exc:
        build_reduced_truth_function(parse("bot + r1"), P)
    assert (
        str(exc.value)
        == "a placeholder leaf has no tensor ancestor after inconsistent-subformula elimination"
    )
    with pytest.raises(ValidationError) as exc:
        build_reduced_truth_function(parse("(r1 & q) + r2"), P)
    assert str(exc.value) == "context variable 'q' outside the given set"
    with pytest.raises(ValidationError) as exc:
        build_reduced_truth_function(parse("(bot + p) & (r1 + r2)"), P)
    assert str(exc.value) == "the full team does not satisfy the all-top instance"
    with pytest.raises(ValidationError) as exc:
        build_reduced_truth_function(parse("r1 + r2"), VarSet(()))
    assert str(exc.value) == "need at least one variable for a proper split"


def test_counterexample_pins():
    cx = refute_uniform_definition(parse("r1 + r2"), builtin_connective("or"))
    assert cx.to_json() == {
        "context": "r1 + r2",
        "connective": "or",
        "instances": ["=(p1)", "=(p1)"],
        "vars": ["p1"],
        "team": [[0], [1]],
        "lhs": True,
        "rhs": False,
    }
    assert verify_counterexample(cx)


def test_counterexample_earlier_battery_entries_win():
    cx = refute_uniform_definition(parse("r1"), builtin_connective("or"))
    assert cx.to_json() == {
        "context": "r1",
        "connective": "or",
        "instances": ["bot", "top"],
        "vars": [],
        "team": [[]],
        "lhs": False,
        "rhs": True,
    }
    cx = refute_uniform_definition(parse("r1 & r2"), builtin_connective("imp"))
    assert cx.instances == (parse("bot"), parse("bot"))
    assert cx.lhs is False and cx.rhs is True
    assert verify_counterexample(cx)


def test_refute_rejects_contra_and_oversized_placeholders():
    with pytest.raises(ValidationError):
        refute_uniform_definition(parse("r1 + r2"), contra())
    with pytest.raises(ValidationError):
        refute_uniform_definition(parse("r1 + r3"), builtin_connective("or"))


def test_refute_accepts_placeholder_free_contexts():
    # a constant context cannot track its arguments, so the refutation
    # is immediate
    cx = refute_uniform_definition(parse("p & q"), builtin_connective("or"))
    assert cx.to_json() == {
        "context": "p & q",
        "connective": "or",
        "instances": ["bot", "top"],
        "vars": ["p", "q"],
        "team": [[0, 0]],
        "lhs": False,
        "rhs": True,
    }
    assert verify_counterexample(cx)


def test_verify_counterexample_rejects_tampering():
    from dataclasses import replace

    cx = refute_uniform_definition(parse("r1 + r2"), builtin_connective("or"))
    assert not verify_counterexample(replace(cx, lhs=False))
    assert not verify_counterexample(replace(cx, team=Team.empty(cx.team.vars)))


def test_verify_counterexample_binds_theta_from_its_lemma():
    # theta over four variables is past the walk's budget on the full team
    from dataclasses import replace

    ce = refute_uniform_definition(parse("r1 + r2 + =(a,b,c;d)"), builtin_connective("or"))
    assert instance_label(ce.instances) == "theta,theta" and len(ce.vars) == 4
    assert verify_counterexample(ce)
    assert not verify_counterexample(replace(ce, rhs=True))
    with pytest.raises(ValidationError):
        verify_counterexample(replace(ce, instances=(parse("a"), parse("b"))))
    pool = tuple(parse(s) for s in ("r1", "r2", "=(a,b,c;d)"))
    rep = search_contexts(builtin_connective("or"), pool, 5).to_json()
    assert rep["total"] == rep["refuted"] == 87
    assert rep["by_instance"] == {"bot,top": 51, "top,bot": 19, "theta,theta": 17}


def test_enumerate_contexts_counts_and_dedup():
    got = {to_text(c) for c in enumerate_contexts(POOL, 3)}
    assert got == context_texts_bruteforce(POOL, 3)
    assert len(got) == 63
    got5 = {to_text(c) for c in enumerate_contexts(POOL, 5)}
    assert got5 == context_texts_bruteforce(POOL, 5)
    assert len(got5) == 847


def test_enumerate_contexts_is_deterministic():
    a = [to_text(c) for c in enumerate_contexts(POOL, 5)]
    b = [to_text(c) for c in enumerate_contexts(POOL, 5)]
    assert a == b


def test_enumerate_contexts_keeps_associative_variants():
    texts = {to_text(c) for c in enumerate_contexts(POOL, 5)}
    # left-leaning chains print flat, right-leaning ones keep parens;
    # both association shapes are distinct members
    assert "!p & p & r1" in texts
    assert "!p & (p & r1)" in texts
    # commutative mirror images are folded to one ordered representative
    assert "p & r1" in texts
    assert "r1 & p" not in texts


def test_enumerate_contexts_validation():
    with pytest.raises(ValidationError):
        enumerate_contexts((parse("p & q"),), 3)
    with pytest.raises(ValidationError):
        enumerate_contexts((parse("p"), parse("p")), 3)


def test_search_or_pins():
    rep = search_contexts(builtin_connective("or"), POOL, 3)
    obj = rep.to_json()
    obj.pop("elapsed_s")
    assert obj == {
        "connective": "or",
        "pool": ["r1", "r2", "bot", "top", "p", "!p", "=(p)"],
        "max_size": 3,
        "total": 63,
        "refuted": 63,
        "by_instance": {"bot,top": 41, "top,bot": 8, "theta,theta": 14},
        "unrefuted": [],
    }


def test_search_imp_pins():
    rep = search_contexts(builtin_connective("imp"), POOL, 3)
    obj = rep.to_json()
    assert obj["refuted"] == 63
    assert obj["by_instance"] == {"bot,bot": 50, "top,bot": 13}


def test_search_contra_leaves_genuine_definitions_unrefuted():
    rep = search_contexts(contra(), POOL, 3)
    obj = rep.to_json()
    assert obj["refuted"] == 53
    assert obj["unrefuted"] == [
        "bot",
        "bot & r1",
        "bot & r2",
        "bot & bot",
        "bot & top",
        "bot & p",
        "!p & bot",
        "!p & p",
        "=(p) & bot",
        "bot + bot",
    ]
    # each unrefuted context is inconsistent, hence constant-false, hence
    # genuinely defines the constant-false connective
    for text in obj["unrefuted"]:
        assert not is_consistent(parse(text))


def _without_elapsed(report):
    obj = report.to_json()
    obj.pop("elapsed_s")
    return json.dumps(obj)


@pytest.mark.parametrize("pool", [POOL, SMALL_POOL, TWO_VAR_POOL], ids=["pool", "small", "two_var"])
@pytest.mark.parametrize("name", ["or", "imp", "contra"])
def test_search_matches_the_reference(name, pool):
    c = contra() if name == "contra" else builtin_connective(name)
    for size in (-1, 0, 1, 2, 3, 5, 7):
        # byte for byte, so the order of by_instance and unrefuted counts too
        got = _without_elapsed(search_contexts(c, pool, size))
        assert got == _without_elapsed(reference_search(c, pool, size)), (name, size)


def test_search_lists_instances_in_the_order_they_first_refute():
    # r2 comes first, so top,bot refutes a context before bot,top does
    pool = tuple(parse(s) for s in ("r2", "r1", "top"))
    c = builtin_connective("or")
    for size in (1, 3, 5):
        got = search_contexts(c, pool, size)
        assert list(got.by_instance)[:2] == ["top,bot", "bot,top"]
        assert _without_elapsed(got) == _without_elapsed(reference_search(c, pool, size))


def test_search_pins_past_the_enumeration():
    rep = search_contexts(builtin_connective("or"), POOL, 9).to_json()
    assert rep["total"] == rep["refuted"] == 301_175
    assert list(rep["by_instance"].items()) == [
        ("bot,top", 183_798),
        ("top,bot", 32_876),
        ("theta,theta", 84_501),
    ]
    assert rep["unrefuted"] == []
    # from one reference_search run of the per-context loop
    rep = search_contexts(builtin_connective("imp"), POOL, 9).to_json()
    assert rep["total"] == rep["refuted"] == 301_175
    assert list(rep["by_instance"].items()) == [("bot,bot", 226_823), ("top,bot", 74_352)]


def test_search_pins_over_four_variable_frames():
    # the battery's theta over four variables is bound from its lemma; its
    # formula is past the walk's budget there
    pool = tuple(parse(s) for s in ("r1", "r2", "a", "b", "c", "d", "e"))
    rep = search_contexts(builtin_connective("or"), pool, 7).to_json()
    assert rep["total"] == rep["refuted"] == 15_015
    assert list(rep["by_instance"].items()) == [
        ("bot,top", 12_870),
        ("top,bot", 1_688),
        ("theta,theta", 457),
    ]
    rep = search_contexts(builtin_connective("imp"), pool, 7).to_json()
    assert rep["total"] == rep["refuted"] == 15_015
    assert list(rep["by_instance"].items()) == [("bot,bot", 15_015)]


def test_search_at_the_largest_size():
    # contexts of each size, one per unordered pair of sides and connective
    count = {1: len(POOL)}
    for size in range(3, SEARCH_MAX_SIZE + 1, 2):
        pairs = 0
        for left in range(1, size // 2 + 1, 2):
            right = size - 1 - left
            n, m = count[left], count[right]
            pairs += n * (n + 1) // 2 if left == right else n * m
        count[size] = 2 * pairs
    rep = search_contexts(builtin_connective("or"), POOL, SEARCH_MAX_SIZE).to_json()
    assert rep["total"] == sum(count.values()) > 10**20
    assert rep["refuted"] == rep["total"]
    assert sum(rep["by_instance"].values()) == rep["total"]
    assert rep["unrefuted"] == []
    # the integers survive a JSON round trip exactly
    assert json.loads(json.dumps(rep))["total"] == rep["total"]


def test_closure_check_leaves_or_and_imp_unreachable():
    # The signatures of contexts without variables carry one more frame,
    # on the battery over p1, than those of contexts over p: on the battery
    # over p alone, 59 (or) and 31 (imp) of these are distinct.
    for name, signatures, rounds in (("or", 67, 4), ("imp", 36, 3)):
        c = builtin_connective(name)
        rep = closure_check(c, POOL).to_json()
        assert rep["reachable"] is False
        assert (rep["signatures"], rep["rounds"]) == (signatures, rounds)
        assert len(rep["witnesses"]) == signatures
        # smallest first, one new size per round
        sizes = [len(syntax_tree(parse(w["context"])).nodes) for w in rep["witnesses"]]
        assert sizes == sorted(sizes)
        assert sorted(set(sizes)) == list(range(1, 2 * rounds + 2, 2))
        # every verdict replays through refute
        for w in rep["witnesses"]:
            ce = refute_uniform_definition(parse(w["context"]), c)
            assert instance_label(ce.instances) == w["refuted_by"]
    # imp's witnesses are contexts as the enumeration prints them
    listed = {to_text(f) for f in enumerate_contexts(POOL, 7)}
    assert {w["context"] for w in rep["witnesses"]} <= listed


def test_closure_check_reaches_contra():
    rep = closure_check(contra(), POOL).to_json()
    assert rep["reachable"] is True
    unrefuted = [w["context"] for w in rep["witnesses"] if w["refuted_by"] is None]
    # one without variables, one over p
    assert unrefuted == ["bot", "bot & p"]
    for text in unrefuted:
        assert _refute_or_none(parse(text), contra()) is None


def test_search_and_closure_past_the_team_cap():
    wide = tuple(parse(s) for s in ("r1", "r2", "a", "b", "c", "d", "e"))
    # Contexts of size 5 use at most three variables, so no frame needs
    # four; a context of size 9 can use all five.
    c = builtin_connective("or")
    assert _without_elapsed(search_contexts(c, wide, 5)) == _without_elapsed(
        reference_search(c, wide, 5)
    )
    with pytest.raises(CapExceededError):
        search_contexts(builtin_connective("or"), wide, 9)
    with pytest.raises(CapExceededError):
        closure_check(builtin_connective("or"), wide)
    with pytest.raises(CapExceededError):
        search_contexts(builtin_connective("or"), POOL + (parse("=(a,b,c,d;e)"),), 1)


def test_closure_and_large_searches_stop_past_the_signature_cap():
    three = tuple(parse(s) for s in ("r1", "r2", "p", "q", "s", "bot"))
    c = builtin_connective("or")
    with pytest.raises(CapExceededError):
        closure_check(c, three)
    with pytest.raises(CapExceededError):
        search_contexts(c, three, LISTING_MAX_SIZE + 2)
    # up to the listing cap, the enumeration's own size bounds the work
    assert search_contexts(c, three, LISTING_MAX_SIZE).refuted == 144_990


def test_search_caps_and_pool_requirements():
    with pytest.raises(CapExceededError):
        search_contexts(builtin_connective("or"), POOL, SEARCH_MAX_SIZE + 2)
    with pytest.raises(CapExceededError):
        search_contexts(contra(), POOL, LISTING_MAX_SIZE + 2)
    with pytest.raises(ValidationError):
        search_contexts(contra(), POOL + (parse("r3"),), 1)
    no_r2 = tuple(parse(s) for s in ("r1", "bot", "top"))
    with pytest.raises(ValidationError):
        search_contexts(builtin_connective("or"), no_r2, 3)


def test_condition_check_or_pins():
    obj = condition_check(builtin_connective("or")).to_json()
    assert obj["all_hold"] is True
    by_cond = {w["condition"]: w for w in obj["witnesses"]}
    assert by_cond["i[1]"]["instances"] == ["bot", "top"]
    assert by_cond["i[2]"]["instances"] == ["top", "bot"]
    assert by_cond["ii"]["instances"] == ["top", "top"]
    assert by_cond["iii"]["instances"] == ["=(p)", "=(p)"]
    assert all(w["holds"] for w in obj["witnesses"])


def test_condition_check_imp_pins():
    obj = condition_check(builtin_connective("imp")).to_json()
    assert obj["all_hold"] is True
    by_cond = {w["condition"]: w for w in obj["witnesses"]}
    assert by_cond["i[1]"]["instances"] == ["bot", "bot"]
    assert by_cond["i[2]"]["instances"] == ["bot", "bot"]
    assert by_cond["iii"]["instances"] == ["top", "=(p)"]


def test_condition_check_contra_pins():
    obj = condition_check(contra()).to_json()
    assert obj["all_hold"] is False
    holds = [w["holds"] for w in obj["witnesses"]]
    assert holds == [False, False, False, True]


def test_condition_check_unknown_connective():
    from tsw.definability import ConnectiveSpec

    with pytest.raises(ValidationError):
        condition_check(ConnectiveSpec("mystery", 2, parse("r1 & r2")))


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(list(enumerate_contexts(SMALL_POOL, 5))),
    st_formula([p], Fragment.PD, max_leaves=3),
)
def test_contexts_are_monotone_in_their_placeholders(c, phi):
    # weakening an argument can only grow the satisfying teams
    from tsw.formulas import max_placeholder, substitute

    k = max_placeholder(c)
    if k == 0:
        return
    weaker = Tensor(phi, parse("top"))
    stronger_inst = [phi] * k
    weaker_inst = [weaker] * k
    for x in enumerate_teams(P):
        if evaluate(substitute(c, stronger_inst), x):
            assert evaluate(substitute(c, weaker_inst), x)
