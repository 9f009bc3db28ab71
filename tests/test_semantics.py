import inspect
import itertools
import json
import random

import pytest
from hypothesis import given, settings

from tsw.errors import CapExceededError, ValidationError
from tsw.expressiveness import theta_star, theta_star_alternatives
from tsw.formulas import (
    And,
    Fragment,
    IDisj,
    Impl,
    Tensor,
    Top,
    Variable,
    substitute,
    syntax_tree,
    to_text,
)
from tsw.parsing import parse
from tsw.randgen import random_formula, random_team
from tsw.semantics import (
    CheckOutcome,
    PropertyReport,
    _bit_positions,
    _down_set,
    _truth_indicator,
    alternatives,
    alternatives_within,
    check_basic_properties,
    entails,
    equivalent,
    evaluate,
    node_alternatives,
    truth_set,
    valid,
    var_set,
)
from tsw.teams import Team, VarSet, enumerate_teams, full_team

from .helpers import (
    NO_VARS,
    P,
    PQ,
    naive_tensor_holds,
    reference_evaluate,
    reference_truth_indicator,
    st_formula,
    st_team,
)

p, q, r = Variable("p"), Variable("q"), Variable("r")


def team(rows, vs=PQ):
    return Team.from_rows(vs, rows)


def test_literal_clauses():
    assert evaluate(parse("p"), team([[1, 0], [1, 1]]))
    assert not evaluate(parse("p"), team([[0, 1], [1, 1]]))
    assert evaluate(parse("!p"), team([[0, 0], [0, 1]]))
    assert not evaluate(parse("!p"), team([[0, 0], [1, 1]]))
    # both literal clauses hold on the empty team
    assert evaluate(parse("p"), Team.empty(PQ))
    assert evaluate(parse("!p"), Team.empty(PQ))


def test_constant_clauses():
    assert evaluate(parse("bot"), Team.empty(P))
    assert not evaluate(parse("bot"), team([[0]], P))
    assert evaluate(parse("top"), Team.empty(P))
    assert evaluate(parse("top"), full_team(PQ))


def test_dependence_clause():
    # value of q must be a function of p
    assert evaluate(parse("=(p;q)"), team([[0, 0], [1, 1]]))
    assert not evaluate(parse("=(p;q)"), team([[1, 0], [1, 1]]))
    assert evaluate(parse("=(p;q)"), Team.empty(PQ))
    # constancy
    assert evaluate(parse("=(p)"), team([[1, 0], [1, 1]]))
    assert not evaluate(parse("=(p)"), team([[0, 0], [1, 0]]))
    # degenerate: target among the arguments is trivially functional
    assert evaluate(parse("=(p;p)"), full_team(PQ))


def test_split_clause():
    # both halves may reuse members: overlap is allowed
    assert evaluate(parse("p + p"), team([[1, 0], [1, 1]]))
    assert evaluate(parse("p + !p"), team([[0, 0], [1, 1]]))
    assert not evaluate(parse("p + p"), team([[0, 0]]))
    # the empty side is always available
    assert evaluate(parse("p + bot"), team([[1, 0]]))
    # constancy splits the full team, but is not preserved by it
    assert evaluate(parse("=(p) + =(p)"), full_team(P))
    assert not evaluate(parse("=(p)"), full_team(P))


def test_inquisitive_disjunction_clause():
    x = team([[0, 0], [1, 1]])
    assert not evaluate(parse("p | !p"), x)
    assert evaluate(parse("p | !p"), team([[1, 0], [1, 1]]))


def test_implication_clause():
    # every subteam satisfying the antecedent must satisfy the consequent
    assert evaluate(parse("p -> q"), team([[1, 1], [0, 0]]))
    assert not evaluate(parse("p -> q"), team([[1, 1], [1, 0]]))
    assert evaluate(parse("bot -> p"), full_team(PQ))
    assert evaluate(parse("p -> top"), full_team(PQ))
    # antecedent top quantifies over every subteam
    assert not evaluate(parse("top -> p"), team([[1, 1], [0, 1]]))


def test_evaluate_team_vars_must_cover_formula():
    with pytest.raises(ValidationError):
        evaluate(parse("p & r"), team([[1, 1]]))


def test_placeholder_rejected_by_evaluate():
    with pytest.raises(ValidationError):
        evaluate(parse("r1 + p"), full_team(P))


@settings(max_examples=150, deadline=None)
@given(st_formula([p, q], Fragment.PT0, max_leaves=5), st_team(PQ))
def test_reference_evaluator_agreement(phi, x):
    assert evaluate(phi, x) == reference_evaluate(phi, x)


@settings(max_examples=150, deadline=None)
@given(st_formula([p, q], Fragment.PT0, max_leaves=4), st_formula([p, q], Fragment.PT0, max_leaves=4), st_team(PQ))
def test_split_against_naive_all_pairs(phi, psi, x):
    from tsw.formulas import Tensor

    assert evaluate(Tensor(phi, psi), x) == naive_tensor_holds(phi, psi, x)


@settings(max_examples=100, deadline=None)
@given(st_formula([p, q], Fragment.PT0, max_leaves=6))
def test_truth_set_matches_pointwise_evaluation(phi):
    ts = truth_set(phi)
    for x in enumerate_teams(ts.vars):
        assert (x in ts) == evaluate(phi, x)


@settings(max_examples=100, deadline=None)
@given(st_formula([p, q], Fragment.PT0, max_leaves=6), st_team(PQ))
def test_downward_closure_holds_everywhere(phi, x):
    # every connective in the language preserves closure under subteams
    if evaluate(phi, x):
        m = x.mask
        sub = m
        while True:
            assert evaluate(phi, Team(PQ, sub))
            if sub == 0:
                break
            sub = (sub - 1) & m


def test_three_variable_spot_checks():
    rng = random.Random(424242)
    vs = [p, q, r]
    n = VarSet((p, q, r))
    for _ in range(40):
        phi = random_formula(rng, vs)
        x = random_team(rng, n)
        ts = truth_set(phi, n)
        assert (x in ts) == evaluate(phi, x)


def test_truth_set_infers_vars_and_accepts_superset():
    ts = truth_set(parse("p"))
    assert ts.vars.names() == ["p"]
    wider = truth_set(parse("p"), PQ)
    assert wider.vars.names() == ["p", "q"]
    assert len(wider.teams()) == sum(
        1 for x in enumerate_teams(PQ) if evaluate(parse("p"), x)
    )
    with pytest.raises(ValidationError):
        truth_set(parse("p & q"), P)


def test_truth_set_of_closed_formula():
    ts = truth_set(parse("bot"), NO_VARS)
    assert [t.rows() for t in ts.teams()] == [[]]
    assert len(truth_set(parse("top"), NO_VARS).teams()) == 2


def test_variable_caps():
    wide4 = parse("p & q & r & s")
    wide5 = parse("p & q & r & s & t")
    with pytest.raises(CapExceededError) as exc:
        truth_set(wide4)
    assert str(exc.value) == (
        "truth set over 4 variables exceeds the cap of 3 "
        "(force raises it to the hard maximum of 4)"
    )
    forced = truth_set(wide4, force=True)
    assert len(forced.teams()) == 2
    with pytest.raises(CapExceededError) as exc:
        truth_set(wide5, force=True)
    assert str(exc.value) == "truth set over 5 variables exceeds the cap of 4"
    with pytest.raises(CapExceededError):
        entails(wide4, parse("p"))
    assert entails(wide4, parse("p"), force=True)
    # validity is a single evaluation, bounded by the alternatives budget
    # rather than by a variable cap
    assert not valid(wide5)


def test_validity_pins():
    assert valid(parse("top"))
    assert not valid(parse("bot"))
    assert valid(parse("p + !p"))
    assert not valid(parse("p | !p"))
    assert valid(parse("=(p;p)"))
    assert not valid(parse("=(p)"))
    assert valid(parse("((p -> bot) -> bot) -> p"))


def test_entailment_pins():
    assert entails(parse("p & q"), parse("p"))
    assert not entails(parse("p"), parse("p & q"))
    assert entails(parse("p"), parse("p + p"))
    assert entails(parse("p + p"), parse("p"))
    assert not entails(parse("=(p) + =(p)"), parse("=(p)"))
    assert entails(parse("bot"), parse("=(p;q)"))
    # vars are joined before comparison
    assert entails(parse("p & q"), parse("q & p"))


def test_equivalence_pins():
    assert equivalent(parse("p + p"), parse("p"))
    assert equivalent(parse("p & q"), parse("q & p"))
    assert not equivalent(parse("p + q"), parse("p | q"))
    assert equivalent(parse("!p"), parse("p -> bot"))


def test_property_report_structure():
    rep = check_basic_properties(parse("=(p;q)"), seed=7)
    obj = rep.to_json()
    assert obj["formula"] == "=(p;q)"
    assert obj["vars"] == ["p", "q"]
    assert obj["ok"] is True
    names = [c["name"] for c in obj["checks"]]
    assert names == ["empty_team", "downward_closure", "locality", "disjunction_property"]
    assert all(c["passed"] for c in obj["checks"])
    # the reports are plain mutable values: repr, == and no hash
    first = rep.checks[0]
    assert repr(first) == (
        "CheckOutcome(name='empty_team', passed=True, "
        "detail='the empty team satisfies the formula', witness=None)"
    )
    assert repr(PropertyReport("p", ["p"])) == "PropertyReport(formula='p', vars=['p'], checks=[])"
    again = check_basic_properties(parse("=(p;q)"), seed=7)
    assert again == rep and again.checks[0] == first and again.checks[0] != rep.checks[1]
    again.checks[0].passed = False
    assert again != rep and not again.ok
    with pytest.raises(TypeError):
        hash(rep)
    with pytest.raises(TypeError):
        hash(first)
    # each constructor takes its fields by position or by name
    assert str(inspect.signature(CheckOutcome)) == (
        "(name: 'str', passed: 'bool', detail: 'str', witness: 'Optional[dict]' = None)"
    )
    assert str(inspect.signature(PropertyReport)) == (
        "(formula: 'str', vars: 'list[str]', checks: 'Optional[list[CheckOutcome]]' = None)"
    )
    assert CheckOutcome(detail=first.detail, passed=True, name=first.name) == first
    assert PropertyReport(vars=rep.vars, formula=rep.formula, checks=rep.checks) == rep
    assert PropertyReport("p", ["p"]).checks is not PropertyReport("p", ["p"]).checks


def test_property_report_is_seed_deterministic():
    a = check_basic_properties(parse("(p + q) -> =(p)"), seed=11)
    b = check_basic_properties(parse("(p + q) -> =(p)"), seed=11)
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


def test_property_report_disjunction_detail():
    # a valid disjunction must have a valid disjunct
    rep = check_basic_properties(parse("(p + !p) | q"), seed=3)
    disj = rep.to_json()["checks"][-1]
    assert disj["name"] == "disjunction_property"
    assert disj["passed"]
    assert disj["detail"] == "the formula is valid, so some disjunct must be valid"
    # an invalid disjunction renders the condition vacuous
    vac = check_basic_properties(parse("p | q"), seed=3).to_json()["checks"][-1]
    assert vac["passed"]
    assert "vacuous" in vac["detail"]


@settings(max_examples=60, deadline=None)
@given(st_formula([p, q], Fragment.PT0, max_leaves=5))
def test_properties_hold_for_random_formulas(phi):
    assert check_basic_properties(phi, seed=0).ok


def test_locality_across_extensions():
    # verdicts only depend on the restriction to the formula's variables
    phi = parse("=(p) + !p")
    for x in enumerate_teams(PQ):
        assert evaluate(phi, x) == evaluate(phi, x.restrict(P))


def test_evaluate_against_indicator_and_references():
    # evaluate decides by alternatives; the indicator engine, the clause
    # transcription and the all-pairs tensor are independent of it
    rng = random.Random(20110101)
    pool = [Variable(n) for n in "pqrs"]
    for nvars, rounds in ((0, 20), (1, 150), (2, 250), (3, 250), (4, 25)):
        vs = pool[:nvars]
        varset = VarSet(tuple(vs))
        for _ in range(rounds):
            phi = random_formula(rng, vs, max_depth=2)
            psi = random_formula(rng, vs, max_depth=2)
            chi = rng.choice((And, Tensor, IDisj, Impl))(phi, psi)
            ind = _truth_indicator(chi, varset)
            for x in (random_team(rng, varset), random_team(rng, varset, max_size=3)):
                got = evaluate(chi, x)
                assert got == bool(ind >> x.mask & 1), (chi, x.rows())
                if x.size <= 3:
                    assert got == reference_evaluate(chi, x), (chi, x.rows())
                if isinstance(chi, Tensor):
                    assert got == naive_tensor_holds(phi, psi, x), (chi, x.rows())


def test_judgments_against_indicator():
    # truth_set, entails and equivalent decide by the alternatives of the
    # full team; the indicator engine builds every truth set independently
    rng = random.Random(20150101)
    pool = [Variable(n) for n in "pqrs"]
    for nvars, rounds in ((0, 10), (1, 60), (2, 120), (3, 150), (4, 20)):
        vs = pool[:nvars]
        varset = VarSet(tuple(vs))
        for i in range(rounds):
            phi = random_formula(rng, vs, max_depth=3)
            psi = random_formula(rng, vs, max_depth=3)
            # pairs that entail and are equivalent by construction, so that
            # both verdicts of each judgment occur
            if i % 3 == 1:
                psi = IDisj(phi, psi)
            elif i % 3 == 2 and isinstance(phi, (And, Tensor, IDisj)):
                psi = type(phi)(phi.right, phi.left)
            got = truth_set(phi, varset, force=nvars == 4)
            assert got.masks == frozenset(_bit_positions(_truth_indicator(phi, varset))), phi
            both = var_set(phi).union(var_set(psi))
            ind_phi = _truth_indicator(phi, both)
            ind_psi = _truth_indicator(psi, both)
            force = len(both) == 4
            assert entails(phi, psi, force=force) == (ind_phi & ~ind_psi == 0), (phi, psi)
            assert equivalent(phi, psi, force=force) == (ind_phi == ind_psi), (phi, psi)


def test_indicator_tensor_matches_the_per_team_scan():
    # the tensor of the lattice takes one subteam sweep per maximal left
    # team; the reference scans every subteam of every team
    rng = random.Random(1501)
    pool = [Variable(n) for n in "pqrs"]
    for nvars, rounds in ((2, 100), (3, 200), (4, 2)):
        vs = pool[:nvars]
        varset = VarSet(tuple(vs))
        for _ in range(rounds):
            chi = Tensor(random_formula(rng, vs, max_depth=2), random_formula(rng, vs, max_depth=2))
            assert _truth_indicator(chi, varset) == reference_truth_indicator(chi, varset), chi
    pqrs = VarSet.of("p", "q", "r", "s")
    for text in (
        "=(p,q,r;s) + =(p,q,s;r)",
        "(=(p,q,r;s) | =(p,q,s;r)) + (=(p,r,s;q) | =(q,r,s;p))",
        "(=(p,q,r;s) + =(p,q,r;s)) -> =(p,q,r;s) + =(p,q,r;s)",
    ):
        phi = parse(text)
        assert _truth_indicator(phi, pqrs) == reference_truth_indicator(phi, pqrs), text


def test_nested_implications_of_dependence_atoms_against_indicator():
    # the implication's choices are pruned to their maximal ones before the
    # product with its candidates; the walk answers these without the lattice
    vs = VarSet.of("p", "q", "r", "s")
    phi = parse("(=(p,r;s) -> =(q,r;s)) -> !q")
    psi = parse("((=(p,r;s) -> =(q,r;s)) -> !q) | (top | !p) + q & !p")
    chi = parse("(=(q,s;p) -> =(r,s;p)) -> r")
    formulas = (phi, psi, chi, IDisj(chi, parse("p")))
    indicators = [_truth_indicator(f, vs) for f in formulas]
    for f, ind in zip(formulas, indicators):
        assert _down_set(walk_alternatives(f, vs), 16) == ind, f
    for a, ind_a in zip(formulas, indicators):
        for b, ind_b in zip(formulas, indicators):
            assert entails(a, b, force=True) == (ind_a & ~ind_b == 0), (a, b)
            assert equivalent(a, b, force=True) == (ind_a == ind_b), (a, b)
    assert entails(phi, psi, force=True) and not entails(psi, phi, force=True)


def walk_alternatives(phi, vars):
    """The alternatives of ``phi`` on the full team from the walk alone."""
    tree = syntax_tree(phi)
    return node_alternatives(tree, (), full_team(vars))[tree.root]


def test_alternatives_past_the_budget_are_the_indicators_maximal_teams():
    full = (1 << 16) - 1
    vs = VarSet.of("a", "b", "c", "d")
    theta = theta_star(full_team(vs))
    with pytest.raises(CapExceededError):
        walk_alternatives(theta, vs)
    lemma = sorted(full ^ (1 << j) for j in range(16))
    assert sorted(theta_star_alternatives(full_team(vs))) == lemma
    assert sorted(alternatives(theta, vs)) == lemma
    assert _down_set(lemma, 16) == _truth_indicator(theta, vs)
    pin = parse("(=(p,q,r;s) + =(p,q,r;s)) -> =(p,q,r;s) + =(p,q,r;s)")
    with pytest.raises(CapExceededError):
        walk_alternatives(pin, VarSet.of("p", "q", "r", "s"))
    assert alternatives(pin, VarSet.of("p", "q", "r", "s")) == [full]


def test_alternatives_read_placeholders_as_their_substituents():
    # each placeholder is bound to its substituent's alternatives, and the
    # answer is that of the substituted instance
    pool = [parse(t) for t in ("bot", "top", "p", "!q", "=(p)", "p + !p", "=(p;q) & q")]
    contexts = [
        parse(t) for t in ("top", "r1", "r2 + r1", "(r1 & q) + (r2 & !p)", "r2 & (r1 + r1)")
    ]
    for phi in contexts:
        for theta in itertools.product(pool, repeat=2):
            got = alternatives(phi, PQ, [alternatives(t, PQ) for t in theta])
            assert sorted(got) == sorted(alternatives(substitute(phi, theta), PQ))
    # past the budget, the indicator engine reads the placeholders the same way
    pqrs = VarSet.of("p", "q", "r", "s")
    pin = parse("(r1 + r1) -> r1 + r1")
    with pytest.raises(CapExceededError):
        walk_alternatives(substitute(pin, [parse("=(p,q,r;s)")]), pqrs)
    assert alternatives(pin, pqrs, [alternatives(parse("=(p,q,r;s)"), pqrs)]) == [(1 << 16) - 1]
    # a placeholder left unbound, or a variable outside the set
    context = "cannot take the truth set of a context"
    outside = "variable 'q' of the formula is outside the given set"
    cases = (("r2 & p", [[1]], context), ("r1", [], context), ("r1 + q", [[1]], outside))
    for phi, bound, message in cases:
        with pytest.raises(ValidationError) as got:
            alternatives(parse(phi), P, bound)
        assert str(got.value) == message


def test_judgments_fall_back_to_the_indicator_past_the_budget():
    phi = parse("(=(p,q,r;s) + =(p,q,r;s)) -> =(p,q,r;s) + =(p,q,r;s)")
    vs = VarSet.of("p", "q", "r", "s")
    with pytest.raises(CapExceededError):  # the walk exceeds its budget
        walk_alternatives(phi, vs)
    family = truth_set(phi, force=True)
    assert len(family) == 65_536
    assert family.masks == frozenset(_bit_positions(_truth_indicator(phi, vs)))
    # one side over the budget, the other decided by its alternatives
    assert entails(phi, parse("=(p,q,r;s) + =(p,q,r;s)"), force=True)
    assert entails(parse("p & q & r & s"), phi, force=True)
    assert not entails(phi, parse("=(p,q,r;s)"), force=True)
    assert equivalent(phi, parse("top"), force=True)
    assert not equivalent(parse("=(s)"), phi, force=True)


def test_judgment_validation_messages():
    with pytest.raises(ValidationError) as exc:
        truth_set(parse("r1 & p"))
    assert str(exc.value) == "cannot take the truth set of a context"
    with pytest.raises(ValidationError) as exc:
        entails(parse("p"), parse("p + r2"))
    assert str(exc.value) == "cannot take the truth set of a context"
    with pytest.raises(ValidationError) as exc:
        truth_set(parse("q & p"), VarSet.of("p"))
    assert str(exc.value) == "variable 'q' of the formula is outside the given set"


def test_valid_on_formerly_unbounded_inputs():
    assert not valid(parse("p + q + r + s"))
    assert not valid(parse("((p + q) + (r + s)) + t"))
    chain = parse(" & ".join("pqr"[i % 3] for i in range(5000)))
    assert not valid(chain)
    assert valid(Tensor(chain, Top()))
    assert not valid(Tensor(chain, chain))
    assert valid(parse(" & ".join(["p + !p"] * 5000)))
    # a bare dependence atom is decided on the team, not by its 2^32 choices
    assert not valid(parse("=(p,q,r,s,t;u)"))
    with pytest.raises(CapExceededError):
        valid(parse("=(p,q,r,s,t;u) + =(p,q,r,s,t;u)"))


def test_bit_positions_match_bit_stripping():
    def stripped(x):
        out = []
        while x:
            low = x & -x
            out.append(low.bit_length() - 1)
            x ^= low
        return out

    rng = random.Random(7)
    for bits in (0, 1, 2, 63, 64, 65, 1000, 65536):
        for _ in range(3):
            x = rng.getrandbits(bits)
            assert _bit_positions(x) == stripped(x)
            # sparse ints of the same length, on both sides of 32 set bits
            for k in (1, 32, 33, 100):
                y = sum(1 << rng.randrange(bits) for _ in range(k)) if bits else 0
                assert _bit_positions(y) == stripped(y)
    assert _bit_positions((1 << 65536) - 1) == list(range(65536))


def test_tree_walk_matches_the_fold_walk_on_every_context():
    # node_alternatives walks every node of a syntax tree; the fold walk of
    # each node's formula, with the same instances, must give the same
    # alternatives
    from tsw.definability import enumerate_contexts
    from tsw.semantics import _Walk, node_alternatives

    rng = random.Random(18)
    pools = ("r1,r2,bot,top,p,!p,=(p)", "r1,r2,p1,q,=(q;p1),bot,top,!q")
    instances = ("p,!p,=(p),p + !p,top,bot", "p1,!q,=(p1;q),p1 + !p1,q & =(q),q | !p1")
    for pool_text, inst_text, vars in zip(pools, instances, (P, VarSet.of("p1", "q"))):
        npat = 1 << len(vars)
        pool = [parse(t) for t in pool_text.split(",")]
        insts = [parse(t) for t in inst_text.split(",")]
        contexts = enumerate_contexts(pool, 7)
        contexts += [parse(t) for t in ("r1 | r2", "r1 -> r2", "(r1 | top) -> (r2 + bot)")]
        for phi in contexts:
            X = rng.getrandbits(npat)
            theta = (rng.choice(insts), rng.choice(insts))
            tree = syntax_tree(phi)
            got = node_alternatives(tree, theta, Team(vars, X))
            for node in tree.nodes:
                folded = _Walk(vars, X)
                folded.bound = {i: folded.alternatives(theta[i - 1]) for i in (1, 2)}
                assert got[node.id] == folded.alternatives(node.formula), to_text(phi)


def test_alternatives_within_keeps_no_tree_on_a_context():
    # a walk of the root alone folds, so a context walked once (as in a
    # refutation) is left without a syntax tree
    team = full_team(PQ)
    context = parse("(r1 & p) + (r2 & !q)")
    alts = alternatives_within(context, team, [[team.mask], [team.mask]])
    assert len(context._kept) == 3  # its census alone
    assert alts == alternatives(parse("p + !q"), PQ)
    closed = parse("(top & p) + (top & !q)")
    assert alternatives_within(closed, team) == alts
    assert len(closed._kept) == 3
