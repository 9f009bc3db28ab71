import random

import pytest
from hypothesis import given, settings

from tsw.errors import ValidationError
from tsw.expressiveness import (
    dep_to_inql,
    synth_inql,
    synth_pd,
    theta_star,
    theta_star_alternatives,
    translate,
)
from tsw.formulas import Fragment, Top, Variable, fragment_check, syntax_tree, to_text, variables
from tsw.parsing import parse
from tsw.semantics import equivalent, evaluate, node_alternatives, truth_set
from tsw.teams import (
    Team,
    TeamFamily,
    VarSet,
    enumerate_downward_closed_families,
    enumerate_teams,
    full_team,
)

from .helpers import NO_VARS, P, PQ, PQR, reference_synth_pd_minimized, st_team

p, q = Variable("p"), Variable("q")


def test_theta_pins():
    assert to_text(theta_star(full_team(P))) == "=(p)"
    assert to_text(theta_star(Team.from_rows(P, [[1]]))) == "!p"
    assert to_text(theta_star(Team.from_rows(P, [[0]]))) == "p"
    assert to_text(theta_star(Team.from_rows(P, [[1]]), raw=True)) == "bot + !p"


def test_theta_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        theta_star(Team.empty(P))
    with pytest.raises(ValidationError):
        theta_star_alternatives(Team.empty(P))


def test_theta_alternatives_match_the_walk():
    # the lemma against the walk of the formula itself, which raises rather
    # than fall back when it exceeds its budget
    checked = 0
    for vs in (NO_VARS, P, PQ, PQR):
        for x in enumerate_teams(vs):
            if x.is_empty:
                continue
            tree = syntax_tree(theta_star(x))
            walked = node_alternatives(tree, (), full_team(vs))[tree.root]
            assert sorted(theta_star_alternatives(x)) == sorted(walked), x.rows()
            checked += 1
    assert checked == 1 + 3 + 15 + 255


def test_theta_law_one_variable():
    for x in enumerate_teams(P):
        if x.is_empty:
            continue
        phi = theta_star(x)
        for y in enumerate_teams(P):
            assert evaluate(phi, y) == (not x.is_subteam_of(y))


def test_theta_law_two_variables_raw_and_simplified():
    for x in enumerate_teams(PQ):
        if x.is_empty:
            continue
        for raw in (False, True):
            phi = theta_star(x, raw=raw)
            assert fragment_check(phi, Fragment.PD)
            for y in enumerate_teams(PQ):
                assert evaluate(phi, y) == (not x.is_subteam_of(y))


def test_theta_shape_counts_copies():
    # a three-member team needs two constancy copies beside the literals
    x = Team.from_rows(PQ, [[0, 0], [0, 1], [1, 0]])
    text = to_text(theta_star(x))
    assert text.count("=(p) & =(q)") == 2
    assert "p & q" in text  # the one excluded pattern


def synth_matches(fam, synth, fragment):
    phi = synth(fam)
    assert fragment_check(phi, fragment)
    assert truth_set(phi, fam.vars) == fam
    return phi


def test_synth_pd_pins():
    fam = TeamFamily.from_teams([Team.empty(P), Team.from_rows(P, [[1]])])
    assert to_text(synth_pd(fam)) == "p & =(p)"
    assert to_text(synth_pd(fam, minimize=True)) == "p"
    only_empty = TeamFamily.from_teams([Team.empty(P)])
    assert truth_set(synth_pd(only_empty), P) == only_empty
    everything = TeamFamily(P, frozenset(t.mask for t in enumerate_teams(P)))
    assert to_text(synth_pd(everything)) == "top"
    everything = TeamFamily(VarSet.of("p", "q", "r", "s"), frozenset(range(1 << 16)))
    assert synth_pd(everything, force=True) == Top()


def test_synth_inql_pins():
    fam = TeamFamily.from_teams([Team.empty(P), Team.from_rows(P, [[1]])])
    assert to_text(synth_inql(fam)) == "p"
    only_empty = TeamFamily.from_teams([Team.empty(P)])
    assert to_text(synth_inql(only_empty)) == "bot"


def test_synth_over_every_single_variable_family():
    for fam in enumerate_downward_closed_families(P):
        synth_matches(fam, synth_pd, Fragment.PD)
        synth_matches(fam, synth_inql, Fragment.INQL)


def test_synth_over_zero_variable_families():
    fams = list(enumerate_downward_closed_families(NO_VARS))
    assert len(fams) == 2
    for fam in fams:
        synth_matches(fam, synth_pd, Fragment.PD)
        synth_matches(fam, synth_inql, Fragment.INQL)
    both = next(f for f in fams if len(f) == 2)
    assert to_text(synth_inql(both)) == "bot -> bot"


def test_synth_two_variable_samples():
    fams = list(enumerate_downward_closed_families(PQ))
    assert len(fams) == 167
    for fam in fams[::13]:
        synth_matches(fam, synth_pd, Fragment.PD)
        synth_matches(fam, synth_inql, Fragment.INQL)


def test_synth_minimize_never_grows():
    for fam in enumerate_downward_closed_families(P):
        full = synth_pd(fam)
        small = synth_pd(fam, minimize=True)
        assert truth_set(small, P) == fam
        assert len(to_text(small)) <= len(to_text(full))


def test_synth_minimize_matches_the_greedy_reference():
    # over 0-2 variables, every downward-closed family
    fams = [f for vs in (NO_VARS, P, PQ) for f in enumerate_downward_closed_families(vs)]
    assert len(fams) == 174
    for fam in fams:
        assert synth_pd(fam, minimize=True) == reference_synth_pd_minimized(fam), fam


def test_synth_minimize_three_variable_families():
    rng = random.Random(7)
    for _ in range(3):
        tops = [rng.getrandbits(8) for _ in range(rng.randint(1, 4))]
        fam = TeamFamily(PQR, frozenset(m for m in range(256) if any(m & ~t == 0 for t in tops)))
        phi = synth_pd(fam, minimize=True)
        assert fragment_check(phi, Fragment.PD)
        assert truth_set(phi, PQR) == fam


def test_synth_rejects_open_families():
    not_closed = TeamFamily(P, frozenset({0b11}))
    with pytest.raises(ValidationError):
        synth_pd(not_closed)
    with pytest.raises(ValidationError):
        synth_inql(not_closed)


def test_translate_pins():
    got = translate(parse("=(p;q)"), "inql")
    assert fragment_check(got, Fragment.INQL)
    assert equivalent(parse("=(p;q)"), got)
    back = translate(got, "pd")
    assert fragment_check(back, Fragment.PD)
    assert equivalent(got, back)


def test_translate_accepts_enum_and_rejects_pt0():
    got = translate(parse("p | q"), Fragment.PD)
    assert fragment_check(got, Fragment.PD)
    assert equivalent(parse("p | q"), got)
    with pytest.raises(ValidationError):
        translate(parse("p"), "pt0")
    with pytest.raises(ValidationError):
        translate(parse("p"), "nope")


@settings(max_examples=40, deadline=None)
@given(st_team(PQ))
def test_theta_by_exclusion_property(x):
    # the synthesised excluder is false exactly on the supersets
    if x.is_empty:
        return
    phi = theta_star(x)
    supersets = [y for y in enumerate_teams(PQ) if x.is_subteam_of(y)]
    assert all(not evaluate(phi, y) for y in supersets)


def test_dep_translation_pins():
    assert to_text(dep_to_inql((), q)) == "q | (q -> bot)"
    assert (
        to_text(dep_to_inql((p,), q))
        == "(p | (p -> bot)) -> (q | (q -> bot))"
    )


def test_dep_translation_is_equivalent():
    r = Variable("r")
    cases = [((), p), ((p,), q), ((q,), p), ((p, q), r)]
    for args, target in cases:
        from tsw.formulas import Dep

        dep = Dep(args, target)
        got = dep_to_inql(args, target)
        assert fragment_check(got, Fragment.INQL)
        assert equivalent(dep, got)


def test_dep_translation_degenerate_target():
    # target among the arguments: both sides are valid, hence equivalent
    from tsw.formulas import Dep

    got = dep_to_inql((p,), p)
    assert equivalent(Dep((p,), p), got)


def test_theta_star_with_a_shared_constancy_conjunction_keeps_its_shape():
    # theta_star takes its constancy conjunction from a cache, so the
    # theta_star conjuncts of a synthesis share one; each must still equal
    # the formula built from fresh atoms
    from functools import reduce

    from tsw.formulas import And, Bottom, Dep, NegVar, PosVar, Tensor

    def fresh(X, raw):
        N = X.vars
        copies = [reduce(And, [Dep((), v) for v in N])] * (X.size - 1)
        lits = [
            reduce(And, [PosVar(v) if p >> i & 1 else NegVar(v) for i, v in enumerate(N)])
            for p in range(1 << len(N))
            if not X.mask >> p & 1
        ]
        if raw:
            left = reduce(Tensor, copies) if copies else Bottom()
            right = reduce(Tensor, lits) if lits else Bottom()
            return Tensor(left, right)
        return reduce(Tensor, copies + lits) if copies + lits else Bottom()

    rng = random.Random(18)
    teams = [Team(PQ, m) for m in range(1, 16)]
    teams += [Team(PQR, rng.randrange(1, 256)) for _ in range(50)]
    for X in teams:
        for raw in (False, True):
            got, want = theta_star(X, raw=raw), fresh(X, raw)
            assert got == want and to_text(got) == to_text(want)
