import random

import pytest
from hypothesis import given

from tsw.errors import CapExceededError, ValidationError
from tsw.formulas import Variable
from tsw.teams import (
    Team,
    TeamFamily,
    Valuation,
    VarSet,
    enumerate_downward_closed_families,
    enumerate_teams,
    full_team,
    is_downward_closed,
)

from .helpers import (
    NO_VARS,
    P,
    PQ,
    downward_closed_family_masks,
    reference_downward_closed_families,
    reference_is_downward_closed,
    st_team,
)


def test_varset_basics():
    assert PQ.names() == ["p", "q"]
    assert len(PQ) == 2
    assert P.is_subset(PQ)
    assert not PQ.is_subset(P)
    assert PQ.union(VarSet.of("r", "p")).names() == ["p", "q", "r"]
    # named constructors dedupe; the raw constructor does not
    assert VarSet.of("p", "p").names() == ["p"]
    with pytest.raises(ValidationError):
        VarSet((Variable("p"), Variable("p")))


def test_varset_is_sorted():
    assert VarSet.of("q", "p").names() == ["p", "q"]


def test_valuation_round_trip():
    v = Valuation.from_row(PQ, [1, 0])
    assert v.row() == [1, 0]
    assert v.value(next(iter(P))) == 1
    assert v.bits == 0b01
    with pytest.raises(ValidationError):
        Valuation.from_row(PQ, [1])
    with pytest.raises(ValidationError):
        Valuation.from_row(PQ, [1, 2])


def test_team_from_rows_and_members():
    x = Team.from_rows(PQ, [[0, 1], [1, 1]])
    assert x.size == 2
    assert not x.is_empty
    assert x.rows() == [[0, 1], [1, 1]]
    assert Team.empty(PQ).is_empty
    assert full_team(P).rows() == [[0], [1]]


def test_team_duplicate_rows_rejected():
    with pytest.raises(ValidationError):
        Team.from_rows(P, [[1], [1]])


def test_team_set_operations():
    a = Team.from_rows(P, [[0]])
    b = Team.from_rows(P, [[1]])
    assert a.union(b).mask == full_team(P).mask
    assert a.intersection(b).is_empty
    assert full_team(P).difference(a).rows() == [[1]]
    assert a.is_subteam_of(full_team(P))
    assert not full_team(P).is_subteam_of(a)
    with pytest.raises(ValidationError):
        a.union(Team.empty(PQ))


def test_team_restrict():
    x = Team.from_rows(PQ, [[0, 1], [1, 1]])
    assert x.restrict(P).rows() == [[0], [1]]
    # collapsing valuations merge
    y = Team.from_rows(PQ, [[1, 0], [1, 1]])
    assert y.restrict(P).rows() == [[1]]
    with pytest.raises(ValidationError):
        x.restrict(VarSet.of("z"))


def test_team_json_round_trip():
    x = Team.from_rows(PQ, [[0, 1], [1, 1]])
    obj = x.to_json()
    assert obj == {"vars": ["p", "q"], "team": [[0, 1], [1, 1]]}
    assert Team.from_json(obj) == x
    with pytest.raises(ValidationError):
        Team.from_json({"vars": ["p"], "team": [[1], [1]]})


def test_enumerate_teams_canonical_order():
    teams = list(enumerate_teams(P))
    assert len(teams) == 4
    assert [t.rows() for t in teams] == [[], [[0]], [[1]], [[0], [1]]]
    assert len(list(enumerate_teams(NO_VARS))) == 2
    # size-major, mask-minor
    masks = [t.mask for t in enumerate_teams(PQ)]
    sizes = [bin(m).count("1") for m in masks]
    assert sizes == sorted(sizes)
    assert len(masks) == 16


def test_enumerate_teams_cap():
    vs = VarSet.of("a", "b", "c", "d", "e")
    with pytest.raises(CapExceededError):
        next(enumerate_teams(vs))
    four = VarSet.of("a", "b", "c", "d")
    assert sum(1 for _ in enumerate_teams(four)) == 1 << 16


def test_family_counts_against_bruteforce():
    for vs, npat in ((NO_VARS, 1), (P, 2), (PQ, 4)):
        expected = {fs for fs in downward_closed_family_masks(npat)}
        got = {frozenset(f.masks) for f in enumerate_downward_closed_families(vs)}
        assert got == expected
    assert len(downward_closed_family_masks(1)) == 2
    assert len(downward_closed_family_masks(2)) == 5
    assert len(downward_closed_family_masks(4)) == 167


def test_family_enumeration_cap():
    with pytest.raises(CapExceededError):
        next(enumerate_downward_closed_families(VarSet.of("p", "q", "r")))


def test_family_membership_and_maximal():
    fam = TeamFamily.from_teams(
        [Team.empty(P), Team.from_rows(P, [[0]]), Team.from_rows(P, [[1]])]
    )
    assert Team.from_rows(P, [[0]]) in fam
    assert full_team(P) not in fam
    assert len(fam) == 3
    assert [t.rows() for t in fam.maximal_teams()] == [[[0]], [[1]]]
    assert is_downward_closed(fam)
    not_closed = TeamFamily.from_teams([full_team(P)])
    assert not is_downward_closed(not_closed)


def test_maximal_teams_match_all_pairs_definition():
    rng = random.Random(11)
    for vs in (NO_VARS, P, PQ, VarSet.of("p", "q", "r")):
        npat = 1 << len(vs)
        for _ in range(40):
            # the down-set of a few random generators
            masks = {0}
            for g in (rng.getrandbits(npat) for _ in range(rng.randint(1, 5))):
                s = g
                while s:
                    masks.add(s)
                    s = (s - 1) & g
            fam = TeamFamily(vs, frozenset(masks))
            want = sorted(
                (m for m in masks if not any(m != o and m & ~o == 0 for o in masks)),
                key=lambda m: (m.bit_count(), m),
            )
            assert [t.mask for t in fam.maximal_teams()] == want


def test_family_json_round_trip():
    fam = TeamFamily.from_teams([Team.empty(P), Team.from_rows(P, [[1]])])
    obj = fam.to_json()
    assert obj == {"vars": ["p"], "teams": [[], [[1]]]}
    assert TeamFamily.from_json(obj) == fam


def test_family_masks_in_range():
    # over {p} the team masks are 0..3
    assert len(TeamFamily(P, frozenset({0, 3}))) == 2
    assert len(TeamFamily(P, frozenset())) == 0
    for bad in ({4}, {0, 4}, {-1, 1}):
        with pytest.raises(ValidationError, match="out of range"):
            TeamFamily(P, frozenset(bad))


def test_family_mixed_vars_rejected():
    with pytest.raises(ValidationError):
        TeamFamily.from_teams([Team.empty(P), Team.empty(PQ)])


@given(st_team(PQ))
def test_downward_closure_brute_force_agreement(team):
    # close the singleton family under subteams, then check the predicate
    masks = set()
    stack = [team.mask]
    while stack:
        m = stack.pop()
        if m in masks:
            continue
        masks.add(m)
        for bit in range(4):
            if m >> bit & 1:
                stack.append(m & ~(1 << bit))
    fam = TeamFamily(PQ, frozenset(masks))
    assert is_downward_closed(fam)
    if team.size >= 2:
        # removing a strictly smaller nonempty subteam breaks closure
        hole = min(m for m in masks if 0 < m < team.mask)
        assert not is_downward_closed(TeamFamily(PQ, frozenset(masks - {hole})))


def test_downward_closure_predicate_pins():
    assert is_downward_closed(TeamFamily(P, frozenset({0})))
    assert not is_downward_closed(TeamFamily(P, frozenset({0b11})))
    assert is_downward_closed(TeamFamily(P, frozenset({0, 0b01, 0b10, 0b11})))


def test_family_enumeration_matches_the_subteam_scan_in_order():
    for vs in (NO_VARS, P, PQ):
        assert list(enumerate_downward_closed_families(vs)) == list(
            reference_downward_closed_families(vs)
        )


def test_downward_closure_matches_the_subteam_scan():
    # down-sets of a few small random generators, each then kept, less one
    # random member, or with one random team added; over six variables a
    # family indicator would have 2^64 bits, so the check must do without
    rng = random.Random(1709)
    verdicts = set()
    for vs in (NO_VARS, P, PQ, VarSet.of("p", "q", "r"), VarSet.of("a", "b", "c", "d", "e", "f")):
        npat = 1 << len(vs)
        for _ in range(80):
            masks = {0}
            for _ in range(rng.randint(0, 3)):
                g = s = sum(1 << j for j in {rng.randrange(npat) for _ in range(rng.randint(1, 4))})
                while s:
                    masks.add(s)
                    s = (s - 1) & g
            edit = rng.randrange(3)
            if edit == 1:
                masks.discard(rng.choice(sorted(masks)))
            elif edit == 2:
                masks.add(rng.getrandbits(npat))
            fam = TeamFamily(vs, frozenset(masks))
            got = is_downward_closed(fam)
            assert got == reference_is_downward_closed(fam), (vs, sorted(masks))
            verdicts.add(got)
    assert verdicts == {True, False}


def test_downward_closure_over_four_variables():
    vs = VarSet.of("p", "q", "r", "s")
    everything = frozenset(range(1 << 16))
    assert is_downward_closed(TeamFamily(vs, everything))
    for hole in (0b1, 0b0110, (1 << 16) - 2):  # nonempty and not maximal
        assert not is_downward_closed(TeamFamily(vs, everything - {hole}))


def test_sort_key_orders_by_size_then_mask():
    teams = sorted(enumerate_teams(PQ), key=Team.sort_key, reverse=True)
    assert teams[-1].is_empty
    assert teams[0].mask == 0b1111


def test_maximal_masks_against_a_pairwise_reference():
    # lists of every length up to 300, short ones most
    from tsw.teams import maximal_masks

    rng = random.Random(18)
    for i in range(600):
        npat = rng.choice((2, 4, 8, 16, 32))
        size = i % 12 if i % 3 else rng.randint(0, 300)
        masks = [rng.getrandbits(npat) for _ in range(size)]
        got = maximal_masks(list(masks))
        want = {m for m in masks if not any(m != o and m & ~o == 0 for o in masks)}
        assert len(got) == len(set(got)) and set(got) == want
        counts = [m.bit_count() for m in got]
        assert counts == sorted(counts, reverse=True)


def test_varset_walk_table_is_not_seen():
    import pickle

    vs = VarSet.of("q", "p", "r")
    before = (pickle.dumps(vs), hash(vs), repr(vs))
    members, ones = vs._table
    assert members == set(vs.vars)
    assert (ones["r"], ones["p"], ones["q"]) == (0b11110000, 0b10101010, 0b11001100)
    assert dict(ones) == {"p": 0b10101010, "q": 0b11001100, "r": 0b11110000}
    assert (pickle.dumps(vs), hash(vs), repr(vs)) == before
    assert pickle.dumps(vs) == pickle.dumps(VarSet.of("p", "q", "r"))
    again = pickle.loads(pickle.dumps(vs))
    assert again == vs and hash(again) == hash(vs) and "_table" not in again.__dict__
    # the value semantics of each class: its repr, fixed fields, and equal
    # copies through pickle
    p = VarSet.of("p")
    values = [
        (vs, "vars", "VarSet(vars=(Variable(name='p'), Variable(name='q'), Variable(name='r')))"),
        (Valuation(p, 1), "bits", "Valuation(vars=VarSet(vars=(Variable(name='p'),)), bits=1)"),
        (Team(p, 3), "mask", "Team(vars=VarSet(vars=(Variable(name='p'),)), mask=3)"),
        (
            TeamFamily(p, frozenset({0, 1})),
            "masks",
            "TeamFamily(vars=VarSet(vars=(Variable(name='p'),)), masks=frozenset({0, 1}))",
        ),
    ]
    for value, field, text in values:
        assert repr(value) == text
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        again = pickle.loads(pickle.dumps(value))
        assert again == value and not (again != value) and hash(again) == hash(value)
        assert repr(again) == text
    assert Team(p, 1) != Team(p, 2) and Team(p, 1) != Valuation(p, 1)
    assert TeamFamily(p, frozenset({0})) != TeamFamily(VarSet.of("q"), frozenset({0}))
