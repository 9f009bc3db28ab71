"""Characteristic formulas and cross-fragment translation.

The engine room is ``theta_star``: for a nonempty team X over variables
N it builds a PD formula satisfied by exactly the teams that do NOT
contain X.  That law alone fixes its alternatives on the full team over N
(``theta_star_alternatives``): the full team less one member of X each,
which is how the refutation battery of ``definability`` reads it.
Conjoining these formulas over all excluded teams synthesizes a PD
formula for any downward-closed family (``synth_pd``); disjoining flat
classical descriptions of the maximal teams does the same within InqL
(``synth_inql``).  ``translate`` composes a truth-set computation with
either synthesizer, giving a (deliberately non-compositional)
translation between the two fragments.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Sequence, Union

from .errors import ValidationError
from .formulas import (
    And,
    Bottom,
    Dep,
    Formula,
    Fragment,
    IDisj,
    Impl,
    NegVar,
    PosVar,
    Tensor,
    Top,
    Variable,
)
from .semantics import _check_cap, truth_set
from .teams import Team, TeamFamily, VarSet, full_team, is_downward_closed


@lru_cache(maxsize=256)
def _valuation_literal(pattern: int, vars: VarSet) -> Formula:
    """Conjunction of literals pinning each variable to its bit in ``pattern``.
    Cached, so the ``theta_star`` conjuncts of one synthesis share it."""
    lits: list[Formula] = [
        PosVar(v) if (pattern >> i) & 1 else NegVar(v) for i, v in enumerate(vars)
    ]
    return reduce(And, lits)


@lru_cache(maxsize=64)
def _constancy(N: VarSet) -> Formula:
    """The conjunction of the constancy atoms of all variables of ``N``.
    Cached, so the ``theta_star`` conjuncts of one synthesis share it."""
    return reduce(And, [Dep((), v) for v in N])


def theta_star(X: Team, *, raw: bool = False) -> Formula:
    """A PD formula over X's own variables N satisfied by a team Y over N
    iff X is not a subteam of Y.

    Shape: a tensor of |X|-1 copies of the all-variables constancy
    conjunction, tensored with one literal conjunction per valuation
    outside X.  By default empty tensor halves are dropped (an empty whole
    collapses to ``bot``); with ``raw`` the two halves are kept as an
    explicit top-level tensor, each half materializing as ``bot`` when
    empty.
    """
    if X.is_empty:
        raise ValidationError("theta_star needs a nonempty team")
    N = X.vars
    m = X.size - 1
    copies: list[Formula] = []
    if m:
        copies = [_constancy(N)] * m
    npat = 1 << len(N)
    lits = [
        _valuation_literal(pattern, N)
        for pattern in range(npat)
        if not (X.mask >> pattern) & 1
    ]
    if raw:
        left = reduce(Tensor, copies) if copies else Bottom()
        right = reduce(Tensor, lits) if lits else Bottom()
        return Tensor(left, right)
    parts = copies + lits
    return reduce(Tensor, parts) if parts else Bottom()


def theta_star_alternatives(X: Team) -> list[int]:
    """The alternatives of ``theta_star(X)`` on the full team over X's
    variables, read off its law without building the formula: a team
    satisfies it iff it misses a member of X, so the maximal ones are the
    full team less one member of X each."""
    if X.is_empty:
        raise ValidationError("theta_star needs a nonempty team")
    full = full_team(X.vars).mask
    return [full ^ (1 << p) for p in range(1 << len(X.vars)) if X.mask >> p & 1]


def _validate_family(K: TeamFamily) -> None:
    if not is_downward_closed(K):
        raise ValidationError(
            "synthesis needs a downward-closed family containing the empty team"
        )


def synth_pd(K: TeamFamily, *, minimize: bool = False, force: bool = False) -> Formula:
    """A PD formula whose truth set over ``K.vars`` is exactly ``K``: the
    conjunction, over every nonempty team outside ``K``, of that team's
    ``theta_star``, smallest teams first.  With ``minimize``, only the
    minimal such teams: a team contains a team outside the down-set ``K``
    iff it contains a minimal one, so the other conjuncts add nothing."""
    _validate_family(K)
    _check_cap(len(K.vars), force, "synthesis")
    npat = 1 << len(K.vars)
    excluded = [
        mask
        for mask in sorted(range(1, 1 << npat), key=lambda m: (m.bit_count(), m))
        if mask not in K.masks
    ]
    if minimize:  # minimal: every proper subteam lies in K
        excluded = [
            mask
            for mask in excluded
            if all(mask ^ (1 << j) in K.masks for j in range(npat) if mask >> j & 1)
        ]
    if not excluded:
        return Top()
    return reduce(And, [theta_star(Team(K.vars, mask)) for mask in excluded])


def _inql_literal(pattern: int, vars: VarSet) -> Formula:
    if len(vars) == 0:
        return Impl(Bottom(), Bottom())
    lits: list[Formula] = [
        PosVar(v) if (pattern >> i) & 1 else Impl(PosVar(v), Bottom())
        for i, v in enumerate(vars)
    ]
    return reduce(And, lits)


def _classical_or(a: Formula, b: Formula) -> Formula:
    # not(not a and not b), with negation spelled as implication into bot;
    # on flat operands this is the flat (truth-value) disjunction.
    return Impl(And(Impl(a, Bottom()), Impl(b, Bottom())), Bottom())


def _flat_description(X: Team) -> Formula:
    """A flat InqL formula whose satisfying teams are exactly X's subteams."""
    if X.is_empty:
        return Bottom()
    descriptions = [_inql_literal(val.bits, X.vars) for val in X.members()]
    return reduce(_classical_or, descriptions)


def synth_inql(K: TeamFamily, *, force: bool = False) -> Formula:
    """An InqL formula whose truth set over ``K.vars`` is exactly ``K``:
    the inquisitive disjunction, over the maximal teams of ``K``, of a
    flat description of each."""
    _validate_family(K)
    _check_cap(len(K.vars), force, "synthesis")
    branches = [_flat_description(X) for X in K.maximal_teams()]
    return reduce(IDisj, branches)


def _resolve_target(target: Union[Fragment, str]) -> Fragment:
    if isinstance(target, str):
        try:
            target = Fragment(target.lower())
        except ValueError:
            raise ValidationError(f"unknown translation target {target!r}") from None
    if target is Fragment.PT0:
        raise ValidationError("translation targets are 'pd' and 'inql'")
    return target


def translate(phi: Formula, target: Union[Fragment, str], *, force: bool = False) -> Formula:
    """An equivalent formula (over ``phi``'s own variables) in the target
    fragment, obtained by synthesizing from the truth set."""
    target = _resolve_target(target)
    K = truth_set(phi, force=force)
    if target is Fragment.PD:
        return synth_pd(K, force=force)
    return synth_inql(K, force=force)


def _settled(v: Variable) -> Formula:
    return IDisj(PosVar(v), Impl(PosVar(v), Bottom()))


def dep_to_inql(args: Sequence[Variable], target: Variable) -> Formula:
    """The InqL rendering of a dependence atom: knowing each argument's
    truth value settles the target's.  With no arguments this is just the
    settled-target disjunction."""
    consequent = _settled(target)
    if not args:
        return consequent
    antecedent = reduce(And, [_settled(a) for a in args])
    return Impl(antecedent, consequent)
