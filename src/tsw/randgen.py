"""Seeded random formulas and teams for property testing.

Everything here draws from a caller-supplied ``random.Random``, so a
fixed seed reproduces the same corpus on any platform (the module never
touches the global generator).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .formulas import (
    And,
    Atom,
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
from .teams import Team, VarSet

DEFAULT_MAX_DEPTH = 4
_ATOM_PROB = 0.3

_CONNECTIVES = {
    Fragment.PT0: (And, Tensor, IDisj, Impl),
    Fragment.PD: (And, Tensor),
    Fragment.INQL: (And, IDisj, Impl),
}


def _random_atom(rng: random.Random, vars: Sequence[Variable], fragment: Fragment) -> Atom:
    # Weighted pool: variables are most common, then negations and
    # dependence atoms, with the constants as seasoning.
    choices: list[tuple[int, str]] = [(3, "pos"), (1, "bot"), (1, "top")]
    if fragment is not Fragment.INQL:
        choices += [(2, "neg"), (2, "dep")]
    total = sum(w for w, _ in choices)
    roll = rng.randrange(total)
    for w, kind in choices:
        roll -= w
        if roll < 0:
            break
    if kind == "bot":
        return Bottom()
    if kind == "top":
        return Top()
    if not vars:
        return Bottom()
    if kind == "pos":
        return PosVar(rng.choice(vars))
    if kind == "neg":
        return NegVar(rng.choice(vars))
    target = rng.choice(vars)
    args = tuple(v for v in vars if v != target and rng.random() < 0.5)
    return Dep(args, target)


def random_formula(
    rng: random.Random,
    vars: Sequence[Variable],
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
    fragment: Fragment = Fragment.PT0,
) -> Formula:
    """A random placeholder-free formula of the given fragment over ``vars``,
    at most ``max_depth`` deep, drawn in pre-order: a node's connective,
    then its whole left side, then its right."""
    built: list[Formula] = []
    todo: list = [max_depth]  # depths still to draw, and connectives to build
    while todo:
        item = todo.pop()
        if isinstance(item, type):
            right = built.pop()
            built[-1] = item(built[-1], right)
        elif item <= 0 or rng.random() < _ATOM_PROB:
            built.append(_random_atom(rng, vars, fragment))
        else:
            todo += (rng.choice(_CONNECTIVES[fragment]), item - 1, item - 1)
    return built[0]


def random_team(
    rng: random.Random,
    vars: VarSet,
    *,
    max_size: Optional[int] = None,
) -> Team:
    """A uniformly random team over ``vars``; with ``max_size`` set, a
    random team of at most that many members instead."""
    npat = 1 << len(vars)
    if max_size is None:
        return Team(vars, rng.getrandbits(npat))
    size = rng.randint(0, min(max_size, npat))
    mask = 0
    for pattern in rng.sample(range(npat), size):
        mask |= 1 << pattern
    return Team(vars, mask)
