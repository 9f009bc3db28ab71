"""Seeded generator of benchmark inputs, written as formula text.

The generator builds formulas in the oracle's tuple form and prints them
with the fewest parentheses the grammar allows, so parsing sees the
precedence and associativity rules at work.  It never calls ``tsw``: a
change to the program cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import random

from oracle import BINARY

_PREC = {"->": 1, "|": 2, "+": 3, "&": 4}
SPLITTING = ("+", "->")


def text(phi):
    """Minimal-parenthesis text: ``&`` binds tightest, then ``+``, ``|``
    and the right-associative ``->``."""
    tag = phi[0]
    if tag not in BINARY:
        if tag == "var":
            return phi[1]
        if tag == "neg":
            return "!" + phi[1]
        if tag == "dep":
            return "=(" + (",".join(phi[1]) + ";" if phi[1] else "") + phi[2] + ")"
        if tag == "ph":
            return f"r{phi[1]}"
        return tag
    left, right = text(phi[1]), text(phi[2])
    if phi[1][0] in BINARY and (
        _PREC[phi[1][0]] < _PREC[tag] or (phi[1][0] == tag == "->")
    ):
        left = f"({left})"
    if phi[2][0] in BINARY and (
        _PREC[phi[2][0]] < _PREC[tag] or (phi[2][0] == tag != "->")
    ):
        right = f"({right})"
    return f"{left} {tag} {right}"


def atom(rng, names):
    roll = rng.random()
    if roll < 0.35:
        return ("var", rng.choice(names))
    if roll < 0.6:
        return ("neg", rng.choice(names))
    if roll < 0.68:
        return ("bot",)
    if roll < 0.74:
        return ("top",)
    target = rng.choice(names)
    others = [v for v in names if v != target]
    nargs = min(rng.choice((0, 0, 1, 1, 2)), len(others))
    return ("dep", tuple(sorted(rng.sample(others, nargs))), target)


def formula(rng, names, depth, splits=None):
    """A random PT0 formula of height at most ``depth``.  With ``splits``
    set, at most that many ``+`` or ``->`` lie on any root-to-leaf path."""
    if depth == 0 or rng.random() < 0.15:
        return atom(rng, names)
    ops = ("&", "+", "|", "->") if splits is None or splits > 0 else ("&", "|")
    op = rng.choices(ops, weights=(3, 3, 2, 2)[: len(ops)])[0]
    if splits is not None and op in SPLITTING:
        splits -= 1
    return (op, formula(rng, names, depth - 1, splits), formula(rng, names, depth - 1, splits))


def relabel(phis, rng, names):
    """The formulas ``phis`` under one seeded permutation of ``names`` and
    one seeded flip of each variable's polarity.  Teams map along, so every
    semantic fact (truth-set size, validity, entailment between them) is
    kept while the text changes."""
    perm = dict(zip(names, rng.sample(names, len(names))))
    flip = {v: rng.random() < 0.5 for v in names}
    return tuple(relabel_with(phi, perm, flip) for phi in phis)


def relabel_with(phi, perm, flip):
    tag = phi[0]
    if tag in BINARY:
        return (tag, relabel_with(phi[1], perm, flip), relabel_with(phi[2], perm, flip))
    if tag in ("var", "neg"):
        negated = (tag == "neg") != flip[phi[1]]
        return ("neg" if negated else "var", perm[phi[1]])
    if tag == "dep":
        return ("dep", tuple(sorted(perm[a] for a in phi[1])), perm[phi[2]])
    return phi


def team(rng, nvars, rows):
    """A random team with exactly ``rows`` members."""
    return sum(1 << pat for pat in rng.sample(range(1 << nvars), rows))


def chain(n):
    """``p & q & r & p & ...`` with ``n`` conjuncts."""
    return " & ".join("pqr"[i % 3] for i in range(n))


def rng_for(seed, label):
    """An independent stream per input group, so groups do not shift each
    other when one of them changes size."""
    return random.Random(f"{seed}:{label}")
