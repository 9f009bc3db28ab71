"""Checks of the benchmark's oracle and generator against brute force.

    python3 -m pytest bench/test_oracle.py      (or: python3 bench/test_oracle.py)

The brute-force semantics below enumerates subteams clause by clause; the
oracle's alternatives engine must agree with it everywhere it is run.
"""

import itertools
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import oracle  # noqa: E402


def subteams(X):
    s = X
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & X


def naive(phi, X, names):
    """Satisfaction straight from the clauses, by enumerating subteams."""
    n = len(names)
    index = {v: i for i, v in enumerate(names)}
    pats = [p for p in range(1 << n) if X >> p & 1]
    tag = phi[0]
    if tag == "var":
        return all(p >> index[phi[1]] & 1 for p in pats)
    if tag == "neg":
        return not any(p >> index[phi[1]] & 1 for p in pats)
    if tag == "bot":
        return X == 0
    if tag == "top":
        return True
    if tag == "dep":
        key = lambda p: tuple(p >> index[a] & 1 for a in phi[1])
        return all(
            p >> index[phi[2]] & 1 == q >> index[phi[2]] & 1
            for p in pats for q in pats if key(p) == key(q)
        )
    if tag == "&":
        return naive(phi[1], X, names) and naive(phi[2], X, names)
    if tag == "|":
        return naive(phi[1], X, names) or naive(phi[2], X, names)
    if tag == "+":
        return any(
            naive(phi[1], Y, names) and naive(phi[2], Z, names)
            for Y in subteams(X) for Z in subteams(X) if Y | Z == X
        )
    if tag == "->":
        return all(
            naive(phi[2], Y, names) for Y in subteams(X) if naive(phi[1], Y, names)
        )
    raise AssertionError(phi)


def test_parse_reads_both_printers():
    r = random.Random(1)
    for _ in range(500):
        phi = gen.formula(r, ("p", "q", "r"), 4)
        assert oracle.parse(gen.text(phi)) == phi
        assert oracle.parse(oracle.text(phi)) == phi


def test_parse_precedence_and_associativity():
    p, q, r = ("var", "p"), ("var", "q"), ("var", "r")
    assert oracle.parse("p & q + r") == ("+", ("&", p, q), r)
    assert oracle.parse("p | q + r") == ("|", p, ("+", q, r))
    assert oracle.parse("p -> q -> r") == ("->", p, ("->", q, r))
    assert oracle.parse("p | q | r") == ("|", ("|", p, q), r)
    assert oracle.parse("=(p,q;r) & !p") == ("&", ("dep", ("p", "q"), "r"), ("neg", "p"))
    assert oracle.parse("(" * 600 + "p" + ")" * 600) == p


def test_holds_matches_brute_force():
    r = random.Random(2)
    for n, names in ((2, ("p", "q")), (3, ("p", "q", "r"))):
        for _ in range(150 if n == 2 else 40):
            phi = gen.formula(r, names, 3)
            for X in range(1 << (1 << n)) if n == 2 else r.sample(range(256), 12):
                assert oracle.holds(phi, X, list(names)) == naive(phi, X, list(names)), phi


def test_truth_sets_are_down_sets_with_the_empty_team():
    r = random.Random(3)
    for _ in range(100):
        phi = gen.formula(r, ("p", "q"), 3)
        ts = oracle.truth_set(phi, ["p", "q"])
        assert 0 in ts
        assert all(s in ts for m in ts for s in subteams(m))
        assert ts == {X for X in range(16) if naive(phi, X, ["p", "q"])}


def test_relabel_keeps_truth_set_size():
    r = random.Random(4)
    names = ["p", "q", "r"]
    for _ in range(50):
        phi = gen.formula(r, tuple(names), 3)
        psi = gen.formula(r, tuple(names), 3)
        twin, twin_psi = gen.relabel((phi, psi), r, names)
        ts, ts_psi = oracle.truth_set(phi, names), oracle.truth_set(psi, names)
        assert len(ts) == len(oracle.truth_set(twin, names))
        assert (ts <= ts_psi) == (oracle.truth_set(twin, names) <= oracle.truth_set(twin_psi, names))


def test_downward_families_on_two_variables():
    # the Dedekind number M(4) = 168 counts the empty family too
    assert len(oracle.downward_families(2)) == 167
    assert len(oracle.downward_families(1)) == 5


def canonical_contexts(pool, max_size):
    """All &/+ trees over the pool up to max_size nodes, one per class of
    trees equal up to swapping children, by brute force."""
    by_size = {1: set(pool)}
    for n in range(3, max_size + 1, 2):
        out = set()
        for left in range(1, n - 1, 2):
            for a, b in itertools.product(by_size[left], by_size[n - 1 - left]):
                for op in ("&", "+"):
                    out.add((op,) + tuple(sorted((a, b))))
        by_size[n] = out
    return sum(len(v) for v in by_size.values())


def test_context_count():
    pool = [("ph", 1), ("ph", 2), ("bot",), ("top",), ("var", "p"), ("neg", "p"), ("dep", (), "p")]
    assert oracle.context_count(7, 5) == canonical_contexts(pool, 5) == 847
    assert oracle.context_count(7, 7) == 15015
    listed = oracle.contexts(pool, 5)
    assert len({oracle.canonical(c) for c in listed}) == len(listed) == 847


def test_truth_function_check():
    ctx = oracle.parse("r1 + (r2 & p)")
    inst = [("dep", (), "p"), ("top",)]
    layout = oracle.tree(ctx)
    good = [0b11, 0b01, 0b10, 0b10, 0b10]
    assert oracle.truth_function_ok(ctx, inst, [(f, ch, m) for (f, ch), m in zip(layout, good)], 0b11, ["p"])
    bad = [0b11, 0b01, 0b10, 0b11, 0b10]  # an & node whose child has another team
    assert not oracle.truth_function_ok(ctx, inst, [(f, ch, m) for (f, ch), m in zip(layout, bad)], 0b11, ["p"])


def test_deep_formulas_need_no_recursion():
    phi = oracle.parse(gen.chain(5000))
    assert oracle.size(phi) == 9999
    assert not oracle.holds(phi, oracle.full(3), ["p", "q", "r"])
    # compared as text: comparing deeply nested tuples recurses
    assert oracle.text(oracle.parse(oracle.text(phi))) == oracle.text(phi)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")
