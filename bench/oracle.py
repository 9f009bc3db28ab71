"""Reference semantics for checking the benchmark's results.

This module shares no code with ``tsw``.  It has its own parser, its own
formula representation (nested tuples) and its own satisfaction engine,
which works with *alternatives*: every formula of the language is closed
under subteams, so the subteams of a team X that satisfy a formula form a
down-set, and the maximal elements of that down-set (its alternatives)
describe it exactly.  Alternatives compose clause by clause, so no
subteam scan is needed.  Every walk uses an explicit stack, so formulas
thousands of levels deep are fine.

Formulas are tuples:

    ("var", name)  ("neg", name)  ("bot",)  ("top",)  ("ph", index)
    ("dep", (arg names...), target name)
    ("&", left, right)  ("+", left, right)  ("|", left, right)  ("->", left, right)

A team over an ordered list of variable names is an int bitmask over
valuation patterns; bit i of a pattern is the value of the i-th name.
Variable lists are sorted by name, as ``tsw`` orders them.
"""

from __future__ import annotations

import itertools
import re

BINARY = ("&", "+", "|", "->")
# Most pairs of alternatives one binary node may combine before the oracle
# gives up rather than run out of memory.
PAIR_LIMIT = 200_000
_TOKEN_RE = re.compile(r"\s*(?:(->)|([a-z][a-zA-Z0-9_]*)|([&+|()=;,])|([~!]))")
_PREC = {"->": 1, "|": 2, "+": 3, "&": 4}
_PH_RE = re.compile(r"r([0-9]+)\Z")


class OracleError(Exception):
    """Input the reference semantics rejects."""


# --- text -----------------------------------------------------------------


def _tokens(text):
    pos, out = 0, []
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise OracleError(f"bad character at {pos}")
        out.append(next(g for g in m.groups() if g is not None))
        pos = m.end()
    return out


def parse(text):
    """Operator-precedence parse of the PT0 text grammar (no recursion)."""
    toks = _tokens(text)
    out, ops = [], []

    def reduce_top():
        op = ops.pop()
        right, left = out.pop(), out.pop()
        out.append((op, left, right))

    i = 0
    expect_operand = True
    while i < len(toks):
        t = toks[i]
        if expect_operand:
            if t == "(":
                ops.append("(")
            elif t in ("!", "~"):
                i += 1
                out.append(("neg", _name(toks[i])))
                expect_operand = False
            elif t == "=":
                j = toks.index(")", i)
                inner = toks[i + 2 : j]
                if toks[i + 1] != "(" or not inner:
                    raise OracleError("bad dependence atom")
                if ";" not in inner and len(inner) != 1:
                    raise OracleError("expected ';' before the dependence target")
                if ";" in inner:
                    k = inner.index(";")
                    args = tuple(_name(a) for a in inner[:k:2])
                    target = _name(inner[k + 1])
                else:
                    args, target = (), _name(inner[0])
                out.append(("dep", args, target))
                i = j
                expect_operand = False
            else:
                out.append(_atom(t))
                expect_operand = False
        elif t == ")":
            while ops[-1] != "(":
                reduce_top()
            ops.pop()
        elif t in _PREC:
            # "->" is right-associative, the others left-associative
            while ops and ops[-1] != "(" and (
                _PREC[ops[-1]] > _PREC[t] or (_PREC[ops[-1]] == _PREC[t] and t != "->")
            ):
                reduce_top()
            ops.append(t)
            expect_operand = True
        else:
            raise OracleError(f"unexpected token {t!r}")
        i += 1
    while ops:
        if ops[-1] == "(":
            raise OracleError("unbalanced parenthesis")
        reduce_top()
    if len(out) != 1:
        raise OracleError("malformed formula")
    return out[0]


def _name(tok):
    if not re.match(r"[a-z][a-zA-Z0-9_]*\Z", tok) or tok in ("bot", "top") or _PH_RE.match(tok):
        raise OracleError(f"bad variable name {tok!r}")
    return tok


def _atom(tok):
    if tok == "bot":
        return ("bot",)
    if tok == "top":
        return ("top",)
    m = _PH_RE.match(tok)
    if m:
        return ("ph", int(m.group(1)))
    return ("var", _name(tok))


def text(phi):
    """Fully parenthesized text that ``parse`` and ``tsw.parse`` both read."""
    parts, stack = [], [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, str):
            parts.append(f)
        elif f[0] in BINARY:
            stack.extend([")", f[2], f") {f[0]} (", f[1], "("])
        elif f[0] == "var":
            parts.append(f[1])
        elif f[0] == "neg":
            parts.append("!" + f[1])
        elif f[0] == "ph":
            parts.append(f"r{f[1]}")
        elif f[0] == "dep":
            parts.append("=(" + (",".join(f[1]) + ";" if f[1] else "") + f[2] + ")")
        else:
            parts.append(f[0])
    return "".join(parts)


# --- structure ------------------------------------------------------------


def nodes(phi):
    """Pre-order list of every node occurrence."""
    out, stack = [], [phi]
    while stack:
        f = stack.pop()
        out.append(f)
        if f[0] in BINARY:
            stack.append(f[2])
            stack.append(f[1])
    return out


def size(phi):
    return len(nodes(phi))


def variables(phi):
    acc = set()
    for f in nodes(phi):
        if f[0] in ("var", "neg"):
            acc.add(f[1])
        elif f[0] == "dep":
            acc.update(f[1])
            acc.add(f[2])
    return sorted(acc)


_FRAGMENTS = {
    "pd": ({"&", "+"}, {"var", "neg", "bot", "top", "dep", "ph"}),
    "inql": ({"&", "|", "->"}, {"var", "bot", "top", "ph"}),
}


def in_fragment(phi, fragment):
    connectives, atoms = _FRAGMENTS[fragment]
    return all(
        (f[0] in connectives) if f[0] in BINARY else (f[0] in atoms) for f in nodes(phi)
    )


def substitute(phi, instances):
    """Replace ``("ph", i)`` with ``instances[i-1]`` (post-order, no recursion)."""
    done, stack = [], [(phi, False)]
    while stack:
        f, expanded = stack.pop()
        if f[0] in BINARY and not expanded:
            stack.append((f, True))
            stack.append((f[2], False))
            stack.append((f[1], False))
        elif f[0] in BINARY:
            right, left = done.pop(), done.pop()
            done.append((f[0], left, right))
        elif f[0] == "ph":
            done.append(instances[f[1] - 1])
        else:
            done.append(f)
    return done[0]


# --- satisfaction ---------------------------------------------------------


def ones(nvars, i):
    """Patterns over ``nvars`` variables whose bit ``i`` is 1."""
    return sum(1 << pat for pat in range(1 << nvars) if pat >> i & 1)


def maximal(teams):
    """The maximal elements of a collection of teams, largest first."""
    kept = []
    for t in sorted(set(teams), key=lambda m: -m.bit_count()):
        if not any(t & ~k == 0 for k in kept):
            kept.append(t)
    return kept


def _patterns(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _dep_alternatives(args, target, X, index):
    classes = {}
    for pat in _patterns(X):
        key = tuple(pat >> index[a] & 1 for a in args)
        pair = classes.setdefault(key, [0, 0])
        pair[pat >> index[target] & 1] |= 1 << pat
    choices = [[a, b] if a and b else [a | b] for a, b in classes.values()]
    return maximal(sum(pick) for pick in itertools.product(*choices))


def _implication_alternatives(left, right, X):
    """Maximal Y inside X such that, for every left alternative A, A&Y lies
    below some right alternative B: intersect over A the choices of
    (X minus A) | B, keeping only maximal candidates after each step."""
    cands = [X]
    for a in left:
        cands = maximal(y & ((X & ~a) | b) for y in cands for b in right)
    return cands


def alternatives(phi, X, names):
    """The maximal subteams of team ``X`` (over ``names``) satisfying ``phi``."""
    index = {v: i for i, v in enumerate(names)}
    n = len(names)
    done, stack = [], [(phi, False)]
    while stack:
        f, expanded = stack.pop()
        tag = f[0]
        if tag in BINARY and not expanded:
            stack.append((f, True))
            stack.append((f[2], False))
            stack.append((f[1], False))
            continue
        if tag == "var":
            alts = [X & ones(n, index[f[1]])]
        elif tag == "neg":
            alts = [X & ~ones(n, index[f[1]])]
        elif tag == "bot":
            alts = [0]
        elif tag == "top":
            alts = [X]
        elif tag == "dep":
            alts = _dep_alternatives(f[1], f[2], X, index)
        elif tag == "ph":
            raise OracleError("cannot evaluate a context")
        else:
            right, left = done.pop(), done.pop()
            if len(left) * len(right) > PAIR_LIMIT:
                raise OracleError("alternatives exceed the oracle's budget")
            if tag == "&":
                alts = maximal(a & b for a in left for b in right)
            elif tag == "+":
                alts = maximal(a | b for a in left for b in right)
            elif tag == "|":
                alts = maximal(left + right)
            else:
                alts = _implication_alternatives(left, right, X)
        done.append(alts)
    return done[0]


def holds(phi, X, names):
    """Whether team ``X`` over ``names`` satisfies ``phi``."""
    return alternatives(phi, X, names) == [X]


def full(nvars):
    return (1 << (1 << nvars)) - 1


def truth_set(phi, names):
    """Masks of every team over ``names`` that satisfies ``phi``."""
    out = set()
    for alt in alternatives(phi, full(len(names)), names):
        s = alt
        while True:
            out.add(s)
            if s == 0:
                break
            s = (s - 1) & alt
    return frozenset(out)


def downward_families(nvars):
    """Every family of teams over ``nvars`` variables that contains the
    empty team and every subteam of its members, by brute force over all
    sets of teams."""
    nteams = 1 << (1 << nvars)
    out = []
    for indicator in range(1 << nteams):
        members = [m for m in range(nteams) if indicator >> m & 1]
        if indicator & 1 and all(
            indicator >> (m & ~(1 << p)) & 1 for m in members for p in _patterns(m)
        ):
            out.append(frozenset(members))
    return out


# --- contexts and truth functions -----------------------------------------


def context_count(pool_size, max_size):
    """How many contexts ``enumerate_contexts`` yields: one per ``&``/``+``
    tree over the pool, counting a node's two children once when they can
    be swapped.  Counted by recurrence, without building any formula."""
    count = {1: pool_size}
    for n in range(3, max_size + 1, 2):
        total = 0
        for left in range(1, n - 1, 2):
            right = n - 1 - left
            if left < right:
                total += count[left] * count[right]
            elif left == right:
                total += count[left] * (count[left] + 1) // 2
        count[n] = 2 * total
    return sum(count.values())


def contexts(pool, max_size):
    """One ``&``/``+`` tree over the pool per class of trees equal up to
    swapping children, with at most ``max_size`` nodes."""
    by_size = {1: list(pool)}
    for n in range(3, max_size + 1, 2):
        out = []
        for left in range(1, (n - 1) // 2 + 1, 2):
            right = n - 1 - left
            for op in ("&", "+"):
                for i, a in enumerate(by_size[left]):
                    rights = by_size[right][i:] if left == right else by_size[right]
                    out.extend((op, a, b) for b in rights)
        by_size[n] = out
    return [f for n in sorted(by_size) for f in by_size[n]]


def canonical(phi):
    """Text of ``phi`` with the children of every ``&`` and ``+`` sorted, so
    that formulas equal up to swapping them read the same."""
    done, stack = [], [(phi, False)]
    while stack:
        f, expanded = stack.pop()
        if f[0] in BINARY and not expanded:
            stack += [(f, True), (f[2], False), (f[1], False)]
        elif f[0] in BINARY:
            right, left = done.pop(), done.pop()
            if f[0] in ("&", "+"):
                left, right = sorted((left, right))
            done.append(f"({left}) {f[0]} ({right})")
        else:
            done.append(text(f))
    return done[0]


def tree(phi):
    """Pre-order ``[(formula, child ids)]`` of the occurrence tree."""
    out, stack = [], [(phi, None)]
    while stack:
        f, parent = stack.pop()
        me = len(out)
        out.append([f, ()])
        if parent is not None:
            out[parent][1] += (me,)
        if f[0] in BINARY:
            stack.append((f[2], me))
            stack.append((f[1], me))
    return [tuple(n) for n in out]


def truth_function_ok(context, instances, nodes_out, X, names):
    """Check a truth function given as ``[(formula, child ids, team)]`` in
    pre-order: it must be the context's own tree, rooted at X, with ``&``
    nodes sharing their team with both children, ``+`` nodes carrying the
    union of their children's teams, and every node's team satisfying its
    instantiated label."""
    if [(f, ch) for f, ch, _ in nodes_out] != tree(context) or nodes_out[0][2] != X:
        return False
    for f, children, team in nodes_out:
        if f[0] in BINARY:
            y, z = (nodes_out[c][2] for c in children)
            if f[0] == "&" and not (y == team and z == team):
                return False
            if f[0] == "+" and y | z != team:
                return False
        if not holds(substitute(f, instances), team, names):
            return False
    return True
