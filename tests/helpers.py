"""Independent reference implementations used as test oracles.

Everything here favours clarity over speed: no clever split enumeration,
no memoisation, and no indicator bitboards outside two uses of the
indicator engine: the synthesis greedy judges by it as the library once
did, and ``reference_truth_indicator`` runs it with every tensor taken by a
per-team scan (each distinct one once).  The real engines must agree with
these transcriptions on small inputs.
"""

import contextlib
import itertools
import re
import sys
from functools import lru_cache, reduce
from unittest import mock

from hypothesis import strategies as st

from tsw import semantics
from tsw.errors import CapExceededError, ParseError
from tsw.formulas import (
    And,
    Bottom,
    Dep,
    Fragment,
    IDisj,
    Impl,
    NegVar,
    Placeholder,
    PosVar,
    SyntaxTree,
    Tensor,
    Top,
    TreeNode,
    Variable,
)
from tsw.expressiveness import theta_star
from tsw.parsing import MAX_NESTING_DEPTH
from tsw.semantics import _truth_indicator, evaluate
from tsw.teams import Team, TeamFamily, VarSet


def subteams(team):
    """Every subteam of ``team``, the empty one included."""
    patterns = [v.bits for v in team.members()]
    for r in range(len(patterns) + 1):
        for combo in itertools.combinations(patterns, r):
            mask = 0
            for bits in combo:
                mask |= 1 << bits
            yield Team(team.vars, mask)


def reference_evaluate(phi, team):
    """Clause-by-clause transcription of the satisfaction relation.

    Exponential in team size for splits and implication; keep teams at
    two variables or so.
    """
    members = list(team.members())
    if isinstance(phi, PosVar):
        return all(v.value(phi.var) == 1 for v in members)
    if isinstance(phi, NegVar):
        return all(v.value(phi.var) == 0 for v in members)
    if isinstance(phi, Bottom):
        return team.is_empty
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Dep):
        for u in members:
            for v in members:
                if all(u.value(a) == v.value(a) for a in phi.args):
                    if u.value(phi.target) != v.value(phi.target):
                        return False
        return True
    if isinstance(phi, And):
        return reference_evaluate(phi.left, team) and reference_evaluate(phi.right, team)
    if isinstance(phi, Tensor):
        subs = list(subteams(team))
        for y in subs:
            for z in subs:
                if y.mask | z.mask == team.mask:
                    if reference_evaluate(phi.left, y) and reference_evaluate(phi.right, z):
                        return True
        return False
    if isinstance(phi, IDisj):
        return reference_evaluate(phi.left, team) or reference_evaluate(phi.right, team)
    if isinstance(phi, Impl):
        for y in subteams(team):
            if reference_evaluate(phi.left, y) and not reference_evaluate(phi.right, y):
                return False
        return True
    raise AssertionError(f"reference evaluator got {phi!r}")


def naive_tensor_holds(phi, psi, team, eval_fn=evaluate):
    """Split clause by brute force: try every pair of subteams that covers."""
    subs = list(subteams(team))
    for y in subs:
        for z in subs:
            if y.mask | z.mask == team.mask:
                if eval_fn(phi, y) and eval_fn(psi, z):
                    return True
    return False


def reference_split(phi, team):
    """The left side of the first split of ``team`` for the tensor ``phi``
    in descending subteam order, the right side being its complement; None
    when no split satisfies both sides.  A plain scan over subteams, the
    reference for the splits of ``semantics.largest_split``."""
    mask = s = team.mask
    while True:
        left, right = Team(team.vars, s), Team(team.vars, mask ^ s)
        if evaluate(phi.left, left) and evaluate(phi.right, right):
            return left
        if s == 0:
            return None
        s = (s - 1) & mask


def reference_refute(phi, c):
    """The first counterexample of the refutation battery, found by the
    per-team loop: for each battery vector, the whole instance is built by
    substitution and evaluated on every team over its variables and the
    vector's, in ``enumerate_teams`` order, beside the connective's own
    clause.  None when the battery is exhausted.  The reference for
    ``definability._refute_or_none``."""
    from tsw.definability import Counterexample, _battery
    from tsw.formulas import max_placeholder, substitute
    from tsw.semantics import var_set
    from tsw.teams import enumerate_teams

    nprime = var_set(substitute(phi, [Top()] * max_placeholder(phi)))
    if len(nprime) == 0:
        nprime = VarSet((Variable("p1"),))
    for instances in _battery(c, nprime):
        lhs_formula = substitute(phi, instances)
        vars = var_set(lhs_formula)
        for inst in instances:
            vars = vars.union(var_set(inst))
        for team in enumerate_teams(vars):
            lhs = evaluate(lhs_formula, team)
            rhs = c.evaluate(instances, team)
            if lhs != rhs:
                return Counterexample(phi, c, instances, vars, team, lhs, rhs)
    return None


def reference_tensor_indicator(left, right, npat):
    """The tensor of two indicators over ``npat`` patterns by a scan of every
    subteam of every team: team m is in it iff some subteam s of m is a left
    team and m less s a right team.  The reference for
    ``semantics._tensor_indicator``."""
    nteams = 1 << npat
    # membership by position, read off the binary digits, lowest team first
    in_left = format(left, f"0{nteams}b")[::-1]
    in_right = format(right, f"0{nteams}b")[::-1]
    out = 0
    for m in range(nteams):
        s = m
        while True:
            if in_left[s] == "1" and in_right[m ^ s] == "1":
                out |= 1 << m
                break
            if s == 0:
                break
            s = (s - 1) & m
    return out


def reference_truth_indicator(phi, vars):
    """``semantics._truth_indicator`` with every tensor taken by
    ``reference_tensor_indicator`` (each distinct pair of sides once)."""
    tensor = lru_cache(maxsize=None)(reference_tensor_indicator)
    with mock.patch.object(semantics, "_tensor_indicator", tensor):
        return semantics._truth_indicator(phi, vars)


def reference_is_downward_closed(family):
    """Whether the family holds every subteam of every member, the empty
    team included, by a scan of all of them; the reference for
    ``teams.is_downward_closed``."""
    if 0 not in family.masks:
        return False
    for m in family.masks:
        s = m
        while True:
            if s not in family.masks:
                return False
            if s == 0:
                break
            s = (s - 1) & m
    return True


def reference_downward_closed_families(vars):
    """The families over ``vars`` that ``reference_is_downward_closed``
    accepts, in ascending order of their membership indicator; the
    reference for ``teams.enumerate_downward_closed_families``."""
    nteams = 1 << (1 << len(vars))
    for indicator in range(1 << nteams):
        family = TeamFamily(vars, frozenset(m for m in range(nteams) if indicator >> m & 1))
        if reference_is_downward_closed(family):
            yield family


def reference_pool_equivalent(a, b):
    """Whether the instances of ``a`` and ``b`` are equivalent on every
    vector of ``definability.VALIDATION_POOL``, each instance built by
    substitution and compared by ``equivalent`` over its own variables; a
    vector past the caps is skipped.  The reference for
    ``definability._pool_equivalent``."""
    from tsw.definability import VALIDATION_POOL
    from tsw.formulas import max_placeholder
    from tsw.semantics import equivalent

    m = max(max_placeholder(a), max_placeholder(b))
    for vector in itertools.product(VALIDATION_POOL, repeat=m):
        try:
            if not equivalent(
                reference_substitute(a, vector), reference_substitute(b, vector), force=True
            ):
                return False
        except CapExceededError:
            continue
    return True


def reference_substitute(phi, theta):
    """Substitution by recursion, one call per level; the reference for
    ``formulas.substitute``."""
    if isinstance(phi, Placeholder):
        return theta[phi.index - 1]
    if isinstance(phi, (And, Tensor, IDisj, Impl)):
        left, right = reference_substitute(phi.left, theta), reference_substitute(phi.right, theta)
        return type(phi)(left, right)
    return phi


def reference_scan_variables(phi):
    """The variables and placeholder indices of ``phi`` by a fresh walk,
    kept on nothing; the reference for the census behind
    ``formulas.scan_variables``."""
    acc, placeholders = set(), set()
    stack = [phi]
    while stack:
        f = stack.pop()
        t = type(f)
        if t in (And, Tensor, IDisj, Impl):
            stack.append(f.left)
            stack.append(f.right)
        elif t is PosVar or t is NegVar:
            acc.add(f.var)
        elif t is Dep:
            acc.update(f.args)
            acc.add(f.target)
        elif t is Placeholder:
            placeholders.add(f.index)
    return acc, placeholders


_REFERENCE_ALLOWED = {
    Fragment.PT0: ((And, Tensor, IDisj, Impl), (PosVar, NegVar, Bottom, Top, Dep, Placeholder)),
    Fragment.PD: ((And, Tensor), (PosVar, NegVar, Bottom, Top, Dep, Placeholder)),
    Fragment.INQL: ((And, IDisj, Impl), (PosVar, Bottom, Top, Placeholder)),
}


def reference_fragment_check(phi, fragment):
    """Whether every connective and atom of ``phi`` is admitted in
    ``fragment``, by a walk that stops at the first that is not; the
    reference for ``formulas.fragment_check``."""
    nodes, atoms = _REFERENCE_ALLOWED[fragment]
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, (And, Tensor, IDisj, Impl)):
            if not isinstance(f, nodes):
                return False
            stack.append(f.left)
            stack.append(f.right)
        elif not isinstance(f, atoms):
            return False
    return True


def reference_syntax_tree(phi):
    """The occurrence tree of ``phi``, built afresh by a pre-order walk;
    the reference for ``formulas.syntax_tree``."""
    formulas, parents, depths, children = [], [], [], []
    stack = [(phi, None, 0)]
    while stack:
        f, parent, depth = stack.pop()
        my_id = len(formulas)
        formulas.append(f)
        parents.append(parent)
        depths.append(depth)
        children.append(())
        if parent is not None:
            children[parent] += (my_id,)
        if isinstance(f, (And, Tensor, IDisj, Impl)):
            stack.append((f.right, my_id, depth + 1))
            stack.append((f.left, my_id, depth + 1))
    return SyntaxTree(
        tuple(map(TreeNode, range(len(formulas)), formulas, parents, children, depths))
    )


def reference_subformulas(phi):
    """Subformulas by recursion, deduplicated by hashing each one; the
    reference for ``formulas.subformulas``."""
    seen = set()
    out = []

    def walk(f):
        if isinstance(f, (And, Tensor, IDisj, Impl)):
            walk(f.left)
            walk(f.right)
        if f not in seen:
            seen.add(f)
            out.append(f)

    walk(phi)
    return out


def reference_is_consistent(phi):
    """Whether some singleton over the context's variables satisfies its
    all-``top`` instance, by ``evaluate``; the reference for
    ``definability.is_consistent``."""
    from tsw.formulas import max_placeholder
    from tsw.semantics import var_set

    instance = reference_substitute(phi, [Top()] * max_placeholder(phi))
    vars = var_set(phi)
    return any(evaluate(instance, Team(vars, 1 << v)) for v in range(1 << len(vars)))


def reference_normalize(phi):
    """The rewrite of ``definability.normalize`` by recursion, deciding the
    sides of each tensor by ``reference_is_consistent``, without its
    checks: a tensor with one inconsistent side becomes the other side."""
    if isinstance(phi, And):
        return And(reference_normalize(phi.left), reference_normalize(phi.right))
    if isinstance(phi, Tensor):
        left_ok = reference_is_consistent(phi.left)
        right_ok = reference_is_consistent(phi.right)
        if left_ok and right_ok:
            return Tensor(reference_normalize(phi.left), reference_normalize(phi.right))
        return reference_normalize(phi.left if left_ok else phi.right)
    return phi


@contextlib.contextmanager
def recursion_headroom(frames):
    """Set the recursion limit to the current frame depth plus ``frames``,
    so code run inside may not recurse per level of a deep formula."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def reference_search(c, atom_pool, max_size):
    """The per-context search: every context up to ``max_size`` from
    ``enumerate_contexts``, each refuted by ``_refute_or_none`` on its own,
    each counterexample re-verified, and the refuting instances tallied in
    enumeration order.  The reference for ``definability.search_contexts``,
    without its size cap."""
    import time

    from tsw.definability import (
        SearchReport,
        _refute_or_none,
        enumerate_contexts,
        instance_label,
        verify_counterexample,
    )
    from tsw.errors import InternalInvariantError, ValidationError
    from tsw.formulas import to_text

    pool = list(atom_pool)
    for needed in (Placeholder(1), Placeholder(2)):
        if needed not in pool:
            raise ValidationError("the atom pool must include r1 and r2")
    start = time.perf_counter()
    candidates = enumerate_contexts(pool, max_size)
    report = SearchReport(
        connective=c.name,
        pool=[to_text(a) for a in pool],
        max_size=max_size,
        total=len(candidates),
    )
    for candidate in candidates:
        ce = _refute_or_none(candidate, c)
        if ce is None:
            report.unrefuted.append(to_text(candidate))
            continue
        if not verify_counterexample(ce):
            raise InternalInvariantError(
                f"counterexample for {to_text(candidate)} failed re-verification"
            )
        report.refuted += 1
        label = instance_label(ce.instances)
        report.by_instance[label] = report.by_instance.get(label, 0) + 1
    report.elapsed_s = round(time.perf_counter() - start, 3)
    return report


_REF_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<arrow>->)
      | (?P<ident>[a-z][a-zA-Z0-9_]*)
      | (?P<sym>[&+|()=;,])
      | (?P<neg>[~!])
    """,
    re.VERBOSE,
)
_REF_PLACEHOLDER_RE = re.compile(r"r([0-9]+)\Z")


def _reference_tokens(text):
    """(kind, text, pos) triples; kind is "arrow", "ident", "neg", one of
    "&+|()=;,", or "end"."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            kind = m.group() if m.lastgroup == "sym" else m.lastgroup
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _ReferenceParser:
    """Recursive descent, one method per grammar rule."""

    def __init__(self, text, mode):
        self.tokens = _reference_tokens(text)
        self.i = 0
        self.mode = mode
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.take()

    def formula(self):
        out = self.impl()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return out

    def nested(self, parse_inner, tok):
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_NESTING_DEPTH} levels", tok[2])
        out = parse_inner()
        self.depth -= 1
        return out

    def impl(self):
        parts = [self.idisj()]
        while self.peek()[0] == "arrow":
            self.take()
            parts.append(self.idisj())
        out = parts.pop()
        while parts:
            out = Impl(parts.pop(), out)
        return out

    def idisj(self):
        out = self.tensor()
        while self.peek()[0] == "|":
            self.take()
            out = IDisj(out, self.tensor())
        return out

    def tensor(self):
        out = self.conj()
        while self.peek()[0] == "+":
            self.take()
            out = Tensor(out, self.conj())
        return out

    def conj(self):
        out = self.unit()
        while self.peek()[0] == "&":
            self.take()
            out = And(out, self.unit())
        return out

    def unit(self):
        tok = self.peek()
        if tok[0] == "(":
            self.take()
            out = self.nested(self.impl, tok)
            self.expect(")")
            return out
        return self.atom()

    def atom(self):
        tok = self.take()
        kind, text, pos = tok
        if kind == "neg":
            if self.mode == "inql":
                return Impl(self.nested(self.unit, tok), Bottom())
            ident = self.peek()
            if ident[0] != "ident":
                raise ParseError("negation applies only to a variable", ident[2])
            return NegVar(self.variable(self.take()))
        if kind == "=":
            return self.dep()
        if kind == "ident":
            if text == "bot":
                return Bottom()
            if text == "top":
                return Top()
            m = _REF_PLACEHOLDER_RE.match(text)
            if m:
                index = int(m.group(1))
                if index == 0:
                    raise ParseError("placeholder indices start at r1", pos)
                return Placeholder(index)
            return PosVar(self.variable(tok))
        raise ParseError(f"expected an atom, found {text or 'end of input'!r}", pos)

    def variable(self, tok):
        if tok[1] in ("bot", "top") or _REF_PLACEHOLDER_RE.match(tok[1]):
            raise ParseError(f"reserved name {tok[1]!r} cannot be a variable", tok[2])
        return Variable(tok[1])

    def dep(self):
        self.expect("(")
        names = [self.variable(self.expect("ident"))]
        has_args = False
        while self.peek()[0] == ",":
            self.take()
            names.append(self.variable(self.expect("ident")))
        if self.peek()[0] == ";":
            self.take()
            has_args = True
            target = self.variable(self.expect("ident"))
        elif len(names) > 1:
            raise ParseError("expected ';' before the dependence target", self.peek()[2])
        else:
            target = names.pop()
        self.expect(")")
        return Dep(tuple(names) if has_args else (), target)


def reference_parse(text, mode="pt0"):
    """The text grammar of ``tsw.parsing`` by recursive descent, with the
    same results and the same ``ParseError`` messages and positions; the
    reference for ``parse``.  Recurses about six frames per nesting level."""
    if mode not in ("pt0", "inql"):
        raise ValueError(f"unknown parse mode {mode!r}")
    return _ReferenceParser(text, mode).formula()


def reference_synth_pd_minimized(K):
    """A greedy minimisation of ``synth_pd``'s conjunction of ``theta_star``
    over the nonempty teams outside the family ``K``, smallest teams first:
    drop each conjunct whose removal keeps the truth set ``K``, judged by the
    indicator engine.  The reference for ``synth_pd(K, minimize=True)``."""
    npat = 1 << len(K.vars)
    kept = [
        theta_star(Team(K.vars, mask))
        for mask in sorted(range(1, 1 << npat), key=lambda m: (m.bit_count(), m))
        if mask not in K.masks
    ]
    if not kept:
        return Top()
    target = sum(1 << m for m in K.masks)
    i = 0
    while i < len(kept) and len(kept) > 1:
        trial = kept[:i] + kept[i + 1 :]
        if _truth_indicator(reduce(And, trial), K.vars) == target:
            kept = trial
        else:
            i += 1
    return reduce(And, kept)


def downward_closed_family_masks(npat):
    """All nonempty downward-closed families over ``npat`` patterns.

    A family is returned as a frozenset of team masks.  Closure is
    checked against a precomputed table of required submasks.
    """
    teams = range(1 << npat)
    required = []
    for m in teams:
        r = 0
        for s in teams:
            if s & m == s:
                r |= 1 << s
        required.append(r)
    out = []
    for f in range(1, 1 << (1 << npat)):
        if all(required[m] & ~f == 0 for m in teams if f >> m & 1):
            out.append(frozenset(m for m in teams if f >> m & 1))
    return out


def context_texts_bruteforce(pool, max_size):
    """Distinct contexts over ``pool``, counted without the library's dedup.

    Builds every raw binary tree with connectives in {&, +}, then
    canonicalises commutative children by printed text (associativity is
    left alone, matching the library's convention) and collects the set
    of renderings.
    """
    from tsw.formulas import to_text

    by_size = {1: list(pool)}
    for size in range(3, max_size + 1, 2):
        trees = []
        for lsize in range(1, size - 1, 2):
            rsize = size - 1 - lsize
            for left in by_size[lsize]:
                for right in by_size[rsize]:
                    trees.append(And(left, right))
                    trees.append(Tensor(left, right))
        by_size[size] = trees

    def canon(phi):
        if isinstance(phi, (And, Tensor)):
            a = canon(phi.left)
            b = canon(phi.right)
            if to_text(a) > to_text(b):
                a, b = b, a
            return type(phi)(a, b)
        return phi

    texts = set()
    for size, trees in by_size.items():
        for tree in trees:
            texts.add(to_text(canon(tree)))
    return texts


_OPS = {
    Fragment.PT0: (And, Tensor, IDisj, Impl),
    Fragment.PD: (And, Tensor),
    Fragment.INQL: (And, IDisj, Impl),
}


def atom_pool(variables, fragment=Fragment.PT0):
    atoms = [Bottom(), Top()]
    atoms.extend(PosVar(v) for v in variables)
    if fragment is not Fragment.INQL:
        atoms.extend(NegVar(v) for v in variables)
        for target in variables:
            others = [v for v in variables if v != target]
            for r in range(len(others) + 1):
                for combo in itertools.combinations(others, r):
                    atoms.append(Dep(combo, target))
    return atoms


def st_formula(variables, fragment=Fragment.PT0, max_leaves=6):
    """Hypothesis strategy for formulas over the given variables."""
    base = st.sampled_from(atom_pool(variables, fragment))
    ops = st.sampled_from(_OPS[fragment])

    def extend(children):
        return st.builds(lambda op, a, b: op(a, b), ops, children, children)

    return st.recursive(base, extend, max_leaves=max_leaves)


def st_team(varset):
    npat = 1 << len(varset)
    return st.integers(0, (1 << npat) - 1).map(lambda m: Team(varset, m))


PQ = VarSet.of("p", "q")
P = VarSet.of("p")
PQR = VarSet.of("p", "q", "r")
NO_VARS = VarSet(())


def pvar(name):
    return PosVar(Variable(name))
