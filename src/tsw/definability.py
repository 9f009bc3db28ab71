"""Uniform-definability analysis for PD contexts.

A PD context is a formula over ``&`` and ``+`` whose leaves may include
placeholders ``r1, r2, ...``; instantiating the placeholders uniformly
asks whether one fixed context can simulate a connective on every
argument vector.  The machinery here decides that question negatively
for inquisitive disjunction and implication: every PD context is refuted
by a small battery of instance vectors, and the battery's completeness
rests on the structural analysis implemented alongside it (consistency,
normalization, monotonicity, and truth functions over syntax trees).

A truth function assigns a team to every node of a context's syntax
tree so that each node's team satisfies its instantiated label, ``&``
nodes share their team with both children, and ``+`` nodes are the union
of theirs.  Satisfaction of the whole instance is equivalent to the
existence of such an assignment rooted at the given team, which is what
lets global facts about a context be read off its leaves.  Truth
functions and their verification are bit tests on the alternatives of
every node (``semantics.node_alternatives``), and every ``+`` split is
``semantics.largest_split``.  A truth function found here keeps one team
mask per node; its ``assignment`` builds each ``Team`` when read.

A connective is the PT0 context it abbreviates (``ConnectiveSpec.context``:
``r1 | r2``, ``r1 -> r2``, or ``bot`` for ``contra``).  Both sides of a
battery comparison are down-sets of teams, fixed by their alternatives on
the full team (``semantics.alternatives``).  Each placeholder reads as its
instance's alternatives there, known without walking the instance: the
empty team for ``bot``, the full team for ``top``, and for θ* the full
team less one member of its team each (``theta_star_alternatives``).  So
refutation decides as ``semantics.entails`` does, and a counterexample
is the first team, in ``enumerate_teams`` order, in exactly one of the two
down-sets.  Consistency needs no alternatives: it is decided on
singletons, by one bitmask pass over valuation patterns.

The bounded search and the closure check never build the contexts they
count.  On the battery, a context's verdict depends only on its
signature: the variables it uses and, per battery vector, the
alternatives of the instance on the full team, a down-set's maximal
members (``semantics.alternatives``).  ``&`` takes the maximal pairwise
intersections of its sides' alternatives and ``+`` the maximal pairwise
unions (``semantics.join``; Yang & Väänänen,
*Propositional logics of dependence*, APAL 2016; Ciardelli & Roelofsen,
*Inquisitive logic*, JPL 2011), so ``search_contexts`` counts contexts
per size and signature, and ``closure_check`` finds the signatures
reachable at any size as a fixpoint.  The smallest context of each
signature is refuted on its own as a check.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from functools import lru_cache, reduce
from operator import or_
from typing import Callable, Optional, Sequence

from .errors import CapExceededError, InternalInvariantError, ValidationError
from .expressiveness import theta_star, theta_star_alternatives
from .formulas import (
    And,
    Bottom,
    Dep,
    Formula,
    Fragment,
    Impl,
    IDisj,
    NegVar,
    Placeholder,
    PosVar,
    SyntaxTree,
    Tensor,
    Top,
    Variable,
    fold,
    fragment_check,
    is_atom,
    max_placeholder,
    substitute,
    syntax_tree,
    to_text,
    variables,
)
from .semantics import (
    _node_alternatives,
    alternatives,
    alternatives_within,
    entails,
    evaluate,
    join,
    largest_split,
    node_alternatives,
    var_set,
)
from .teams import Team, VarSet, _var_ones, check_team_cap, full_team, maximal_masks, team_masks


# --- Connectives ----------------------------------------------------------


@dataclass(frozen=True)
class ConnectiveSpec:
    """An m-ary team connective, given by the PT0 context it abbreviates:
    applied to an instance vector, it is that context with ``r<i>`` read as
    the i-th instance."""

    name: str
    arity: int
    context: Formula

    def evaluate(self, instances: Sequence[Formula], team: Team) -> bool:
        """Whether ``team`` satisfies the connective applied to ``instances``."""
        return evaluate(substitute(self.context, instances), team)


IDISJ_SPEC = ConnectiveSpec("or", 2, IDisj(Placeholder(1), Placeholder(2)))
IMPL_SPEC = ConnectiveSpec("imp", 2, Impl(Placeholder(1), Placeholder(2)))


def contra(arity: int = 2) -> ConnectiveSpec:
    """The contradictory connective: false on every nonempty team."""
    if arity < 1:
        raise ValidationError("contra needs arity at least 1")
    return ConnectiveSpec("contra", arity, Bottom())


def builtin_connective(name: str, arity: int = 2) -> ConnectiveSpec:
    if name == "or":
        spec = IDISJ_SPEC
    elif name == "imp":
        spec = IMPL_SPEC
    elif name == "contra":
        return contra(arity)
    else:
        raise ValidationError(f"unknown connective {name!r} (built-ins: or, imp, contra)")
    if arity != spec.arity:
        raise ValidationError(f"{name!r} is binary")
    return spec


# --- Context basics -------------------------------------------------------


def _require_pd(phi: Formula) -> None:
    if not fragment_check(phi, Fragment.PD):
        raise ValidationError("not a PD context: only '&', '+' and atoms are allowed")


def _singletons(phi: Formula) -> Callable[[Formula], int]:
    """Per atom of the PD formula ``phi``, the bitmask of the valuations v
    over its variables whose singleton {v} satisfies its all-``top`` instance."""
    _require_pd(phi)
    vars = var_set(phi)
    full = full_team(vars).mask  # raises past MAX_TEAM_VARS, before any mask
    ones = {v: _var_ones(len(vars), i) for i, v in enumerate(vars)}

    def leaf(f: Formula) -> int:
        t = type(f)
        if t is PosVar:
            return ones[f.var]
        if t is NegVar:
            return full ^ ones[f.var]
        return 0 if t is Bottom else full

    return leaf


def _meet(f: Formula, left: int, right: int) -> int:
    """The singletons satisfying ``a & b`` satisfy both sides, ``a + b`` one."""
    return left & right if type(f) is And else left | right


def is_consistent(phi: Formula) -> bool:
    """Whether some nonempty team satisfies the all-``top`` instance; by
    downward closure, whether some singleton does.  One pass finds, per
    node, the valuations whose singletons do, as a bitmask."""
    return fold(phi, _singletons(phi), _meet) != 0


# Instance pool for spot-checking that a rewritten context behaves like the
# original.  Full context equivalence quantifies over ALL substituents; the
# pool check is the documented approximation ("pool-equivalence") and a
# failure here means a rewrite bug, not a borderline input.
_P = Variable("p")
VALIDATION_POOL: tuple[Formula, ...] = (
    Bottom(),
    Top(),
    PosVar(_P),
    NegVar(_P),
    Dep((), _P),
    Tensor(PosVar(_P), NegVar(_P)),
)


def _pool_equivalent(a: Formula, b: Formula) -> bool:
    """Whether ``a`` and ``b`` have the same alternatives on every vector of
    pool instances, over their variables and ``p``, each placeholder read as
    its instance's alternatives, taken once per call."""
    vars = var_set(a).union(var_set(b)).union(VarSet((_P,)))
    try:
        check_team_cap(len(vars))
    except CapExceededError:
        return True  # beyond the hard cap no vector is verifiable
    pool = [alternatives(f, vars) for f in VALIDATION_POOL]
    m = max(max_placeholder(a), max_placeholder(b))
    return all(
        set(alternatives(a, vars, vector)) == set(alternatives(b, vars, vector))
        for vector in itertools.product(pool, repeat=m)
    )


def normalize(phi: Formula) -> Formula:
    """An equivalent PD context with no inconsistent subformula.

    One pass rebuilds every node beside the singletons satisfying it (as
    ``is_consistent`` finds them): a tensor with exactly one inconsistent
    side collapses to the other side, and every other node is rebuilt.
    Every rewrite preserves satisfaction on every team for every
    instantiation, because an inconsistent side of a tensor only ever
    contributes the empty team to a split.  The output is double-checked:
    every subformula must be consistent, and an output other than the input
    must agree with it on a fixed pool of substituents.
    """
    singletons = _singletons(phi)

    def rebuild(f: Formula, left: tuple, right: tuple) -> tuple[Formula, int]:
        (a, a_ones), (b, b_ones) = left, right
        if type(f) is And:
            ones = a_ones & b_ones
        elif a_ones and b_ones:
            ones = a_ones | b_ones
        else:
            return left if a_ones else right
        # a node whose sides come back unchanged is kept, so an unchanged
        # context comes back as the very same object
        return (f if a is f.left and b is f.right else type(f)(a, b)), ones

    result, ones = fold(phi, lambda f: (f, singletons(f)), rebuild)
    if not ones:
        raise ValidationError("cannot normalize an inconsistent context")
    # an inconsistent subformula makes every node above it read 0
    if not fold(result, singletons, lambda f, a, b: a and b and _meet(f, a, b)):
        raise InternalInvariantError("normalization left an inconsistent subformula")
    if result is not phi and not _pool_equivalent(phi, result):
        raise InternalInvariantError("normalization changed the context on the instance pool")
    return result


def check_monotone(
    phi: Formula,
    theta: Sequence[Formula],
    theta_prime: Sequence[Formula],
) -> bool:
    """Instantiation monotonicity: with every substituent strengthened
    componentwise (``theta[i]`` entails ``theta_prime[i]``), the first
    instance entails the second.  True for every PD context; a false
    return means an evaluator bug."""
    _require_pd(phi)
    if len(theta) != len(theta_prime):
        raise ValidationError("substituent vectors differ in length")
    for a, b in zip(theta, theta_prime):
        if not entails(a, b):
            raise ValidationError(
                f"precondition failure: {to_text(a)} does not entail {to_text(b)}"
            )
    return entails(substitute(phi, theta), substitute(phi, theta_prime))


# --- Truth functions ------------------------------------------------------


class _Teams(Mapping):
    """Node id -> team, each ``Team`` built on read from the masks kept by
    node id, all over ``vars``."""

    __slots__ = ("vars", "masks")

    def __init__(self, vars: VarSet, masks: list[int]):
        self.vars = vars
        self.masks = masks

    def __getitem__(self, node_id: int) -> Team:
        if node_id not in self:
            raise KeyError(node_id)
        return Team(self.vars, self.masks[node_id])

    def __contains__(self, node_id) -> bool:
        return isinstance(node_id, int) and 0 <= node_id < len(self.masks)

    def __iter__(self):
        return iter(range(len(self.masks)))

    def __len__(self) -> int:
        return len(self.masks)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass
class TruthFunction:
    """A team per node of a context's syntax tree: ``assignment`` maps each
    node id to its ``Team``."""

    tree: SyntaxTree
    assignment: Mapping[int, Team]

    def team(self, node_id: int) -> Team:
        return self.assignment[node_id]

    @property
    def root_team(self) -> Team:
        return self.assignment[self.tree.root]

    def to_json(self) -> dict:
        vars = self.root_team.vars
        texts = self.tree.texts()
        return {
            "vars": vars.names(),
            "nodes": [
                {
                    "id": n.id,
                    "formula": texts[n.id],
                    "team": self.assignment[n.id].rows(),
                }
                for n in self.tree.nodes
            ],
        }


def verify_truth_function(
    tau: TruthFunction,
    phi: Formula,
    theta: Sequence[Formula],
) -> bool:
    """Check the three defining conditions, plus the derived fact that
    teams shrink along every tree edge."""
    tree = syntax_tree(phi)
    if tau.tree is not tree and tuple(n.formula for n in tau.tree.nodes) != tuple(
        n.formula for n in tree.nodes
    ):
        raise ValidationError("the truth function's tree does not match the context")
    vars, masks = _masks(tau.assignment, tree)
    # Alternatives within the root team, recomputed here; every team that
    # lies inside one of its node's alternatives lies inside the root's.
    alts = _node_alternatives(tree, theta, vars, masks[tree.root])
    for node in tree.nodes:
        i = node.id
        T = masks[i]
        for a in alts[i]:
            if T & ~a == 0:
                break
        else:
            return False
        t = type(node.formula)
        if t is And:
            y, z = node.children
            if masks[y] != T or masks[z] != T:
                return False
        elif t is Tensor:
            y, z = node.children
            if masks[y] | masks[z] != T:
                return False
        else:  # under "&" and "+" the checks above keep children inside
            for child in node.children:
                if masks[child] & ~T:
                    return False
    return True


def _masks(assignment: Mapping[int, Team], tree: SyntaxTree) -> tuple[VarSet, list[int]]:
    """The variable set of an assignment and the mask of each node of
    ``tree`` by id: read off a ``_Teams`` as found, and checked for missing
    nodes and mixed variable sets in any other mapping."""
    if type(assignment) is _Teams and len(assignment) >= len(tree.nodes):
        return assignment.vars, assignment.masks
    missing = [n.id for n in tree.nodes if n.id not in assignment]
    if missing:
        raise ValidationError(f"assignment missing nodes {missing}")
    vars = assignment[tree.root].vars
    for node_id, team in assignment.items():
        if team.vars != vars:
            raise ValidationError(f"node {node_id} team is over a different variable set")
    return vars, [assignment[n.id].mask for n in tree.nodes]


def find_truth_function(
    phi: Formula,
    theta: Sequence[Formula],
    X: Team,
) -> Optional[TruthFunction]:
    """A truth function rooted at ``X``, or None exactly when ``X`` does
    not satisfy the instantiated context.  The descent copies teams
    through ``&`` nodes and splits them at ``+`` nodes by
    ``semantics.largest_split``."""
    _require_pd(phi)
    tree = syntax_tree(phi)
    alts = node_alternatives(tree, theta, X)
    if X.mask not in alts[tree.root]:
        return None
    return TruthFunction(tree, _Teams(X.vars, _descend(tree, alts, X)))


def _descend(
    tree: SyntaxTree, alts: list[list[int]], X: Team, special: frozenset[int] = frozenset()
) -> list[int]:
    """The team mask of every node by id, from ``X`` at the root down, given
    the node alternatives within ``X``: ``&`` nodes hand their team to both
    children, ``+`` nodes split it by ``largest_split``.  At the
    ``special`` nodes, which must receive ``X``, an empty right side is
    replaced by the first singleton satisfying its child and the split is
    made proper.  The left side is never empty there: the left child is
    consistent, so a singleton satisfies it, and the split keeps the
    largest left side."""
    masks = [0] * len(tree.nodes)
    masks[tree.root] = X.mask
    for node in tree.nodes:  # pre-order: each parent before its children
        if not node.children:
            continue
        node_id = node.id
        T = masks[node_id]
        y, z = node.children
        if type(node.formula) is And:
            masks[y] = masks[z] = T
            continue
        left = largest_split(T, alts[y], alts[z])
        if left is None:
            raise InternalInvariantError("no satisfying split under a satisfied tensor")
        right = T & ~left
        if node_id in special:
            if T != X.mask:
                raise InternalInvariantError("a topmost tensor did not receive the full team")
            if not right:  # the lowest singleton the child's alternatives cover
                right = reduce(or_, alts[z], 0)
                right &= -right
                if not right:
                    raise InternalInvariantError("no singleton satisfier for a consistent formula")
            sides = proper_split(X, Team(X.vars, left), Team(X.vars, right))
            left, right = sides[0].mask, sides[1].mask
        masks[y], masks[z] = left, right
    return masks


def complete_from_leaves(
    phi: Formula,
    theta: Sequence[Formula],
    leaf_assignment: dict[int, Team],
) -> Optional[TruthFunction]:
    """Extend a leaves-only assignment upward, or None when an ``&`` node
    receives unequal children (the one way propagation can fail).  Leaf
    teams must already satisfy their instantiated labels."""
    _require_pd(phi)
    tree = syntax_tree(phi)
    leaves = tree.leaves()
    missing = [n.id for n in leaves if n.id not in leaf_assignment]
    if missing:
        raise ValidationError(f"leaf assignment missing leaves {missing}")
    if len({leaf_assignment[n.id].vars for n in leaves}) > 1:
        raise ValidationError("leaf teams are over different variable sets")
    for n in leaves:
        if not evaluate(substitute(n.formula, theta), leaf_assignment[n.id]):
            raise ValidationError(
                f"leaf {n.id} ({to_text(n.formula)}) does not satisfy its label"
            )

    # Node ids are in pre-order, so children come after their parent.
    assignment: dict[int, Team] = {}
    for node in reversed(tree.nodes):
        if not node.children:
            assignment[node.id] = leaf_assignment[node.id]
            continue
        y, z = (assignment[child] for child in node.children)
        if isinstance(node.formula, And) and y != z:
            return None
        assignment[node.id] = y.union(z)  # y == z under "&"
    tau = TruthFunction(tree, assignment)
    if not verify_truth_function(tau, phi, theta):
        raise InternalInvariantError(
            "leaf propagation produced an assignment violating the node conditions"
        )
    return tau


def proper_split(X: Team, Y: Team, Z: Team) -> tuple[Team, Team]:
    """Shrink a covering pair into a proper one: subteams of ``Y`` and
    ``Z``, still covering ``X``, with both strictly inside ``X``.  Needs
    ``|X| > 1`` and both sides nonempty."""
    X._same_vars(Y)
    X._same_vars(Z)
    if X.size <= 1:
        raise ValidationError("the covered team must have at least two members")
    if Y.is_empty or Z.is_empty:
        raise ValidationError("both covering sides must be nonempty")
    if Y.union(Z) != X:
        raise ValidationError("the two sides do not cover the team")
    y_full = Y == X
    z_full = Z == X
    if not y_full and not z_full:
        return (Y, Z)
    if y_full and z_full:
        a = X.mask & -X.mask
        return (Team(X.vars, X.mask ^ a), Team(X.vars, a))
    if y_full:
        return (Team(X.vars, X.mask & ~Z.mask), Z)
    return (Y, Team(X.vars, X.mask & ~Y.mask))


def leaf_tensor_ancestor_check(phi: Formula) -> dict[int, bool]:
    """For each placeholder leaf of the syntax tree: does some strict
    ancestor carry a ``+``?  Leaves failing this are pinned to the full
    team by every truth function, which blocks the reduced construction."""
    tree = syntax_tree(phi)
    return {
        leaf.id: any(isinstance(a.formula, Tensor) for a in tree.ancestors(leaf.id))
        for leaf in tree.placeholder_leaves()
    }


def build_reduced_truth_function(phi: Formula, N: VarSet) -> TruthFunction:
    """A truth function for the all-``top`` instance over the full team on
    ``N`` that keeps every placeholder leaf's team a proper subteam.

    The context is normalized first, and the returned truth function lives
    on the NORMALIZED context's tree (read it back from ``result.tree``).
    At the topmost ``+`` ancestor of each placeholder leaf the split is
    repaired to be nonempty on both sides and then properly shrunk; below,
    the ordinary descent takes over, and team shrinkage along edges keeps
    every placeholder leaf strictly small.
    """
    _require_pd(phi)
    if not is_consistent(phi):
        raise ValidationError("the context is inconsistent")
    if not all(leaf_tensor_ancestor_check(phi).values()):
        raise ValidationError("a placeholder leaf has no tensor ancestor")
    if len(N) < 1:
        raise ValidationError("need at least one variable for a proper split")
    phi = normalize(phi)
    if not all(leaf_tensor_ancestor_check(phi).values()):
        raise ValidationError(
            "a placeholder leaf has no tensor ancestor after "
            "inconsistent-subformula elimination"
        )
    for v in variables(phi):
        if v not in N:
            raise ValidationError(f"context variable {v.name!r} outside the given set")
    X = full_team(N)
    tree = syntax_tree(phi)
    theta = [Top()] * max_placeholder(phi)
    alts = node_alternatives(tree, theta, X)
    if X.mask not in alts[tree.root]:
        raise ValidationError("the full team does not satisfy the all-top instance")

    # The topmost tensor ancestor of each placeholder leaf.  Only "&"
    # nodes sit above these, so the descent hands them the full team.
    special = frozenset(
        next(a.id for a in reversed(tree.ancestors(leaf.id)) if isinstance(a.formula, Tensor))
        for leaf in tree.placeholder_leaves()
    )
    masks = _descend(tree, alts, X, special)
    tau = TruthFunction(tree, _Teams(X.vars, masks))
    if not verify_truth_function(tau, phi, theta):
        raise InternalInvariantError("reduced construction failed verification")
    for leaf in tree.placeholder_leaves():
        if masks[leaf.id] == X.mask:
            raise InternalInvariantError("a placeholder leaf kept the full team")
    return tau


# --- Refutation -----------------------------------------------------------


@dataclass
class Counterexample:
    """One instance vector and one team telling a context apart from the
    connective it was supposed to define."""

    context: Formula
    connective: ConnectiveSpec
    instances: tuple[Formula, ...]
    vars: VarSet
    team: Team
    lhs: bool
    rhs: bool

    def to_json(self) -> dict:
        return {
            "context": to_text(self.context),
            "connective": self.connective.name,
            "instances": [to_text(t) for t in self.instances],
            "vars": self.vars.names(),
            "team": self.team.rows(),
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


_P1_VARS = VarSet((Variable("p1"),))


def _battery_names(c: ConnectiveSpec) -> list[tuple[str, ...]]:
    """Each battery vector by its instances' names: ``bot``, ``top``, or
    ``theta`` for θ* of the full team over the context's variables."""
    if c.name == "or":
        return [("bot", "top"), ("top", "bot"), ("top", "top"), ("theta", "theta")]
    if c.name == "imp":
        return [("bot", "bot"), ("top", "bot"), ("top", "top"), ("top", "theta")]
    if c.name == "contra":
        # Instantiation monotonicity makes the all-top vector decisive: a
        # context is contradictory on every vector iff it is on this one.
        return [("top",) * c.arity]
    raise ValidationError(f"no instance battery for connective {c.name!r}")


@lru_cache(maxsize=64)
def _full_theta(vars: VarSet) -> Formula:
    """θ* of the full team over ``vars``: the battery's θ instance."""
    return theta_star(full_team(vars))


def _battery(c: ConnectiveSpec, nprime: VarSet) -> list[tuple[Formula, ...]]:
    formula = {"bot": Bottom(), "top": Top(), "theta": _full_theta(nprime)}
    return [tuple(formula[n] for n in names) for names in _battery_names(c)]


def _instance_name(f: Formula) -> str:
    return "bot" if isinstance(f, Bottom) else "top" if isinstance(f, Top) else "theta"


def instance_label(instances: Sequence[Formula]) -> str:
    return ",".join(map(_instance_name, instances))


@lru_cache(maxsize=64)
def _cached_battery(c: ConnectiveSpec, own: VarSet) -> tuple[tuple, ...]:
    """The battery of a context over ``own`` (over ``p1`` when it is empty),
    each vector with the variables of its teams; per instance, its
    alternatives on the full team over them: the empty team for ``bot``, the
    full team for ``top``, and its lemma's for θ*, so no instance is walked;
    and the connective's alternatives on the vector, once per battery."""
    nprime = own or _P1_VARS
    theta = tuple(theta_star_alternatives(full_team(nprime)))
    vectors = []
    for names, instances in zip(_battery_names(c), _battery(c, nprime)):
        vars = reduce(VarSet.union, map(var_set, instances), own)
        alts = {"bot": (0,), "top": (full_team(vars).mask,), "theta": theta}
        bound = tuple(alts[n] for n in names)
        vectors.append((instances, vars, bound, alternatives(c.context, vars, bound)))
    return tuple(vectors)


def _refute_or_none(phi: Formula, c: ConnectiveSpec) -> Optional[Counterexample]:
    """The first battery vector, and the first team in ``enumerate_teams``
    order, on which the instance and the connective disagree.  The battery
    is over the context's variables, or ``p1`` when it has none."""
    _require_pd(phi)
    if max_placeholder(phi) > c.arity:
        raise ValidationError(
            f"the context uses more placeholders than the connective's arity ({c.arity})"
        )
    own = var_set(phi)
    check_team_cap(len(own))  # before any alternatives are built
    for instances, vars, bound, rhs in _cached_battery(c, own):
        found = _first_difference(vars, alternatives(phi, vars, bound), rhs)
        if found is not None:
            return Counterexample(phi, c, instances, vars, *found)
    return None


def _first_difference(
    vars: VarSet, lhs: Sequence[int], rhs: Sequence[int]
) -> Optional[tuple[Team, bool, bool]]:
    """The first team over ``vars``, in ``enumerate_teams`` order, that lies
    in exactly one of the down-sets with the alternatives ``lhs`` and
    ``rhs``, with whether it lies in each; None when there is none."""
    if set(lhs) == set(rhs):
        return None
    for mask in team_masks(vars):
        left = any(mask & ~a == 0 for a in lhs)
        if left != any(mask & ~a == 0 for a in rhs):
            return Team(vars, mask), left, not left
    return None


# The connectives whose batteries carry a completeness argument: they refute
# every context.
_REFUTED_BY_BATTERY = ("or", "imp")


def refute_uniform_definition(phi: Formula, c: ConnectiveSpec) -> Counterexample:
    """The first battery instance on which the context fails to match the
    connective, with the first differing team as witness.

    Only ``or`` and ``imp`` carry a completeness argument for their
    batteries, so only they are accepted here; for them every context
    must fall to some battery instance, and an exhausted battery means
    an evaluator bug, so it raises rather than returning None.
    """
    if c.name not in _REFUTED_BY_BATTERY:
        raise ValidationError("refutation batteries exist for 'or' and 'imp' only")
    ce = _refute_or_none(phi, c)
    if ce is None:
        raise InternalInvariantError(
            f"battery exhausted without a counterexample for {to_text(phi)}; "
            "no context can define this connective, so the evaluator is wrong"
        )
    return ce


def verify_counterexample(ce: Counterexample) -> bool:
    """Recompute both sides by one walk each within the recorded team, each
    instance (``bot``, ``top`` or θ* of the full team) read as its
    alternatives there, θ*'s restricted from its lemma's; the record must
    reproduce exactly and actually disagree."""
    X = ce.team.mask
    within = {"bot": [0], "top": [X]}
    names = [_instance_name(f) for f in ce.instances]
    if "theta" in names:
        theta = _full_theta(ce.team.vars)
        if any(n == "theta" and f != theta for n, f in zip(names, ce.instances)):
            raise ValidationError("each instance must be bot, top or θ* of the full team")
        full = full_team(ce.team.vars)
        within["theta"] = maximal_masks([a & X for a in theta_star_alternatives(full)])
    bound = [within[n] for n in names]
    lhs = X in alternatives_within(ce.context, ce.team, bound)
    rhs = X in alternatives_within(ce.connective.context, ce.team, bound)
    return lhs == ce.lhs and rhs == ce.rhs and lhs != rhs


# --- Bounded exhaustive search --------------------------------------------


def _checked_pool(atom_pool: Sequence[Formula]) -> tuple[list[Formula], list[str]]:
    """The pool's atoms and their texts; every entry must be an atom, and
    no text may repeat."""
    pool = list(atom_pool)
    for a in pool:
        if not is_atom(a):
            raise ValidationError(f"atom pool entry {to_text(a)} is not an atom")
    texts = [to_text(a) for a in pool]
    if len(set(texts)) != len(texts):
        raise ValidationError("atom pool contains duplicates")
    return pool, texts


def enumerate_contexts(atom_pool: Sequence[Formula], max_size: int) -> list[Formula]:
    """All PD formulas with at most ``max_size`` syntax-tree nodes whose
    leaves come from ``atom_pool``, one representative per commutation
    class of ``&`` and ``+`` (the printed left side never exceeds the
    right).  The sides of each binary context are contexts listed before
    it, the very same objects, and the leaves are the pool's own."""
    pool, _ = _checked_pool(atom_pool)
    by_size: dict[int, list[Formula]] = {1: pool}
    printed: dict[int, list[tuple[Formula, str]]] = {}
    for size in range(3, max_size + 1, 2):
        # the parts are the smaller sizes, each printed once
        printed[size - 2] = [(f, to_text(f)) for f in by_size[size - 2]]
        out = by_size[size] = []
        for left_size in range(1, size - 1, 2):
            right_size = size - 1 - left_size
            for op in (And, Tensor):
                for lhs, lhs_text in printed[left_size]:
                    for rhs, rhs_text in printed[right_size]:
                        if lhs_text <= rhs_text:
                            out.append(op(lhs, rhs))
    return [f for size in range(1, max_size + 1, 2) for f in by_size[size]]


# A search that must list the contexts it leaves unrefuted enumerates them,
# which this size bounds.
LISTING_MAX_SIZE = 9
# Searches for connectives whose batteries refute every context list none,
# and are counted by signature alone, up to this size.
SEARCH_MAX_SIZE = 31
# Joining signatures costs time quadratic in their number, which grows fast
# with the pool's variables (three variables pass this many by size 11).
# Past this many, the closure and searches past LISTING_MAX_SIZE stop; up to
# that size, a search does no more joins than enumeration would.
MAX_SIGNATURES = 1_000


class _Signatures:
    """The contexts over one atom pool, up to their verdicts on the battery
    of one connective.

    A context's *signature* is the set ``U`` of pool variables it uses and,
    for every *frame* ``S``, per vector of the battery over ``S``, the
    alternatives of the instance on the full team over ``S`` and the
    vector's variables.  The frames are the variable sets containing ``U``
    that contexts of at most ``max_leaves`` leaves use (any number when
    None); past ``TEAM_ENUM_CAP`` variables, construction fails.  The
    battery over ``U``, or over ``p1`` when ``U`` is empty, is the one
    ``_refute_or_none`` runs, so the signature fixes the verdict.  On a
    common team, ``&`` takes the maximal pairwise intersections of its
    sides' alternatives and ``+`` their maximal pairwise unions, so the
    signatures of two sides fix the signature of their join.  Signatures
    are numbered in the order they are met, each with its verdict and the
    first context met that has it."""

    def __init__(
        self,
        c: ConnectiveSpec,
        pool: Sequence[Formula],
        max_leaves: Optional[int] = None,
        max_signatures: Optional[int] = None,
    ):
        self.c = c
        self._max_signatures = max_signatures
        atoms = {var_set(a) for a in pool}
        self._reach = set(atoms)
        grown, leaves = atoms, 1
        while True:
            check_team_cap(max(map(len, self._reach)))
            if not grown or leaves == max_leaves:
                break
            grown = {u.union(a) for u in grown for a in atoms} - self._reach
            self._reach |= grown
            leaves += 1
        self.signatures: list[tuple[VarSet, dict[VarSet, tuple]]] = []
        self.labels: list[Optional[str]] = []
        self.witnesses: list[Formula] = []
        self._ids: dict[tuple, int] = {}
        self._joins: dict[tuple, int] = {}
        self._frames: dict[VarSet, list[VarSet]] = {}
        self.leaves = [self._leaf(atom) for atom in pool]

    def frames(self, used: VarSet) -> list[VarSet]:
        """The frames of a context over ``used``, ``used`` first."""
        if used not in self._frames:
            self._frames[used] = sorted(
                (s for s in self._reach if used.is_subset(s)),
                key=lambda s: (s != used, len(s), s.names()),
            )
        return self._frames[used]

    def _intern(self, used: VarSet, alts: dict[VarSet, tuple], witness: Callable) -> int:
        key = (used, tuple(alts.values()))
        sid = self._ids.get(key)
        if sid is None:
            if len(self.signatures) == self._max_signatures:
                raise CapExceededError(
                    f"the contexts have more than {self._max_signatures} signatures"
                )
            sid = self._ids[key] = len(self.signatures)
            self.signatures.append((used, alts))
            self.witnesses.append(witness())
            label = None
            for (instances, vars, _, rhs), own in zip(_cached_battery(self.c, used), alts[used]):
                if _first_difference(vars, own, rhs):
                    label = instance_label(instances)
                    break
            self.labels.append(label)
        return sid

    def _leaf(self, atom: Formula) -> int:
        alts = {
            frame: tuple(
                tuple(sorted(alternatives(atom, vars, bound)))
                for _, vars, bound, _ in _cached_battery(self.c, frame)
            )
            for frame in self.frames(var_set(atom))
        }
        return self._intern(var_set(atom), alts, lambda: atom)

    def join(self, op: type, a: int, b: int) -> int:
        """The signature of ``op`` (``And`` or ``Tensor``) over contexts
        with the signatures ``a`` and ``b``."""
        key = (op, a, b) if a <= b else (op, b, a)
        sid = self._joins.get(key)
        if sid is None:
            (used_a, alts_a), (used_b, alts_b) = self.signatures[a], self.signatures[b]
            used = used_a.union(used_b)
            alts = {
                frame: tuple(
                    tuple(sorted(join(op, left, right)))
                    for left, right in zip(alts_a[frame], alts_b[frame])
                )
                for frame in self.frames(used)
            }

            def witness() -> Formula:
                left, right = self.witnesses[a], self.witnesses[b]
                if to_text(left) > to_text(right):
                    left, right = right, left
                return op(left, right)

            sid = self._joins[key] = self._intern(used, alts, witness)
        return sid

    def check(self) -> None:
        """Refute the witness of every signature met on its own, and
        require the signature's verdict."""
        for sid, phi in enumerate(self.witnesses):
            ce = _refute_or_none(phi, self.c)
            label = None if ce is None else instance_label(ce.instances)
            if label != self.labels[sid]:
                raise InternalInvariantError(
                    f"{to_text(phi)}: the battery gives {label!r}, its signature "
                    f"{self.labels[sid]!r}"
                )
            if ce is not None and not verify_counterexample(ce):
                raise InternalInvariantError(
                    f"counterexample for {to_text(phi)} failed re-verification"
                )


def _search_pool(
    c: ConnectiveSpec, atom_pool: Sequence[Formula]
) -> tuple[list[Formula], list[str]]:
    """The pool's atoms and texts, checked for a search for ``c``."""
    pool = list(atom_pool)
    for needed in (Placeholder(1), Placeholder(2)):
        if needed not in pool:
            raise ValidationError("the atom pool must include r1 and r2")
    pool, texts = _checked_pool(pool)
    if any(isinstance(a, Placeholder) and a.index > c.arity for a in pool):
        raise ValidationError(
            f"the context uses more placeholders than the connective's arity ({c.arity})"
        )
    return pool, texts


def _pairs(by_size: dict[int, dict[int, int]], size: int):
    """The pairs of signatures whose joins make the contexts of ``size``,
    each with the number of pairs of sides it stands for, from ``by_size``:
    per size, the number of contexts of each signature.  Sides pair once
    per unordered pair, as ``enumerate_contexts`` keeps them."""
    for left_size in range(1, size // 2 + 1, 2):
        right_size = size - 1 - left_size
        left, right = by_size.get(left_size, {}), by_size.get(right_size, {})
        if left_size != right_size:
            for a, n in left.items():
                for b, m in right.items():
                    yield a, b, n * m
            continue
        items = list(left.items())
        for i, (a, n) in enumerate(items):
            yield a, a, n * (n + 1) // 2
            for b, m in items[i + 1 :]:
                yield a, b, n * m


@dataclass
class SearchReport:
    connective: str
    pool: list[str]
    max_size: int
    total: int = 0
    refuted: int = 0
    by_instance: dict[str, int] = field(default_factory=dict)
    unrefuted: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)


def search_contexts(c: ConnectiveSpec, atom_pool: Sequence[Formula], max_size: int) -> SearchReport:
    """Tally which battery instance refutes each context up to ``max_size``
    that ``enumerate_contexts`` gives, the instances in the order they first
    refute one.  Contexts are counted per size and signature, not built;
    the smallest context of each signature met is refuted on its own as a
    check.  Contexts the battery cannot tell apart from the connective land
    in ``unrefuted`` (expected only for connectives a context CAN define,
    like ``contra``); listing them takes enumerating them, so only ``or``
    and ``imp``, whose batteries refute every context, search past
    ``LISTING_MAX_SIZE``."""
    cap = SEARCH_MAX_SIZE if c.name in _REFUTED_BY_BATTERY else LISTING_MAX_SIZE
    if max_size > cap:
        raise CapExceededError(f"search for {c.name!r} is capped at size {cap}")
    start = time.perf_counter()
    pool, texts = _search_pool(c, atom_pool)
    if max_size < 1:
        return SearchReport(connective=c.name, pool=texts, max_size=max_size)
    sigs = _Signatures(
        c, pool, (max_size + 1) // 2, None if max_size <= LISTING_MAX_SIZE else MAX_SIGNATURES
    )
    by_size: dict[int, dict[int, int]] = {1: {}}
    for sid in sigs.leaves:
        by_size[1][sid] = by_size[1].get(sid, 0) + 1
    for size in range(3, max_size + 1, 2):
        counts = by_size[size] = {}
        for a, b, n in _pairs(by_size, size):
            for op in (And, Tensor):
                sid = sigs.join(op, a, b)
                counts[sid] = counts.get(sid, 0) + n
    sigs.check()

    tallies: dict[Optional[str], int] = {}
    first: dict[Optional[str], int] = {}  # label -> smallest size with it
    last_unrefuted = 0
    for size, counts in by_size.items():
        for sid, n in counts.items():
            label = sigs.labels[sid]
            tallies[label] = tallies.get(label, 0) + n
            first.setdefault(label, size)
            if label is None:
                last_unrefuted = size
    unrefuted = tallies.pop(None, 0)
    first.pop(None, None)
    if unrefuted and max_size > LISTING_MAX_SIZE:
        raise CapExceededError(f"listing unrefuted contexts is capped at size {LISTING_MAX_SIZE}")
    report = SearchReport(
        connective=c.name,
        pool=texts,
        max_size=max_size,
        total=sum(tallies.values()) + unrefuted,
        refuted=sum(tallies.values()),
    )
    # The contexts in order, as far as the last first refutation and the
    # last unrefuted context: each signature joins its sides'.
    found = {id(atom): sid for atom, sid in zip(pool, sigs.leaves)}
    for phi in enumerate_contexts(pool, max([last_unrefuted, *first.values()])):
        sid = found.get(id(phi))
        if sid is None:
            sid = found[id(phi)] = sigs.join(type(phi), found[id(phi.left)], found[id(phi.right)])
        label = sigs.labels[sid]
        if label is None:
            report.unrefuted.append(to_text(phi))
        elif label not in report.by_instance:
            report.by_instance[label] = tallies[label]
    report.elapsed_s = round(time.perf_counter() - start, 3)
    return report


@dataclass
class ClosureReport:
    """The signatures of all contexts over a pool, at every size.  No
    context over the pool defines the connective unless one of them is
    ``reachable``: leaves the battery unrefuted."""

    connective: str
    pool: list[str]
    signatures: int
    rounds: int
    reachable: bool
    witnesses: list[dict]

    def to_json(self) -> dict:
        return asdict(self)


def closure_check(c: ConnectiveSpec, atom_pool: Sequence[Formula]) -> ClosureReport:
    """The fixpoint of the signatures reachable from ``atom_pool`` under
    ``&`` and ``+``, met size by size.  A smallest context of a signature
    joins smallest contexts of two signatures, so the signatures first met
    at one size come from pairs whose smallest sizes sum to one less, and
    none is new past twice the largest smallest size plus one.  Reports the
    number of signatures, the number of sizes past 1 that met a new one
    (``rounds``), whether one of them leaves the battery unrefuted, and the
    smallest context of each with the instance that refutes it (None when
    none does), each checked by refuting the context on its own."""
    pool, texts = _search_pool(c, atom_pool)
    sigs = _Signatures(c, pool, max_signatures=MAX_SIGNATURES)
    by_size = {1: dict.fromkeys(sigs.leaves, 1)}
    size = 3
    while size <= 2 * max(by_size) + 1:
        met = len(sigs.signatures)
        for a, b, _ in _pairs(by_size, size):
            for op in (And, Tensor):
                sigs.join(op, a, b)
        if len(sigs.signatures) > met:
            by_size[size] = dict.fromkeys(range(met, len(sigs.signatures)), 1)
        size += 2
    sigs.check()
    return ClosureReport(
        connective=c.name,
        pool=texts,
        signatures=len(sigs.signatures),
        rounds=len(by_size) - 1,
        reachable=None in sigs.labels,
        witnesses=[
            {"context": to_text(phi), "refuted_by": label}
            for phi, label in zip(sigs.witnesses, sigs.labels)
        ],
    )


# --- Connective preconditions ---------------------------------------------


@dataclass
class ConditionWitness:
    condition: str
    holds: bool
    detail: str
    instances: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class ConditionReport:
    connective: str
    witnesses: list[ConditionWitness]

    @property
    def all_hold(self) -> bool:
        return all(w.holds for w in self.witnesses)

    def to_json(self) -> dict:
        return {
            "connective": self.connective,
            "all_hold": self.all_hold,
            "witnesses": [w.to_json() for w in self.witnesses],
        }


def condition_check(c: ConnectiveSpec) -> ConditionReport:
    """Evaluate the three preconditions of the non-definability argument
    for a built-in connective: (i) the applied connective fails to entail
    each argument for some vector, (ii) some vector makes it valid, and
    (iii) a designated vector is refuted by the full team over one
    variable."""
    p = Variable("p")
    theta = theta_star(full_team(VarSet((p,))))
    witnesses: list[ConditionWitness] = []

    if c.name == "or":
        i_vectors = [((Bottom(), Top()), 1), ((Top(), Bottom()), 2)]
        ii_vector = (Top(), Top())
        iii_vector = (theta, theta)
    elif c.name == "imp":
        i_vectors = [((Bottom(), Bottom()), 1), ((Bottom(), Bottom()), 2)]
        ii_vector = (Top(), Top())
        iii_vector = (Top(), theta)
    elif c.name == "contra":
        # No recorded witnesses exist; probe the constant vectors.
        i_vectors = [
            (tuple(Top() for _ in range(c.arity)), i + 1) for i in range(c.arity)
        ] + [(tuple(Bottom() for _ in range(c.arity)), i + 1) for i in range(c.arity)]
        ii_vector = tuple(Top() for _ in range(c.arity))
        iii_vector = tuple(Top() for _ in range(c.arity))
    else:
        raise ValidationError(f"unknown connective {c.name!r}")

    found: dict[int, Optional[Sequence[Formula]]] = {}
    for instances, i in i_vectors:
        if found.get(i) is None:
            entailed = entails(substitute(c.context, instances), instances[i - 1])
            found[i] = None if entailed else instances
    for i in sorted(found):
        instances = found[i]
        witnesses.append(
            ConditionWitness(
                condition=f"i[{i}]",
                holds=instances is not None,
                detail=(
                    f"the applied connective does not entail argument {i}"
                    if instances is not None
                    else f"every probed vector entails argument {i}"
                ),
                instances=[to_text(f) for f in instances] if instances is not None else [],
            )
        )

    vars = reduce(VarSet.union, map(var_set, ii_vector), VarSet(()))
    ii_holds = c.evaluate(ii_vector, full_team(vars))
    witnesses.append(
        ConditionWitness(
            condition="ii",
            holds=ii_holds,
            detail="some instance vector is valid"
            if ii_holds
            else "the probed vectors are not valid",
            instances=[to_text(f) for f in ii_vector],
        )
    )

    vars = reduce(VarSet.union, map(var_set, iii_vector), VarSet((p,)))
    iii_holds = not c.evaluate(iii_vector, full_team(vars))
    witnesses.append(
        ConditionWitness(
            condition="iii",
            holds=iii_holds,
            detail="the full team refutes the designated vector"
            if iii_holds
            else "the full team satisfies the designated vector",
            instances=[to_text(f) for f in iii_vector],
        )
    )

    return ConditionReport(connective=c.name, witnesses=witnesses)
