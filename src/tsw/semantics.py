"""Team-semantic evaluation and the judgments built on it.

A team satisfies:

* a variable ``p`` when every member maps it to 1, a negated variable
  when every member maps it to 0;
* ``bot`` only when the team is empty, ``top`` always;
* a dependence atom ``=(args; q)`` when members agreeing on all of
  ``args`` agree on ``q``;
* ``a & b`` when it satisfies both sides;
* ``a + b`` when it splits into two (possibly overlapping) subteams
  whose union is the whole team, one satisfying each side;
* ``a | b`` when it satisfies at least one side as a whole;
* ``a -> b`` when every subteam satisfying ``a`` also satisfies ``b``.

Two engines implement this.  The main one works with *alternatives*.
Satisfaction is closed under subteams, so the subteams of a team X that
satisfy a formula are exactly those inside one of its maximal satisfying
subteams, and these antichains compose clause by clause.  For
``evaluate`` (and so ``valid``), one iterative walk decides the root on X
itself, passing through ``&`` and ``|``; each ``+`` or ``->`` on that
path takes the alternatives of its two children (within X) and compares
them, so no subteam of X is ever enumerated.  ``largest_split`` is the
one split rule for ``+``.  Antichains can blow up, so a walk that would
form more than ``ALTERNATIVES_BUDGET`` candidate alternatives raises
``CapExceededError`` instead.

Alternatives are taken bottom-up by one of two drivers, picked by what is
asked.  Those of a formula's root alone come from a fold
(``formulas.fold``), which builds nothing to keep, so a context walked
once, as in a refutation, is left as it was.  ``node_alternatives`` gives
those of every node of an instantiated context within X, for the truth
functions of ``definability``: one loop over the context's syntax tree,
the one its truth functions are made of.  Both go through the same
``_Walk`` steps, so they charge the budget alike.

``alternatives`` gives the alternatives of a formula on the full team over
a variable set, ``alternatives_within`` those within any team, and ``join``
those of ``&`` or ``+`` from those of its two sides.  Both read a context's
placeholder ``r<i>`` as a formula whose alternatives there are a given
antichain (``alternatives`` in its fallback too), so ``definability`` binds
its battery instances' alternatives without walking them;
``node_alternatives`` walks each substituent once within its team and
binds the result.  No instance is built by substitution.
``truth_set``, ``entails`` and ``equivalent`` read their answers off
``alternatives``: the truth set is the down-set of the alternatives, one
formula entails another when each of its alternatives lies inside one of
the other's, and two formulas are equivalent when their alternatives
coincide.  They keep their variable caps.  When the walk would exceed the
budget, ``alternatives`` takes the maximal teams of the indicator engine
instead, which builds, per subformula, a bitmask over all teams of the
variable set at once, using lattice sweeps for the subteam quantifiers
(the tensor takes one subteam sweep per maximal team of its left side).
Its cost is bounded by the caps, so every judgment within them gets an
answer.  The two engines are checked against each other in the test
suite, where the naive per-team tensor scan lives as a reference, and
``check_basic_properties`` runs both.
"""

from __future__ import annotations

import random
from typing import AbstractSet, Optional, Sequence

from .errors import CapExceededError, InternalInvariantError, ValidationError
from .formulas import (
    BINARY_NODES,
    And,
    Bottom,
    Dep,
    Formula,
    IDisj,
    Impl,
    NegVar,
    Placeholder,
    PosVar,
    SyntaxTree,
    Tensor,
    Top,
    Variable,
    _Value,
    fold,
    scan_variables,
    substituent,
    to_text,
)
from .teams import (
    TEAM_ENUM_CAP,
    Team,
    TeamFamily,
    VarSet,
    _guard_width,
    _superset_or,
    _var_ones,
    full_team,
    maximal_masks,
)

DEFAULT_CAP = 3

# Most candidate teams one evaluation may form before it gives up: pairs of
# alternatives combined at binary nodes, choices of a dependence atom, and
# the steps of an implication, summed over the whole formula.  Model
# checking dependence logic is NP-complete, so antichains can blow up.
ALTERNATIVES_BUDGET = 100_000


def var_set(phi: Formula) -> VarSet:
    """The variables of a formula, as a canonical variable set."""
    return VarSet.from_variables(scan_variables(phi)[0])


def _check_cap(n: int, force: bool, what: str) -> None:
    """The one variable cap of the operations that range over all 2^2^n
    teams: ``DEFAULT_CAP`` variables, or ``TEAM_ENUM_CAP`` with ``force``."""
    cap = TEAM_ENUM_CAP if force else DEFAULT_CAP
    if n > cap:
        hint = ""
        if n <= TEAM_ENUM_CAP:
            hint = f" (force raises it to the hard maximum of {TEAM_ENUM_CAP})"
        raise CapExceededError(f"{what} over {n} variables exceeds the cap of {cap}{hint}")


def _check_closed(
    used: AbstractSet[Variable], placeholders: AbstractSet[int], vars: VarSet
) -> None:
    if placeholders:
        raise ValidationError("cannot evaluate a context; substitute its placeholders first")
    if not used <= vars._table[0]:
        missing = sorted(v.name for v in used if v not in vars)
        raise ValidationError(f"free variables outside the team's variable set: {missing}")


def evaluate(phi: Formula, team: Team) -> bool:
    """Whether ``team`` satisfies ``phi`` (which must be placeholder-free
    with all its variables among the team's).

    Raises ``CapExceededError`` when deciding needs more than
    ``ALTERNATIVES_BUDGET`` candidate alternatives."""
    used, placeholders = scan_variables(phi)
    _check_closed(used, placeholders, team.vars)
    return _Walk(team.vars, team.mask).verdict(phi)


def node_alternatives(
    tree: SyntaxTree, theta: Sequence[Formula], team: Team
) -> list[list[int]]:
    """By node id, the alternatives within ``team`` of each node of ``tree``
    with placeholder ``r<i>`` read as ``theta[i-1]``: a subteam T satisfies
    the node when ``T & ~a == 0`` for one of them.  The instance is checked
    as ``evaluate`` checks it, and the whole tree shares one budget."""
    return _node_alternatives(tree, theta, team.vars, team.mask)


def _node_alternatives(
    tree: SyntaxTree, theta: Sequence[Formula], vars: VarSet, X: int
) -> list[list[int]]:
    """``node_alternatives`` within the team with mask ``X`` over ``vars``."""
    used, holes = scan_variables(tree.nodes[tree.root].formula)
    if holes and max(holes) > len(theta):
        for node in tree.nodes:  # pre-order: the first missing one substitute meets
            if type(node.formula) is Placeholder:
                substituent(theta, node.formula.index)
    insts = {i: theta[i - 1] for i in holes}
    placeholders: set[int] = set()
    for inst in insts.values():
        vs, ph = scan_variables(inst)
        used |= vs  # a new set: the census it came from is frozen
        placeholders |= ph
    _check_closed(used, placeholders, vars)
    walk = _Walk(vars, X)
    walk.bound = {i: walk.alternatives(f) for i, f in insts.items()}
    alts: list[list[int]] = [[]] * len(tree.nodes)
    for node in reversed(tree.nodes):  # ids are pre-order: children come later
        if node.children:
            y, z = node.children
            alts[node.id] = walk.combine(node.formula, alts[y], alts[z])
        else:
            alts[node.id] = walk.atom_alternatives(node.formula)
    return alts


def largest_split(T: int, left: list[int], right: list[int]) -> Optional[int]:
    """The left side of a split of team mask ``T`` for a tensor whose sides
    have the alternatives ``left`` and ``right`` within a team containing
    ``T`` (the right side is its complement), or None when there is none:
    the largest left alternative restricted to ``T`` whose remainder a right
    alternative covers.  Every satisfying left side lies inside one of
    these, so it is also the first in descending mask order."""
    for a in sorted({x & T for x in left}, reverse=True):
        if any(T & ~(a | b) == 0 for b in right):
            return a
    return None


def join(op: type, left: list[int], right: list[int]) -> list[int]:
    """The alternatives of ``op`` (``And`` or ``Tensor``) on a common team
    from those of its two sides: their maximal pairwise intersections or
    unions."""
    if op is And:
        return maximal_masks([a & b for a in left for b in right])
    return maximal_masks([a | b for a in left for b in right])


class _Walk:
    """One evaluation on a fixed team X.

    Every subteam of X satisfying a formula lies inside one of its
    *alternatives*: the maximal satisfying subteams, an antichain of masks.
    ``verdict`` decides X itself, passing through ``&`` and ``|``; a ``+``
    or ``->`` asks ``alternatives`` for both of its children, and from
    there down every node is an antichain.  ``bound`` maps the index ``i``
    of placeholder ``r<i>`` to the antichain it reads as.
    """

    __slots__ = ("X", "ones", "spent", "bound")

    def __init__(self, vars: VarSet, X: int):
        self.X = X
        # name of each variable -> the patterns setting it to 1
        self.ones = vars._table[1]
        self.spent = 0
        self.bound: dict[int, list[int]] = {}

    def charge(self, k: int) -> None:
        self.spent += k
        if self.spent > ALTERNATIVES_BUDGET:
            raise CapExceededError(
                f"evaluation needs more than {ALTERNATIVES_BUDGET} candidate alternatives"
            )

    def verdict(self, phi: Formula) -> bool:
        X = self.X
        # Left-descents pass through "&" and "|" nodes whose right child is
        # still owed; once the left verdict does not settle a node, its
        # verdict is its right child's, so the node is not kept.
        pending: list[Formula] = []
        node = phi
        while True:
            t = type(node)
            while t is And or t is IDisj:
                pending.append(node)
                node = node.left
                t = type(node)
            if t is PosVar:
                val = X & ~self.ones[node.var.name] == 0
            elif t is NegVar:
                val = X & self.ones[node.var.name] == 0
            elif t is Top:
                val = True
            elif t is Bottom:
                val = X == 0
            elif t is Dep:
                val = not any(a and b for a, b in self.dep_classes(node))
            elif t is Tensor:
                left = self.alternatives(node.left)
                right = self.alternatives(node.right)
                self.charge(len(left) * len(right))
                val = largest_split(X, left, right) is not None
            elif t is Impl:
                left = self.alternatives(node.left)
                right = self.alternatives(node.right)
                self.charge(len(left) * len(right))
                val = all(any(a & ~b == 0 for b in right) for a in left)
            else:
                raise InternalInvariantError(f"unknown node {node!r}")
            while pending:
                parent = pending.pop()
                if val is not (type(parent) is IDisj):
                    node = parent.right
                    break
            else:
                return val

    def alternatives(self, phi: Formula) -> list[int]:
        if type(phi) not in BINARY_NODES:
            return self.atom_alternatives(phi)
        return fold(phi, self.atom_alternatives, self.combine)

    def combine(self, node: Formula, left: list[int], right: list[int]) -> list[int]:
        """The alternatives of a binary node from those of its two children."""
        t = type(node)
        if t is IDisj:
            self.charge(len(left) + len(right))
            return maximal_masks(left + right)
        if t is Impl:
            return self.implication_alternatives(left, right)
        if len(left) == 1 and len(right) == 1:
            self.charge(1)
            return [left[0] & right[0]] if t is And else [left[0] | right[0]]
        self.charge(len(left) * len(right))
        return join(t, left, right)

    def atom_alternatives(self, node: Formula) -> list[int]:
        t = type(node)
        if t is PosVar:
            return [self.X & self.ones[node.var.name]]
        if t is NegVar:
            return [self.X & ~self.ones[node.var.name]]
        if t is Top:
            return [self.X]
        if t is Bottom:
            return [0]
        if t is Dep:
            return self.dep_alternatives(node)
        if t is Placeholder:
            return self.bound[node.index]
        raise InternalInvariantError(f"unknown node {node!r}")

    def dep_classes(self, dep: Dep) -> list[tuple[int, int]]:
        """The nonempty classes of members of X that agree on the arguments,
        each split into its members with target 0 and with target 1."""
        classes = [self.X]
        for a in dep.args:
            ones = self.ones[a.name]
            classes = [part for c in classes for part in (c & ~ones, c & ones) if part]
        ones = self.ones[dep.target.name]
        return [(c & ~ones, c & ones) for c in classes]

    def dep_alternatives(self, dep: Dep) -> list[int]:
        """One alternative per choice of a target value on each class."""
        mixed = [(a, b) for a, b in self.dep_classes(dep) if a and b]
        self.charge(1 << len(mixed))
        alts = [self.X & ~sum(a | b for a, b in mixed)]
        for a, b in mixed:
            alts = [y | a for y in alts] + [y | b for y in alts]
        return alts

    def implication_alternatives(self, left: list[int], right: list[int]) -> list[int]:
        """The maximal Y inside X such that every left alternative A meets Y
        inside some right alternative B: intersect, over A, the choices of
        (X minus A) | B, keeping only maximal candidates after each step.
        Only the maximal choices are kept, since a smaller choice only gives
        smaller candidates."""
        cands = [self.X]
        for a in left:
            if any(a & ~b == 0 for b in right):
                continue  # every choice keeps the whole of each candidate
            outside = self.X & ~a
            choices = maximal_masks([outside | b for b in right])
            self.charge(len(cands) * len(choices))
            cands = join(And, cands, choices)
        return cands


# --- Indicator engine ----------------------------------------------------
#
# A subformula's indicator over npat = 2^n patterns has bit m set iff the
# team with mask m satisfies it (``teams`` sets out the sweeps).  Every
# indicator the fold builds is a down-set, which the tensor rule relies on.


def _subset_or(ind: int, npat: int, patterns: int) -> int:
    """Bit m of the result: some subteam of team m that keeps every pattern
    of m outside the mask ``patterns`` has its bit set."""
    for j in range(npat):
        if patterns >> j & 1:
            ind |= (ind << (1 << j)) & _var_ones(npat, j)
    return ind


def _maximal_members(ind: int, npat: int) -> list[int]:
    """The maximal teams of the down-set ``ind``: no team one pattern
    larger is in it."""
    grown = 0
    for j in range(npat):
        grown |= (ind & _var_ones(npat, j)) >> (1 << j)
    return _bit_positions(ind & ~grown)


def _down_set(masks, npat: int) -> int:
    """The indicator of the teams inside at least one of ``masks``."""
    seeds = 0
    for m in masks:
        seeds |= 1 << m
    return _superset_or(seeds, npat)


def _tensor_indicator(left: int, right: int, npat: int) -> int:
    """The tensor of two down-sets: a team T splits into a left and a right
    part iff T less some maximal left team m is a right team, and the teams
    whose part outside m is a right team are the subteam sweep of the right
    indicator over the patterns of m.  The tensor commutes, so the side
    whose maximal teams hold fewer patterns in all plays the left."""
    max_l, max_r = _maximal_members(left, npat), _maximal_members(right, npat)
    if sum(map(int.bit_count, max_r)) < sum(map(int.bit_count, max_l)):
        max_l, right = max_r, left
    out = 0
    for m in max_l:
        out |= _subset_or(right, npat, m)
    return out


_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


def _bit_positions(x: int) -> list[int]:
    """The positions of the set bits of ``x``, lowest first.

    Stripping the lowest set bit costs a pass over all of ``x``, so it is
    kept for a few bits (such as the maximal teams of a family); more are
    read off one byte at a time, in time linear in the length of ``x``."""
    out = []
    if x.bit_count() <= 32:
        while x:
            low = x & -x
            out.append(low.bit_length() - 1)
            x ^= low
        return out
    for i, byte in enumerate(x.to_bytes((x.bit_length() + 7) // 8, "little")):
        if byte:
            base = 8 * i
            for j in _BYTE_BITS[byte]:
                out.append(base + j)
    return out


def _closed_variables(
    used: AbstractSet[Variable], placeholders: AbstractSet[int], vars: VarSet, bound: Sequence = ()
) -> None:
    """Check a formula with these variables and placeholders: ``bound`` must
    cover its placeholders, and ``vars`` its variables."""
    if placeholders and max(placeholders) > len(bound):
        raise ValidationError("cannot take the truth set of a context")
    if not used <= vars._table[0]:
        for v in sorted(used):
            if v not in vars:
                raise ValidationError(f"variable {v.name!r} of the formula is outside the given set")


def _truth_indicator(phi: Formula, vars: VarSet, bound: Sequence[Sequence[int]] = ()) -> int:
    """The truth set of ``phi`` over ``vars`` as an indicator, placeholder
    ``r<i>`` read as the down-set of the antichain ``bound[i-1]``."""
    _closed_variables(*scan_variables(phi), vars, bound)
    n = len(vars)
    if n > TEAM_ENUM_CAP:
        raise CapExceededError(
            f"indicator construction over {n} variables exceeds the hard maximum of {TEAM_ENUM_CAP}"
        )
    npat = 1 << n
    full = (1 << npat) - 1
    all_teams = (1 << (1 << npat)) - 1
    index_of = {v: i for i, v in enumerate(vars)}

    def leaf(node: Formula) -> int:
        if isinstance(node, PosVar):
            return _down_set((_var_ones(n, index_of[node.var]),), npat)
        if isinstance(node, NegVar):
            return _down_set((full ^ _var_ones(n, index_of[node.var]),), npat)
        if isinstance(node, Bottom):
            return 1
        if isinstance(node, Top):
            return all_teams
        if isinstance(node, Dep):
            bad = 0
            arg_bits = [index_of[a] for a in node.args]
            target_bit = index_of[node.target]
            for u in range(npat):
                for w in range(u + 1, npat):
                    if all((u >> b) & 1 == (w >> b) & 1 for b in arg_bits) and (
                        (u >> target_bit) & 1 != (w >> target_bit) & 1
                    ):
                        bad |= 1 << ((1 << u) | (1 << w))
            return all_teams & ~_subset_or(bad, npat, full)
        if isinstance(node, Placeholder):
            return _down_set(bound[node.index - 1], npat)
        raise InternalInvariantError(f"unknown node {node!r}")

    def combine(node: Formula, left: int, right: int) -> int:
        if isinstance(node, And):
            return left & right
        if isinstance(node, IDisj):
            return left | right
        if isinstance(node, Tensor):
            return _tensor_indicator(left, right, npat)
        bad = left & all_teams & ~right  # an implication
        return all_teams & ~_subset_or(bad, npat, full)

    return fold(phi, leaf, combine)


# --- Judgments over all teams ---------------------------------------------
#
# Satisfaction is closed under subteams, so the truth set of a formula over
# a variable set is the down-set of its alternatives on the full team.


def alternatives(phi: Formula, vars: VarSet, bound: Sequence[Sequence[int]] = ()) -> list[int]:
    """``alternatives_within`` the full team over ``vars``, which must hold
    the formula's variables.  Past ``ALTERNATIVES_BUDGET``, the maximal teams
    of the indicator engine, which reads the placeholders the same way, at a
    cost bounded by the hard variable cap."""
    _guard_width(vars)
    try:
        return _alternatives_within(phi, vars, (1 << (1 << len(vars))) - 1, bound)
    except CapExceededError:
        return _maximal_members(_truth_indicator(phi, vars, bound), 1 << len(vars))


def alternatives_within(phi: Formula, team: Team, bound: Sequence[Sequence[int]] = ()) -> list[int]:
    """The alternatives of ``phi`` within ``team`` from one walk, placeholder
    ``r<i>`` read as the antichain ``bound[i-1]``: ``team`` satisfies ``phi``
    iff it is one of them.  Past ``ALTERNATIVES_BUDGET``, CapExceededError."""
    return _alternatives_within(phi, team.vars, team.mask, bound)


def _alternatives_within(
    phi: Formula, vars: VarSet, X: int, bound: Sequence[Sequence[int]]
) -> list[int]:
    used, placeholders = scan_variables(phi)
    _closed_variables(used, placeholders, vars, bound)
    walk = _Walk(vars, X)
    walk.bound = {i: list(bound[i - 1]) for i in placeholders}
    return walk.alternatives(phi)


def truth_set(phi: Formula, vars: Optional[VarSet] = None, *, force: bool = False) -> TeamFamily:
    """The family of all teams over ``vars`` satisfying ``phi``."""
    if vars is None:
        vars = var_set(phi)
    _check_cap(len(vars), force, "truth set")
    ind = _down_set(alternatives(phi, vars), 1 << len(vars))
    return TeamFamily(vars, frozenset(_bit_positions(ind)))


def valid(phi: Formula) -> bool:
    """Whether the full team over the formula's own variables satisfies it;
    by downward closure this means every team does."""
    return evaluate(phi, full_team(var_set(phi)))


def entails(phi: Formula, psi: Formula, *, force: bool = False) -> bool:
    """Whether every team (over the combined variables) satisfying ``phi``
    satisfies ``psi``: whether each alternative of ``phi`` lies inside an
    alternative of ``psi``."""
    vars = var_set(phi).union(var_set(psi))
    _check_cap(len(vars), force, "entailment")
    a, b = alternatives(phi, vars), alternatives(psi, vars)
    return all(any(x & ~y == 0 for y in b) for x in a)


def equivalent(phi: Formula, psi: Formula, *, force: bool = False) -> bool:
    """Mutual entailment: equal truth sets over the combined variables, so
    equal sets of alternatives (a family has one set of maximal members)."""
    vars = var_set(phi).union(var_set(psi))
    _check_cap(len(vars), force, "equivalence")
    return set(alternatives(phi, vars)) == set(alternatives(psi, vars))


# --- Property suite -------------------------------------------------------


class CheckOutcome(_Value):
    """One check of ``check_basic_properties``: its name, whether it passed,
    what it checked and, on failure, a witness."""

    __match_args__ = ("name", "passed", "detail", "witness")

    # hand-written, for the default
    def __init__(self, name: str, passed: bool, detail: str, witness: Optional[dict] = None):
        self.name = name
        self.passed = passed
        self.detail = detail
        self.witness = witness

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class PropertyReport(_Value):
    """The checks of ``check_basic_properties`` on one formula."""

    __match_args__ = ("formula", "vars", "checks")

    # hand-written, for the default: a new list
    def __init__(self, formula: str, vars: list[str], checks: Optional[list[CheckOutcome]] = None):
        self.formula = formula
        self.vars = vars
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "formula": self.formula,
            "vars": self.vars,
            "ok": self.ok,
            "checks": [c.to_json() for c in self.checks],
        }


_FRESH_CANDIDATES = ("s", "t", "u", "w", "z")


def _fresh_variable(vars: VarSet) -> Variable:
    names = set(vars.names())
    for cand in _FRESH_CANDIDATES:
        if cand not in names:
            return Variable(cand)
    i = 1
    while f"s{i}" in names:
        i += 1
    return Variable(f"s{i}")


def check_basic_properties(
    phi: Formula,
    vars: Optional[VarSet] = None,
    *,
    seed: int = 0,
    force: bool = False,
) -> PropertyReport:
    """Check the structural properties every placeholder-free formula of
    this language family is guaranteed to have, over the given variables:
    the empty team satisfies it; satisfaction is closed under subteams;
    satisfaction only depends on the variables that occur (checked by
    extending teams with a fresh variable); and a valid ``|`` formula has a
    valid disjunct.  A failure means an evaluator bug, and the report
    carries a witness."""
    if vars is None:
        vars = var_set(phi)
    _check_cap(len(vars), force, "property checking")
    report = PropertyReport(formula=to_text(phi), vars=vars.names())
    n = len(vars)
    npat = 1 << n
    ind = _truth_indicator(phi, vars)

    # Empty team, on both engines.
    by_ind = bool(ind & 1)
    by_eval = evaluate(phi, Team.empty(vars))
    report.checks.append(
        CheckOutcome(
            "empty_team",
            by_ind and by_eval,
            "the empty team satisfies the formula",
        )
    )

    # Downward closure: the satisfying teams contain every subteam.
    closure = _superset_or(ind, npat)
    if closure == ind:
        report.checks.append(
            CheckOutcome("downward_closure", True, "satisfaction is closed under subteams")
        )
    else:
        bad = closure & ~ind
        sub_mask = (bad & -bad).bit_length() - 1
        sup_mask = next(
            m for m in _bit_positions(ind) if sub_mask & ~m == 0 and m != sub_mask
        )
        report.checks.append(
            CheckOutcome(
                "downward_closure",
                False,
                "a satisfying team has a non-satisfying subteam",
                witness={
                    "team": Team(vars, sup_mask).rows(),
                    "subteam": Team(vars, sub_mask).rows(),
                },
            )
        )

    # Locality: extending sampled teams with a fresh variable leaves the
    # verdict unchanged.  This also cross-checks the two engines, since the
    # extended teams go through the alternatives engine.
    rng = random.Random(seed)
    fresh = _fresh_variable(vars)
    extended = vars.union(VarSet((fresh,)))
    pos_map = [extended.index(v) for v in vars]
    fresh_pos = extended.index(fresh)
    sample = {0, (1 << npat) - 1}
    while len(sample) < 5 and len(sample) < (1 << npat):
        sample.add(rng.getrandbits(npat))
    locality_ok = True
    locality_witness = None
    for mask in sorted(sample):
        expected = bool(ind >> mask & 1)
        patterns = _bit_positions(mask)
        variants = []
        for _ in range(2):  # two random sections
            variants.append({p: (rng.getrandbits(1),) for p in patterns})
        if patterns:  # double one valuation: keep both extensions of the first
            doubled = {p: (rng.getrandbits(1),) for p in patterns}
            doubled[patterns[0]] = (0, 1)
            variants.append(doubled)
        for variant in variants:
            ext_mask = 0
            for p, bits in variant.items():
                base = sum(((p >> i) & 1) << pos for i, pos in enumerate(pos_map))
                for bit in bits:
                    ext_mask |= 1 << (base | bit << fresh_pos)
            got = evaluate(phi, Team(extended, ext_mask))
            if got != expected:
                locality_ok = False
                locality_witness = {
                    "team": Team(vars, mask).rows(),
                    "extended_team": Team(extended, ext_mask).rows(),
                    "extended_vars": extended.names(),
                    "base_verdict": expected,
                    "extended_verdict": got,
                }
                break
        if not locality_ok:
            break
    report.checks.append(
        CheckOutcome(
            "locality",
            locality_ok,
            "the verdict is invariant under fresh-variable extension",
            witness=locality_witness,
        )
    )

    # Disjunction property: a valid "|" formula has a valid disjunct.
    if isinstance(phi, IDisj):
        full_pos = (1 << npat) - 1
        if ind >> full_pos & 1:
            left_ok = bool(_truth_indicator(phi.left, vars) >> full_pos & 1)
            right_ok = bool(_truth_indicator(phi.right, vars) >> full_pos & 1)
            passed = left_ok or right_ok
            report.checks.append(
                CheckOutcome(
                    "disjunction_property",
                    passed,
                    "the formula is valid, so some disjunct must be valid",
                    witness=None if passed else {"left_valid": left_ok, "right_valid": right_ok},
                )
            )
        else:
            report.checks.append(
                CheckOutcome(
                    "disjunction_property",
                    True,
                    "not valid, so the disjunct condition is vacuous",
                )
            )
    else:
        report.checks.append(
            CheckOutcome("disjunction_property", True, "not a '|' formula; vacuous")
        )

    return report
