"""Valuations, teams, and team families over finite variable sets.

A valuation over variables ``N`` is stored as an integer bit pattern:
bit ``i`` is the value on ``N[i]``.  A team is then a bitmask over the
``2^|N|`` possible patterns, bit ``pattern`` recording membership.  This
gives order-independent equality, O(1) set algebra, and a canonical
enumeration order (by cardinality, then by mask).

A family is stored one level up as an *indicator*, bit ``m`` set iff the
team with mask ``m`` is a member; the lattice sweeps over indicators live
here, shared by family enumeration and the indicator engine of ``semantics``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import CapExceededError, ValidationError
from .formulas import Variable, _Frozen

# Teams are double-exponential objects; beyond this many variables even a
# single full team mask is unreasonably large.
MAX_TEAM_VARS = 24

# 2^2^4 = 65,536 teams; also the most variables a truth set is built over.
TEAM_ENUM_CAP = 4
FAMILY_ENUM_CAP = 2


def _as_list(value, what: str) -> Sequence:
    """``value``, which must be a list or tuple: input read from JSON can
    hold any value in any place."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be a list, got {value!r}")
    return value


def _json_vars(obj: dict) -> "VarSet":
    return VarSet(tuple(Variable(n) for n in _as_list(obj["vars"], '"vars"')))


class _Kept:
    """A fact derived from a value, built by ``build(value)`` on first
    request and stored on the value under the descriptor's name, where
    later reads find it first.  ``object.__setattr__`` keeps it among the
    value's inline attribute values, where ``functools.cached_property``
    would give every value a ``__dict__`` of its own."""

    def __init__(self, build: Callable):
        self.build = build

    def __set_name__(self, owner: type, name: str):
        self.name = name

    def __get__(self, value, owner=None):
        fact = self.build(value)
        object.__setattr__(value, self.name, fact)
        return fact


class VarSet(_Frozen):
    """Ordered, duplicate-free tuple of variables; the order fixes bit positions."""

    # What a walk over teams on these variables reads (``_walk_table``),
    # found on first use.  Pickling, like ``==``, ``hash`` and ``repr``,
    # reads ``vars`` alone.
    _table = _Kept(lambda vs: _walk_table(vs.vars))

    def __init__(self, vars: tuple[Variable, ...]):
        object.__setattr__(self, "vars", vars)
        if len(set(vars)) != len(vars):
            raise ValidationError("duplicate variables in variable set")

    def __repr__(self):
        return f"VarSet(vars={self.vars!r})"

    def __eq__(self, other):
        if type(other) is type(self):
            return self.vars == other.vars
        return NotImplemented

    def __hash__(self):
        return hash((self.vars,))

    def __reduce__(self):
        return (type(self), (self.vars,))

    @classmethod
    def of(cls, *names: str) -> "VarSet":
        return cls.from_names(names)

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "VarSet":
        return cls(tuple(sorted(set(Variable(n) for n in names))))

    @classmethod
    def from_variables(cls, variables: Iterable[Variable]) -> "VarSet":
        return cls(tuple(sorted(set(variables))))

    def names(self) -> list[str]:
        return [v.name for v in self.vars]

    def index(self, var: Variable) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise ValidationError(f"variable {var.name!r} not in variable set") from None

    def union(self, other: "VarSet") -> "VarSet":
        return VarSet.from_variables(self.vars + other.vars)

    def is_subset(self, other: "VarSet") -> bool:
        return set(self.vars) <= set(other.vars)

    def __len__(self) -> int:
        return len(self.vars)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self.vars)

    def __contains__(self, var: Variable) -> bool:
        return var in self.vars


@lru_cache(maxsize=64)
def _walk_table(vars: tuple[Variable, ...]) -> tuple[frozenset[Variable], "_PatternOnes"]:
    """The variables as a set and ``_PatternOnes``, one pair shared by
    equal variable sets: a team held for later keeps only a reference."""
    return frozenset(vars), _PatternOnes([v.name for v in vars])


class _PatternOnes(dict):
    """By variable name, the patterns of a variable set that set the
    variable to 1, each built on its first read."""

    __slots__ = ("positions",)

    def __init__(self, names: list[str]):
        super().__init__()
        self.positions = {name: i for i, name in enumerate(names)}

    def __missing__(self, name: str) -> int:
        value = self[name] = _var_ones(len(self.positions), self.positions[name])
        return value


class Valuation(_Frozen):
    """One row of a team: a bit per variable."""

    __slots__ = ("vars", "bits")
    __match_args__ = __slots__

    def __init__(self, vars: VarSet, bits: int):
        _set_valuation_vars(self, vars)
        _set_valuation_bits(self, bits)
        if not 0 <= bits < (1 << len(vars)):
            raise ValidationError("valuation bits out of range for the variable set")

    def __repr__(self):
        return f"Valuation(vars={self.vars!r}, bits={self.bits!r})"

    def __eq__(self, other):
        if type(other) is type(self):
            return (self.vars, self.bits) == (other.vars, other.bits)
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, self.bits))

    def __reduce__(self):
        return (type(self), (self.vars, self.bits))

    @classmethod
    def from_row(cls, vars: VarSet, row: Sequence[int]) -> "Valuation":
        row = _as_list(row, "a team row")
        if len(row) != len(vars):
            raise ValidationError(f"row length {len(row)} does not match {len(vars)} variables")
        bits = 0
        for i, cell in enumerate(row):
            if type(cell) is not int or cell not in (0, 1):
                raise ValidationError(f"valuation entries must be 0 or 1, got {cell!r}")
            bits |= cell << i
        return cls(vars, bits)

    def value(self, var: Variable) -> int:
        return (self.bits >> self.vars.index(var)) & 1

    def row(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(len(self.vars))]

    def restrict(self, sub: VarSet) -> "Valuation":
        bits = 0
        for i, var in enumerate(sub):
            bits |= self.value(var) << i
        return Valuation(sub, bits)


_set_valuation_vars = Valuation.vars.__set__
_set_valuation_bits = Valuation.bits.__set__


def _guard_width(vars: VarSet) -> None:
    if len(vars) > MAX_TEAM_VARS:
        raise CapExceededError(
            f"teams over more than {MAX_TEAM_VARS} variables are not supported"
        )


class Team(_Frozen):
    """A set of valuations over a shared variable set, as a pattern bitmask."""

    __slots__ = ("vars", "mask")
    __match_args__ = __slots__

    def __init__(self, vars: VarSet, mask: int):
        _set_team_vars(self, vars)
        _set_team_mask(self, mask)
        _guard_width(vars)
        if not 0 <= mask < (1 << (1 << len(vars))):
            raise ValidationError("team mask out of range for the variable set")

    def __repr__(self):
        return f"Team(vars={self.vars!r}, mask={self.mask!r})"

    def __eq__(self, other):
        if type(other) is type(self):
            return (self.vars, self.mask) == (other.vars, other.mask)
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, self.mask))

    def __reduce__(self):
        return (type(self), (self.vars, self.mask))

    @classmethod
    def empty(cls, vars: VarSet) -> "Team":
        return cls(vars, 0)

    @classmethod
    def from_rows(cls, vars: VarSet, rows: Sequence[Sequence[int]]) -> "Team":
        mask = 0
        for row in _as_list(rows, "a team"):
            bit = 1 << Valuation.from_row(vars, row).bits
            if mask & bit:
                raise ValidationError(f"duplicated row {list(row)}")
            mask |= bit
        return cls(vars, mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def members(self) -> list[Valuation]:
        """Valuations in ascending pattern order."""
        out = []
        m = self.mask
        while m:
            low = m & -m
            out.append(Valuation(self.vars, low.bit_length() - 1))
            m ^= low
        return out

    def rows(self) -> list[list[int]]:
        return [v.row() for v in self.members()]

    def __contains__(self, valuation: Valuation) -> bool:
        return valuation.vars == self.vars and bool(self.mask >> valuation.bits & 1)

    def is_subteam_of(self, other: "Team") -> bool:
        self._same_vars(other)
        return self.mask & ~other.mask == 0

    def union(self, other: "Team") -> "Team":
        self._same_vars(other)
        return Team(self.vars, self.mask | other.mask)

    def intersection(self, other: "Team") -> "Team":
        self._same_vars(other)
        return Team(self.vars, self.mask & other.mask)

    def difference(self, other: "Team") -> "Team":
        self._same_vars(other)
        return Team(self.vars, self.mask & ~other.mask)

    def _same_vars(self, other: "Team") -> None:
        if self.vars != other.vars:
            raise ValidationError("teams are over different variable sets")

    def restrict(self, sub: VarSet) -> "Team":
        """Pointwise restriction; duplicate restricted rows collapse."""
        if not sub.is_subset(self.vars):
            raise ValidationError("restriction target is not a subset of the team's variables")
        positions = [self.vars.index(v) for v in sub]
        out = 0
        m = self.mask
        while m:
            low = m & -m
            pattern = low.bit_length() - 1
            out |= 1 << sum(((pattern >> p) & 1) << i for i, p in enumerate(positions))
            m ^= low
        return Team(sub, out)

    def sort_key(self) -> tuple[int, int]:
        return (self.size, self.mask)

    def to_json(self) -> dict:
        return {"vars": self.vars.names(), "team": self.rows()}

    @classmethod
    def from_json(cls, obj: dict) -> "Team":
        if not isinstance(obj, dict) or "vars" not in obj or "team" not in obj:
            raise ValidationError('team JSON must be {"vars": [...], "team": [[...], ...]}')
        return cls.from_rows(_json_vars(obj), obj["team"])


_set_team_vars = Team.vars.__set__
_set_team_mask = Team.mask.__set__


def full_team(vars: VarSet) -> Team:
    """The team of all ``2^|vars|`` valuations.  For an empty variable set
    this is the singleton of the empty valuation."""
    _guard_width(vars)
    return Team(vars, (1 << (1 << len(vars))) - 1)


def check_team_cap(n: int) -> None:
    """Teams over more than ``TEAM_ENUM_CAP`` variables are not enumerated."""
    if n > TEAM_ENUM_CAP:
        raise CapExceededError(
            f"enumerating teams over {n} variables exceeds the cap of {TEAM_ENUM_CAP}"
        )


def team_masks(vars: VarSet) -> tuple[int, ...]:
    """The masks of all ``2^(2^|vars|)`` teams, smallest cardinality first,
    then by mask."""
    check_team_cap(len(vars))
    return _team_order(1 << len(vars))


def enumerate_teams(vars: VarSet) -> Iterator[Team]:
    """All teams over ``vars``, in the order of ``team_masks``."""
    for m in team_masks(vars):
        yield Team(vars, m)


@lru_cache(maxsize=None)  # one entry per width up to the cap
def _team_order(npat: int) -> tuple[int, ...]:
    return tuple(sorted(range(1 << npat), key=lambda m: (m.bit_count(), m)))


def maximal_masks(masks: list[int]) -> list[int]:
    """The maximal elements of a collection of team masks, largest first."""
    if len(masks) < 2:
        return masks
    kept: list[int] = []
    if len(masks) <= 64:  # a pairwise test beats the holders bitsets up to here
        for t in sorted(set(masks), key=int.bit_count, reverse=True):
            for k in kept:
                if t & ~k == 0:
                    break
            else:
                kept.append(t)
        return kept
    # pattern bit -> bitset over the indices of the kept masks that hold it,
    # so "inside some kept mask" is one AND per member
    holders: dict[int, int] = {}
    for t in sorted(set(masks), key=int.bit_count, reverse=True):
        inside = (1 << len(kept)) - 1
        m = t
        while m and inside:
            low = m & -m
            inside &= holders.get(low, 0)
            m ^= low
        if inside:
            continue
        bit = 1 << len(kept)
        m = t
        while m:
            low = m & -m
            holders[low] = holders.get(low, 0) | bit
            m ^= low
        kept.append(t)
    return kept


class TeamFamily(_Frozen):
    """A set of teams over a fixed variable set."""

    __slots__ = ("vars", "masks")
    __match_args__ = __slots__

    def __init__(self, vars: VarSet, masks: frozenset[int]):
        _set_family_vars(self, vars)
        _set_family_masks(self, masks)
        _guard_width(vars)
        limit = 1 << (1 << len(vars))
        for m in masks:
            if not 0 <= m < limit:
                raise ValidationError("family contains a team mask out of range")

    def __repr__(self):
        return f"TeamFamily(vars={self.vars!r}, masks={self.masks!r})"

    def __eq__(self, other):
        if type(other) is type(self):
            return (self.vars, self.masks) == (other.vars, other.masks)
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, self.masks))

    def __reduce__(self):
        return (type(self), (self.vars, self.masks))

    @classmethod
    def from_teams(cls, teams: Iterable[Team], vars: Optional[VarSet] = None) -> "TeamFamily":
        teams = list(teams)
        if vars is None:
            if not teams:
                raise ValidationError("cannot infer the variable set of an empty family")
            vars = teams[0].vars
        for t in teams:
            if t.vars != vars:
                raise ValidationError("family teams are over different variable sets")
        return cls(vars, frozenset(t.mask for t in teams))

    def teams(self) -> list[Team]:
        return [Team(self.vars, m) for m in sorted(self.masks, key=lambda m: (m.bit_count(), m))]

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, team: Team) -> bool:
        return team.vars == self.vars and team.mask in self.masks

    def maximal_teams(self) -> list[Team]:
        """Members with no strict superset in the family, in canonical order."""
        out = maximal_masks(list(self.masks))
        return [Team(self.vars, m) for m in sorted(out, key=lambda m: (m.bit_count(), m))]

    def to_json(self) -> dict:
        return {"vars": self.vars.names(), "teams": [t.rows() for t in self.teams()]}

    @classmethod
    def from_json(cls, obj: dict) -> "TeamFamily":
        if not isinstance(obj, dict) or "vars" not in obj or "teams" not in obj:
            raise ValidationError('family JSON must be {"vars": [...], "teams": [[[...]], ...]}')
        vars = _json_vars(obj)
        teams = _as_list(obj["teams"], '"teams"')
        return cls.from_teams([Team.from_rows(vars, rows) for rows in teams], vars)


_set_family_vars = TeamFamily.vars.__set__
_set_family_masks = TeamFamily.masks.__set__


def is_downward_closed(family: TeamFamily) -> bool:
    """True iff the family contains the empty team and every subteam of
    every member: by induction on size, iff it is nonempty and each member
    less any one of its valuations is a member too."""
    masks = family.masks
    for m in masks:
        rest = m
        while rest:
            low = rest & -rest
            if m ^ low not in masks:
                return False
            rest ^= low
    return 0 in masks


def enumerate_downward_closed_families(vars: VarSet) -> Iterator[TeamFamily]:
    """All families over ``vars`` that contain the empty team and are closed
    under subteams, in ascending order of their membership indicator: the
    odd indicators that a superset sweep leaves unchanged."""
    if len(vars) > FAMILY_ENUM_CAP:
        raise CapExceededError(
            f"enumerating families over {len(vars)} variables exceeds the cap of "
            f"{FAMILY_ENUM_CAP}"
        )
    npat = 1 << len(vars)
    nteams = 1 << npat
    for indicator in range(1, 1 << nteams, 2):
        if _superset_or(indicator, npat) == indicator:
            yield TeamFamily(vars, frozenset(m for m in range(nteams) if indicator >> m & 1))


# --- Lattice sweeps ---------------------------------------------------------
#
# For n variables there are 2^n valuation patterns, and _var_ones(n, i) has
# bit P set iff pattern P assigns 1 to variable i.  Over an indicator of
# teams built on npat patterns, positions are team masks, so
# _var_ones(npat, j) holds the teams that contain pattern j, and a sweep
# moves membership along one pattern at a time.
@lru_cache(maxsize=None)
def _var_ones(n: int, i: int) -> int:
    b = 1 << i
    period = 2 * b
    reps = (1 << n) // period
    return (((1 << b) - 1) << b) * (((1 << (period * reps)) - 1) // ((1 << period) - 1))


def _superset_or(ind: int, npat: int) -> int:
    """Bit m of the result: some superset of team m has its bit set."""
    for j in range(npat):
        ind |= (ind & _var_ones(npat, j)) >> (1 << j)
    return ind
