"""Formula syntax for team-based propositional logics.

One full language (PT0) and two fragments carved out of it:

* PD keeps all atoms but only the connectives ``&`` (conjunction) and
  ``+`` (tensor, the splitting disjunction);
* InqL keeps only plain variables and ``bot`` among the atoms, with the
  connectives ``&``, ``|`` (inquisitive disjunction), and ``->``
  (inquisitive implication).

Negation exists only at the atom level (a negated variable), never as a
unary node.  Numbered placeholder atoms ``r1, r2, ...`` turn a formula
into a context: a template awaiting uniform substitution.  ``top`` is a
primitive atom satisfied by every team; it is admitted in every fragment
so that contexts can be instantiated trivially without fragment-specific
encodings.

Each formula node keeps what is derived from it, computed by one walk on
first request and stored on the node: its census (the variables, the
placeholder indices and the node types occurring in it) and its syntax
tree.  The fields stay frozen, and ``==``, ``hash``, ``repr`` and pickling
read the fields alone, so what a node keeps is never seen; it lives and
dies with the node.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .errors import ValidationError

_NAME_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_RESERVED_RE = re.compile(r"r[0-9]+\Z")
_KEYWORDS = ("bot", "top")


@dataclass(frozen=True, order=True)
class Variable:
    """A propositional variable, identified by its name."""

    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ValidationError(f"bad variable name {self.name!r}")
        if _RESERVED_RE.match(self.name):
            raise ValidationError(
                f"{self.name!r} is reserved for placeholders and cannot name a variable"
            )
        if self.name in _KEYWORDS:
            raise ValidationError(f"{self.name!r} is a keyword and cannot name a variable")

    def __str__(self):
        return self.name


class _Kept:
    """A fact derived from a formula node, built by ``build(node)`` on first
    request and stored on the node under the descriptor's name, where later
    reads find it first.  ``object.__setattr__`` keeps it among the node's
    inline attribute values, where ``functools.cached_property`` would give
    every node a ``__dict__`` of its own."""

    def __init__(self, build: Callable):
        self.build = build

    def __set_name__(self, owner: type, name: str):
        self.name = name

    def __get__(self, node, owner=None):
        value = self.build(node)
        object.__setattr__(node, self.name, value)
        return value


class _Node:
    """The base of the formula node classes, which keep their census and
    syntax tree (see the module docstring).  Both live in one attribute,
    ``_kept``: the census, a 3-tuple, which gains the tree as a fourth item
    when the tree is first asked for.  On CPython 3.11 a node has room for
    one value beyond its fields, and a second attribute would cost it a
    ``__dict__`` (about 270 B).  Pickling, like the generated ``==``,
    ``hash`` and ``repr``, reads the fields alone."""

    _kept = _Kept(lambda node: _take_census(node))

    @property
    def _census(self) -> "Census":
        return self._kept[:3]

    @property
    def _tree(self) -> "SyntaxTree":
        kept = self._kept
        if len(kept) == 4:
            return kept[3]
        tree = _build_tree(self)
        object.__setattr__(self, "_kept", kept + (tree,))
        return tree

    def __getstate__(self):
        state = {k: v for k, v in self.__dict__.items() if k != "_kept"}
        return state or None


@dataclass(frozen=True)
class PosVar(_Node):
    var: Variable


@dataclass(frozen=True)
class NegVar(_Node):
    var: Variable


@dataclass(frozen=True)
class Bottom(_Node):
    pass


@dataclass(frozen=True)
class Top(_Node):
    pass


@dataclass(frozen=True)
class Dep(_Node):
    """Dependence atom ``=(args; target)``: within a team, the target's
    value is a function of the argument values.  Empty args is the
    constancy atom ``=(target)``."""

    args: tuple[Variable, ...]
    target: Variable


@dataclass(frozen=True)
class Placeholder(_Node):
    """Numbered hole ``r<index>`` filled by uniform substitution."""

    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValidationError("placeholder indices start at r1")


@dataclass(frozen=True)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Tensor(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class IDisj(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Impl(_Node):
    left: "Formula"
    right: "Formula"


Atom = Union[PosVar, NegVar, Bottom, Top, Dep, Placeholder]
Formula = Union[Atom, And, Tensor, IDisj, Impl]

BINARY_NODES = (And, Tensor, IDisj, Impl)
ATOM_NODES = (PosVar, NegVar, Bottom, Top, Dep, Placeholder)


def is_atom(phi: Formula) -> bool:
    return isinstance(phi, ATOM_NODES)


class Fragment(enum.Enum):
    PT0 = "pt0"
    PD = "pd"
    INQL = "inql"


# Per fragment: the node types it admits.  Placeholders and top are admitted
# everywhere (see module docstring).
_ALLOWED = {
    Fragment.PT0: frozenset(BINARY_NODES + ATOM_NODES),
    Fragment.PD: frozenset((And, Tensor) + ATOM_NODES),
    Fragment.INQL: frozenset((And, IDisj, Impl, PosVar, Bottom, Top, Placeholder)),
}


def fragment_check(phi: Formula, fragment: Fragment) -> bool:
    """True iff every connective and atom of ``phi`` is admitted in ``fragment``."""
    return _ALLOWED[fragment].issuperset(phi._kept[2])


_GLYPH = {And: "&", Tensor: "+", IDisj: "|", Impl: "->"}
_SPACED = {t: f" {g} " for t, g in _GLYPH.items()}
_BUILD = object()  # on fold's stack: build the node below from its sides


def to_text(phi: Formula) -> str:
    """Canonical text form; ``parse(to_text(phi))`` returns ``phi``.

    A child connective is parenthesized whenever it differs from its
    parent's connective; chains of one connective rely on the declared
    associativity (``&``, ``+``, ``|`` associate left, ``->`` right).
    The walk keeps its own stack, so any depth prints.
    """
    out: list[str] = []
    stack: list = [phi]  # formulas still to print, and literal text
    while stack:
        f = stack.pop()
        t = type(f)
        if t is str:
            out.append(f)
        elif t in _GLYPH:
            left, right = f.left, f.right
            stack += (")", right, "(") if _wrapped(right, f, False) else (right,)
            stack.append(_SPACED[t])
            stack += (")", left, "(") if _wrapped(left, f, True) else (left,)
        else:
            out.append(_atom_text(f))
    return "".join(out)


def _atom_text(phi: Formula) -> str:
    if isinstance(phi, PosVar):
        return phi.var.name
    if isinstance(phi, NegVar):
        return "!" + phi.var.name
    if isinstance(phi, Bottom):
        return "bot"
    if isinstance(phi, Top):
        return "top"
    if isinstance(phi, Dep):
        if phi.args:
            return "=({};{})".format(",".join(a.name for a in phi.args), phi.target.name)
        return "=({})".format(phi.target.name)
    return "r%d" % phi.index


def _wrapped(child: Formula, parent: Formula, first: bool) -> bool:
    """Whether ``child`` is parenthesized under ``parent``: a different
    connective always is; the same one only against its associativity
    (the right child of a left-associative chain, the left one of ``->``)."""
    if not isinstance(child, BINARY_NODES):
        return False
    if type(child) is not type(parent):
        return True
    return first == isinstance(parent, Impl)


def fold(phi: Formula, leaf: Callable, node: Callable):
    """The value of ``phi`` built bottom-up, in post-order: ``leaf(f)`` for
    each atom occurrence ``f``, ``node(f, left, right)`` for each connective
    occurrence from the values of its sides.  The walk keeps its own stack,
    so any depth folds, and no memo: a shared subformula folds per occurrence."""
    values: list = []
    stack: list = [phi]
    while stack:
        f = stack.pop()
        if f is _BUILD:
            f = stack.pop()
            right = values.pop()
            values[-1] = node(f, values[-1], right)
        elif type(f) in BINARY_NODES:
            stack += (f, _BUILD, f.right, f.left)
        else:
            values.append(leaf(f))
    return values[0]


def subformulas(phi: Formula) -> list[Formula]:
    """All subformulas of ``phi``, atoms not decomposed, in post-order of
    first occurrence, deduplicated by structural equality.  Each is keyed
    by its type and the keys of its sides, so no deep formula is hashed."""
    firsts: dict = {}  # key -> (its number, its first occurrence)

    def key(k, f: Formula) -> int:
        return firsts.setdefault(k, (len(firsts), f))[0]

    fold(phi, lambda f: key(f, f), lambda f, left, right: key((type(f), left, right), f))
    return [f for _, f in firsts.values()]


# A formula's census: the variables occurring in it, its placeholder indices
# and the types of its nodes, each once.  A plain tuple, which builds in a
# tenth of a named tuple's time: fresh formulas take their census on every
# evaluation.
Census = tuple[frozenset[Variable], frozenset[int], tuple[type, ...]]


def _take_census(phi: Formula) -> Census:
    """The census of ``phi``, from one walk with its own stack."""
    acc: set[Variable] = set()
    placeholders: set[int] = set()
    types: set[type] = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        t = type(f)
        types.add(t)
        if t in BINARY_NODES:
            stack.append(f.left)
            stack.append(f.right)
        elif t is PosVar or t is NegVar:
            acc.add(f.var)
        elif t is Dep:
            acc.update(f.args)
            acc.add(f.target)
        elif t is Placeholder:
            placeholders.add(f.index)
    return frozenset(acc), frozenset(placeholders), tuple(types)


def scan_variables(phi: Formula) -> tuple[frozenset[Variable], frozenset[int]]:
    """The variables occurring in ``phi`` and the indices of its
    placeholders, from its census."""
    kept = phi._kept
    return kept[0], kept[1]


def variables(phi: Formula) -> tuple[Variable, ...]:
    """Variables occurring in ``phi``, sorted by name."""
    return tuple(sorted(phi._kept[0]))


def placeholder_indices(phi: Formula) -> tuple[int, ...]:
    return tuple(sorted(phi._kept[1]))


def is_context(phi: Formula) -> bool:
    """True iff ``phi`` contains at least one placeholder."""
    return bool(phi._kept[1])


def max_placeholder(phi: Formula) -> int:
    return max(phi._kept[1], default=0)


def substituent(theta: Sequence[Formula], index: int) -> Formula:
    """``theta[index-1]``, the substituent of placeholder ``r<index>``."""
    if index > len(theta):
        raise ValidationError(
            f"missing substituent for placeholder r{index} (got {len(theta)} substituents)"
        )
    return theta[index - 1]


def substitute(phi: Formula, theta: Sequence[Formula]) -> Formula:
    """Replace every ``Placeholder(i)`` leaf with ``theta[i-1]``.

    ``theta`` must be long enough for every placeholder that occurs;
    unused entries are fine.
    """
    return fold(
        phi,
        lambda f: substituent(theta, f.index) if type(f) is Placeholder else f,
        lambda f, left, right: type(f)(left, right),
    )


@dataclass(frozen=True, slots=True)
class TreeNode:
    """One occurrence of a subformula within a syntax tree."""

    id: int
    formula: Formula
    parent: Optional[int]
    children: tuple[int, ...]
    depth: int


@dataclass(frozen=True)
class SyntaxTree:
    """Node-identified full binary tree of a formula.

    Node ids are assigned in pre-order, so the root is node 0.  Distinct
    occurrences of one subformula get distinct ids.
    """

    nodes: tuple[TreeNode, ...]
    root: int = 0

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    def leaves(self) -> list[TreeNode]:
        return [n for n in self.nodes if not n.children]

    def placeholder_leaves(self) -> list[TreeNode]:
        return [n for n in self.leaves() if isinstance(n.formula, Placeholder)]

    def texts(self) -> list[str]:
        """By node id, ``to_text`` of each node's formula, built from its
        children's texts, so a deep tree costs the length of its texts."""
        out = [""] * len(self.nodes)
        for n in reversed(self.nodes):  # ids are pre-order: children come later
            f = n.formula
            if not n.children:
                out[n.id] = _atom_text(f)
                continue
            y, z = (out[c] for c in n.children)
            y = f"({y})" if _wrapped(f.left, f, True) else y
            z = f"({z})" if _wrapped(f.right, f, False) else z
            out[n.id] = y + _SPACED[type(f)] + z
        return out

    def ancestors(self, node_id: int) -> list[TreeNode]:
        """Strict ancestors of a node, nearest first."""
        out = []
        cur = self.nodes[node_id].parent
        while cur is not None:
            out.append(self.nodes[cur])
            cur = self.nodes[cur].parent
        return out


def syntax_tree(phi: Formula) -> SyntaxTree:
    """The occurrence tree of ``phi``: leaves are atom occurrences,
    internal nodes are connective occurrences with exactly two children.
    It is built once and kept on ``phi``, so every call returns the same
    tree."""
    return phi._tree


def _build_tree(phi: Formula) -> SyntaxTree:
    """The occurrence tree of ``phi``, from one pre-order walk with its own
    stack, so any depth builds."""
    formulas: list[Formula] = []
    parents: list[Optional[int]] = []
    depths: list[int] = []
    children: list[tuple[int, ...]] = []
    stack: list[tuple[Formula, Optional[int], int]] = [(phi, None, 0)]
    while stack:
        f, parent, depth = stack.pop()
        my_id = len(formulas)
        formulas.append(f)
        parents.append(parent)
        depths.append(depth)
        children.append(())
        if parent is not None:
            children[parent] += (my_id,)
        if isinstance(f, BINARY_NODES):
            stack.append((f.right, my_id, depth + 1))
            stack.append((f.left, my_id, depth + 1))
    return SyntaxTree(
        tuple(map(TreeNode, range(len(formulas)), formulas, parents, children, depths))
    )
