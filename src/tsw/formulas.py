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

Nodes, variables and syntax trees are plain classes with slots.  Their
constructor, ``repr``, ``==``, ``hash`` and pickling come from one base,
``_Value``, which writes them from the field names in ``__match_args__``;
the constructor sets the fields once, and assigning or deleting one
raises ``AttributeError``.  Each formula node keeps what is derived from
it, computed by one walk on first request and stored on the node: its
census (the variables, the placeholder indices and the node types
occurring in it), its syntax tree and its hash.  ``==``, ``hash``,
``repr`` and pickling read the fields alone, so what a node keeps is never
seen; it lives and dies with the node.  On connectives they keep their own
stacks, so formulas of any depth compare, hash, print, pickle and copy.
"""

from __future__ import annotations

import enum
import re
from typing import Callable, Optional, Sequence, Union

from .errors import ValidationError

_NAME_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_RESERVED_RE = re.compile(r"r[0-9]+\Z")
_KEYWORDS = ("bot", "top")


class _Value:
    """A value made of the fields its class names in ``__match_args__``.
    From those names the base writes the class's methods, as source text
    compiled once per class (as ``dataclasses`` does, which the CLI's cold
    start does not load):

    * the constructor takes the fields in that order, by position or by
      name, with the annotations of the class body; it sets them and then
      runs the class's ``_check``, if it has one;
    * ``repr`` is ``Name(field=value, ...)`` and ``==`` holds between two
      values of one type with equal fields.

    Such a value is mutable and unhashable; ``_Frozen`` makes it immutable,
    hashable and picklable.  The constructor is written when the class is
    created, for ``inspect.signature`` and keyword calls to read; each other
    method on its first call, so an import compiles constructors alone.  A
    method is written for the class that names the fields and serves its
    subclasses, unless the class or one between writes it by hand."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("__match_args__") and "__init__" not in cls.__dict__:
            _write(cls, "__init__")

    def __repr__(self):
        return _write(type(self), "__repr__")(self)

    def __eq__(self, other):
        return _write(type(self), "__eq__")(self, other)


class _Frozen(_Value):
    """A value whose fields are set once, by its constructor: assigning or
    deleting an attribute raises ``AttributeError``.  It hashes as the
    tuple of its fields and pickles as its constructor call."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return _write(type(self), "__hash__")(self)

    def __reduce__(self):
        return _write(type(self), "__reduce__")(self)


# The text of each written method; ``_write`` fills in the fields.
_TEXT = {
    "__init__": "def __init__(self, {params}):{sets}",
    "__repr__": "def __repr__(self):\n    return '%s({shown})' % (type(self).__name__, {mine})",
    "__eq__": (
        "def __eq__(self, other):\n"
        "    if type(other) is type(self):\n"
        "        return {same}\n"
        "    return NotImplemented"
    ),
    "__hash__": "def __hash__(self):\n    return hash(({mine}))",
    "__reduce__": "def __reduce__(self):\n    return (type(self), ({mine}))",
}


def _write(cls: type, name: str):
    """Write method ``name`` of the class in ``cls``'s MRO that names the
    fields, set it on that class and return it."""
    owner = next(c for c in cls.__mro__ if "__match_args__" in c.__dict__)
    fields = owner.__match_args__
    mine = "".join(f"self.{f}, " for f in fields)  # the items of the fields' tuple
    if len(fields) == 1:  # the test of 1-tuples, without building them
        same = "self.{0} is other.{0} or self.{0} == other.{0}".format(*fields)
    else:
        same = "({}) == ({})".format(mine, "".join(f"other.{f}, " for f in fields))
    sets = "".join(f"\n    set_{f}(self, {f})" for f in fields)
    if hasattr(owner, "_check"):
        sets += "\n    self._check()"
    shown = ", ".join(f"{f}=%r" for f in fields)
    text = _TEXT[name].format(params=", ".join(fields), sets=sets, shown=shown, mine=mine,
                              same=same)
    scope = {f"set_{f}": getattr(owner, f).__set__ for f in fields} if name == "__init__" else {}
    exec(text, scope)
    method = scope[name]
    method.__qualname__ = f"{owner.__qualname__}.{name}"
    if name == "__init__":
        method.__annotations__ = owner.__dict__.get("__annotations__", {})
    setattr(owner, name, method)
    return method


class Variable(_Frozen):
    """A propositional variable, identified by its name; ordered by name."""

    __slots__ = __match_args__ = ("name",)
    name: str

    def _check(self):
        name = self.name
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValidationError(f"bad variable name {name!r}")
        if _RESERVED_RE.match(name):
            raise ValidationError(
                f"{name!r} is reserved for placeholders and cannot name a variable"
            )
        if name in _KEYWORDS:
            raise ValidationError(f"{name!r} is a keyword and cannot name a variable")

    def __str__(self):
        return self.name

    # the order is hand-written: values have none of their own
    def __lt__(self, other):
        return self.name < other.name if type(other) is type(self) else NotImplemented

    def __le__(self, other):
        return self.name <= other.name if type(other) is type(self) else NotImplemented

    def __gt__(self, other):
        return self.name > other.name if type(other) is type(self) else NotImplemented

    def __ge__(self, other):
        return self.name >= other.name if type(other) is type(self) else NotImplemented


class _Node(_Frozen):
    """The base of the formula node classes.  Beyond its fields a node has
    two slots, each filled on first request and never seen by ``==``,
    ``hash``, ``repr`` or pickling, which read the fields alone:

    * ``_facts``, read through ``_kept``: the census, a 3-tuple, which
      gains the syntax tree as a fourth item when the tree is first asked
      for;
    * ``_hash``: the hash of the node's fields' tuple.  A connective's is
      built from its sides' kept hashes, bottom-up by one walk with its own
      stack (``_store_hashes``).

    Connectives write ``==``, ``repr`` and pickling by hand, each walking
    with its own stack, so a formula of any depth compares, hashes, prints,
    pickles and copies; atoms take them from ``_Value``.  Nodes have slots
    and no ``__dict__``."""

    __slots__ = ("_facts", "_hash")

    # kept: hashing an atom's fields hashes each of its variables again
    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self.__reduce__()[1])  # the fields' tuple
            _set_hash(self, h)
            return h

    @property
    def _kept(self) -> "Census":
        try:
            return self._facts
        except AttributeError:
            kept = _take_census(self)
            _set_facts(self, kept)
            return kept

    @property
    def _census(self) -> "Census":
        return self._kept[:3]

    @property
    def _tree(self) -> "SyntaxTree":
        kept = self._kept
        if len(kept) == 4:
            return kept[3]
        tree = _build_tree(self)
        _set_facts(self, kept + (tree,))
        return tree


_set_facts = _Node._facts.__set__
_set_hash = _Node._hash.__set__


class _Binary(_Node):
    """A connective: ``left`` and ``right`` are its two sides."""

    __slots__ = __match_args__ = ("left", "right")
    left: "Formula"
    right: "Formula"

    # ==, hash, repr and pickling walk with their own stacks: derived ones
    # would recurse once per level
    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or _same_connectives(self, other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            return _store_hashes(self)

    def __repr__(self):
        out: list[str] = []
        stack: list = [self]  # formulas still to show, and text
        while stack:
            f = stack.pop()
            if type(f) is str:
                out.append(f)
            elif type(f) in BINARY_NODES:
                out.append(f"{type(f).__name__}(left=")
                stack += (")", f.right, ", right=", f.left)
            else:
                out.append(repr(f))
        return "".join(out)

    def __reduce__(self):
        # the atoms and connective types in post-order, which _rebuild folds
        items: list = []
        fold(self, items.append, lambda f, left, right: items.append(type(f)))
        return (_rebuild, (tuple(items),))


def _rebuild(items: tuple) -> "Formula":
    """The formula whose atoms and connective types are ``items``, in
    post-order: each type takes the last two formulas built."""
    built: list = []
    for item in items:
        if isinstance(item, type):
            right = built.pop()
            built[-1] = item(built[-1], right)
        else:
            built.append(item)
    return built[0]


def _same_connectives(a: "_Binary", b: "_Binary") -> bool:
    """``a == b`` for two connectives of one type, with its own stack: pairs
    of connectives of one type are taken apart, any other pair compares by
    its own ``==``, which does not recurse."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        t = type(a)
        if t is type(b) and t in BINARY_NODES:
            stack.append((a.right, b.right))
            stack.append((a.left, b.left))
        elif a != b:
            return False
    return True


def _store_hashes(phi: "_Binary") -> int:
    """The hash of ``phi``, kept on it and on each connective below it
    that has none yet, bottom-up with its own stack: by the time a
    connective's tuple of sides is hashed, each side keeps its hash."""
    stack: list = [phi]
    while stack:
        f = stack.pop()
        if f is _BUILD:
            f = stack.pop()
            _set_hash(f, hash((f.left, f.right)))
        elif type(f) in BINARY_NODES:
            try:
                f._hash
            except AttributeError:
                stack += (f, _BUILD, f.right, f.left)
    return phi._hash


class _Literal(_Node):
    """A variable or a negated variable."""

    __slots__ = __match_args__ = ("var",)
    var: Variable


class PosVar(_Literal):
    __slots__ = ()


class NegVar(_Literal):
    __slots__ = ()


class _Constant(_Node):
    """An atom without fields: every two of one type are equal."""

    __slots__ = __match_args__ = ()


class Bottom(_Constant):
    __slots__ = ()


class Top(_Constant):
    __slots__ = ()


class Dep(_Node):
    """Dependence atom ``=(args; target)``: within a team, the target's
    value is a function of the argument values.  Empty args is the
    constancy atom ``=(target)``."""

    __slots__ = __match_args__ = ("args", "target")
    args: tuple[Variable, ...]
    target: Variable


class Placeholder(_Node):
    """Numbered hole ``r<index>`` filled by uniform substitution."""

    __slots__ = __match_args__ = ("index",)
    index: int

    def _check(self):
        if self.index < 1:
            raise ValidationError("placeholder indices start at r1")


class And(_Binary):
    __slots__ = ()


class Tensor(_Binary):
    __slots__ = ()


class IDisj(_Binary):
    __slots__ = ()


class Impl(_Binary):
    __slots__ = ()


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


class TreeNode(_Frozen):
    """One occurrence of a subformula within a syntax tree: its ``id``, its
    ``formula``, the id of its ``parent`` (``None`` at the root), the ids
    of its ``children`` and its ``depth``."""

    __slots__ = __match_args__ = ("id", "formula", "parent", "children", "depth")
    id: int
    formula: Formula
    parent: Optional[int]
    children: tuple[int, ...]
    depth: int


class SyntaxTree(_Frozen):
    """Node-identified full binary tree of a formula: its ``nodes`` by id,
    and the id of its ``root``.

    Node ids are assigned in pre-order, so the root is node 0.  Distinct
    occurrences of one subformula get distinct ids.
    """

    __slots__ = __match_args__ = ("nodes", "root")

    # hand-written, for the default
    def __init__(self, nodes: tuple[TreeNode, ...], root: int = 0):
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "root", root)

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
