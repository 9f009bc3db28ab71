"""Text grammar for formulas.

    formula := impl
    impl    := idisj ("->" impl)?          right-associative
    idisj   := tensor ("|" tensor)*        left-associative
    tensor  := conj ("+" conj)*            left-associative
    conj    := unit ("&" unit)*            left-associative
    unit    := atom | "(" formula ")"
    atom    := ident | neg ident | "bot" | "top"
             | "=(" [ident ("," ident)* ";"] ident ")" | "r" digits
    neg     := "~" | "!"

Whitespace is insignificant; tokens are ASCII.  Binding, tightest first:
atoms and negation, ``&``, ``+``, ``|``, ``->``.  Identifiers of the shape
``r<digits>`` are placeholders and cannot name variables; ``bot`` and
``top`` are keywords.

In the default mode negation is only legal immediately before a variable
(it forms a negated-variable atom).  ``parse(text, mode="inql")`` instead
reads ``~x`` as sugar for ``x -> bot``, applied to any unit, which keeps
the result inside the InqL fragment.

``parse`` scans the whole text with one regular expression, so a bad
character is reported before any grammar error, and then builds the tree
with one operator-precedence loop over the tokens; it does not recurse.
Parentheses (and, in InqL mode, negations) may still nest at most
``MAX_NESTING_DEPTH`` deep; deeper input raises ``ParseError``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional

from .errors import ParseError
from .formulas import (
    And,
    Bottom,
    Dep,
    Formula,
    IDisj,
    Impl,
    NegVar,
    Placeholder,
    PosVar,
    Tensor,
    Top,
    Variable,
)

# One match per token, whose group is its text; a character that starts no
# token matches outside the group, so it reads as "".
_TOKEN_RE = re.compile(r"\s*(?:([a-z][a-zA-Z0-9_]*|[~!]|->|[&+|()=;,])|\S)")
_SYMBOLS = frozenset(("", "(", ")", "~", "!", "=", ";", ",", "&", "+", "|", "->"))
_NEGATIONS = ("~", "!")

_PLACEHOLDER_RE = re.compile(r"r([0-9]+)\Z")

# An input bound: the parser and every formula walk keep their own stacks,
# but the formulas' generated ==/hash still recurse once per nesting level.
MAX_NESTING_DEPTH = 100

# Binding power of each binary connective, and its node type by power.  An
# incoming connective first builds every stacked one that binds at least as
# tightly as it does (so "->", of power 0, builds none of its own kind).
_POWER = {"&": 3, "+": 2, "|": 1, "->": 0}
_NODE = (Impl, IDisj, Tensor, And)
_OPEN = -1  # an open parenthesis on the operator stack
_NEG = -2  # a pending InqL negation on the operator stack


class _Tokens(list):
    """The tokens of a text, then "" for its end; positions are found again
    only for an error."""

    def __init__(self, text: str):
        super().__init__(_TOKEN_RE.findall(text))
        self.text = text
        if "" in self:
            m = next(m for m in _TOKEN_RE.finditer(text) if m[1] is None)
            raise ParseError(f"unexpected character {m[0][-1]!r}", m.end() - 1)
        self.append("")

    def error(self, i: int, message: str) -> ParseError:
        ends = [m.end() for m in _TOKEN_RE.finditer(self.text)]
        return ParseError(message, ends[i] - len(self[i]) if i < len(ends) else len(self.text))

    def expect(self, i: int, kind: str) -> str:
        tok = self[i]
        if tok == kind or (kind == "ident" and tok not in _SYMBOLS):
            return tok
        raise self.error(i, f"expected {kind!r}, found {tok or 'end of input'!r}")

    def variable(self, i: int) -> Variable:
        leaf = _leaf(self.expect(i, "ident"))
        if type(leaf) is not PosVar:
            raise self.error(i, f"reserved name {self[i]!r} cannot be a variable")
        return leaf.var

    def dep(self, i: int) -> tuple[Dep, int]:
        """The dependence atom whose ``(`` is token ``i``, and the index past it."""
        self.expect(i, "(")
        names = [self.variable(i + 1)]
        i += 2
        while self[i] == ",":
            names.append(self.variable(i + 1))
            i += 2
        if self[i] == ";":
            target = self.variable(i + 1)
            i += 2
        elif len(names) > 1:
            raise self.error(i, "expected ';' before the dependence target")
        else:
            target = names.pop()
        self.expect(i, ")")
        return Dep(tuple(names), target), i + 1


@lru_cache(maxsize=1024)
def _leaf(name: str) -> Optional[Formula]:
    """The atom an identifier stands for; None for a placeholder numbered 0."""
    if name == "bot":
        return Bottom()
    if name == "top":
        return Top()
    m = _PLACEHOLDER_RE.match(name)
    if m:
        index = int(m[1])
        return Placeholder(index) if index else None
    return PosVar(Variable(name))


def parse(text: str, mode: str = "pt0") -> Formula:
    """Parse ``text`` into a formula.

    ``mode`` is ``"pt0"`` (default; negation only before a variable) or
    ``"inql"`` (negation is sugar for implication into ``bot``).
    """
    if mode not in ("pt0", "inql"):
        raise ValueError(f"unknown parse mode {mode!r}")
    inql = mode == "inql"
    tokens = _Tokens(text)
    out: list[Formula] = []  # operands
    ops: list[int] = []  # binding powers, _OPEN and _NEG
    depth = 0
    i = 0
    while True:
        # an operand is due: open parentheses and InqL negations, then an atom
        tok = tokens[i]
        i += 1
        if tok not in _SYMBOLS:
            leaf = _leaf(tok)
            if leaf is None:
                raise tokens.error(i - 1, "placeholder indices start at r1")
            out.append(leaf)
        elif tok == "(" or (inql and tok in _NEGATIONS):
            depth += 1
            if depth > MAX_NESTING_DEPTH:
                raise tokens.error(i - 1, f"nesting deeper than {MAX_NESTING_DEPTH} levels")
            ops.append(_OPEN if tok == "(" else _NEG)
            continue
        elif tok in _NEGATIONS:
            if tokens[i] in _SYMBOLS:
                raise tokens.error(i, "negation applies only to a variable")
            out.append(NegVar(tokens.variable(i)))
            i += 1
        elif tok == "=":
            atom, i = tokens.dep(i)
            out.append(atom)
        else:
            raise tokens.error(i - 1, f"expected an atom, found {tok or 'end of input'!r}")
        # a unit is complete: negate it, then read connectives and closing
        # parentheses until another operand is due
        while True:
            while ops and ops[-1] == _NEG:
                ops.pop()
                depth -= 1
                out[-1] = Impl(out[-1], Bottom())
            tok = tokens[i]
            i += 1
            power = _POWER.get(tok)
            floor = 0 if power is None else power or 1
            while ops and ops[-1] >= floor:
                right = out.pop()
                out[-1] = _NODE[ops.pop()](out[-1], right)
            if power is not None:
                ops.append(power)
                break
            if tok == ")" and ops:
                ops.pop()
                depth -= 1
            elif not tok and not ops:
                return out[0]
            elif _OPEN in ops:
                raise tokens.error(i - 1, f"expected ')', found {tok or 'end of input'!r}")
            else:
                raise tokens.error(i - 1, f"trailing input {tok!r}")
