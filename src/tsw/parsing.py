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

Parentheses (and, in InqL mode, negations) may nest at most
``MAX_NESTING_DEPTH`` deep; deeper input raises ``ParseError`` rather
than exhausting Python's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .formulas import (
    And,
    Bottom,
    Dep,
    Formula,
    IDisj,
    Impl,
    Placeholder,
    PosVar,
    NegVar,
    Tensor,
    Top,
    Variable,
)

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<arrow>->)
      | (?P<ident>[a-z][a-zA-Z0-9_]*)
      | (?P<sym>[&+|()=;,])
      | (?P<neg>[~!])
    """,
    re.VERBOSE,
)

_PLACEHOLDER_RE = re.compile(r"r([0-9]+)\Z")

# Each level of nesting costs the parser about six stack frames.
MAX_NESTING_DEPTH = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # "arrow", "ident", "neg", one of "&+|()=;,", or "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            kind = m.group() if m.lastgroup == "sym" else m.lastgroup
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, mode: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.mode = mode
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.take()

    def formula(self) -> Formula:
        out = self.impl()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)
        return out

    def nested(self, parse_inner, tok: _Token) -> Formula:
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_NESTING_DEPTH} levels", tok.pos)
        out = parse_inner()
        self.depth -= 1
        return out

    def impl(self) -> Formula:
        parts = [self.idisj()]
        while self.peek().kind == "arrow":
            self.take()
            parts.append(self.idisj())
        out = parts.pop()
        while parts:
            out = Impl(parts.pop(), out)
        return out

    def idisj(self) -> Formula:
        out = self.tensor()
        while self.peek().kind == "|":
            self.take()
            out = IDisj(out, self.tensor())
        return out

    def tensor(self) -> Formula:
        out = self.conj()
        while self.peek().kind == "+":
            self.take()
            out = Tensor(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.unit()
        while self.peek().kind == "&":
            self.take()
            out = And(out, self.unit())
        return out

    def unit(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.take()
            out = self.nested(self.impl, tok)
            self.expect(")")
            return out
        return self.atom()

    def atom(self) -> Formula:
        tok = self.take()
        if tok.kind == "neg":
            if self.mode == "inql":
                return Impl(self.nested(self.unit, tok), Bottom())
            ident = self.peek()
            if ident.kind != "ident":
                raise ParseError("negation applies only to a variable", ident.pos)
            return NegVar(self._variable(self.take()))
        if tok.kind == "=":
            return self._dep(tok)
        if tok.kind == "ident":
            if tok.text == "bot":
                return Bottom()
            if tok.text == "top":
                return Top()
            m = _PLACEHOLDER_RE.match(tok.text)
            if m:
                index = int(m.group(1))
                if index == 0:
                    raise ParseError("placeholder indices start at r1", tok.pos)
                return Placeholder(index)
            return PosVar(self._variable(tok))
        raise ParseError(f"expected an atom, found {tok.text or 'end of input'!r}", tok.pos)

    def _variable(self, tok: _Token) -> Variable:
        if tok.text in ("bot", "top") or _PLACEHOLDER_RE.match(tok.text):
            raise ParseError(f"reserved name {tok.text!r} cannot be a variable", tok.pos)
        return Variable(tok.text)

    def _dep(self, eq_tok: _Token) -> Formula:
        self.expect("(")
        names = [self._variable(self.expect("ident"))]
        has_args = False
        while self.peek().kind == ",":
            self.take()
            names.append(self._variable(self.expect("ident")))
        if self.peek().kind == ";":
            self.take()
            has_args = True
            target = self._variable(self.expect("ident"))
        elif len(names) > 1:
            raise ParseError("expected ';' before the dependence target", self.peek().pos)
        else:
            target = names.pop()
        self.expect(")")
        args = tuple(names) if has_args else ()
        return Dep(args, target)


def parse(text: str, mode: str = "pt0") -> Formula:
    """Parse ``text`` into a formula.

    ``mode`` is ``"pt0"`` (default; negation only before a variable) or
    ``"inql"`` (negation is sugar for implication into ``bot``).
    """
    if mode not in ("pt0", "inql"):
        raise ValueError(f"unknown parse mode {mode!r}")
    return _Parser(text, mode).formula()
