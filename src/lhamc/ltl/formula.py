"""Linear temporal logic: syntax tree, parser, negation normal form.

Concrete syntax::

    f ::= ident | true | false | ~ f | [] f | <> f | X f
        | f /\\ f | f \\/ f | f -> f | f U f | f R f | ( f )

Unary operators bind tightest, then U and R (right associative), then
conjunction, disjunction, and implication (right associative), loosest last.
Identifiers may contain hyphens and a trailing question mark, so atomic
propositions like ``one-down`` and ``refill1?`` parse as single names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable

from ..core import ModelError


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    sub: Formula


@dataclass(frozen=True)
class Always(Formula):
    sub: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    sub: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<lbox>\[\])
      | (?P<diamond><>)
      | (?P<and>/\\)
      | (?P<or>\\/)
      | (?P<implies>->)
      | (?P<not>~)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*\??)
    )""",
    re.VERBOSE,
)

_KEYWORDS = {"X", "U", "R", "true", "false"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ModelError(f"cannot read formula at: {rest!r}")
        pos = m.end()
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "ident" and value in _KEYWORDS:
            kind = value
        tokens.append((kind, value))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> None:
        if self.peek() != kind:
            got = self.tokens[self.pos][1] if self.pos < len(self.tokens) else "end of input"
            raise ModelError(f"expected {kind!r} but found {got!r}")
        self.pos += 1

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "implies":
            self.take()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek() == "or":
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.until_release()
        while self.peek() == "and":
            self.take()
            f = And(f, self.until_release())
        return f

    def until_release(self) -> Formula:
        left = self.unary()
        if self.peek() == "U":
            self.take()
            return Until(left, self.until_release())
        if self.peek() == "R":
            self.take()
            return Release(left, self.until_release())
        return left

    def unary(self) -> Formula:
        kind = self.peek()
        if kind == "not":
            self.take()
            return Not(self.unary())
        if kind == "lbox":
            self.take()
            return Always(self.unary())
        if kind == "diamond":
            self.take()
            return Eventually(self.unary())
        if kind == "X":
            self.take()
            return Next(self.unary())
        return self.primary()

    def primary(self) -> Formula:
        kind = self.peek()
        if kind == "true":
            self.take()
            return Top()
        if kind == "false":
            self.take()
            return Bottom()
        if kind == "ident":
            return Prop(self.take()[1])
        if kind == "lparen":
            self.take()
            f = self.implication()
            self.expect("rparen")
            return f
        got = self.tokens[self.pos][1] if self.pos < len(self.tokens) else "end of input"
        raise ModelError(f"expected a formula but found {got!r}")


# Parsing and the public walks below recurse once per nesting level; past
# Python's recursion limit each fails closed with this ModelError.
TOO_DEEP = "input nests too deeply"


def fail_closed(walk: Callable[..., Any], *args: Any) -> Any:
    """``walk(*args)``, raising ModelError(TOO_DEEP) where it would overflow."""
    try:
        return walk(*args)
    except RecursionError:
        raise ModelError(TOO_DEEP) from None


def parse_formula(text: str) -> Formula:
    tokens = _tokenize(text)
    if not tokens:
        raise ModelError("empty formula")
    parser = _Parser(tokens)
    formula = fail_closed(_Parser.implication, parser)
    if parser.pos != len(tokens):
        raise ModelError(f"trailing input after formula: {tokens[parser.pos][1]!r}")
    return formula


def render(f: Formula) -> str:
    """Reparseable text; binary subterms are parenthesized."""
    return fail_closed(_render, f)


def _render(f: Formula) -> str:
    match f:
        case Top():
            return "true"
        case Bottom():
            return "false"
        case Prop(name):
            return name
        case Not(sub):
            return f"~ {_render(sub)}"
        case Next(sub):
            return f"X {_render(sub)}"
        case Always(sub):
            return f"[] {_render(sub)}"
        case Eventually(sub):
            return f"<> {_render(sub)}"
        case And(a, b):
            return f"({_render(a)} /\\ {_render(b)})"
        case Or(a, b):
            return f"({_render(a)} \\/ {_render(b)})"
        case Implies(a, b):
            return f"({_render(a)} -> {_render(b)})"
        case Until(a, b):
            return f"({_render(a)} U {_render(b)})"
        case Release(a, b):
            return f"({_render(a)} R {_render(b)})"
    raise ModelError(f"not a formula: {f!r}")


def to_nnf(f: Formula) -> Formula:
    """Push negations down to propositions and expand implications."""
    return fail_closed(_nnf, f)


def negated_nnf(f: Formula) -> Formula:
    """NNF of the negation of f."""
    return fail_closed(_nnf, f, True)


def _nnf(f: Formula, negate: bool = False) -> Formula:
    """Negation normal form of f, or of ~f when ``negate``: a negation
    swaps each operator for its dual."""
    match f:
        case Top():
            return Bottom() if negate else f
        case Bottom():
            return Top() if negate else f
        case Prop(_):
            return Not(f) if negate else f
        case Not(sub):
            return _nnf(sub, not negate)
        case And(a, b):
            return (Or if negate else And)(_nnf(a, negate), _nnf(b, negate))
        case Or(a, b):
            return (And if negate else Or)(_nnf(a, negate), _nnf(b, negate))
        case Implies(a, b):
            return (And if negate else Or)(_nnf(a, not negate), _nnf(b, negate))
        case Next(a):
            return Next(_nnf(a, negate))
        case Always(a):
            return (Eventually if negate else Always)(_nnf(a, negate))
        case Eventually(a):
            return (Always if negate else Eventually)(_nnf(a, negate))
        case Until(a, b):
            return (Release if negate else Until)(_nnf(a, negate), _nnf(b, negate))
        case Release(a, b):
            return (Until if negate else Release)(_nnf(a, negate), _nnf(b, negate))
    raise ModelError(f"not a formula: {f!r}")


def props_of(f: Formula) -> frozenset[str]:
    return fail_closed(_props, f)


def _props(f: Formula) -> frozenset[str]:
    match f:
        case Prop(name):
            return frozenset({name})
        case Top() | Bottom():
            return frozenset()
        case Not(sub) | Next(sub) | Always(sub) | Eventually(sub):
            return _props(sub)
        case And(a, b) | Or(a, b) | Implies(a, b) | Until(a, b) | Release(a, b):
            return _props(a) | _props(b)
    raise ModelError(f"not a formula: {f!r}")


def temporal_count(f: Formula) -> int:
    """Number of temporal operator occurrences (bounds oracle search depth)."""
    return fail_closed(_temporal_count, f)


def _temporal_count(f: Formula) -> int:
    match f:
        case Top() | Bottom() | Prop(_):
            return 0
        case Not(sub):
            return _temporal_count(sub)
        case Next(sub) | Always(sub) | Eventually(sub):
            return 1 + _temporal_count(sub)
        case And(a, b) | Or(a, b) | Implies(a, b):
            return _temporal_count(a) + _temporal_count(b)
        case Until(a, b) | Release(a, b):
            return 1 + _temporal_count(a) + _temporal_count(b)
    raise ModelError(f"not a formula: {f!r}")
