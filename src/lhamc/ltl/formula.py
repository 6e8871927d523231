"""Linear temporal logic: syntax tree, parser, negation normal form.

Concrete syntax::

    f ::= ident | true | false | ~ f | [] f | <> f | X f
        | f /\\ f | f \\/ f | f -> f | f U f | f R f | ( f )

Binary operators, loosest first:

    ======  =============  ==========
    level   operators      associates
    ======  =============  ==========
    0       ``->``         right
    1       ``\\/``         left
    2       ``/\\``         left
    3       ``U``, ``R``   right
    ======  =============  ==========

The prefix operators ``~ [] <> X`` bind tighter than any of them.
Identifiers may contain hyphens and a trailing question mark, so atomic
propositions like ``one-down`` and ``refill1?`` parse as single names.

Formula nodes are interned: building the same structure twice returns the
same object, so equality is identity and hashing never walks the tree, at
any depth.  Keyword construction, ``copy``, ``deepcopy`` and ``pickle``
return the interned node too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator
from weakref import WeakValueDictionary

from ..core import ModelError

_NODES: WeakValueDictionary[tuple, Formula] = WeakValueDictionary()


class Formula:
    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> Formula:
        """The node with these fields, made on first request.  The
        dataclass ``__init__`` then checks the arguments and sets the same
        values again."""
        if kwargs:
            args += tuple(kwargs[name] for name in cls.__match_args__[len(args):] if name in kwargs)
        key = (cls, *args)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = super().__new__(cls)
        return node

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@dataclass(frozen=True, eq=False)
class Top(Formula):
    pass


@dataclass(frozen=True, eq=False)
class Bottom(Formula):
    pass


@dataclass(frozen=True, eq=False)
class Prop(Formula):
    name: str


@dataclass(frozen=True, eq=False)
class Unary(Formula):
    sub: Formula


@dataclass(frozen=True, eq=False)
class Binary(Formula):
    left: Formula
    right: Formula


class Not(Unary):
    pass


class Next(Unary):
    pass


class Always(Unary):
    pass


class Eventually(Unary):
    pass


class And(Binary):
    pass


class Or(Binary):
    pass


class Implies(Binary):
    pass


class Until(Binary):
    pass


class Release(Binary):
    pass


# Each operator once: the token kind that builds it, its binary precedence
# level (loosest 0) and whether it associates to the right, its printed
# symbol, and the operator a negation swaps it for.
_CONSTANT = {"true": Top, "false": Bottom}
_PREFIX = {"not": Not, "lbox": Always, "diamond": Eventually, "X": Next}
_INFIX = {
    "implies": (Implies, 0, True),
    "or": (Or, 1, False),
    "and": (And, 2, False),
    "U": (Until, 3, True),
    "R": (Release, 3, True),
}
_SYMBOL = {
    Top: "true",
    Bottom: "false",
    Not: "~",
    Next: "X",
    Always: "[]",
    Eventually: "<>",
    And: "/\\",
    Or: "\\/",
    Implies: "->",
    Until: "U",
    Release: "R",
}
_DUAL = {
    Top: Bottom,
    Bottom: Top,
    Next: Next,
    Always: Eventually,
    Eventually: Always,
    And: Or,
    Or: And,
    Until: Release,
    Release: Until,
}


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

    def binary(self, loosest: int = 0) -> Formula:
        """A formula whose binary operators are at level ``loosest`` or
        tighter, by precedence climbing."""
        f = self.unary()
        while (infix := _INFIX.get(self.peek())) is not None and infix[1] >= loosest:
            node, level, right = infix
            self.take()
            f = node(f, self.binary(level if right else level + 1))
        return f

    def unary(self) -> Formula:
        node = _PREFIX.get(self.peek())
        if node is None:
            return self.primary()
        self.take()
        return node(self.unary())

    def primary(self) -> Formula:
        kind = self.peek()
        if kind in _CONSTANT:
            self.take()
            return _CONSTANT[kind]()
        if kind == "ident":
            return Prop(self.take()[1])
        if kind == "lparen":
            self.take()
            f = self.binary()
            self.expect("rparen")
            return f
        got = self.tokens[self.pos][1] if self.pos < len(self.tokens) else "end of input"
        raise ModelError(f"expected a formula but found {got!r}")


# Parsing and the recursive walks below recurse once per nesting level; past
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
    formula = fail_closed(_Parser.binary, parser)
    if parser.pos != len(tokens):
        raise ModelError(f"trailing input after formula: {tokens[parser.pos][1]!r}")
    return formula


def render(f: Formula) -> str:
    """Reparseable text; binary subterms are parenthesized."""
    return fail_closed(_render, f)


def _render(f: Formula) -> str:
    match f:
        case Prop(name):
            return name
        case Top() | Bottom():
            return _SYMBOL[type(f)]
        case Unary(sub):
            return f"{_SYMBOL[type(f)]} {_render(sub)}"
        case Binary(a, b):
            return f"({_render(a)} {_SYMBOL[type(f)]} {_render(b)})"
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
        case Prop(_):
            return Not(f) if negate else f
        case Not(sub):
            return _nnf(sub, not negate)
        case Implies(a, b):
            return (And if negate else Or)(_nnf(a, not negate), _nnf(b, negate))
        case Top() | Bottom():
            return _DUAL[type(f)]() if negate else f
        case Unary(a):
            return (_DUAL[type(f)] if negate else type(f))(_nnf(a, negate))
        case Binary(a, b):
            return (_DUAL[type(f)] if negate else type(f))(_nnf(a, negate), _nnf(b, negate))
    raise ModelError(f"not a formula: {f!r}")


def subformulas(f: Formula) -> Iterator[Formula]:
    """f and every occurrence of a formula inside it, in preorder, left
    before right, without recursion."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Unary):
            stack.append(g.sub)
        elif isinstance(g, Binary):
            stack += (g.right, g.left)
        elif not isinstance(g, Formula):
            raise ModelError(f"not a formula: {g!r}")
        yield g


def props_of(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Prop))
