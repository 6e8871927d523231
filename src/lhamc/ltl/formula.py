"""Linear temporal logic: syntax tree, parser, negation normal form.

Concrete syntax::

    f ::= ident | true | false | ~ f | [] f | <> f | X f
        | f /\\ f | f \\/ f | f -> f | f U f | f R f | ( f )

Binary operators, loosest first: ``->`` (right), ``\\/`` (left), ``/\\``
(left), then ``U`` and ``R`` (right).  The prefix operators ``~ [] <> X``
bind tighter than any of them.  Identifiers may contain hyphens and a
trailing question mark, so atomic propositions like ``one-down`` and
``refill1?`` parse as single names.

Each operator is stated once, in one table, ``_OPERATORS``: its symbol, its
precedence and associativity, and its dual under negation.  The tokenizer,
parser, printer and negation normal form all read that row.

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
        """The node with these fields, made and filled on first request;
        the arguments bind to the fields as a dataclass ``__init__`` would
        bind them."""
        names = cls.__match_args__
        if kwargs:
            if kwargs.keys() - names[len(args):]:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated keyword among {sorted(kwargs)}")
            args += tuple(kwargs[name] for name in names[len(args):] if name in kwargs)
        if len(args) != len(names):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, got {len(args)} arguments")
        key = (cls, *args)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = super().__new__(cls)
            for name, value in zip(names, args):
                object.__setattr__(node, name, value)
        return node

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@dataclass(frozen=True, eq=False, init=False)
class Top(Formula):
    pass


@dataclass(frozen=True, eq=False, init=False)
class Bottom(Formula):
    pass


@dataclass(frozen=True, eq=False, init=False)
class Prop(Formula):
    name: str


@dataclass(frozen=True, eq=False, init=False)
class Unary(Formula):
    sub: Formula


@dataclass(frozen=True, eq=False, init=False)
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


# Each operator once, by its node class: its symbol, its binary precedence
# level (loosest 0) and whether it associates to the right, both None for a
# prefix operator or a constant, and the operator a negation swaps it for,
# None where the negation normal form rewrites it instead.
_OPERATORS: dict[type, tuple[str, int | None, bool | None, type | None]] = {
    Top: ("true", None, None, Bottom),
    Bottom: ("false", None, None, Top),
    Not: ("~", None, None, None),
    Next: ("X", None, None, Next),
    Always: ("[]", None, None, Eventually),
    Eventually: ("<>", None, None, Always),
    Implies: ("->", 0, True, None),
    Or: ("\\/", 1, False, And),
    And: ("/\\", 2, False, Or),
    Until: ("U", 3, True, Release),
    Release: ("R", 3, True, Until),
}
_NODE_OF = {row[0]: node for node, row in _OPERATORS.items()}  # each symbol's node class

# The identifier alternative comes first, so an identifier that spells a
# symbol (X, U, R, true, false) is read whole, and then as that operator.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*\??)|(?P<lparen>\()|(?P<rparen>\))|(?P<op>"
    + "|".join(map(re.escape, sorted(_NODE_OF, key=len, reverse=True)))
    + "))"
)


def _tokenize(text: str) -> list[tuple[Any, str]]:
    """(kind, text) tokens: the kind is an operator's node class, or
    ``ident``, ``lparen`` or ``rparen``."""
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
        value = m.group(m.lastgroup)
        tokens.append((_NODE_OF.get(value, m.lastgroup), value))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[Any, str]]):
        self.tokens = [*tokens, (None, "end of input")]
        self.pos = 0

    def peek(self) -> Any:
        return self.tokens[self.pos][0]

    def binary(self, loosest: int = 0) -> Formula:
        """A formula whose binary operators are at level ``loosest`` or
        tighter, by precedence climbing."""
        f = self.unary()
        while (node := self.peek()) in _OPERATORS and issubclass(node, Binary):
            _, level, right, _ = _OPERATORS[node]
            if level < loosest:
                break
            self.pos += 1
            f = node(f, self.binary(level if right else level + 1))
        return f

    def unary(self) -> Formula:
        node = self.peek()
        if node not in _OPERATORS or not issubclass(node, Unary):
            return self.primary()
        self.pos += 1
        return node(self.unary())

    def primary(self) -> Formula:
        kind, text = self.tokens[self.pos]
        self.pos += 1
        if kind == "ident":
            return Prop(text)
        if kind in _OPERATORS and not issubclass(kind, Binary):  # a constant
            return kind()
        if kind == "lparen":
            f = self.binary()
            if self.peek() != "rparen":
                raise ModelError(f"expected 'rparen' but found {self.tokens[self.pos][1]!r}")
            self.pos += 1
            return f
        raise ModelError(f"expected a formula but found {text!r}")


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
        case Unary(sub):
            return f"{_OPERATORS[type(f)][0]} {_render(sub)}"
        case Binary(a, b):
            return f"({_render(a)} {_OPERATORS[type(f)][0]} {_render(b)})"
        case Top() | Bottom():
            return _OPERATORS[type(f)][0]
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
    node = _OPERATORS[type(f)][3] if negate and type(f) in _OPERATORS else type(f)
    match f:
        case Prop(_):
            return Not(f) if negate else f
        case Not(sub):
            return _nnf(sub, not negate)
        case Implies(a, b):
            return (And if negate else Or)(_nnf(a, not negate), _nnf(b, negate))
        case Unary(a):
            return node(_nnf(a, negate))
        case Binary(a, b):
            return node(_nnf(a, negate), _nnf(b, negate))
        case Top() | Bottom():
            return node()
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
