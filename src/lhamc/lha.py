"""Linear hybrid automata with constant rates and affine constraints.

Flows are linear (constant rate per location), so along any timed step each
affine constraint is monotone in time and checking the step's endpoint is
sound.  Discrete jumps are guarded by affine constraints and reset variables
through simultaneous affine assignments.

:class:`Lha` describes an automaton with ``Fraction`` rates and constraints,
as a model file does.  :class:`LhaSystem` compiles it once into integer rows
and computes on integers: its :class:`LhaState`s hold the location and
integer variable numerators over one common denominator, and a state is
read and identified through its canonical text.

The same linearity gives a run of equal ticks in closed form: at the k-th
tick each constraint's value is ``a + k * b`` for integers ``a`` and ``b``,
and so is each jump's guard, and its target's invariant after its
assignments.  :meth:`LhaSystem.timed_trace` finds the first blocked tick, and
the one interval of ticks on which each jump is enabled, with one integer
division per constraint.  That splits the run into at most 2E + 1 segments
of equal enabled labels, for the E jumps out of its location, and each
variable's texts are one arithmetic progression, rendered by
:func:`lhamc.core.fraction_texts`; no state is built.  The texts and labels
are those of :meth:`LhaSystem.timed_successor` called once per tick.
:meth:`LhaSystem.quiet` ends a stretch at the first blocked tick or jump by
the same intervals, and :meth:`LhaSystem.quiet_run` uses the same progressions.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add
from typing import Any

from .core import (
    ZERO,
    Doc,
    ModelError,
    Segment,
    TickTables,
    TimedTransitionSystem,
    fraction_text,
    fraction_texts,
    parse_rational,
)

# The signs of an affine expression that satisfy each relation against zero.
_SIGNS = {"<": (-1,), "<=": (-1, 0), "=": (0,), ">=": (0, 1), ">": (1,)}
RELATIONS = tuple(_SIGNS)


@dataclass(frozen=True)
class AffineExpr:
    """sum(coeffs[v] * v) + const, with zero coefficients dropped."""

    coeffs: Mapping[str, Fraction]
    const: Fraction = ZERO

    @classmethod
    def make(cls, coeffs: Mapping[str, Any], const: Any = 0) -> "AffineExpr":
        cleaned = {}
        for var, c in coeffs.items():
            value = parse_rational(c)
            if value != 0:
                cleaned[str(var)] = value
        return cls(cleaned, parse_rational(const))


@dataclass(frozen=True)
class AffineConstraint:
    """expr rel 0, with rel one of < <= = >= >."""

    expr: AffineExpr
    rel: str

    def __post_init__(self) -> None:
        if self.rel not in RELATIONS:
            raise ModelError(f"unknown relation {self.rel!r}, expected one of {RELATIONS}")


@dataclass(frozen=True)
class Assignment:
    """var := expr, evaluated over the pre-jump valuation."""

    var: str
    expr: AffineExpr


@dataclass(frozen=True)
class Location:
    name: str
    rates: Mapping[str, Fraction]
    invariant: tuple[AffineConstraint, ...] = ()
    # Extra strict conditions checked at the *start* of a timed step only.
    # Lets a model stay admissible at a boundary (invariant x >= c) while
    # refusing to let time pass from it (tick_guard x > c).
    tick_guard: tuple[AffineConstraint, ...] = ()


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    label: str
    guard: tuple[AffineConstraint, ...] = ()
    assignments: tuple[Assignment, ...] = ()


@dataclass(frozen=True)
class Lha:
    variables: tuple[str, ...]
    locations: tuple[Location, ...]
    edges: tuple[Edge, ...]
    initial_location: str
    initial_valuation: Mapping[str, Fraction]

    def __post_init__(self) -> None:
        if not self.variables:
            raise ModelError("an automaton needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ModelError("duplicate variable names")
        names = [loc.name for loc in self.locations]
        if len(set(names)) != len(names):
            raise ModelError("duplicate location names")
        declared = set(self.variables)
        for loc in self.locations:
            extra = set(loc.rates) - declared
            if extra:
                raise ModelError(f"location {loc.name}: rates for unknown variables {sorted(extra)}")
            _check_variables(loc.invariant, declared, f"location {loc.name}: invariant")
            _check_variables(loc.tick_guard, declared, f"location {loc.name}: tick guard")
        by_name = {loc.name: loc for loc in self.locations}
        for edge in self.edges:
            if edge.source not in by_name or edge.target not in by_name:
                raise ModelError(f"edge {edge.label}: unknown location {edge.source!r} or {edge.target!r}")
            _check_variables(edge.guard, declared, f"edge {edge.label}: guard")
            for a in edge.assignments:
                if a.var not in declared:
                    raise ModelError(f"edge {edge.label}: assignment to unknown variable {a.var!r}")
                _check_variables((a,), declared, f"edge {edge.label}: assignment to {a.var}")
        if self.initial_location not in by_name:
            raise ModelError(f"unknown initial location {self.initial_location!r}")
        if set(self.initial_valuation) != declared:
            raise ModelError("initial valuation must cover exactly the declared variables")
        # The endpoint-only invariant check in timed_successor is sound only
        # for segments that start inside the invariant.
        index = {var: i for i, var in enumerate(self.variables)}
        invariant = tuple(_row(c, index) for c in by_name[self.initial_location].invariant)
        if not _satisfied(invariant, *_scaled(index, self.initial_valuation)):
            raise ModelError(f"initial valuation violates the invariant of location {self.initial_location!r}")
        object.__setattr__(self, "_by_name", by_name)  # not a field: no part of eq or hash

    def location_named(self, name: str) -> Location:
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"unknown location {name!r}") from None


def _check_variables(
    items: tuple[AffineConstraint | Assignment, ...], declared: set[str], where: str
) -> None:
    """Reject constraints or assignments whose expression has an undeclared variable."""
    for item in items:
        for var in item.expr.coeffs:
            if var not in declared:
                raise ModelError(f"{where} mentions unknown variable {var!r}")


def two_reservoir(
    w: Any, v1: Any, v2: Any, r1: Any, r2: Any, x1: Any, x2: Any
) -> Lha:
    """Two leaking tanks sharing one hose, hose starting on tank 1.

    In location ``left`` tank 1 fills at w - v1 while tank 2 drains at v2
    and must stay at or above its threshold r2; symmetric in ``right``.
    The hose may move exactly when the other tank has hit its threshold,
    and time may pass only while that tank is strictly above it.
    """
    w, v1, v2 = parse_rational(w), parse_rational(v1), parse_rational(v2)
    r1, r2 = parse_rational(r1), parse_rational(r2)
    x1, x2 = parse_rational(x1), parse_rational(x2)
    for name, value in (("w", w), ("v1", v1), ("v2", v2), ("r1", r1), ("r2", r2), ("x1", x1), ("x2", x2)):
        if value < 0:
            raise ModelError(f"two_reservoir: {name} must be nonnegative, got {value}")
    if x1 < r1 or x2 < r2:
        raise ModelError("two_reservoir: initial levels must be at or above the thresholds")

    def above(var: str, threshold: Fraction, rel: str) -> AffineConstraint:
        return AffineConstraint(AffineExpr.make({var: 1}, -threshold), rel)

    nonneg = (above("x1", ZERO, ">="), above("x2", ZERO, ">="))
    left = Location(
        "left",
        {"x1": w - v1, "x2": -v2},
        invariant=(above("x2", r2, ">="),) + nonneg,
        tick_guard=(above("x2", r2, ">"),),
    )
    right = Location(
        "right",
        {"x1": -v1, "x2": w - v2},
        invariant=(above("x1", r1, ">="),) + nonneg,
        tick_guard=(above("x1", r1, ">"),),
    )
    edges = (
        Edge("left", "right", "moveright", guard=(above("x2", r2, "<="),)),
        Edge("right", "left", "moveleft", guard=(above("x1", r1, "<="),)),
    )
    return Lha(("x1", "x2"), (left, right), edges, "left", {"x1": x1, "x2": x2})


def _scaled(index: dict[str, int], valuation: Mapping[str, Any]) -> tuple[tuple[int, ...], int]:
    """``valuation`` (declared variables to rationals) as numerators, in
    declaration order, over the lcm of its denominators."""
    values = [parse_rational(valuation[var]) for var in index]
    den = lcm(*(v.denominator for v in values))
    return tuple(int(v * den) for v in values), den


# An affine constraint compiled to integers: (terms, const, signs) holds on
# numerators n over denominator d when the sign of
# sum(c * n[i] for i, c in terms) + const * d is in signs.
Row = tuple[tuple[tuple[int, int], ...], int, tuple[int, ...]]


def _scaled_terms(
    expr: AffineExpr, index: dict[str, int]
) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """(scale, integer terms, integer constant): expr times the lcm of its
    denominators."""
    coeffs = [parse_rational(c) for c in expr.coeffs.values()]
    const = parse_rational(expr.const)
    scale = lcm(const.denominator, *(c.denominator for c in coeffs))
    terms = tuple((index[var], int(c * scale)) for var, c in zip(expr.coeffs, coeffs))
    return scale, terms, int(const * scale)


def _row(constraint: AffineConstraint, index: dict[str, int]) -> Row:
    _, terms, const = _scaled_terms(constraint.expr, index)
    return terms, const, _SIGNS[constraint.rel]


def _satisfied(rows: tuple[Row, ...], nums: tuple[int, ...], den: int) -> bool:
    for terms, const, signs in rows:
        value = const * den
        for i, c in terms:
            value += c * nums[i]
        if (value > 0) - (value < 0) not in signs:
            return False
    return True


def _assigned(scale: int, assignments: tuple, nums: Sequence[int], den: int) -> list[int]:
    """The numerators, over ``den * scale``, after a jump's simultaneous
    assignments; they are linear in ``nums`` and ``den`` together."""
    after = [n * scale for n in nums]
    for i, terms, const in assignments:
        value = const * den
        for j, c in terms:
            value += c * nums[j]
        after[i] = value
    return after


def _assign(scale: int, assignments: tuple, nums: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """The numerators and denominator after a jump's simultaneous assignments."""
    after = _assigned(scale, assignments, nums, den)
    den *= scale
    if scale != 1:
        g = gcd(den, *after)
        den //= g
        after = [n // g for n in after]
    return tuple(after), den


def _holding(row: Row, nums: Sequence[int], vector: Sequence[int], den: int, lo: int, hi: int) -> tuple[int, int]:
    """``[lo, hi)`` narrowed to the ``i`` at which ``row`` holds on the
    numerators ``nums + i * vector`` over ``den``.  The row's value there is
    ``a + i * b``, monotone in ``i``, so this is one interval; an empty one
    comes back as ``(lo, lo)``."""
    terms, const, signs = row
    a = const * den + sum(c * nums[i] for i, c in terms)
    b = sum(c * vector[i] for i, c in terms)
    reach = 1 if 0 in signs else 0
    for side in (1, -1):
        if side in signs:
            continue
        # side * (a + i * b) must stay below reach, and moves by side * b
        value, slope = side * a, side * b
        if slope > 0:
            hi = min(hi, -((value - reach) // slope))
        elif slope < 0:
            lo = max(lo, (value - reach) // -slope + 1)
        elif value >= reach:
            hi = lo
    return lo, max(lo, hi)


class LhaState:
    """A state of a compiled automaton: its location and integer variable
    numerators, in declaration order, over one positive denominator (see
    :class:`LhaSystem`).  Its identity is its text, ``system.serialize(state)``.
    """

    __slots__ = ("location", "nums", "den")

    def __init__(self, location: str, nums: tuple[int, ...], den: int):
        self.location, self.nums, self.den = location, nums, den

    def __repr__(self) -> str:
        return f"LhaState({self.location!r}, {self.nums!r}, {self.den!r})"


class LhaSystem(TimedTransitionSystem):
    """Adapter exposing an Lha through the shared model contract.

    The automaton is compiled once: invariants, tick guards and edge guards
    become integer rows, and each edge's assignments integer rows over a
    common scale.  States are :class:`LhaState`s, which its methods take and
    return, reading and writing their numerators and denominator directly.
    """

    def __init__(self, lha: Lha):
        self.lha = lha
        index = {var: i for i, var in enumerate(lha.variables)}
        self._invariants = {loc.name: tuple(_row(c, index) for c in loc.invariant) for loc in lha.locations}
        self._tick_guards = {loc.name: tuple(_row(c, index) for c in loc.tick_guard) for loc in lha.locations}
        # source -> [(label, target, guard rows, scale, assignments, target
        # invariant rows)], in edge order; an assignment (i, terms, const) sets
        # value i to (sum(c * n[j] for j, c in terms) + const * d) / (scale * d)
        self._jumps: dict[str, list[tuple]] = {loc.name: [] for loc in lha.locations}
        for edge in lha.edges:
            assignments = [(index[a.var], *_scaled_terms(a.expr, index)) for a in edge.assignments]
            scale = lcm(*(s for _, s, _, _ in assignments))
            self._jumps[edge.source].append((
                edge.label,
                edge.target,
                tuple(_row(c, index) for c in edge.guard),
                scale,
                tuple(
                    (i, tuple((j, c * (scale // s)) for j, c in terms), const * (scale // s))
                    for i, s, terms, const in assignments
                ),
                self._invariants[edge.target],
            ))
        # duration -> location -> (tick guard rows, invariant rows, vector,
        # den): the step adds vector / den
        self._tick_tables = TickTables(self._ticks_of)
        self._initial = LhaState(lha.initial_location, *_scaled(index, lha.initial_valuation))

    def _ticks_of(self, delta: Fraction) -> dict[str, tuple]:
        """Each location's integer step for a positive ``delta``."""
        ticks = {}
        for loc in self.lha.locations:
            steps = [parse_rational(loc.rates.get(var, ZERO)) * delta for var in self.lha.variables]
            den = lcm(*(s.denominator for s in steps))
            vector = tuple(int(s * den) for s in steps)
            ticks[loc.name] = (self._tick_guards[loc.name], self._invariants[loc.name], vector, den)
        return ticks

    def initial_state(self) -> LhaState:
        return self._initial

    def discrete_successors(self, state: LhaState) -> list[tuple[str, LhaState]]:
        nums, den = state.nums, state.den
        out = []
        for label, target, guard, scale, assignments, invariant in self._jumps.get(state.location, ()):
            if not _satisfied(guard, nums, den):
                continue
            after, after_den = _assign(scale, assignments, nums, den) if assignments else (nums, den)
            if _satisfied(invariant, after, after_den):
                out.append((label, LhaState(target, after, after_den)))
        if len(out) > 1:
            out.sort(key=lambda ls: (ls[0], self.serialize(ls[1])))
        return out

    def _tick(self, location: str, delta: Fraction) -> tuple | None:
        """The location's (tick guard rows, invariant rows, vector, den) for
        ``delta``, or None for a zero duration."""
        ticks = self._tick_tables.of(delta)
        if ticks is None:
            return None
        tick = ticks.get(location)
        if tick is None:
            self.lha.location_named(location)  # raises: unknown location
        return tick

    def timed_successor(self, state: LhaState, delta: Fraction) -> LhaState | None:
        tick = self._tick(state.location, delta)
        if tick is None:
            return state
        guard, invariant, vector, step_den = tick
        nums, den = state.nums, state.den
        if not _satisfied(guard, nums, den):
            return None
        if den % step_den:
            grown = lcm(den, step_den)
            nums = tuple(n * (grown // den) for n in nums)
            den = grown
        k = den // step_den
        if k != 1:
            vector = tuple(k * s for s in vector)
        after = tuple(map(add, nums, vector))
        if not _satisfied(invariant, after, den):
            return None
        return LhaState(state.location, after, den)

    def _run(self, state: LhaState, delta: Fraction, limit: int) -> tuple | None:
        """``(nums, vector, den, ticks)``: k ticks of ``delta`` on, the state has
        numerators ``nums + k * vector`` over ``den``, grown as by :meth:`timed_successor`,
        and ``ticks``, at most ``limit``, are unblocked; None for a zero duration."""
        tick = self._tick(state.location, delta)
        if tick is None:
            return None
        guard, invariant, vector, step_den = tick
        den = lcm(state.den, step_den)
        nums = [n * (den // state.den) for n in state.nums]
        vector = [s * (den // step_den) for s in vector]
        # tick k + 1 is taken while the tick guard holds after k ticks and
        # the invariant after k + 1: the run is the interval from 0 on
        # which all those rows hold
        for rows, at in ((guard, nums), (invariant, list(map(add, nums, vector)))):
            for row in rows:
                lo, hi = _holding(row, at, vector, den, 0, limit)
                limit = hi if lo == 0 else 0
        return nums, vector, den, limit

    def _spans(self, location: str, nums: list[int], vector: list[int], den: int, end: int) -> Iterator[tuple]:
        """``(label, lo, hi)`` for each jump enabled after k ticks exactly for
        k in ``[lo, hi)``, within ``[0, end)``: where its guard rows hold, and
        its target's invariant rows after its assignments, which are affine too."""
        for label, _, guard, scale, assignments, invariant in self._jumps.get(location, ()):
            lo, hi = 0, end
            for row in guard:
                lo, hi = _holding(row, nums, vector, den, lo, hi)
            after, after_vector = _assigned(scale, assignments, nums, den), _assigned(scale, assignments, vector, 0)
            for row in invariant:
                lo, hi = _holding(row, after, after_vector, den * scale, lo, hi)
            if lo < hi:
                yield label, lo, hi

    def quiet(self, state: LhaState, delta: Fraction, limit: int) -> tuple[int, LhaState] | None:
        """The ticks until a jump is enabled or a tick blocks, from the rows'
        intervals, and the state after them.  The stretch assumes that a
        state's propositions depend on its location alone."""
        run = self._run(state, delta, limit) if limit > 1 else None
        if run is None:
            return None
        nums, vector, den, k = run
        k = min([k] + [lo for _, lo, _ in self._spans(state.location, nums, vector, den, k)])
        return None if k < 2 else (k, LhaState(state.location, tuple(n + k * s for n, s in zip(nums, vector)), den))

    def quiet_run(self, state: LhaState, delta: Fraction, k: int) -> tuple[Iterable, list[str]]:
        nums, vector, den, _ = self._run(state, delta, 0)
        levels = zip(*[range(n + s, n + (k + 1) * s, s) if s else repeat(n, k) for n, s in zip(nums, vector)])
        columns = [fraction_texts(n + s, s, den, k) for n, s in zip(nums, vector)]
        return map(LhaState, repeat(state.location), levels, repeat(den)), \
            list(map(",".join, zip(repeat(state.location), *columns)))

    def timed_trace(self, state: LhaState, delta: Fraction, count: int) -> list[Segment]:
        run = self._run(state, delta, count) if count > 0 else None
        if run is None:  # no tick, or a zero duration
            return super().timed_trace(state, delta, count)
        nums, vector, den, steps = run
        spans = list(self._spans(state.location, nums, vector, den, steps + 1))
        texts = [self.serialize(state)] + self.quiet_run(state, delta, steps)[1]
        cuts = sorted({0, steps + 1, *(lo for _, lo, _ in spans), *(hi for _, _, hi in spans)})
        # an automaton annotates no state
        return [
            (texts[lo:hi], sorted({label for label, start, end in spans if start <= lo < end}), {})
            for lo, hi in zip(cuts, cuts[1:])
        ]

    def prop_holds(self, state: LhaState, prop: str) -> bool:
        raise ModelError(f"this automaton defines no propositions, got {prop!r}")

    def serialize(self, state: LhaState) -> str:
        values = ",".join(map(fraction_text, state.nums, repeat(state.den)))
        return f"{state.location},{values}"


def _expr_from_json(parent: Doc) -> AffineExpr:
    doc = parent.object("expr", ("coeffs", "const"))
    return AffineExpr.make(doc.rationals("coeffs", {}), doc.rational("const", 0))


def _constraints_from_json(parent: Doc, key: str) -> tuple[AffineConstraint, ...]:
    out = []
    for c in parent.objects(key, ("expr", "rel"), []):
        expr, rel = _expr_from_json(c), c.get("rel", str)
        if rel not in RELATIONS:
            raise ModelError(f"unknown relation {rel!r} at {c.at('rel')}, expected one of {RELATIONS}")
        out.append(AffineConstraint(expr, rel))
    return tuple(out)


def lha_from_json(doc: dict) -> Lha:
    doc = Doc(doc, "the automaton document", known=("kind", "variables", "locations", "edges", "initial"))
    variables = tuple(doc.strings("variables"))
    locations = tuple(
        Location(loc.get("name", str), loc.rationals("rates", {}),
                 _constraints_from_json(loc, "invariant"), _constraints_from_json(loc, "tick_guard"))
        for loc in doc.objects("locations", ("name", "rates", "invariant", "tick_guard"))
    )
    edges = tuple(
        Edge(e.get("source", str), e.get("target", str), e.get("label", str), _constraints_from_json(e, "guard"),
             tuple(Assignment(a.get("var", str), _expr_from_json(a))
                   for a in e.objects("assignments", ("var", "expr"), [])))
        for e in doc.objects("edges", ("source", "target", "label", "guard", "assignments"), [])
    )
    initial = doc.object("initial", ("location", "valuation"))
    return Lha(variables, locations, edges, initial.get("location", str), initial.rationals("valuation"))


def _expr_to_json(expr: AffineExpr) -> dict:
    return {
        "coeffs": {v: str(c) for v, c in sorted(expr.coeffs.items())},
        "const": str(expr.const),
    }


def _constraints_to_json(constraints: tuple[AffineConstraint, ...]) -> list:
    return [{"expr": _expr_to_json(c.expr), "rel": c.rel} for c in constraints]


def lha_to_json(lha: Lha) -> dict:
    return {
        "kind": "lha",
        "variables": list(lha.variables),
        "locations": [
            {
                "name": loc.name,
                "rates": {v: str(r) for v, r in sorted(loc.rates.items())},
                "invariant": _constraints_to_json(loc.invariant),
                "tick_guard": _constraints_to_json(loc.tick_guard),
            }
            for loc in lha.locations
        ],
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "label": e.label,
                "guard": _constraints_to_json(e.guard),
                "assignments": [
                    {"var": a.var, "expr": _expr_to_json(a.expr)} for a in e.assignments
                ],
            }
            for e in lha.edges
        ],
        "initial": {
            "location": lha.initial_location,
            "valuation": {v: str(x) for v, x in sorted(lha.initial_valuation.items())},
        },
    }
