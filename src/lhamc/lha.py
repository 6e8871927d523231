"""Linear hybrid automata with constant rates and affine constraints.

Flows are linear (constant rate per location), so along any timed step each
affine constraint is monotone in time and checking the step's endpoint is
sound.  Discrete jumps are guarded by affine constraints and reset variables
through simultaneous affine assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from .core import (
    ZERO,
    ModelError,
    TimedTransitionSystem,
    as_time,
    json_objects,
    json_shape,
    parse_rational,
)

RELATIONS = ("<", "<=", "=", ">=", ">")


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
class LhaState:
    location: str
    valuation: Mapping[str, Fraction]


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
        by_name = {loc.name: loc for loc in self.locations}
        for edge in self.edges:
            if edge.source not in by_name or edge.target not in by_name:
                raise ModelError(f"edge {edge.label}: unknown location {edge.source!r} or {edge.target!r}")
            for a in edge.assignments:
                if a.var not in declared:
                    raise ModelError(f"edge {edge.label}: assignment to unknown variable {a.var!r}")
        if self.initial_location not in by_name:
            raise ModelError(f"unknown initial location {self.initial_location!r}")
        if set(self.initial_valuation) != declared:
            raise ModelError("initial valuation must cover exactly the declared variables")
        # The endpoint-only invariant check in timed_successor is sound only
        # for segments that start inside the invariant.
        if not holds_all(by_name[self.initial_location].invariant, self.initial_valuation):
            raise ModelError(f"initial valuation violates the invariant of location {self.initial_location!r}")
        object.__setattr__(self, "_by_name", by_name)  # not a field: no part of eq or hash

    def location_named(self, name: str) -> Location:
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"unknown location {name!r}") from None


def eval_affine(expr: AffineExpr, valuation: Mapping[str, Fraction]) -> Fraction:
    total = expr.const
    for var, coeff in expr.coeffs.items():
        try:
            total += coeff * valuation[var]
        except KeyError:
            raise ModelError(f"expression mentions unknown variable {var!r}") from None
    return total


def holds(constraint: AffineConstraint, valuation: Mapping[str, Fraction]) -> bool:
    value = eval_affine(constraint.expr, valuation)
    rel = constraint.rel
    if rel == "<":
        return value < 0
    if rel == "<=":
        return value <= 0
    if rel == "=":
        return value == 0
    if rel == ">=":
        return value >= 0
    return value > 0


def holds_all(constraints: tuple[AffineConstraint, ...], valuation: Mapping[str, Fraction]) -> bool:
    return all(holds(c, valuation) for c in constraints)


def flow(location: Location, valuation: Mapping[str, Fraction], delta: Fraction) -> dict[str, Fraction]:
    """Valuation after delta time units of the location's constant rates."""
    delta = as_time(delta)
    return {var: value + location.rates.get(var, ZERO) * delta for var, value in valuation.items()}


def timed_successor(lha: Lha, state: LhaState, delta: Fraction) -> LhaState | None:
    """Let delta time pass, or None if the location forbids it.

    Zero durations always succeed.  Otherwise the tick guard must hold at the
    start and the invariant at the endpoint; linear flows make the endpoint
    check sufficient for the whole segment.
    """
    delta = as_time(delta)
    if delta == 0:
        return state
    location = lha.location_named(state.location)
    if not holds_all(location.tick_guard, state.valuation):
        return None
    target = flow(location, state.valuation, delta)
    if not holds_all(location.invariant, target):
        return None
    return LhaState(state.location, target)


def jump(lha: Lha, state: LhaState, edge: Edge) -> LhaState | None:
    """Apply one edge, or None if its guard or the target invariant fails."""
    if edge.source != state.location:
        return None
    if not holds_all(edge.guard, state.valuation):
        return None
    after = dict(state.valuation)
    for a in edge.assignments:
        after[a.var] = eval_affine(a.expr, state.valuation)
    if not holds_all(lha.location_named(edge.target).invariant, after):
        return None
    return LhaState(edge.target, after)


def discrete_successors(lha: Lha, state: LhaState) -> list[tuple[str, LhaState]]:
    out = []
    for edge in lha.edges:
        succ = jump(lha, state, edge)
        if succ is not None:
            out.append((edge.label, succ))
    out.sort(key=lambda ls: (ls[0], render_state(lha, ls[1])))
    return out


def render_state(lha: Lha, state: LhaState) -> str:
    values = ",".join(str(state.valuation[v]) for v in lha.variables)
    return f"{state.location},{values}"


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


class LhaSystem(TimedTransitionSystem):
    """Adapter exposing an Lha through the shared model contract."""

    def __init__(self, lha: Lha):
        self.lha = lha

    def initial_state(self) -> LhaState:
        return LhaState(self.lha.initial_location, dict(self.lha.initial_valuation))

    def discrete_successors(self, state: LhaState) -> list[tuple[str, LhaState]]:
        return discrete_successors(self.lha, state)

    def timed_successor(self, state: LhaState, delta: Fraction) -> LhaState | None:
        return timed_successor(self.lha, state, delta)

    def prop_holds(self, state: LhaState, prop: str) -> bool:
        raise ModelError(f"this automaton defines no propositions, got {prop!r}")

    def serialize(self, state: LhaState) -> str:
        return render_state(self.lha, state)


def _expr_from_json(doc: Any) -> AffineExpr:
    if not isinstance(doc, dict):
        raise ModelError(f"expected an expression object, got {doc!r}")
    coeffs = doc.get("coeffs", {})
    if not isinstance(coeffs, dict):
        raise ModelError("expression coeffs must be an object")
    return AffineExpr.make(coeffs, doc.get("const", 0))


def _constraint_from_json(doc: Any) -> AffineConstraint:
    if not isinstance(doc, dict) or "expr" not in doc or "rel" not in doc:
        raise ModelError(f"expected a constraint object with expr and rel, got {doc!r}")
    return AffineConstraint(_expr_from_json(doc["expr"]), doc["rel"])


def _constraints_from_json(doc: Any, where: str) -> tuple[AffineConstraint, ...]:
    if doc is None:
        return ()
    if not isinstance(doc, list):
        raise ModelError(f"{where} must be a list of constraints")
    return tuple(_constraint_from_json(c) for c in doc)


def lha_from_json(doc: dict) -> Lha:
    try:
        variables = tuple(str(v) for v in json_shape(doc["variables"], list, "variables"))
        locations = []
        for loc in json_objects(doc["locations"], "locations"):
            rates = json_shape(loc.get("rates", {}), dict, "rates")
            rates = {str(v): parse_rational(r) for v, r in rates.items()}
            locations.append(
                Location(
                    str(loc["name"]),
                    rates,
                    _constraints_from_json(loc.get("invariant"), "invariant"),
                    _constraints_from_json(loc.get("tick_guard"), "tick_guard"),
                )
            )
        edges = []
        for e in json_objects(doc.get("edges", []), "edges"):
            assignments = tuple(
                Assignment(str(a["var"]), _expr_from_json(a["expr"]))
                for a in json_objects(e.get("assignments", []), "assignments")
            )
            edges.append(
                Edge(
                    str(e["source"]),
                    str(e["target"]),
                    str(e["label"]),
                    _constraints_from_json(e.get("guard"), "guard"),
                    assignments,
                )
            )
        initial = json_shape(doc["initial"], dict, "initial")
        valuation = json_shape(initial["valuation"], dict, "initial valuation")
        valuation = {str(v): parse_rational(x) for v, x in valuation.items()}
        return Lha(variables, tuple(locations), tuple(edges), str(initial["location"]), valuation)
    except KeyError as missing:
        raise ModelError(f"automaton document is missing {missing}") from None


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
