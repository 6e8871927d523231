"""A ring of leaking reservoirs kept alive by a single movable hose.

Every reservoir drains at its own leak rate; the one under the hose fills at
the hose rate minus its leak.  Time passes in sampled steps and is allowed
only while no reservoir away from the hose has fallen to its lower
threshold; once one has, the only discrete move is to carry the hose to a
reservoir that needs it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Iterable, Optional

from .core import (
    ModelError,
    ModelWarning,
    TimedTransitionSystem,
    as_time,
    json_objects,
    json_shape,
    monus,
    parse_rational,
)

PROPOSITIONS = frozenset({"one-down", "macondo"})

MOVE_HOSE = "move-hose"


@dataclass(frozen=True)
class Hose:
    rate: Fraction
    position: int


@dataclass(frozen=True)
class Reservoir:
    id: int
    lower: Fraction
    upper: Fraction
    level: Fraction
    leak: Fraction


@dataclass(frozen=True)
class NResState:
    """Hose plus reservoirs, canonically sorted by reservoir id."""

    hose: Hose
    reservoirs: tuple[Reservoir, ...]

    @classmethod
    def make(cls, hose: Hose, reservoirs: Iterable[Reservoir]) -> "NResState":
        tanks = tuple(sorted(reservoirs, key=lambda r: r.id))
        if not tanks:
            raise ModelError("at least one reservoir is required")
        ids = [r.id for r in tanks]
        if len(set(ids)) != len(ids):
            raise ModelError(f"duplicate reservoir ids: {ids}")
        if hose.position not in set(ids):
            raise ModelError(f"hose position {hose.position} is not a reservoir id")
        if hose.rate < 0:
            raise ModelError(f"hose rate must be nonnegative, got {hose.rate}")
        for r in tanks:
            for name, value in (("lower", r.lower), ("upper", r.upper), ("level", r.level), ("leak", r.leak)):
                if value < 0:
                    raise ModelError(f"reservoir {r.id}: {name} must be nonnegative, got {value}")
            if r.lower > r.upper:
                raise ModelError(f"reservoir {r.id}: lower threshold {r.lower} exceeds upper {r.upper}")
        return cls(hose, tanks)

    def reservoir(self, rid: int) -> Reservoir:
        for r in self.reservoirs:
            if r.id == rid:
                return r
        raise ModelError(f"no reservoir with id {rid}")

    def hosed(self) -> Reservoir:
        return self.reservoir(self.hose.position)


def fill(tank: Reservoir, rate: Fraction, t: Fraction) -> Reservoir:
    """Level after t time units under a hose pouring at ``rate``."""
    t = as_time(t)
    if rate < tank.leak:
        raise ModelError(
            f"reservoir {tank.id}: hose rate {rate} is below the leak rate {tank.leak}"
        )
    return replace(tank, level=tank.level + (rate - tank.leak) * t)


def needs_refill(tanks: Iterable[Reservoir]) -> bool:
    return any(r.level <= r.lower for r in tanks)


def tick(state: NResState, t: Fraction) -> NResState | None:
    """Let t time units pass, or None if some unattended tank is already low.

    Unattended tanks leak, their levels floored at zero.  A zero step always
    succeeds.
    """
    t = as_time(t)
    if t == 0:
        return state
    away = [r for r in state.reservoirs if r.id != state.hose.position]
    if needs_refill(away):
        return None
    new_tanks = []
    for r in state.reservoirs:
        if r.id == state.hose.position:
            new_tanks.append(fill(r, state.hose.rate, t))
        else:
            new_tanks.append(replace(r, level=monus(r.level, r.leak * t)))
    return NResState(state.hose, tuple(new_tanks))


def move_hose_successors(state: NResState) -> list[tuple[str, NResState]]:
    """All ways to carry the hose to a tank that has fallen to its threshold.

    Allowed only once the currently hosed tank is back at or above its own
    threshold.  Targets are ordered by reservoir id.
    """
    current = state.hosed()
    if current.level < current.lower:
        return []
    out = []
    for r in state.reservoirs:  # already sorted by id
        if r.id != current.id and r.level <= r.lower:
            out.append((MOVE_HOSE, NResState(Hose(state.hose.rate, r.id), state.reservoirs)))
    return out


def valuation(state: NResState, prop: str) -> bool:
    if prop == "one-down":
        return any(r.level <= r.lower for r in state.reservoirs)
    if prop == "macondo":
        return all(r.level <= r.lower for r in state.reservoirs)
    raise ModelError(f"unknown proposition {prop!r}, expected one of {sorted(PROPOSITIONS)}")


def above_upper(state: NResState) -> tuple[int, ...]:
    """Ids of reservoirs currently above their upper threshold."""
    return tuple(r.id for r in state.reservoirs if r.level > r.upper)


def render_state(state: NResState) -> str:
    parts = [f"hose({state.hose.rate},{state.hose.position})"]
    for r in state.reservoirs:
        parts.append(f"< {r.id} | thr:({r.lower},{r.upper}), hth: {r.level}, rte: {r.leak} >")
    return " ".join(parts)


@dataclass(frozen=True)
class ReservoirPattern:
    """Pin on one reservoir's level; None leaves the level free."""

    level: Optional[Fraction] = None


@dataclass(frozen=True)
class SearchPattern:
    """What to look for: optional hose position, per-reservoir level pins.

    The empty pattern is the wildcard; it matches every state of every model.
    Any reservoir-specific content restricts matching to reservoir models.
    Calling a pattern on a state is :func:`match`, so a pattern is a search
    predicate.
    """

    hose: Optional[int] = None
    reservoirs: tuple[tuple[int, ReservoirPattern], ...] = ()

    def is_wildcard(self) -> bool:
        return self.hose is None and not self.reservoirs

    def __call__(self, state: Any) -> Optional[dict[str, str]]:
        return match(self, state)


def _unconstrained_text(tank: Reservoir, pat: ReservoirPattern) -> str:
    parts = [f"thr:({tank.lower},{tank.upper})"]
    if pat.level is None:
        parts.append(f"hth: {tank.level}")
    parts.append(f"rte: {tank.leak}")
    return ", ".join(parts)


def match(pattern: SearchPattern, state: Any) -> Optional[dict[str, str]]:
    """Bindings if ``state`` fits the pattern, else None.

    The wildcard matches anything with empty bindings.  A reservoir-specific
    pattern only applies to reservoir states; each listed reservoir binds
    "R<id>" to the text of the attributes the pattern left unconstrained.
    """
    if pattern.is_wildcard():
        return {}
    if not isinstance(state, NResState):
        raise ModelError("reservoir-specific patterns only apply to reservoir models")
    if pattern.hose is not None and state.hose.position != pattern.hose:
        return None
    bindings: dict[str, str] = {}
    for rid, pat in pattern.reservoirs:
        tank = state.reservoir(rid)
        if pat.level is not None and tank.level != pat.level:
            return None
        bindings[f"R{rid}"] = _unconstrained_text(tank, pat)
    return bindings


def validate_pattern(pattern: SearchPattern, system: TimedTransitionSystem) -> None:
    """Reject patterns that can never apply to this model."""
    if pattern.is_wildcard():
        return
    initial = system.initial_state()
    if not isinstance(initial, NResState):
        raise ModelError("reservoir-specific patterns only apply to reservoir models")
    known = {r.id for r in initial.reservoirs}
    if pattern.hose is not None and pattern.hose not in known:
        raise ModelError(f"pattern mentions unknown reservoir id {pattern.hose}")
    for rid, _ in pattern.reservoirs:
        if rid not in known:
            raise ModelError(f"pattern mentions unknown reservoir id {rid}")


class NResSystem(TimedTransitionSystem):
    """Reservoir-ring model driven from a start state.

    Discrete successors are the hose moves, ordered by numeric target id
    (which refines the generic label/text order when ids reach two digits).
    """

    def __init__(self, initial: NResState):
        self.initial = initial
        total_leak = sum((r.leak for r in initial.reservoirs), Fraction(0))
        if total_leak != initial.hose.rate:
            warnings.warn(
                f"total leak rate {total_leak} differs from hose rate "
                f"{initial.hose.rate}; the system cannot stay balanced",
                ModelWarning,
                stacklevel=2,
            )

    def initial_state(self) -> NResState:
        return self.initial

    def discrete_successors(self, state: NResState) -> list[tuple[str, NResState]]:
        return move_hose_successors(state)

    def timed_successor(self, state: NResState, delta: Fraction) -> NResState | None:
        return tick(state, delta)

    def prop_holds(self, state: NResState, prop: str) -> bool:
        return valuation(state, prop)

    def serialize(self, state: NResState) -> str:
        return render_state(state)

    def propositions(self) -> frozenset[str]:
        return PROPOSITIONS


def nres_from_json(doc: dict) -> NResState:
    try:
        hose_doc = json_shape(doc["hose"], dict, "hose")
        position = hose_doc["position"]
        if not isinstance(position, int) or isinstance(position, bool):
            raise ModelError(f"hose position must be an integer id, got {position!r}")
        hose = Hose(parse_rational(hose_doc["rate"]), position)
        tanks = []
        for r in json_objects(doc["reservoirs"], "reservoirs"):
            rid = r["id"]
            if not isinstance(rid, int) or isinstance(rid, bool):
                raise ModelError(f"reservoir id must be an integer, got {rid!r}")
            tanks.append(
                Reservoir(
                    rid,
                    parse_rational(r["lower"]),
                    parse_rational(r["upper"]),
                    parse_rational(r["level"]),
                    parse_rational(r["leak"]),
                )
            )
    except KeyError as missing:
        raise ModelError(f"reservoir document is missing {missing}") from None
    return NResState.make(hose, tanks)


def nres_to_json(state: NResState) -> dict:
    return {
        "kind": "nres",
        "hose": {"rate": str(state.hose.rate), "position": state.hose.position},
        "reservoirs": [
            {
                "id": r.id,
                "lower": str(r.lower),
                "upper": str(r.upper),
                "level": str(r.level),
                "leak": str(r.leak),
            }
            for r in state.reservoirs
        ],
    }
