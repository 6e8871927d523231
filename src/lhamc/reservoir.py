"""A ring of leaking reservoirs kept alive by a single movable hose.

Every reservoir drains at its own leak rate; the one under the hose fills at
the hose rate minus its leak.  Time passes in sampled steps and is allowed
only while no reservoir away from the hose has fallen to its lower
threshold; once one has, the only discrete move is to carry the hose to a
reservoir that needs it.

The module-level functions (:func:`tick`, :func:`fill`,
:func:`move_hose_successors`, :func:`valuation`, :func:`render_state`) and
:class:`NResState` are the plain ``Fraction`` reference semantics.
:class:`NResSystem` computes the same states on integers: it compiles the
ring once, and its :class:`RingState`s hold the hosed tank's index and
integer level numerators over one common denominator.  The search pattern
grammar lives here too: :func:`parse_pattern` reads a :class:`SearchPattern`,
and :func:`match` applies it to a state.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from operator import le
from typing import Any, Iterable, Optional

from .core import (
    ZERO,
    ModelError,
    ModelWarning,
    TimedTransitionSystem,
    as_time,
    fraction_text,
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
    if isinstance(state, RingState):
        state = state.plain()
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
    if not isinstance(initial, (NResState, RingState)):
        raise ModelError("reservoir-specific patterns only apply to reservoir models")
    known = {r.id for r in initial.reservoirs}
    if pattern.hose is not None and pattern.hose not in known:
        raise ModelError(f"pattern mentions unknown reservoir id {pattern.hose}")
    for rid, _ in pattern.reservoirs:
        if rid not in known:
            raise ModelError(f"pattern mentions unknown reservoir id {rid}")


_PATTERN_TOKEN = re.compile(r"^R(\d+)\.hth=(.+)$")


def parse_pattern(text: str) -> SearchPattern:
    """Pattern mini-language: "*", "hose=N", "R<id>.hth=<rational or *>"."""
    text = text.strip()
    if not text:
        raise ModelError("empty pattern")
    if text == "*":
        return SearchPattern()
    hose: Optional[int] = None
    tanks: dict[int, Optional[Fraction]] = {}
    for token in text.split():
        if token == "*":
            raise ModelError("'*' must be the whole pattern")
        if token.startswith("hose="):
            if hose is not None:
                raise ModelError("duplicate hose constraint")
            try:
                hose = int(token[len("hose="):])
            except ValueError:
                raise ModelError(f"cannot read hose position in {token!r}") from None
            continue
        m = _PATTERN_TOKEN.match(token)
        if m is None:
            raise ModelError(f"cannot read pattern token {token!r}")
        rid = int(m.group(1))
        if rid in tanks:
            raise ModelError(f"duplicate constraint for reservoir {rid}")
        value = m.group(2)
        tanks[rid] = None if value == "*" else parse_rational(value)
    reservoirs = tuple(
        (rid, ReservoirPattern(level=level)) for rid, level in sorted(tanks.items())
    )
    return SearchPattern(hose=hose, reservoirs=reservoirs)


class RingState:
    """A state of a compiled ring: the hosed tank's index and integer level
    numerators over one positive denominator (see :class:`NResSystem`).

    ``hose``, ``reservoirs`` and ``reservoir(rid)`` read it as the matching
    :class:`NResState`, levels as ``Fraction``s, and it compares equal to
    that state.
    """

    __slots__ = ("ring", "pos", "nums", "den")

    def __init__(self, ring: "NResSystem", pos: int, nums: tuple[int, ...], den: int):
        self.ring, self.pos, self.nums, self.den = ring, pos, nums, den

    def plain(self) -> NResState:
        hose, tanks = self.ring.initial.hose, self.ring.initial.reservoirs
        return NResState(
            Hose(hose.rate, tanks[self.pos].id),
            tuple(replace(r, level=Fraction(n, self.den)) for r, n in zip(tanks, self.nums)),
        )

    @property
    def hose(self) -> Hose:
        return self.plain().hose

    @property
    def reservoirs(self) -> tuple[Reservoir, ...]:
        return self.plain().reservoirs

    def reservoir(self, rid: int) -> Reservoir:
        return self.plain().reservoir(rid)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RingState):
            other = other.plain()
        return self.plain() == other if isinstance(other, NResState) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.plain())

    def __repr__(self) -> str:
        return repr(self.plain())


class NResSystem(TimedTransitionSystem):
    """Reservoir-ring model driven from a start state.

    The ring is compiled once: the hose rate, thresholds, leaks and each
    tank's text live here, and states are :class:`RingState`s.  Every
    threshold is an integer numerator over every state's denominator, a tick
    adds one cached integer step vector per (duration, denominator), and the
    denominator grows by lcm only when a step needs it.  The results equal
    those of the module-level ``Fraction`` functions, and methods also accept
    plain :class:`NResState`s of the same ring.  Discrete successors are the
    hose moves, ordered by numeric target id (which refines the generic
    label/text order when ids reach two digits).
    """

    def __init__(self, initial: NResState):
        self.initial = initial
        rate, tanks = initial.hose.rate, initial.reservoirs
        total_leak = sum((r.leak for r in tanks), Fraction(0))
        if total_leak != rate:
            warnings.warn(
                f"total leak rate {total_leak} differs from hose rate "
                f"{rate}; the system cannot stay balanced",
                ModelWarning,
                stacklevel=2,
            )
        self._statics = (rate, [(r.id, r.lower, r.upper, r.leak) for r in tanks])
        self._ids, lowers, uppers, self._leaks = zip(*self._statics[1])
        self._thresholds = (lowers, uppers)
        # every state's denominator is a multiple of this one, so each threshold
        # is a whole numerator over it
        self._den = lcm(*(x.denominator for x in lowers + uppers))
        self._bounds: dict[int, tuple] = {}  # den -> (lower, upper) numerators over den
        self._heads = [f"hose({rate},{r.id})" for r in tanks]
        # one "{}" per tank for its level
        self._texts = "".join(f" < {r.id} | thr:({r.lower},{r.upper}), hth: {{}}, rte: {r.leak} >"
                              for r in tanks)
        # duration -> den -> (growth, fills, drains): a step from levels over
        # den moves to den * growth; None for a zero duration
        self._by_delta: dict[Fraction, dict | None] = {}
        self._delta: Any = ZERO  # the last duration, and its steps
        self._steps = self._steps_for(ZERO)
        self._initial = self._compiled(initial)

    def _compiled(self, state: Any) -> RingState:
        if type(state) is RingState and state.ring is self:
            return state
        if isinstance(state, RingState):
            state = state.plain()
        tanks = state.reservoirs
        if (state.hose.rate, [(r.id, r.lower, r.upper, r.leak) for r in tanks]) != self._statics:
            raise ModelError("the state belongs to a different reservoir ring")
        den = lcm(self._den, *(r.level.denominator for r in tanks))
        pos = self._ids.index(state.hose.position)
        return RingState(self, pos, tuple(int(r.level * den) for r in tanks), den)

    def _bounds_at(self, den: int) -> tuple:
        bounds = self._bounds.get(den)
        if bounds is None:
            bounds = self._bounds[den] = tuple(tuple(int(x * den) for x in xs) for xs in self._thresholds)
        return bounds

    def _steps_for(self, delta: Any) -> dict | None:
        """The steps of ``delta``; a ``Fraction`` duration is validated once."""
        if type(delta) is not Fraction:
            delta = as_time(delta)
        if delta not in self._by_delta:
            self._by_delta[delta] = {} if as_time(delta) else None
        return self._by_delta[delta]

    def _step(self, den: int) -> tuple:
        """The step of the last duration from levels over ``den``."""
        delta = as_time(self._delta)
        fills = [(self.initial.hose.rate - leak) * delta for leak in self._leaks]
        drains = [leak * delta for leak in self._leaks]
        grown = lcm(den, *(x.denominator for x in fills + drains))
        step = self._steps[den] = (
            grown // den, tuple(int(x * grown) for x in fills), tuple(int(x * grown) for x in drains)
        )
        return step

    def initial_state(self) -> RingState:
        return self._initial

    def discrete_successors(self, state: Any) -> list[tuple[str, RingState]]:
        s = self._compiled(state)
        pos, nums, den = s.pos, s.nums, s.den
        low = self._bounds_at(den)[0]
        if nums[pos] < low[pos]:
            return []
        return [
            (MOVE_HOSE, RingState(self, i, nums, den)) for i, n in enumerate(nums) if n <= low[i] and i != pos
        ]

    def enabled_labels(self, state: Any) -> list[str]:
        return [MOVE_HOSE] if self.discrete_successors(state) else []

    def timed_successor(self, state: Any, delta: Fraction) -> Any:
        if delta is not self._delta:
            self._delta, self._steps = delta, self._steps_for(delta)
        if self._steps is None:
            return state
        s = self._compiled(state)
        pos, nums, den = s.pos, s.nums, s.den
        low = self._bounds_at(den)[0]
        for i, n in enumerate(nums):
            if n <= low[i] and i != pos:
                return None
        growth, fills, drains = self._steps.get(den) or self._step(den)
        if fills[pos] < 0:  # raises: the hose rate is below this tank's leak
            fill(self.initial.reservoirs[pos], self.initial.hose.rate, self._delta)
        if growth != 1:
            nums = [n * growth for n in nums]
        after = [n - d if n > d else 0 for n, d in zip(nums, drains)]
        after[pos] = nums[pos] + fills[pos]
        return RingState(self, pos, tuple(after), den * growth)

    def prop_holds(self, state: Any, prop: str) -> bool:
        s = self._compiled(state)
        low = self._bounds_at(s.den)[0]
        if prop == "one-down":
            return any(map(le, s.nums, low))
        if prop == "macondo":
            return all(map(le, s.nums, low))
        return valuation(self.initial, prop)  # raises: unknown proposition

    def annotations(self, state: Any) -> dict[str, list]:
        s = self._compiled(state)
        up = self._bounds_at(s.den)[1]
        return {"above_upper": [rid for rid, n, u in zip(self._ids, s.nums, up) if n > u]}

    def serialize(self, state: Any) -> str:
        s = self._compiled(state)
        den = s.den
        return self._heads[s.pos] + self._texts.format(*[fraction_text(n, den) for n in s.nums])

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
