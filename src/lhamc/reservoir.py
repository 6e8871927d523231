"""A ring of leaking reservoirs kept alive by a single movable hose.

Every reservoir drains at its own leak rate; the one under the hose fills at
the hose rate minus its leak.  Time passes in sampled steps and is allowed
only while no reservoir away from the hose has fallen to its lower
threshold; once one has, the only discrete move is to carry the hose to a
reservoir that needs it.

:class:`NResState` describes a ring with ``Fraction`` levels, as a model file
does.  :class:`NResSystem` compiles it once and computes on integers: its
:class:`RingState`s hold the hosed tank's index, integer level numerators
over one common denominator and the indices of the tanks at or below their
lower thresholds, judged once when the levels are made; a state is read
through its canonical text.
The search pattern grammar lives here too: :func:`parse_pattern` reads a
:class:`SearchPattern`, and :meth:`SearchPattern.bind` makes it a search
predicate for one model.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from math import lcm
from operator import le
from typing import Any, Callable, Iterable, Optional, Sequence

from .core import (
    Doc,
    Memo,
    ModelError,
    ModelWarning,
    Segment,
    TickTables,
    TimedTransitionSystem,
    fraction_text,
    parse_int,
    parse_rational,
)

# Each proposition of a ring, and how many of its n tanks it asks to be at or
# below their lower bounds.
_LOW_COUNTS = {"one-down": lambda n: 1, "macondo": lambda n: n}
PROPOSITIONS = frozenset(_LOW_COUNTS)

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


@dataclass(frozen=True)
class SearchPattern:
    """What to look for: optional hose position, per-reservoir level pins.

    A pin is a level, or None to leave the level free.  The empty pattern is
    the wildcard, which applies to every model; any other pattern applies to
    reservoir models only.  :meth:`bind` checks a pattern against a model
    and gives its search predicate.
    """

    hose: Optional[int] = None
    reservoirs: tuple[tuple[int, Optional[Fraction]], ...] = ()

    def bind(self, system: TimedTransitionSystem) -> Callable[[Any], Optional[dict[str, str]]]:
        """The predicate mapping a state of ``system`` to bindings if it fits
        the pattern, else None.

        The wildcard maps every state to empty bindings.  Each listed
        reservoir binds "R<id>" to the text of the attributes the pattern
        left unconstrained.  A level pin p/q holds when the level's numerator
        n over the state's denominator d has n * q == p * d.
        """
        if self.hose is None and not self.reservoirs:
            return lambda state: {}
        # read through the start state, so that a model wrapping a ring binds too
        if not isinstance(system.initial_state(), RingState):
            raise ModelError("reservoir-specific patterns only apply to reservoir models")
        tanks = system.initial.reservoirs
        index = {r.id: i for i, r in enumerate(tanks)}
        for rid in ([] if self.hose is None else [self.hose]) + [rid for rid, _ in self.reservoirs]:
            if rid not in index:
                raise ModelError(f"pattern mentions unknown reservoir id {rid}")
        hose = index.get(self.hose)
        # per pin: its key, tank index, level and the texts around a free level
        pins = [(f"R{rid}", index[rid], level, f"thr:({r.lower},{r.upper})", f", rte: {r.leak}")
                for rid, level in self.reservoirs for r in [tanks[index[rid]]]]

        def bindings(state: RingState) -> Optional[dict[str, str]]:
            if hose is not None and state.pos != hose:
                return None
            found = {}
            for key, i, level, thr, rte in pins:
                n = state.nums[i]
                if level is None:
                    found[key] = f"{thr}, hth: {fraction_text(n, state.den)}{rte}"
                elif n * level.denominator != level.numerator * state.den:
                    return None
                else:
                    found[key] = thr + rte
            return found

        return bindings


_PATTERN_TOKEN = re.compile(r"^R(\d+)\.hth=(.+)$", re.ASCII)
_HOSE_TOKEN = re.compile(r"^hose=(\d+)$", re.ASCII)


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
            m = _HOSE_TOKEN.match(token)
            if m is None:
                raise ModelError(f"cannot read hose position in {token!r}")
            hose = parse_int(m.group(1), "reservoir id")
            continue
        m = _PATTERN_TOKEN.match(token)
        if m is None:
            raise ModelError(f"cannot read pattern token {token!r}")
        rid = parse_int(m.group(1), "reservoir id")
        if rid in tanks:
            raise ModelError(f"duplicate constraint for reservoir {rid}")
        value = m.group(2)
        tanks[rid] = None if value == "*" else parse_rational(value)
    return SearchPattern(hose, tuple(sorted(tanks.items())))


class RingState:
    """A state of a compiled ring: the hosed tank's index, integer level
    numerators over one positive denominator (see :class:`NResSystem`), and
    ``low``, the indices of the tanks at or below their lower thresholds in
    tank order, which the ring derives once from the levels it makes.
    Its identity is its text, the ring's ``serialize(state)``; ``low`` is no part of it.
    """

    __slots__ = ("pos", "nums", "den", "low")

    def __init__(self, pos: int, nums: tuple[int, ...], den: int, low: tuple[int, ...]):
        self.pos, self.nums, self.den, self.low = pos, nums, den, low

    def __repr__(self) -> str:
        return f"RingState({self.pos!r}, {self.nums!r}, {self.den!r})"


class NResSystem(TimedTransitionSystem):
    """Reservoir-ring model driven from a start state.

    The ring is compiled once: the hose rate, thresholds, leaks and each
    tank's text live here, and states are :class:`RingState`s, which its
    methods take and return.  Every threshold is an integer numerator over
    every state's denominator, a tick adds one cached integer step vector per
    (duration, denominator), and the denominator grows by lcm only when a
    step needs it.  Each state's low tanks are found once, when a tick makes
    its levels (a hose move keeps its parent's levels and low tanks); the
    hose moves, the blocking of a tick and both propositions read them.  One
    tick and the k ticks of a :meth:`quiet` stretch are the same arithmetic,
    and :meth:`quiet_run` builds k ticks in closed form from it, for a
    stretch and for :meth:`timed_trace`'s run.  A state's text fills its hose
    position's template with each tank's level text, read from ``_levels``,
    a per-instance memo from denominator to numerator to text, so each level
    is rendered once.
    Discrete successors are the hose moves, ordered by numeric target id
    (which refines the generic label/text order when ids reach two digits).
    """

    def __init__(self, initial: NResState):
        self.initial = initial
        rate, tanks = initial.hose.rate, initial.reservoirs
        for r in tanks:
            # the hose must outpour every leak, wherever it is carried
            if rate < r.leak:
                raise ModelError(f"reservoir {r.id}: hose rate {rate} is below the leak rate {r.leak}")
        total_leak = sum((r.leak for r in tanks), Fraction(0))
        if total_leak != rate:
            warnings.warn(
                f"total leak rate {total_leak} differs from hose rate "
                f"{rate}; the system cannot stay balanced",
                ModelWarning,
                stacklevel=2,
            )
        self._ids, lowers, uppers, self._leaks = zip(*[(r.id, r.lower, r.upper, r.leak) for r in tanks])
        self._indices = range(len(tanks))
        self._low_counts = {prop: count(len(tanks)) for prop, count in _LOW_COUNTS.items()}
        self._thresholds = (lowers, uppers)
        # every state's denominator is a multiple of this one, so each threshold
        # is a whole numerator over it
        self._den = lcm(*(x.denominator for x in lowers + uppers))
        # den -> (lower, upper) numerators over den
        self._bounds = Memo(lambda den: tuple(tuple(int(x * den) for x in xs) for xs in self._thresholds))
        # den -> numerator -> fraction_text(numerator, den), each level's text
        self._levels = Memo(lambda den: Memo(lambda n: fraction_text(n, den)))
        # per hose position, a state's text with one "%s" per tank for its level; ids and rationals hold no "%"
        tail = "".join(f" < {r.id} | thr:({r.lower},{r.upper}), hth: %s, rte: {r.leak} >" for r in tanks)
        self._texts = [f"hose({rate},{r.id})" + tail for r in tanks]
        # duration -> den -> (growth, fills, drains): a step from levels over
        # den moves to den * growth
        self._tick_tables = TickTables(lambda delta: Memo(lambda den: self._step(delta, den)))
        den = lcm(self._den, *(r.level.denominator for r in tanks))
        nums = tuple(int(r.level * den) for r in tanks)
        self._initial = RingState(self._ids.index(initial.hose.position), nums, den, self._low(nums, den))

    def _step(self, delta: Fraction, den: int) -> tuple:
        """The step of ``delta`` from levels over ``den``."""
        fills = [(self.initial.hose.rate - leak) * delta for leak in self._leaks]
        drains = [leak * delta for leak in self._leaks]
        grown = lcm(den, *(x.denominator for x in fills + drains))
        return grown // den, tuple(int(x * grown) for x in fills), tuple(int(x * grown) for x in drains)

    def _low(self, nums: Iterable[int], den: int) -> tuple[int, ...]:
        """Indices of the tanks whose level numerators over ``den`` are at or below their lower thresholds."""
        return tuple(compress(self._indices, map(le, nums, self._bounds[den][0])))

    def initial_state(self) -> RingState:
        return self._initial

    def discrete_successors(self, state: RingState) -> list[tuple[str, RingState]]:
        pos, nums, den, low = state.pos, state.nums, state.den, state.low
        # the hose leaves only once its tank is back at its lower threshold
        if not low or pos in low and nums[pos] < self._bounds[den][0][pos]:
            return []
        return [(MOVE_HOSE, RingState(i, nums, den, low)) for i in low if i != pos]

    def timed_successor(self, state: RingState, delta: Fraction) -> RingState | None:
        steps = self._tick_tables.of(delta)
        if steps is None:
            return state
        pos, nums, den, low = state.pos, state.nums, state.den, state.low
        if low and low != (pos,):  # a tank away from the hose is low
            return None
        growth, fills, drains = steps[den]
        if growth != 1:
            nums = [n * growth for n in nums]
            den *= growth
        return self._ticked(pos, nums, den, fills, drains, 1)

    def quiet(self, state: RingState, delta: Fraction, limit: int) -> tuple[int, RingState] | None:
        """The ticks until ``low`` changes, by one division per tank, and the
        state after them; None where the tick would grow the denominator."""
        steps = self._tick_tables.of(delta)
        pos, nums, den, low = state.pos, state.nums, state.den, state.low
        # no tick, a move or a blocked tick, or a tick that grows the denominator
        if steps is None or low and low != (pos,) or steps[den][0] != 1:
            return None
        _, fills, drains = steps[den]
        k = self._drained(pos, nums, den, drains, limit)
        if low and fills[pos]:  # a low hosed tank is not low after (lower - n) // fill + 1 ticks
            k = min(k, (self._bounds[den][0][pos] - nums[pos]) // fills[pos] + 1)
        return None if k < 2 else (k, self._ticked(pos, nums, den, fills, drains, k))

    def _drained(self, pos: int, nums: Sequence[int], den: int, drains: tuple, limit: int) -> int:
        """The ticks until a tank away from the hose is low, ceil((n - lower) / drain), and at most ``limit``."""
        lowers = self._bounds[den][0]
        return min([limit] + [(n - lower - 1) // d + 1 for i, (n, lower, d) in enumerate(zip(nums, lowers, drains))
                              if d and i != pos])

    def _ticked(self, pos: int, nums: Sequence[int], den: int, fills: tuple, drains: tuple, k: int) -> RingState:
        """The state k ticks after levels ``nums`` over ``den``; a drained level stops at 0."""
        after = [n - k * d if n > k * d else 0 for n, d in zip(nums, drains)]
        after[pos] = nums[pos] + k * fills[pos]
        return RingState(pos, tuple(after), den, self._low(after, den))

    def timed_trace(self, state: RingState, delta: Fraction, count: int) -> list[Segment]:
        """The run in closed form, its texts those of :meth:`quiet_run` up to
        the first state after which a tank away from the hose is low.  The
        first and last states are segments of their own, and those between
        are cut where ``above_upper`` changes."""
        first = self.timed_successor(state, delta) if count > 0 else None
        if first is None or first is state:  # blocked, no tick, or a zero duration
            return super().timed_trace(state, delta, count)
        pos, nums, den = first.pos, first.nums, first.den
        _, fills, drains = self._tick_tables.of(delta)[den]
        k = 0 if first.low and first.low != (pos,) else self._drained(pos, nums, den, drains, count - 1)
        steps = [fills[i] if i == pos else -d for i, d in enumerate(drains)]
        texts, uppers = self.quiet_run(state, delta, k + 1)[1], self._bounds[den][1]
        # n + j * s > u starts or stops holding at j = (u - n) // s + 1, or (u - n + 1) // s + 1 where s < 0
        cuts = sorted({0, k, *(j for n, s, u in zip(nums, steps, uppers) if s
                               for j in [(u - n + (s < 0)) // s + 1] if 0 < j < k)})
        between = [(texts[lo:hi], [], {"above_upper": [rid for rid, n, s, u in zip(self._ids, nums, steps, uppers)
                                                       if n + lo * s > u]}) for lo, hi in zip(cuts, cuts[1:])]
        last = self._ticked(pos, nums, den, fills, drains, k)
        return super().timed_trace(state, delta, 0) + between + super().timed_trace(last, delta, 0)

    def quiet_run(self, state: RingState, delta: Fraction, k: int) -> tuple[Iterable, list[str]]:
        """The ticks in closed form.  The first may grow the denominator; j
        ticks on, a level numerator n is n + j * step, the hose's fill or minus
        a drain, up to the k-th, the only one where a drain may stop at 0 or
        a tank away from the hose be low.  The states before it keep
        ``state``'s low tanks, as in a quiet stretch."""
        growth, fills, drains = self._tick_tables.of(delta)[state.den]
        pos, nums, den = state.pos, [n * growth for n in state.nums], state.den * growth
        steps = [fills[i] if i == pos else -d for i, d in enumerate(drains)]
        columns = [range(n + s, n + k * s, s) if s else [n] * (k - 1) for n, s in zip(nums, steps)]
        last, levels = self._ticked(pos, nums, den, fills, drains, k), self._levels[den]
        texts = list(map(self._texts[pos].__mod__, zip(*[map(levels.__getitem__, c) for c in columns])))
        inner = map(RingState, repeat(pos), zip(*columns), repeat(den), repeat(state.low))
        return chain(inner, [last]), texts + [self.serialize(last)]

    def prop_holds(self, state: RingState, prop: str) -> bool:
        count = self._low_counts.get(prop)
        if count is None:
            raise ModelError(f"unknown proposition {prop!r}, expected one of {sorted(PROPOSITIONS)}")
        return len(state.low) >= count

    def annotations(self, state: RingState) -> dict[str, list]:
        up = self._bounds[state.den][1]
        return {"above_upper": [rid for rid, n, u in zip(self._ids, state.nums, up) if n > u]}

    def serialize(self, state: RingState) -> str:
        return self._texts[state.pos] % tuple(map(self._levels[state.den].__getitem__, state.nums))

    def propositions(self) -> frozenset[str]:
        return PROPOSITIONS


def nres_from_json(doc: dict) -> NResState:
    doc = Doc(doc, "the reservoir document", known=("kind", "hose", "reservoirs"))
    hose_doc = doc.object("hose", ("rate", "position"))
    hose = Hose(hose_doc.rational("rate"), hose_doc.get("position", int))
    tanks = [
        Reservoir(r.get("id", int), r.rational("lower"), r.rational("upper"), r.rational("level"), r.rational("leak"))
        for r in doc.objects("reservoirs", ("id", "lower", "upper", "level", "leak"))
    ]
    return NResState.make(hose, tanks)

