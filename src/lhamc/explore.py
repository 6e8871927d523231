"""Exploration of timed models as Kripke structures discovered on demand.

Every visited configuration is a state paired with its elapsed time, kept
as one integer clock: a numerator over ``scale``, the lcm of the durations'
denominators.  The canonical state text plus that numerator is a state's
identity and its key in the explored graph's index.  With a time bound, time
advances in the given durations and total elapsed time stays strictly below
the bound.  Without one the clock stays 0 and ticks are edges annotated with
their duration, so runs may loop through them.

``Kripke(system, durations, time_bound)`` is the one explored graph and
the only way to build one: it discovers the initial state, and expands a
state the first time its out-list is asked for, so a nested DFS builds only
the states it visits; timed at one duration, it leaps over a model's quiet
stretches (:meth:`TimedTransitionSystem.quiet`), discovering only each one's
last state.  Reading a whole view expands every state left, in index order,
which is breadth-first.  :func:`build_kripke` returns the
graph expanded whole, and :func:`search` reads the whole graph and takes
each state's discovering edge, the last step of its path, from its edges.
A :class:`Solution` keeps its state's clock numerator and ``scale``, as a
lasso step does, so a ``Fraction`` is built only where ``elapsed`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import ceil, lcm
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .core import ZERO, ModelError, Timed, TimedTransitionSystem, as_clock, as_time

TICK = "tick"
STUTTER = "stutter"

MAX_STATES = 1_000_000


@dataclass(frozen=True)
class Step:
    label: str
    duration: Fraction
    text: str


class KripkeEdge(NamedTuple):
    source: int
    target: int
    label: str
    duration: Fraction


class Solution(Timed):
    """A state the search predicate accepted, how it was reached, and when
    (``elapsed / scale``); it can be changed, so it is not hashable.

    It keeps the explorer's whole ``parents`` and ``texts`` lists alive; copy
    ``path`` before holding many solutions for long."""

    __slots__ = ("state", "text", "bindings", "edge", "parents", "texts")
    _fields = ("state", "elapsed", "text", "bindings")
    __hash__ = None

    def __init__(self, state: Any, elapsed: Any, text: str, bindings: dict[str, str],
                 edge: Optional[KripkeEdge], parents: list[Optional[KripkeEdge]], texts: list[str], scale: int = 1):
        self.state, self.text, self.bindings = state, text, bindings
        self.edge, self.parents, self.texts = edge, parents, texts  # edge is None for the initial state
        self.clock, self.scale = as_clock(elapsed, scale)

    @property
    def path(self) -> tuple[Step, ...]:
        """The steps from the initial state, built afresh on every read."""
        steps = []
        edge = self.edge
        while edge is not None:
            steps.append(Step(edge.label, edge.duration, self.texts[edge.target]))
            edge = self.parents[edge.source]
        steps.reverse()
        return tuple(steps)


class Kripke:
    """The states ``system`` reaches, as a finite, total transition structure
    labeled with atomic propositions, discovered as it is read.

    States are indices in discovery order; state 0 is initial and is the only
    one discovered at first.  State i has model state ``states[i]``,
    canonical text ``texts[i]``, elapsed time ``clock[i] / scale``, letter
    ``labeling[i]`` and out-list ``adjacency[i]``, which is never empty: a
    deadlocked state has a zero-duration "stutter" self-loop.  ``index`` maps
    ``(text, clock numerator)`` to i, the explorer's key.

    ``out(i)`` expands state i the first time it is asked for and keeps its
    out-list; ``letter(i)`` and ``holds(i, prop)`` ask the system afresh and
    keep nothing.  The per-state readers (``out``, ``letter``, ``holds``,
    ``text``, ``elapsed``, ``clock_of``, ``index_of``) expand at most the
    state they are asked about.  The whole views (``len``, ``states``,
    ``texts``, ``clock``, ``index``, ``adjacency``, ``labeling``, ``edges``)
    first expand every state left, in index order; ``labeling`` evaluates
    every letter on each read.

    ``time_bound`` None explores time-abstractly, and ``timed`` is False.  A
    state discovered beyond the first ``max_states`` raises :class:`ModelError`;
    the cap counts the states indexed, and a leap indexes one per stretch.
    ``stretch(i)`` builds the states inside state i's leap, for printing a
    lasso, and indexes none of them.
    """

    def __init__(
        self,
        system: TimedTransitionSystem,
        durations: Iterable[Fraction],
        time_bound: Optional[Fraction],
        max_states: int = MAX_STATES,
    ):
        timed = time_bound is not None
        if timed:
            time_bound = as_time(time_bound)
        durations = tuple(as_time(d, "the sampling increment") for d in durations)
        self.scale = scale = lcm(*(d.denominator for d in durations))
        initial = system.initial_state()
        self._system = system
        self._max_states = max_states
        # (duration, its numerator over scale); 0 when time-abstract
        self._ticks = [(d, d.numerator * (scale // d.denominator) if timed else 0) for d in durations]
        self._limit = ceil(time_bound * scale) if timed else None  # elapsed numerators stay below
        self._states = [initial]
        self._texts = [system.serialize(initial)]
        self._clock = [0]
        self._out: list[Optional[list[KripkeEdge]]] = [None]  # None until expanded
        self._index = {(self._texts[0], 0): 0}
        self._expanded = 0  # every state below this one is expanded
        self._leaps: dict[int, Optional[tuple[int, int]]] = {}  # state -> its leap, once asked
        self.props = system.propositions()
        self.initial = 0

    def _expand(self, i: int) -> list[KripkeEdge]:
        """Discover state i's successors in edge order, its discrete moves
        and then one tick per duration, and keep and return its out-list."""
        system = self._system
        state = self._states[i]
        now = self._clock[i]
        # (label, successor, its elapsed numerator, edge duration)
        moves: list[tuple[str, Any, int, Fraction]] = [
            (label, succ, now, ZERO) for label, succ in system.discrete_successors(state)
        ]
        for d, step in self._ticks:
            later = now + step
            if self._limit is not None and later >= self._limit:
                continue
            after = system.timed_successor(state, d)
            if after is not None:
                moves.append((TICK, after, later, d))
        out = self._out[i] = self._discover(i, moves) or [KripkeEdge(i, i, STUTTER, ZERO)]
        return out

    def _discover(self, i: int, moves: list[tuple[str, Any, int, Fraction]]) -> list[KripkeEdge]:
        """State i's edges to its moves' successors, in order, indexing each
        successor not discovered yet."""
        states, index, serialize, out = self._states, self._index, self._system.serialize, []
        for label, succ, n, duration in moves:
            text = serialize(succ)
            j = index.setdefault((text, n), len(states))
            if j == len(states):  # first reached by this edge
                if j >= self._max_states:
                    raise ModelError(f"state space exceeds {self._max_states} states")
                states.append(succ)
                self._texts.append(text)
                self._clock.append(n)
                self._out.append(None)
            out.append(KripkeEdge(i, j, label, duration))
        return out

    def leap(self, i: int) -> Optional[tuple[int, int]]:
        """``(k, j)`` when a timed structure of one duration ticks from state
        i through a quiet stretch of k > 1 ticks (:meth:`TimedTransitionSystem.quiet`)
        to state j, the only one of them it discovers; else None.  Each state
        is asked of the system once."""
        if self._limit is None or len(self._ticks) != 1:
            return None
        if i not in self._leaps:
            (d, step), = self._ticks
            now = self._clock[i]
            hop = self._system.quiet(self._states[i], d, (self._limit - 1 - now) // step)
            self._leaps[i] = hop and (hop[0], self._discover(i, [(TICK, hop[1], now + hop[0] * step, d)])[0].target)
        return self._leaps[i]

    def stretch(self, i: int) -> list[tuple[str, int]]:
        """The text and clock numerator of each of the k - 1 states inside
        state i's leap, in tick order, ticked one at a time and not indexed."""
        (d, step), = self._ticks
        state, now = self._states[i], self._clock[i]
        inside = []
        for m in range(1, self.leap(i)[0]):
            state = self._system.timed_successor(state, d)
            inside.append((self._system.serialize(state), now + m * step))
        return inside

    def out(self, i: int) -> list[KripkeEdge]:
        """State i's out-list, built the first time it is asked for."""
        return self._out[i] or self._expand(i)

    def letter(self, i: int) -> frozenset[str]:
        """The propositions that hold in state i, asked of the system afresh."""
        return frozenset(p for p in self.props if self.holds(i, p))

    def holds(self, i: int, prop: str) -> bool:
        """Whether ``prop`` holds in state i, asked of the system afresh."""
        return self._system.prop_holds(self._states[i], prop)

    def text(self, i: int) -> str:
        return self._texts[i]

    def elapsed(self, i: int) -> Fraction:
        return Fraction(self._clock[i], self.scale)

    def clock_of(self, i: int) -> int:
        return self._clock[i]

    def index_of(self, text: str, elapsed: Any, scale: int = 1) -> Optional[int]:
        """The discovered state with this text and time, ``elapsed / scale``, if any."""
        clock, scale = as_clock(elapsed, scale)
        n, r = divmod(clock * self.scale, scale)
        return self._index.get((text, n)) if r == 0 else None  # on the clock's grid exactly when r == 0

    def _whole(self, view: Any) -> Any:
        """``view`` once every state left is expanded, in index order."""
        i = self._expanded
        while i < len(self._states):  # the loop also visits states it discovers
            if self._out[i] is None:
                self._expand(i)
            i += 1
        self._expanded = i
        return view

    states = property(lambda self: self._whole(self._states))
    texts = property(lambda self: self._whole(self._texts))
    clock = property(lambda self: self._whole(self._clock))
    index = property(lambda self: self._whole(self._index))
    adjacency = property(lambda self: self._whole(self._out))
    timed = property(lambda self: self._limit is not None)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def labeling(self) -> list[frozenset[str]]:
        return [self.letter(i) for i in range(len(self))]

    @property
    def edges(self) -> tuple[KripkeEdge, ...]:
        """Every edge, grouped by source in state order."""
        return tuple(chain.from_iterable(self.adjacency))


def search(
    system: TimedTransitionSystem,
    match: Callable[[Any], Optional[dict[str, str]]],
    time_bound: Optional[Fraction],
    increment: Fraction = Fraction(1),
    max_states: int = MAX_STATES,
) -> list[Solution]:
    """All distinct reachable states within the bound that ``match`` maps to
    bindings rather than None; ``time_bound`` None searches time-abstractly.

    Ordered by elapsed time, ties by discovery order.
    """
    graph = Kripke(system, (increment,), time_bound, max_states)
    states, clock, texts = graph.states, graph.clock, graph.texts
    # Expanded breadth-first, a state is discovered by its first in-edge in
    # edge order, and targets are discovered in increasing index order.
    parents: list[Optional[KripkeEdge]] = [None]  # the edge that discovered each state
    for edge in graph.edges:
        if edge.target == len(parents):
            parents.append(edge)
    hits = []
    for i, state in enumerate(states):
        bindings = match(state)
        if bindings is not None:
            hits.append((clock[i], i, bindings))
    hits.sort()  # by elapsed time, then discovery order
    return [
        Solution(states[i], n, texts[i], bindings, parents[i], parents, texts, graph.scale)
        for n, i, bindings in hits
    ]


def build_kripke(
    system: TimedTransitionSystem,
    time_bound: Fraction,
    increment: Fraction = Fraction(1),
    max_states: int = MAX_STATES,
) -> Kripke:
    """Reachable timed states, sampled every ``increment``, as a total Kripke
    structure with every state expanded before it returns."""
    kripke = Kripke(system, (increment,), time_bound, max_states)
    len(kripke)  # expands every state, in index order
    return kripke
