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
the states it visits.
:func:`kripke_structure` expands every state breadth-first, and
:func:`search` walks breadth-first keeping only each state's discovering
edge, the last step of its path.  A ``Fraction`` is built only where a
caller reads a time: a search hit, a lasso step, an index lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import ceil, lcm
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .core import ZERO, ModelError, TimedTransitionSystem, as_time

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


@dataclass
class Solution:
    """A state the search predicate accepted, with how it was reached.

    It keeps the explorer's whole ``parents`` and ``texts`` lists alive; copy
    ``path`` before holding many solutions for long."""

    state: Any
    elapsed: Fraction
    text: str
    bindings: dict[str, str]
    edge: Optional[KripkeEdge] = field(repr=False, compare=False)  # None for the initial state
    parents: list[Optional[KripkeEdge]] = field(repr=False, compare=False)
    texts: list[str] = field(repr=False, compare=False)

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

    ``out(i)`` expands state i the first time it is asked for, and
    ``letter(i)`` evaluates the propositions the first time it is read.  The
    per-state readers (``out``, ``letter``, ``text``, ``elapsed``,
    ``index_of``, ``has_edge``) expand at most the state they are asked
    about.  The whole views (``len``, ``states``, ``texts``, ``clock``,
    ``index``, ``adjacency``, ``labeling``, ``edges``) first expand every
    state left, in index order.

    ``time_bound`` None explores time-abstractly.  Discovering a state beyond
    the first ``max_states`` raises :class:`ModelError`.
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
        durations = tuple(as_time(d) for d in durations)
        if ZERO in durations:
            raise ModelError("the sampling increment must be positive")
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
        self._letters: list[Optional[frozenset[str]]] = [None]  # None until read
        self._index = {(self._texts[0], 0): 0}
        self._parents: list[Optional[KripkeEdge]] = [None]  # the edge that discovered each state
        self._expanded = 0  # every state below this one is expanded
        self.props = system.propositions()
        self.initial = 0

    def _expand(self, i: int, keep: bool = True) -> list[KripkeEdge]:
        """Discover state i's successors in edge order, its discrete moves
        and then one tick per duration, and return its out-list.  ``keep``
        False keeps no out-list and builds only the edges that discover
        states."""
        system = self._system
        states, index = self._states, self._index
        state = states[i]
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
        out: list[KripkeEdge] = []
        for label, succ, n, duration in moves:
            text = system.serialize(succ)
            j = index.setdefault((text, n), len(states))
            if j == len(states):  # first reached by this edge
                if j >= self._max_states:
                    raise ModelError(f"state space exceeds {self._max_states} states")
                states.append(succ)
                self._texts.append(text)
                self._clock.append(n)
                self._out.append(None)
                self._letters.append(None)
                edge = KripkeEdge(i, j, label, duration)
                self._parents.append(edge)
                out.append(edge)
            elif keep:
                out.append(KripkeEdge(i, j, label, duration))
        if keep:
            out = self._out[i] = out or [KripkeEdge(i, i, STUTTER, ZERO)]
        return out

    def out(self, i: int) -> list[KripkeEdge]:
        """State i's out-list, built the first time it is asked for."""
        return self._out[i] or self._expand(i)

    def letter(self, i: int) -> frozenset[str]:
        """The propositions that hold in state i."""
        letter = self._letters[i]
        if letter is None:
            state, holds = self._states[i], self._system.prop_holds
            letter = self._letters[i] = frozenset(p for p in self.props if holds(state, p))
        return letter

    def text(self, i: int) -> str:
        return self._texts[i]

    def elapsed(self, i: int) -> Fraction:
        return Fraction(self._clock[i], self.scale)

    def index_of(self, text: str, elapsed: Fraction) -> Optional[int]:
        """The discovered state with this text and time, if any."""
        n = Fraction(elapsed) * self.scale  # an integer exactly when on the clock's grid
        return self._index.get((text, n.numerator)) if n.denominator == 1 else None

    def has_edge(self, source: int, target: int, label: str) -> bool:
        return any(e.target == target and e.label == label for e in self.out(source))

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

    def __len__(self) -> int:
        return len(self.states)

    @property
    def labeling(self) -> list[frozenset[str]]:
        letters = self._whole(self._letters)
        if None in letters:
            for i in range(len(letters)):
                self.letter(i)
        return letters

    @property
    def edges(self) -> tuple[KripkeEdge, ...]:
        """Every edge, grouped by source in state order."""
        return tuple(chain.from_iterable(self.adjacency))


def search(
    system: TimedTransitionSystem,
    match: Callable[[Any], Optional[dict[str, str]]],
    time_bound: Fraction,
    increment: Fraction = Fraction(1),
    max_states: int = MAX_STATES,
) -> list[Solution]:
    """All distinct reachable states within the bound that ``match`` maps to
    bindings rather than None.

    Ordered by elapsed time, ties by discovery order.
    """
    graph = Kripke(system, (increment,), time_bound, max_states)
    states, clock = graph._states, graph._clock
    i = 0
    while i < len(states):  # breadth-first; the loop also visits states it discovers
        graph._expand(i, keep=False)
        i += 1
    hits = []
    for i, state in enumerate(states):
        bindings = match(state)
        if bindings is not None:
            hits.append((clock[i], i, bindings))
    hits.sort()  # by elapsed time, then discovery order
    texts, parents = graph._texts, graph._parents
    return [
        Solution(states[i], Fraction(n, graph.scale), texts[i], bindings, parents[i], parents, texts)
        for n, i, bindings in hits
    ]


def kripke_structure(
    system: TimedTransitionSystem,
    durations: Iterable[Fraction],
    time_bound: Optional[Fraction],
    max_states: int = MAX_STATES,
) -> Kripke:
    """Reachable states as a total, labeled Kripke structure, every state
    expanded in breadth-first order and labeled before it returns."""
    kripke = Kripke(system, durations, time_bound, max_states)
    kripke.labeling  # expands every state, in index order, and labels it
    return kripke


def build_kripke(
    system: TimedTransitionSystem,
    time_bound: Fraction,
    increment: Fraction = Fraction(1),
    max_states: int = MAX_STATES,
) -> Kripke:
    """Reachable timed states, sampled every ``increment``, as a total Kripke
    structure."""
    return kripke_structure(system, (increment,), time_bound, max_states)
