"""Breadth-first exploration of timed models and Kripke construction.

Every visited configuration is a state paired with its elapsed time, kept
as one integer clock: a numerator over ``scale``, the lcm of the durations'
denominators.  The canonical state text plus that numerator is a state's
identity and its key in the explorer's index.  With a time bound, time
advances in the given durations and total elapsed time stays strictly below
the bound.  Without one the clock stays 0 and ticks are edges annotated with
their duration, so runs may loop through them.  Each transition is one
:class:`KripkeEdge` in its source's out-list, and the edge that discovered a
state is the last step of its path.  A ``Fraction`` is built only where a
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
    """Finite, total transition structure labeled with atomic propositions.

    States are indices in discovery order; state 0 is initial.  ``states``
    holds the model states, ``texts`` their canonical texts, and state i has
    elapsed time ``clock[i] / scale``.  ``adjacency[i]`` is state i's
    out-list, which must not be empty; the explorer gives a deadlocked state
    a zero-duration "stutter" self-loop.  ``index`` maps ``(text, clock
    numerator)`` to i, the explorer's key; when omitted it is built from both.
    """

    def __init__(
        self,
        states: list[Any],
        texts: list[str],
        clock: list[int],
        scale: int,
        adjacency: list[list[KripkeEdge]],
        labeling: list[frozenset[str]],
        props: frozenset[str],
        index: Optional[dict[tuple[str, int], int]] = None,
    ):
        if len(adjacency) != len(states) or not all(adjacency):
            raise ModelError("every state must have a successor")
        self.states = states
        self.texts = texts
        self.clock = clock
        self.scale = scale
        self.adjacency = adjacency
        self.index = index if index is not None else {k: i for i, k in enumerate(zip(texts, clock))}
        self.labeling = labeling
        self.props = props
        self.initial = 0

    def __len__(self) -> int:
        return len(self.states)

    @property
    def edges(self) -> tuple[KripkeEdge, ...]:
        """Every edge, grouped by source in state order."""
        return tuple(chain.from_iterable(self.adjacency))

    def elapsed(self, i: int) -> Fraction:
        return Fraction(self.clock[i], self.scale)

    def index_of(self, text: str, elapsed: Fraction) -> Optional[int]:
        n = Fraction(elapsed) * self.scale  # an integer exactly when on the clock's grid
        return self.index.get((text, n.numerator)) if n.denominator == 1 else None

    def has_edge(self, source: int, target: int, label: str) -> bool:
        return any(e.target == target and e.label == label for e in self.adjacency[source])


def _explore(
    system: TimedTransitionSystem,
    durations: Iterable[Fraction],
    time_bound: Optional[Fraction],
    max_states: int,
):
    """Shared BFS: returns (states, texts, clock, scale, adjacency, index,
    parents), each list in discovery order.

    ``time_bound`` None explores time-abstractly.  State i has elapsed time
    ``clock[i] / scale`` and key ``(texts[i], clock[i])`` in ``index``; its
    out-list ``adjacency[i]`` is a lone stutter loop when it has no moves, and
    ``parents[i]`` is the edge that discovered it (None for state 0).
    """
    timed = time_bound is not None
    if timed:
        time_bound = as_time(time_bound)
    durations = tuple(as_time(d) for d in durations)
    if ZERO in durations:
        raise ModelError("the sampling increment must be positive")
    scale = lcm(*(d.denominator for d in durations))
    # (duration, its numerator over scale); 0 when time-abstract
    ticks = [(d, d.numerator * (scale // d.denominator) if timed else 0) for d in durations]
    limit = ceil(time_bound * scale) if timed else 0  # elapsed numerators stay below

    initial = system.initial_state()
    states: list[Any] = [initial]
    texts: list[str] = [system.serialize(initial)]
    clock: list[int] = [0]  # elapsed numerators over scale
    index: dict[tuple[str, int], int] = {(texts[0], 0): 0}
    adjacency: list[list[KripkeEdge]] = []
    parents: list[Optional[KripkeEdge]] = [None]

    i = 0
    while i < len(states):
        state = states[i]
        now = clock[i]
        # (label, successor, its elapsed numerator, edge duration)
        moves: list[tuple[str, Any, int, Fraction]] = [
            (label, succ, now, ZERO) for label, succ in system.discrete_successors(state)
        ]
        for d, step in ticks:
            later = now + step
            if timed and later >= limit:
                continue
            after = system.timed_successor(state, d)
            if after is not None:
                moves.append((TICK, after, later, d))
        out: list[KripkeEdge] = []
        for label, succ, n, duration in moves:
            text = system.serialize(succ)
            j = index.setdefault((text, n), len(states))
            edge = KripkeEdge(i, j, label, duration)
            if j == len(states):  # first reached by this edge
                if j >= max_states:
                    raise ModelError(f"state space exceeds {max_states} states")
                states.append(succ)
                texts.append(text)
                clock.append(n)
                parents.append(edge)
            out.append(edge)
        if not out:
            out.append(KripkeEdge(i, i, STUTTER, ZERO))
        adjacency.append(out)
        i += 1
    return states, texts, clock, scale, adjacency, index, parents


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
    states, texts, clock, scale, _, _, parents = _explore(system, (increment,), time_bound, max_states)
    hits = []
    for i, state in enumerate(states):
        bindings = match(state)
        if bindings is not None:
            hits.append((clock[i], i, bindings))
    hits.sort()  # by elapsed time, then discovery order
    return [
        Solution(states[i], Fraction(n, scale), texts[i], bindings, parents[i], parents, texts)
        for n, i, bindings in hits
    ]


def kripke_structure(
    system: TimedTransitionSystem,
    durations: Iterable[Fraction],
    time_bound: Optional[Fraction],
    max_states: int = MAX_STATES,
) -> Kripke:
    """Reachable states as a total, labeled Kripke structure, explored as
    :func:`_explore` does."""
    states, texts, clock, scale, adjacency, index, _ = _explore(system, durations, time_bound, max_states)
    props = system.propositions()
    labeling = [frozenset(p for p in props if system.prop_holds(s, p)) for s in states]
    return Kripke(states, texts, clock, scale, adjacency, labeling, props, index)


def build_kripke(
    system: TimedTransitionSystem,
    time_bound: Fraction,
    increment: Fraction = Fraction(1),
    max_states: int = MAX_STATES,
) -> Kripke:
    """Reachable timed states, sampled every ``increment``, as a total Kripke
    structure."""
    return kripke_structure(system, (increment,), time_bound, max_states)
