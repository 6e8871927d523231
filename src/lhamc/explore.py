"""Breadth-first exploration of timed models and Kripke construction.

Every visited configuration is a state paired with its elapsed time, kept
as one integer clock: a numerator over ``scale``, the lcm of the durations'
denominators.  The canonical state text plus that numerator is a state's
identity.  With a time bound, time advances in the given durations and total
elapsed time stays strictly below the bound.  Without one the structure is
time-abstract: the clock stays 0 and ticks are edges annotated with their
duration, so runs may loop through them.  A ``Fraction`` is built only where
a caller reads a time: a search hit, a lasso step, an index lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, lcm
from typing import Any, Callable, Iterable, Optional

from .core import ZERO, ModelError, TimedTransitionSystem, as_time

TICK = "tick"
STUTTER = "stutter"

MAX_STATES = 1_000_000


@dataclass(frozen=True)
class Step:
    label: str
    duration: Fraction
    text: str


# A state's link to the initial state: (parent's link, label, duration, text),
# or None for the initial state itself.
Link = Optional[tuple]


@dataclass
class Solution:
    """A state the search predicate accepted, with how it was reached."""

    state: Any
    elapsed: Fraction
    text: str
    bindings: dict[str, str]
    link: Link = field(repr=False, compare=False)

    @property
    def path(self) -> tuple[Step, ...]:
        """The steps from the initial state, built afresh on every read."""
        steps = []
        link = self.link
        while link is not None:
            link, label, duration, text = link
            steps.append(Step(label, duration, text))
        steps.reverse()
        return tuple(steps)


@dataclass(frozen=True)
class KripkeEdge:
    source: int
    target: int
    label: str
    duration: Fraction


class Kripke:
    """Finite, total transition structure labeled with atomic propositions.

    States are indices in discovery order; state 0 is initial.  ``states``
    holds the model states, ``texts`` their canonical texts, and state i has
    elapsed time ``clock[i] / scale``.  Deadlocked states get a zero-duration
    "stutter" self-loop so every state has at least one successor.
    """

    def __init__(
        self,
        states: list[Any],
        texts: list[str],
        clock: list[int],
        scale: int,
        edges: list[KripkeEdge],
        labeling: list[frozenset[str]],
        props: frozenset[str],
    ):
        self.states = states
        self.texts = texts
        self.clock = clock
        self.scale = scale
        self.edges = edges
        self.labeling = labeling
        self.props = props
        self.initial = 0
        self.adjacency: list[list[KripkeEdge]] = [[] for _ in states]
        for e in edges:
            self.adjacency[e.source].append(e)
        self._index: Optional[dict[tuple[str, int], int]] = None  # built on the first lookup
        for out in self.adjacency:
            if not out:
                raise ModelError("every state must have a successor")

    def __len__(self) -> int:
        return len(self.states)

    def elapsed(self, i: int) -> Fraction:
        return Fraction(self.clock[i], self.scale)

    def index_of(self, text: str, elapsed: Fraction) -> Optional[int]:
        n = Fraction(elapsed) * self.scale  # an integer exactly when on the clock's grid
        if self._index is None:
            self._index = {key: i for i, key in enumerate(zip(self.texts, self.clock))}
        return self._index.get((text, n.numerator)) if n.denominator == 1 else None

    def has_edge(self, source: int, target: int, label: str) -> bool:
        return any(e.target == target and e.label == label for e in self.adjacency[source])


def _explore(
    system: TimedTransitionSystem,
    durations: Iterable[Fraction],
    time_bound: Optional[Fraction],
    max_states: int,
):
    """Shared BFS: returns (states, texts, edges, links, clock, scale), each
    list in discovery order.

    ``time_bound`` None explores time-abstractly.  ``clock`` holds each
    state's elapsed time as an integer numerator over ``scale``, the lcm of
    the durations' denominators.
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
    edges: list[KripkeEdge] = []
    links: list[Link] = [None]

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
        for label, succ, n, duration in moves:
            text = system.serialize(succ)
            key = (text, n)
            j = index.get(key)
            if j is None:
                j = len(states)
                if j >= max_states:
                    raise ModelError(f"state space exceeds {max_states} states")
                index[key] = j
                states.append(succ)
                texts.append(text)
                clock.append(n)
                links.append((links[i], label, duration, text))
            edges.append(KripkeEdge(i, j, label, duration))
        i += 1
    return states, texts, edges, links, clock, scale


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
    states, texts, _, links, clock, scale = _explore(system, (increment,), time_bound, max_states)
    hits = []
    for i, state in enumerate(states):
        bindings = match(state)
        if bindings is not None:
            hits.append((clock[i], i, bindings))
    hits.sort()  # by elapsed time, then discovery order
    return [
        Solution(states[i], Fraction(n, scale), texts[i], bindings, links[i])
        for n, i, bindings in hits
    ]


def kripke_structure(
    system: TimedTransitionSystem,
    durations: Iterable[Fraction],
    time_bound: Optional[Fraction],
    max_states: int = MAX_STATES,
) -> Kripke:
    """Reachable states as a total, labeled Kripke structure.

    Explores as :func:`_explore` does; deadlocked states get a zero-duration
    stutter self-loop.
    """
    states, texts, edges, _, clock, scale = _explore(system, durations, time_bound, max_states)
    with_out = {e.source for e in edges}
    for i in range(len(states)):
        if i not in with_out:
            edges.append(KripkeEdge(i, i, STUTTER, ZERO))
    props = system.propositions()
    labeling = [
        frozenset(p for p in props if system.prop_holds(state, p)) for state in states
    ]
    return Kripke(states, texts, clock, scale, edges, labeling, props)


def build_kripke(
    system: TimedTransitionSystem,
    time_bound: Fraction,
    increment: Fraction = Fraction(1),
    max_states: int = MAX_STATES,
) -> Kripke:
    """Reachable timed states, sampled every ``increment``, as a total Kripke
    structure."""
    return kripke_structure(system, (increment,), time_bound, max_states)
