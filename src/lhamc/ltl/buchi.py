"""Formula to Buchi automaton via tableau expansion (Gerth, Peled, Vardi
and Wolper, PSTV 1995).

The expansion splits formulas into "now" obligations (literals) and "next"
obligations.  One rule table, ``_BRANCHES``, gives each operator's branches;
literals only check for a contradiction.  The completed nodes form a
generalized automaton with one fairness set per until/eventually
subformula, and a round-robin counter degeneralizes it in one breadth-first
walk over the reachable (node, counter) pairs.
A synthetic pre-initial state is added so every transition carries the
literal set that must hold in the state being read.  Last, the automaton is
reduced (Etessami and Holzmann, CONCUR 2000; Somenzi and Bloem, CAV 2000):
non-accepting states with the same transitions up to bisimulation are merged,
and a transition is dropped where another to the same target needs strictly
fewer literals.  Accepting states are never merged: merging them too shrinks
the automata further, but it changes the lasso the nested search finds first
for ``[] safe`` on the abstract-reservoir products.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import ModelError
from .formula import (
    And,
    Always,
    Bottom,
    Eventually,
    Formula,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Top,
    Until,
    fail_closed,
    negated_nnf,
    render,
    subformulas,
    to_nnf,
)

Literal = tuple[str, bool]


@dataclass(frozen=True)
class BuchiTransition:
    source: int
    literals: frozenset[Literal]
    target: int


class BuchiAutomaton:
    """Nondeterministic Buchi automaton with transition labels.

    Labels are consistent sets of literals: (name, True) requires the
    proposition, (name, False) forbids it.  State 0 is the unique initial
    state and has no incoming transitions.
    """

    def __init__(self, size: int, transitions: list[BuchiTransition], accepting: frozenset[int]):
        self.size = size
        self.initial = 0
        self.transitions = transitions
        self.accepting = accepting
        self.adjacency: list[list[BuchiTransition]] = [[] for _ in range(size)]
        for t in transitions:
            self.adjacency[t.source].append(t)

    @staticmethod
    def literals_hold(literals: frozenset[Literal], letter: frozenset[str]) -> bool:
        return all((name in letter) == positive for name, positive in literals)

    def successors(self, state: int, letter: frozenset[str]) -> tuple[int, ...]:
        """Targets of the transitions from ``state`` whose literals hold in
        ``letter``, in adjacency order."""
        return tuple(t.target for t in self.adjacency[state] if self.literals_hold(t.literals, letter))


class _Node:
    __slots__ = ("incoming", "new", "old", "next")

    def __init__(self, incoming: set[int], new: list[Formula], old: set[Formula], nxt: set[Formula]):
        self.incoming = incoming  # indices in the completed list, or _INIT
        self.new = new
        self.old = old
        self.next = nxt


_INIT = -1

# The tableau rule of each operator that is not a literal: its branches, in
# expansion order, as (formulas that must hold now, formulas that must hold
# next); g is the formula being expanded.
_BRANCHES = {
    And: lambda g: [((g.left, g.right), ())],
    Or: lambda g: [((g.left,), ()), ((g.right,), ())],
    Next: lambda g: [((), (g.sub,))],
    Always: lambda g: [((g.sub,), (g,))],
    Eventually: lambda g: [((g.sub,), ()), ((), (g,))],
    Until: lambda g: [((g.right,), ()), ((g.left,), (g,))],
    Release: lambda g: [((g.left, g.right), ()), ((g.right,), (g,))],
}


def _expand(f: Formula) -> list[_Node]:
    """All completed tableau nodes, in completion order."""
    completed: list[_Node] = []
    by_shape: dict[tuple[frozenset[Formula], frozenset[Formula]], _Node] = {}
    stack = [_Node({_INIT}, [f], set(), set())]
    while stack:
        node = stack.pop()
        if not node.new:
            shape = (frozenset(node.old), frozenset(node.next))
            known = by_shape.get(shape)
            if known is not None:
                known.incoming |= node.incoming
                continue
            by_shape[shape] = node
            completed.append(node)
            stack.append(_Node({len(completed) - 1}, sorted(node.next, key=render), set(), set()))
            continue
        g = node.new.pop(0)
        if g in node.old:
            stack.append(node)
        elif type(g) in _BRANCHES:
            node.old.add(g)
            branches = _BRANCHES[type(g)](g)
            nodes = [node] if len(branches) == 1 else [_copy(node) for _ in branches]
            for branch, (now, later) in zip(nodes, branches):
                for h in now:
                    if h not in branch.old and h not in branch.new:
                        branch.new.append(h)
                branch.next.update(later)
            stack.extend(reversed(nodes))  # the first branch expands first
        elif isinstance(g, (Top, Prop)) or isinstance(g, Not) and isinstance(g.sub, Prop):
            if negated_nnf(g) not in node.old:  # else a contradiction: drop the node
                node.old.add(g)
                stack.append(node)
        elif not isinstance(g, Bottom):
            raise ModelError(f"not a formula: {g!r}")
    return completed


def _copy(node: _Node) -> _Node:
    return _Node(set(node.incoming), list(node.new), set(node.old), set(node.next))


def _literals(old: set[Formula]) -> frozenset[Literal]:
    out = set()
    for g in old:
        if isinstance(g, Prop):
            out.add((g.name, True))
        elif isinstance(g, Not) and isinstance(g.sub, Prop):
            out.add((g.sub.name, False))
    return frozenset(out)


def to_buchi(f: Formula) -> BuchiAutomaton:
    """Buchi automaton accepting exactly the traces satisfying f, which may
    be any formula: it is put in negation normal form first."""
    return fail_closed(_to_buchi, f)


def _to_buchi(f: Formula) -> BuchiAutomaton:
    return _reduced(_degeneralized(to_nnf(f)))


def _degeneralized(f: Formula) -> BuchiAutomaton:
    """The tableau automaton of f, in negation normal form, degeneralized."""
    nodes = _expand(f)
    labels = [_literals(node.old) for node in nodes]

    # Generalized acceptance: one set per eventuality, in first-occurrence
    # order, satisfied where the eventuality is absent or its payoff formula
    # is already present.
    eventualities = dict.fromkeys(g for g in subformulas(f) if isinstance(g, (Until, Eventually)))
    sets = []
    for ev in eventualities:
        payoff = ev.right if isinstance(ev, Until) else ev.sub
        sets.append(frozenset(
            i for i, node in enumerate(nodes) if ev not in node.old or payoff in node.old
        ))
    k = len(sets)

    gba_edges: list[list[int]] = [[] for _ in nodes]  # targets, by source
    initial_targets: list[int] = []
    for i, node in enumerate(nodes):
        for p in node.incoming:  # each predecessor appends to its own list
            (initial_targets if p == _INIT else gba_edges[p]).append(i)

    def advance(counter: int, target: int) -> int:
        if counter == k:
            counter = 0
        while counter < k and target in sets[counter]:
            counter += 1
        return counter

    # Counting degeneralization, over the (node, counter) pairs reachable
    # from the pre-initial state 0; state s + 1 is order[s].
    ids: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []

    def intern(q: tuple[int, int]) -> int:
        known = ids.get(q)
        if known is None:
            known = ids[q] = len(order) + 1
            order.append(q)
        return known

    transitions = [BuchiTransition(0, labels[i], intern((i, advance(0, i)))) for i in initial_targets]
    # one breadth-first walk: the loop also visits the pairs it interns
    for source, (i, counter) in enumerate(order, start=1):
        transitions.extend(
            BuchiTransition(source, labels[j], intern((j, advance(counter, j)))) for j in gba_edges[i]
        )

    accepting = frozenset(ids[q] for q in order if q[1] == k)
    return BuchiAutomaton(len(order) + 1, transitions, accepting)


def _numbered(keys: list) -> tuple[list[int], int]:
    """Each key's block, numbered by first occurrence, and the block count."""
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys], len(ids)


def _reduced(ba: BuchiAutomaton) -> BuchiAutomaton:
    """The bisimulation quotient of ``ba``, less its subsumed transitions.

    State 0 and every accepting state keep a block of their own; the other
    states share a block while they have the same set of (literals, target
    block) pairs.  Blocks are numbered by their first member, so state 0 stays
    initial and has no incoming transitions.  A block takes its first member's
    transitions in adjacency order, less exact duplicates and less any
    transition that another one to the same target subsumes: it has a
    strictly smaller literal set, so it fires whenever the first one does.
    """
    adjacency = ba.adjacency
    block, count = _numbered([q if q == 0 or q in ba.accepting else -1 for q in range(ba.size)])
    while True:
        refined, refined_count = _numbered([
            (block[q], frozenset((t.literals, block[t.target]) for t in out))
            for q, out in enumerate(adjacency)
        ])
        if refined_count == count:  # refinement only splits blocks
            break
        block, count = refined, refined_count
    first: dict[int, int] = {}  # block to its first member, in block order
    for q, b in enumerate(block):
        first.setdefault(b, q)
    transitions = []
    for b, q in first.items():
        edges = list(dict.fromkeys((t.literals, block[t.target]) for t in adjacency[q]))
        transitions.extend(
            BuchiTransition(b, literals, target)
            for literals, target in edges
            if not any(other < literals for other, to in edges if to == target)
        )
    return BuchiAutomaton(count, transitions, frozenset(block[q] for q in ba.accepting))

