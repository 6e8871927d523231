"""LTL model checking over Kripke structures by nested depth-first search.

The property is negated, normalized, and compiled to a Buchi automaton; an
accepting lasso in the product with the Kripke structure is a counterexample.
The outer search runs in postorder, the inner search hunts for a cycle back
to the blue stack, both iterative.  A product node (s, q) steps along every
edge of s, in order, paired with every automaton target of q on the letter
of s, in order; these lists are built on demand and never cached.  The
search reads the structure one state at a time (``out(s)``, ``letter(s)``),
and a :class:`Kripke` is discovered as it is read, so the check is
on-the-fly: only the states it visits are expanded, and a counterexample
found early leaves the rest of the state space unbuilt.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..core import ModelError
from ..explore import Kripke
from .buchi import lasso_accepted, to_buchi
from .formula import Formula, negated_nnf, props_of


@dataclass(frozen=True)
class CounterexampleStep:
    """One position of the lasso plus the edge label leaving it."""

    text: str
    elapsed: Fraction
    label: str


@dataclass
class Counterexample:
    """A run of the model violating the property: prefix . cycle^omega."""

    prefix: list[CounterexampleStep]
    cycle: list[CounterexampleStep]

    def steps(self) -> list[CounterexampleStep]:
        return list(self.prefix) + list(self.cycle)


_ProductNode = tuple[int, int]  # (Kripke state, automaton state)


def _check_props(kripke: Kripke, formula: Formula) -> None:
    unknown = props_of(formula) - kripke.props
    if unknown:
        raise ModelError(f"formula mentions unknown propositions: {sorted(unknown)}")


def model_check(kripke: Kripke, formula: Formula) -> Optional[Counterexample]:
    """None if every run from the initial state satisfies the formula,
    otherwise a validated-shape counterexample lasso."""
    _check_props(kripke, formula)
    ba = to_buchi(negated_nnf(formula))
    out, letter = kripke.out, kripke.letter

    def succs(v: _ProductNode) -> list[_ProductNode]:
        s, q = v
        targets = ba.successors(q, letter(s))
        return [(e.target, t) for e in out(s) for t in targets]

    init: _ProductNode = (kripke.initial, ba.initial)
    blue: set[_ProductNode] = {init}
    red: set[_ProductNode] = set()
    on_stack: set[_ProductNode] = {init}
    stack = [(init, iter(succs(init)))]  # (node, its successors not yet tried)

    while stack:
        node, children = stack[-1]
        for child in children:
            if child not in blue:
                blue.add(child)
                on_stack.add(child)
                stack.append((child, iter(succs(child))))
                break
        else:
            # node fully explored: run the inner search if it is accepting
            if node[1] in ba.accepting:
                hit = _red_search(node, succs, red, on_stack)
                if hit is not None:
                    return _extract(kripke, [v for v, _ in stack], hit)
            stack.pop()
            on_stack.discard(node)
    return None


def _red_search(seed, succs, red, on_stack):
    """Path seed -> ... -> u for some u on the blue stack, or None.

    Nodes visited by failed searches accumulate in ``red`` and are never
    searched again.
    """
    parents: dict[_ProductNode, _ProductNode] = {}
    work = []
    for child in succs(seed):
        if child not in red and child not in parents:
            parents[child] = seed
            work.append(child)
    work.reverse()  # visit in successor order
    while work:
        u = work.pop()
        if u in on_stack:
            path = [u]
            while True:
                p = parents[path[-1]]
                path.append(p)
                if p == seed:
                    break
            path.reverse()
            return path  # [seed, ..., u], possibly u == seed on a proper cycle
        for child in succs(u):
            if child not in red and child not in parents:
                parents[child] = u
                work.append(child)
    red.update(parents)
    red.add(seed)
    return None


def _extract(kripke, blue_path, red_path) -> Counterexample:
    """Assemble the lasso from the blue stack and the red return path.  The
    automaton reads only the source's letter, so the first product successor
    reaching a node comes through the first Kripke edge: its label is used."""
    u = red_path[-1]
    j = blue_path.index(u)
    cycle_nodes = blue_path[j:] + red_path[1:-1]  # u ... seed, then back toward u
    prefix_nodes = blue_path[:j]

    def step(v, w) -> CounterexampleStep:
        s, t = v[0], w[0]
        label = next(e.label for e in kripke.out(s) if e.target == t)
        return CounterexampleStep(kripke.text(s), kripke.elapsed(s), label)

    prefix = [step(a, b) for a, b in zip(prefix_nodes, prefix_nodes[1:] + cycle_nodes[:1])]
    cycle = [step(a, b) for a, b in zip(cycle_nodes, cycle_nodes[1:] + cycle_nodes[:1])]
    return Counterexample(prefix, cycle)


def validate_counterexample(kripke: Kripke, formula: Formula, ce: Counterexample) -> bool:
    """Structural and semantic replay of a counterexample.

    The lasso must start at the initial state, follow labeled edges of the
    structure (including the wrap back to the cycle start), and its induced
    trace must violate the formula.  On a structure still being discovered
    the replay expands the lasso's states, one after the other.
    """
    _check_props(kripke, formula)
    if not ce.cycle:
        return False
    steps = ce.steps()
    cycle_start = len(ce.prefix)
    i = kripke.index_of(steps[0].text, steps[0].elapsed)
    if i != kripke.initial:
        return False
    indices = []
    for pos, step in enumerate(steps):
        indices.append(i)
        kripke.out(i)  # discovers every state the lasso may step to
        nxt = steps[pos + 1] if pos + 1 < len(steps) else steps[cycle_start]
        i = kripke.index_of(nxt.text, nxt.elapsed)
        if i is None or not kripke.has_edge(indices[-1], i, step.label):
            return False
    letters = [kripke.letter(i) for i in indices]
    ba = to_buchi(negated_nnf(formula))
    return lasso_accepted(ba, letters[:cycle_start], letters[cycle_start:])
