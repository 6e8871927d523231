"""LTL model checking over Kripke structures by clock layers and nested DFS.

The property is negated, normalized, and compiled to a Buchi automaton; an
accepting lasso in the product with the Kripke structure is a counterexample.
One row table, :func:`_letter_rows`, keeps for each distinct letter the
automaton targets of every automaton state on it.  A product node (s, q)
steps along every edge of s, in order, paired with every automaton target of
q in the row of s's letter, in order.  The letter of s holds only the
formula's propositions, each asked of the structure once per state
(``holds(s, p)``), and s is mapped to its row when the check first meets it.
With a time bound every cycle lies in one clock value, its layer, and
:func:`_layered_cycle` decides the check layer by layer; a state that leaps
k ticks (``Kripke.leap``) passes its mask, stepped k times, to the leap's end
alone, so a held ring check reads the ring's letter changes, not its ticks.  The nested search,
:func:`_accepting_cycle`, runs in postorder and hunts for a cycle back to the
blue stack; it runs from the initial node only for a refuted or time-abstract
check, and it decides :func:`lasso_accepted` too.  From the initial node it
leaps as well: a stretch's inner states each have one tick edge and the
letter of its first state, so they stand as (state, ticks taken) nodes,
one for one with the nodes of stepping every tick, and the lasso is the
same.  A lasso's stretch states are not indexed: their texts are read from
the model's ``quiet_run`` (``Kripke.stretch``), in closed form for a ring and
an automaton, and the replay ticks through them; ``max_states`` counts the indexed states,
so a lasso returned under a cap replays under it.  The check reads the
structure one state at a time (``out(s)``, ``holds(s, p)``), and a
:class:`Kripke` is discovered as it is read, so only the states the check
reads are expanded.  A lasso step keeps its state's integer clock numerator
and the structure's scale, and replay looks it up by that key.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import partial
from itertools import islice
from typing import Any, Optional

from ..core import Memo, ModelError, Timed, as_clock
from ..explore import TICK, Kripke
from .buchi import BuchiAutomaton, to_buchi
from .formula import Formula, negated_nnf, props_of


class CounterexampleStep(Timed):
    """One position of the lasso, at ``elapsed / scale``, plus the edge label
    leaving it; it cannot be changed once built."""

    __slots__ = ("text", "label")
    _fields = ("text", "elapsed", "label")

    def __init__(self, text: str, elapsed: Any, label: str, scale: int = 1):
        if type(elapsed) is not int:  # an engine's integer clock numerator is taken as it is
            elapsed, scale = as_clock(elapsed, scale)
        _set_text(self, text)  # past __setattr__, which refuses
        _set_label(self, label)
        _set_clock(self, elapsed)
        _set_scale(self, scale)

    def __setattr__(self, name: str, *value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


_set_text, _set_label, _set_clock, _set_scale = (
    getattr(CounterexampleStep, name).__set__ for name in ("text", "label", "clock", "scale"))


@dataclass
class Counterexample:
    """A run of the model violating the property: prefix . cycle^omega."""

    prefix: list[CounterexampleStep]
    cycle: list[CounterexampleStep]

    def steps(self) -> list[CounterexampleStep]:
        return list(self.prefix) + list(self.cycle)


_ProductNode = tuple[Any, int]  # (Kripke state, or (state, ticks into its leap), automaton state)


def _check_props(kripke: Kripke, formula: Formula) -> None:
    unknown = props_of(formula) - kripke.props
    if unknown:
        raise ModelError(f"formula mentions unknown propositions: {sorted(unknown)}")


def _letter_rows(ba: BuchiAutomaton) -> Memo:
    """Each letter's row, built on its first request: the targets of every
    automaton state on that letter, indexed by state."""
    return Memo(lambda letter: [ba.successors(q, letter) for q in range(ba.size)])


def model_check(kripke: Kripke, formula: Formula) -> Optional[Counterexample]:
    """None if every run from the initial state satisfies the formula,
    otherwise a validated-shape counterexample lasso."""
    _check_props(kripke, formula)
    ba = to_buchi(negated_nnf(formula))
    out, holds, leap = kripke.out, kripke.holds, kripke.leap
    props = sorted(props_of(formula))
    rows = _letter_rows(ba)
    row_of = Memo(lambda s: rows[frozenset(p for p in props if holds(s, p))])

    def succs(v: _ProductNode) -> list[_ProductNode]:
        s, q = v
        targets = row_of[s][q]
        return [(e.target, t) for e in out(s) for t in targets] if targets else []

    def leaping(v: _ProductNode) -> list[_ProductNode]:
        """``succs`` through leaps: ((i, m), q) is state i after m of its
        leap's k ticks, on i's letter, with one tick edge, and never indexed."""
        s, q = v
        if type(s) is not tuple:
            if not (row_of[s][q] and leap(s)):
                return succs(v)
            s = (s, 0)
        (i, m), (k, j) = s, leap(s[0])
        return [(j if m + 1 == k else (i, m + 1), t) for t in row_of[i][q]]

    if kripke.timed and not _layered_cycle(kripke, ba, row_of, succs):
        return None
    hit = _accepting_cycle((kripke.initial, ba.initial), leaping if kripke.timed else succs, ba.accepting)
    return None if hit is None else _extract(kripke, *hit)


def _layered_cycle(kripke: Kripke, ba: BuchiAutomaton, row_of: Memo, succs) -> bool:
    """Whether a timed structure's product with the automaton has a reachable
    accepting cycle.  Each layer is carried to its fixpoint, in clock order: a
    state holds the mask of its automaton states and passes on what that
    steps to.  A layer is searched for a cycle only if one of its own edges
    returns to a state already carried from."""
    clock_of, leap = kripke.clock_of, kripke.leap
    images: dict[tuple[int, int], int] = {}  # (id of a row, mask) -> the mask it steps to

    def step(row: list, m: int) -> int:
        image = images.get((id(row), m))
        if image is None:
            image = images[id(row), m] = sum({1 << t for q, ts in enumerate(row) if m >> q & 1 for t in ts})
        return image

    mask = {kripke.initial: 1 << ba.initial}
    pending = {0: [kripke.initial]}  # clock -> the states first reached at it

    def within(v: _ProductNode) -> list[_ProductNode]:
        """Layer c's own product edges; its root, (None, None), steps to its reached nodes."""
        if v[0] is None:
            return [(s, q) for s in carried for q in range(ba.size) if mask[s] >> q & 1]
        return [w for w in succs(v) if clock_of(w[0]) == c]

    while pending:
        c = min(pending)
        work = pending.pop(c)
        carried: dict[int, int] = {}  # state -> the mask last carried from it
        inner = False
        while work:
            s = work.pop()
            if carried.get(s) == mask[s]:
                continue
            m = carried[s] = mask[s]
            row = row_of[s]
            image = step(row, m)
            hop = image and leap(s)
            if hop:  # (k, t): k ticks through s's letter, to t in a later layer
                image, targets = _power(partial(step, row), image, hop[0] - 1), hop[1:]
            else:
                targets = [e.target for e in kripke.out(s)] if image else ()
            for t in targets if image else ():
                old = mask.get(t, 0)
                mask[t] = old | image
                if clock_of(t) == c:
                    inner = inner or t in carried  # every cycle in the layer has such an edge
                    if mask[t] != old:
                        work.append(t)
                elif not old:  # first reached, in a later layer
                    pending.setdefault(clock_of(t), []).append(t)
        if inner and _accepting_cycle((None, None), within, ba.accepting):
            return True
    return False


def _power(f, m: int, k: int) -> int:
    """``f`` applied k times to ``m``, stopping once ``m`` maps to itself."""
    while k and (image := f(m)) != m:
        m, k = image, k - 1
    return m


def lasso_accepted(
    ba: BuchiAutomaton,
    prefix: list[frozenset[str]],
    cycle: list[frozenset[str]],
) -> bool:
    """Whether the ultimately periodic word prefix . cycle^omega is accepted:
    whether the product of the automaton with the lasso, whose last position
    steps back to the first of the cycle, has a reachable accepting cycle."""
    if not cycle:
        raise ModelError("the cycle of a lasso must be nonempty")
    rows = _letter_rows(ba)
    row_at = [rows[letter] for letter in (*prefix, *cycle)]
    following = [*range(1, len(row_at)), len(prefix)]

    def succs(v: tuple[int, int]) -> list[tuple[int, int]]:
        pos, q = v
        nxt = following[pos]
        return [(nxt, t) for t in row_at[pos][q]]

    return _accepting_cycle((0, ba.initial), succs, ba.accepting) is not None


def _accepting_cycle(init, succs, accepting):
    """The blue stack and the red return path of a reachable cycle through a
    node whose second component is in ``accepting``, or None.

    The outer search visits successors in order and runs the inner search
    from each accepting node when it leaves it, in postorder.
    """
    blue = {init}
    red = set()
    on_stack = {init}
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
            if node[1] in accepting:
                hit = _red_search(node, succs, red, on_stack)
                if hit is not None:
                    return [v for v, _ in stack], hit
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
    reaching a node comes through the first Kripke edge: its label is used.
    A leap's inner states are not indexed; their steps come all at once, with
    the leap's first state, from the texts ``Kripke.stretch`` reads from the
    model.  A step keeps the engine's integer clock numerator as it is."""
    u = red_path[-1]
    j = blue_path.index(u)
    cycle_nodes = blue_path[j:] + red_path[1:-1]  # u ... seed, then back toward u
    prefix_nodes = blue_path[:j]
    scale = kripke.scale

    def steps(nodes: list, after) -> list[CounterexampleStep]:
        out = []
        for (s, _), (t, _) in zip(nodes, nodes[1:] + [after]):
            if type(s) is tuple:  # (i, m), inside a leap: stepped with i
                continue
            label = TICK if type(t) is tuple else next(e.label for e in kripke.out(s) if e.target == t)
            out.append(CounterexampleStep(kripke.text(s), kripke.clock_of(s), label, scale))
            if type(t) is tuple:
                out += [CounterexampleStep(text, clock, TICK, scale) for text, clock in kripke.stretch(s)]
        return out

    return Counterexample(steps(prefix_nodes, cycle_nodes[0]), steps(cycle_nodes, cycle_nodes[0]))


def validate_counterexample(kripke: Kripke, formula: Formula, ce: Counterexample) -> bool:
    """Structural and semantic replay of a counterexample.

    The lasso must start at the initial state, follow labeled edges of the
    structure (including the wrap back to the cycle start), and its induced
    trace must violate the formula.  On a structure still being discovered
    the replay expands the lasso's states, one after the other.  Through a
    leap (``Kripke.leap``) it ticks the model on from the leap's first state
    (``Kripke.ticked``), asks each state inside afresh for its text, letter and
    moves, which must be none, and indexes none of them.
    """
    _check_props(kripke, formula)
    if not ce.cycle:
        return False
    steps = ce.steps()
    cycle_start = len(ce.prefix)
    i = kripke.index_of(steps[0].text, steps[0].clock, steps[0].scale)
    if i != kripke.initial:
        return False
    system, letters, pos = kripke.system, [], 0
    while pos < len(steps):
        letters.append(kripke.letter(i))
        hop = kripke.leap(i)
        if hop:  # i ticks through the k - 1 states inside its leap to j
            k, j = hop
            run = list(islice(kripke.ticked(i), k))
            end = (system.serialize(run[-1][0]), run[-1][1]) if len(run) == k else None
            if pos + k > len(steps) or end != (kripke.text(j), kripke.clock_of(j)):
                return False
            for state, clock in run[:-1]:
                pos += 1
                at = (steps[pos - 1].label, steps[pos].text, steps[pos].clock * kripke.scale)
                if at != (TICK, system.serialize(state), clock * steps[pos].scale) or system.discrete_successors(state):
                    return False
                letters.append(frozenset(p for p in kripke.props if system.prop_holds(state, p)))
        out = [(TICK, j)] if hop else [(e.label, e.target) for e in kripke.out(i)]
        nxt = steps[pos + 1] if pos + 1 < len(steps) else steps[cycle_start]
        i = kripke.index_of(nxt.text, nxt.clock, nxt.scale)
        if i is None or (steps[pos].label, i) not in out:
            return False
        pos += 1
    ba = to_buchi(negated_nnf(formula))
    return lasso_accepted(ba, letters[:cycle_start], letters[cycle_start:])
