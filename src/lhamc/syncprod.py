"""Synchronous products of labeled transition systems, with optional timing.

Components synchronize on shared rule labels and on ticks of equal duration;
unshared rules interleave.  Every product state must be compatible: the
components agree on every proposition they share.  There is one product, over
any number of components; the untimed product is the product of tick-free
components.

A product is lazy and flat.  Its states are flat tuples of component states,
generated from the initial state as an explorer asks for successors; an
operand that is itself a product contributes its components, so a fold of
binary products is one n-ary product.  Rule labels and tick durations are
indexed once, per component, when the product is first explored.  A
state's text is rendered once, the first time it is asked for: it fills the
template of the operand tree (``"< < %s,%s >,%s >"``) with the components'
cached texts, so it reads as the nested pairs of the fold.  Text is a
state's identity, so a component or :func:`rt_sync_product` checks once, when
built, that no two states render alike; :func:`safe_prop` keeps those texts.
The ``states`` and ``rules`` views enumerate the product as its definition
does, but only when they are read; exploration never reads them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import product as cartesian
from operator import itemgetter
from typing import Any, Iterable, Iterator

from .core import (
    ONE,
    Doc,
    Memo,
    ModelError,
    TickTables,
    TimedTransitionSystem,
    as_time,
    check_prop_name,
)
from .explore import Kripke

Rule = tuple[str, Any, Any]  # (label, source, target)
Tick = tuple[Any, Any, Fraction]  # (source, target, duration)
_tick_duration = partial(as_time, step="tick durations")  # validated: a rational > 0
# How a product evaluates a proposition: whether the value is negated, and
# the (component index, states where it holds) flags that must all be raised.
Flags = tuple[bool, tuple[tuple[int, frozenset], ...]]


def _prefix_pairs(texts: Iterable[str]) -> Iterator[tuple[str, str]]:
    """Each pair of the texts where the first is a prefix of the second."""
    chain: list[str] = []  # the texts so far that are prefixes of the next
    for y in sorted(texts):
        while chain and not y.startswith(chain[-1]):
            chain.pop()
        for x in chain:
            yield x, y
        chain.append(y)


def _check_rendering(template: str, leaves: tuple[Component, ...]) -> None:
    """Raise unless distinct tuples of the leaves' states render distinct texts.

    Two readings of one text agree up to the first slot whose texts differ,
    one a prefix of the other.  From each such pair a walk after Sardinas and
    Patterson (1953) follows both over the template's literals and slots.  A
    node is (the leader's next item, the trailer's next item, w, at), where
    the trailer has yet to match w[at:].  Readings that meet at one item share
    the rest; a trailer at the end is shorter, a product ending in " >".
    """
    if all(leaf._prefix_free for leaf in leaves):
        return
    literals = template.split("%s")
    items = [[literals[0]]]
    for leaf, literal in zip(leaves, literals[1:]):
        items += [list(leaf._text.values()), [literal]]
    seen = set()  # the nodes that lead on, as a walk starts at every prefix pair
    for k, leaf in enumerate(leaves):
        head, lit = "".join(item[0] for item in items[: 2 * k + 1]), literals[k + 1]
        for x, y in _prefix_pairs(leaf._text.values()):
            if not (y.startswith(lit, len(x)) or lit.startswith(y[len(x) :])):
                continue  # the walk's first step: y's overhang must match the literal after slot k
            todo = [(2 * k + 2, 2 * k + 2, y, len(x), head + y)]  # each with the leader's text
            while todo:
                i, j, w, at, text = todo.pop()
                if at == len(w) and i == j:
                    text += "".join(item[0] for item in items[i:])
                    raise ModelError(f"two component states render as {text!r}")
                if j == len(items) or (i, j, w, at) in seen:
                    continue
                rest, before = w[at:], len(todo)
                for t in items[j]:
                    if rest.startswith(t):
                        todo.append((i, j + 1, w, at + len(t), text))
                    elif t.startswith(rest):
                        todo.append((j + 1, i, t, len(rest), text + t[len(rest) :]))
                if len(todo) > before:
                    seen.add((i, j, w, at))


def render_component_state(state: Any) -> str:
    if isinstance(state, tuple):
        inner = ",".join(render_component_state(s) for s in state)
        return f"< {inner} >"
    return str(state)


class Component(TimedTransitionSystem):
    """Finite labeled transition system with propositions and optional ticks.

    ``ticks`` lists timed transitions (source, target, duration); at most one
    tick per (source, duration) pair so timed evolution stays deterministic.
    A component with no ticks is simply untimed.  Distinct states must
    render as distinct text, since text is their identity in exploration.
    """

    # as a product operand: the one component and its text
    _template = "%s"

    def __init__(
        self,
        states: Iterable[Any],
        initial: Any,
        rules: Iterable[Rule],
        props: dict[str, Iterable[Any]],
        ticks: Iterable[Tick] = (),
    ):
        states = tuple(states)
        if not states:
            raise ModelError("a component needs at least one state")
        member = set(states)
        if len(member) != len(states):
            raise ModelError("duplicate component states")
        if initial not in member:
            raise ModelError(f"initial state {initial!r} is not a component state")
        rules = tuple((str(l), s, t) for l, s, t in rules)
        for label, s, t in rules:
            if s not in member or t not in member:
                raise ModelError(f"rule {label!r} uses unknown states")
        checked: dict[str, frozenset] = {}
        for name, holds_at in props.items():
            check_prop_name(name)
            holds = frozenset(holds_at)
            if not holds <= member:
                raise ModelError(f"proposition {name!r} marks unknown states")
            checked[name] = holds
        ticks = tuple((s, t, _tick_duration(d)) for s, t, d in ticks)
        for s, t, d in ticks:
            if s not in member or t not in member:
                raise ModelError("tick uses unknown states")
        text = {s: render_component_state(s) for s in states}
        # text is a state's identity, and products of prefix-free texts skip the walk
        self._text, self._prefix_free = text, True
        for x, y in _prefix_pairs(text.values()):
            if x == y:
                raise ModelError(f"two component states render as {y!r}")
            self._prefix_free = False
        self.states = states
        self.initial = initial
        self.rules = rules
        self.props = checked
        self.ticks = ticks
        # successors are indexed so that a state's successors cost its out-degree
        self._tick_targets: dict[Fraction, dict[Any, Any]] = {}  # duration -> source -> target
        self._tick_tables = TickTables(lambda d: self._tick_targets.get(d, {}))
        for s, t, d in ticks:
            targets = self._tick_targets.setdefault(d, {})
            if s in targets:
                raise ModelError(f"two ticks of duration {d} from state {s!r}")
            targets[s] = t
        self._moves: dict[Any, list[tuple[str, Any]]] = {s: [] for s in states}
        for label, s, t in rules:
            self._moves[s].append((label, t))
        for moves in self._moves.values():
            moves.sort(key=lambda lt: (lt[0], text[lt[1]]))

    @property
    def _leaves(self) -> tuple[Component, ...]:
        return (self,)

    @property
    def _flags(self) -> dict[str, Flags]:
        return {name: (False, ((0, holds),)) for name, holds in self.props.items()}

    # model contract

    def initial_state(self) -> Any:
        return self.initial

    def discrete_successors(self, state: Any) -> list[tuple[str, Any]]:
        return list(self._moves.get(state, ()))

    def timed_successor(self, state: Any, delta: Fraction) -> Any | None:
        targets = self._tick_tables.of(delta)
        return state if targets is None else targets.get(state)

    def prop_holds(self, state: Any, prop: str) -> bool:
        try:
            return state in self.props[prop]
        except KeyError:
            raise ModelError(f"unknown proposition {prop!r}") from None

    def serialize(self, state: Any) -> str:
        return self._text[state]

    def propositions(self) -> frozenset[str]:
        return frozenset(self.props)

    def tick_durations(self) -> list[Fraction]:
        return list(self._tick_targets)


class SyncProduct(TimedTransitionSystem):
    """The synchronous product of a flat tuple of components.

    A label fires jointly in every component whose rules use it and
    interleaves when one component alone uses it; a tick of duration d needs
    a d-tick in every component; a successor is kept only when it is
    compatible.  Build it with :func:`rt_sync_product` or :func:`safe_prop`.
    """

    def __init__(self, leaves: tuple[Component, ...], template: str, flags: dict[str, Flags]):
        self._leaves = leaves
        self._template = template
        self._flags = flags
        self._texts = [leaf._text for leaf in leaves]
        holders: dict[str, list[int]] = {}
        for i, leaf in enumerate(leaves):
            for name in leaf.props:
                holders.setdefault(name, []).append(i)
        self._shared = {name: at for name, at in holders.items() if len(at) > 1}
        # compatibility as pairwise agreement with each shared proposition's
        # first holder: (i, where it holds in i, j, where it holds in j), i < j
        self._agree = tuple(
            (at[0], leaves[at[0]].props[name], j, leaves[j].props[name])
            for name, at in self._shared.items()
            for j in at[1:]
        )
        self.initial = tuple(leaf.initial for leaf in leaves)
        if not self._compatible(self.initial):
            raise ModelError("the initial states disagree on a shared proposition")
        self._rendered = Memo(lambda s: self._template % tuple(map(dict.__getitem__, self._texts, s)))
        # duration -> each component's tick targets; one empty table, which
        # blocks every state, for a duration with no joint tick
        self._tick_tables = TickTables(lambda d: self._ticks.get(d, ({},)))
        self._dead_ends: set[tuple] = set()  # see _joint_ticks

    # The successor indexes are built on first use, so that the inner
    # products of a fold, which are never explored, never build them.

    @cached_property
    def _users(self) -> dict[str, list[int]]:
        """Each rule label and the components whose rules use it."""
        users: dict[str, list[int]] = {}
        for i, leaf in enumerate(self._leaves):
            for label in dict.fromkeys(label for label, _, _ in leaf.rules):
                users.setdefault(label, []).append(i)
        return users

    @cached_property
    def _solo(self) -> list[dict[Any, list[tuple[str, Any]]]]:
        """Each component's own moves by source: those on a label no other
        component uses that leave its shared propositions as they are."""
        solo = []
        for i, leaf in enumerate(self._leaves):
            mine = [leaf.props[name] for name, at in self._shared.items() if i in at]
            solo.append({
                s: [
                    (label, t) for label, t in moves
                    if len(self._users[label]) == 1 and all((s in h) == (t in h) for h in mine)
                ]
                for s, moves in leaf._moves.items()
            })
        return solo

    @cached_property
    def _joint(self) -> list[tuple[str, list[int]]]:
        """Each label that several components use, with those components."""
        return [(label, at) for label, at in self._users.items() if len(at) > 1]

    @cached_property
    def _ticks(self) -> dict[Fraction, list[dict]]:
        """Duration -> each component's tick targets, in the order of the
        first component's first tick that starts a compatible joint tick."""
        ticks: dict[Fraction, list[dict]] = {}
        for s, t, d in self._leaves[0].ticks:
            if d not in ticks and next(self._joint_ticks(d, (s,), (t,)), None) is not None:
                ticks[d] = [leaf._tick_targets[d] for leaf in self._leaves]
        return ticks

    def _compatible(self, state: tuple) -> bool:
        return all((state[i] in hi) == (state[j] in hj) for i, hi, j, hj in self._agree)

    def _joint_ticks(self, d: Fraction, sources: tuple, targets: tuple) -> Iterator[tuple[tuple, tuple]]:
        """The compatible joint d-ticks that extend the given components'
        ticks, in the order of the components' tick lists.  An extension that
        yields none is remembered by all that its completion depends on: d, j
        and where the shared propositions spanning j hold at the given ticks."""
        j = len(sources)
        if j == len(self._leaves):
            yield sources, targets
            return
        key = (d, j, tuple((sources[i] in hi, targets[i] in hi) for i, hi, k, _ in self._agree if i < j <= k))
        if key in self._dead_ends:
            return
        checks = [(i, hi, hj) for i, hi, k, hj in self._agree if k == j]
        found = False
        for s, t, dj in self._leaves[j].ticks:
            if dj == d and all(
                (sources[i] in hi) == (s in hj) and (targets[i] in hi) == (t in hj) for i, hi, hj in checks
            ):
                for tick in self._joint_ticks(d, sources + (s,), targets + (t,)):
                    found = True
                    yield tick
        if not found:
            self._dead_ends.add(key)

    # model contract

    def initial_state(self) -> tuple:
        return self.initial

    def discrete_successors(self, state: tuple) -> list[tuple[str, tuple]]:
        out = []
        for i, (moves, s) in enumerate(zip(self._solo, state)):
            for label, t in moves[s]:
                out.append((label, state[:i] + (t,) + state[i + 1 :]))
        for label, at in self._joint:
            choices = [[t for l, t in self._leaves[i]._moves[state[i]] if l == label] for i in at]
            if all(choices):
                for chosen in cartesian(*choices):
                    succ = list(state)
                    for i, t in zip(at, chosen):
                        succ[i] = t
                    succ = tuple(succ)
                    if not self._agree or self._compatible(succ):
                        out.append((label, succ))
        if len({label for label, _ in out}) == len(out):
            out.sort(key=itemgetter(0))
        else:
            out.sort(key=lambda move: (move[0], self.serialize(move[1])))
        return out

    def timed_successor(self, state: tuple, delta: Fraction) -> tuple | None:
        tables = self._tick_tables.of(delta)
        if tables is None:
            return state
        succ = []
        for targets, s in zip(tables, state):
            t = targets.get(s)
            if t is None:
                return None
            succ.append(t)
        succ = tuple(succ)
        return succ if not self._agree or self._compatible(succ) else None

    def prop_holds(self, state: tuple, prop: str) -> bool:
        try:
            negated, flags = self._flags[prop]
        except KeyError:
            raise ModelError(f"unknown proposition {prop!r}") from None
        for i, holds in flags:
            if state[i] not in holds:
                return negated
        return not negated

    def serialize(self, state: tuple) -> str:
        return self._rendered[state]

    def propositions(self) -> frozenset[str]:
        return frozenset(self._flags)

    def tick_durations(self) -> list[Fraction]:
        return list(self._ticks)

    # the product as its definition enumerates it, computed on every read

    @property
    def states(self) -> tuple[tuple, ...]:
        """The compatible tuples, in the order of the components' states."""
        every = cartesian(*(leaf.states for leaf in self._leaves))
        return tuple(s for s in every if self._compatible(s))

    @property
    def rules(self) -> tuple[Rule, ...]:
        return tuple((label, s, t) for s in self.states for label, t in self.discrete_successors(s))


def rt_sync_product(c1: Any, c2: Any, *more: Any) -> SyncProduct:
    """Synchronous product of two or more components or products: joint steps
    on shared labels, interleaving on the rest, and joint ticks of equal
    duration, over the compatible states.  With a tick-free operand this is
    the untimed product.  Where operands share a proposition name the first
    operand's proposition is the product's.

    Operands are read by attribute, so a delegating wrapper works as well.
    """
    operands = (c1, c2, *more)
    leaves: list[Component] = []
    flags: dict[str, Flags] = {}
    for operand in operands:
        for name, (negated, at) in operand._flags.items():
            flags.setdefault(name, (negated, tuple((len(leaves) + i, holds) for i, holds in at)))
        leaves.extend(operand._leaves)
    template = "< " + ",".join(operand._template for operand in operands) + " >"
    product = SyncProduct(tuple(leaves), template, flags)
    _check_rendering(template, product._leaves)
    return product


def abstract_reservoir(i: int) -> Component:
    """Two-state reservoir abstraction: full enough ("ok") or not ("below").

    One time unit of neglect empties it below the threshold; the fill action
    restores it.  The refill proposition flags the "below" state.
    """
    if i < 0:
        raise ModelError("reservoir index must be nonnegative")
    return Component(
        states=("ok", "below"),
        initial="ok",
        rules=((f"fill{i}", "below", "ok"),),
        props={f"refill{i}?": ("below",)},
        ticks=(("ok", "below", ONE),),
    )


def refill_props(component: TimedTransitionSystem) -> list[str]:
    """The model's refill flags: its propositions named refill<i>?, sorted."""
    return sorted(p for p in component.propositions() if p.startswith("refill") and p.endswith("?"))


def safe_prop(component: Any) -> SyncProduct:
    """The product (a component becomes a one-component product) with a
    derived "safe" proposition: not every refill flag raised."""
    refills = refill_props(component)
    if not refills:
        raise ModelError("no refill propositions to derive safety from")
    flags = component._flags
    if "safe" in flags:
        raise ModelError("the component already has a proposition named 'safe'")
    raised = tuple(flag for p in refills for flag in flags[p][1])
    return SyncProduct(component._leaves, component._template, {**flags, "safe": (True, raised)})


def component_kripke(component: Component | SyncProduct) -> Kripke:
    """``Kripke(component, component.tick_durations(), None)``: the
    component's reachable states, discovered from the initial state as they
    are read, so a checker that finds a counterexample early expands only
    the states it visits.

    Time-abstract: ticks are ordinary edges annotated with their duration,
    so runs may loop through them.  Deadlocked states get a stutter self-loop.
    """
    return Kripke(component, component.tick_durations(), None)


def component_from_json(doc: dict) -> Component:
    doc = Doc(doc, "the component document", known=("kind", "states", "initial", "rules", "props", "ticks"))
    states, initial = doc.strings("states"), doc.get("initial", str)
    rules = [(r.get("label", str), r.get("source", str), r.get("target", str))
             for r in doc.objects("rules", ("label", "source", "target"), [])]
    props_doc = doc.object("props", default={})
    props = {name: props_doc.strings(name) for name in props_doc.value}
    ticks = [(t.get("source", str), t.get("target", str), t.rational("duration", read=_tick_duration))
             for t in doc.objects("ticks", ("source", "target", "duration"), [])]
    return Component(states, initial, rules, props, ticks)

