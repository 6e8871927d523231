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
indexed once, per component, when the product is first explored, and a
state's text fills the template of the operand tree (``"< < %s,%s >,%s >"``)
with the components' cached texts, so it reads as the nested pairs of the
fold.  The ``states``, ``rules``, ``ticks`` and ``props`` views enumerate the
product as its definition does, but only when they are read; exploration
never reads them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product as cartesian
from operator import itemgetter
from typing import Any, Iterable, Iterator

from .core import (
    ONE,
    ModelError,
    TimedTransitionSystem,
    as_time,
    check_prop_name,
    json_objects,
    json_shape,
    parse_rational,
)
from .explore import Kripke

Rule = tuple[str, Any, Any]  # (label, source, target)
Tick = tuple[Any, Any, Fraction]  # (source, target, duration)
# How a product evaluates a proposition: whether the value is negated, and
# the (component index, states where it holds) flags that must all be raised.
Flags = tuple[bool, tuple[tuple[int, frozenset], ...]]


def _check_distinct_texts(text: dict[Any, str]) -> None:
    """Text is a state's identity in exploration: two states must not render alike."""
    by_text = {t: s for s, t in text.items()}
    if len(by_text) != len(text):
        clash = next(t for s, t in text.items() if by_text[t] != s)
        raise ModelError(f"two component states render as {clash!r}")


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
        ticks = tuple((s, t, as_time(d)) for s, t, d in ticks)
        for s, t, d in ticks:
            if s not in member or t not in member:
                raise ModelError("tick uses unknown states")
            if d == 0:
                raise ModelError("tick durations must be positive")
        text = {s: render_component_state(s) for s in states}
        _check_distinct_texts(text)
        self.states = states
        self.initial = initial
        self.rules = rules
        self.props = checked
        self.ticks = ticks
        self._text = text
        # successors are indexed so that a state's successors cost its out-degree
        self._tick_targets: dict[Fraction, dict[Any, Any]] = {}  # duration -> source -> target
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
        delta = as_time(delta)
        if delta == 0:
            return state
        targets = self._tick_targets.get(delta)
        return None if targets is None else targets.get(state)

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
        # splitting a text on "," recovers every component's text, unless one has a ","
        if any("," in text for texts in self._texts for text in texts.values()):
            _check_distinct_texts({s: self.serialize(s) for s in self.states})

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
        ticks, in the order of the components' tick lists."""
        j = len(sources)
        if j == len(self._leaves):
            yield sources, targets
            return
        checks = [(i, hi, hj) for i, hi, k, hj in self._agree if k == j]
        for s, t, dj in self._leaves[j].ticks:
            if dj == d and all(
                (sources[i] in hi) == (s in hj) and (targets[i] in hi) == (t in hj) for i, hi, hj in checks
            ):
                yield from self._joint_ticks(d, sources + (s,), targets + (t,))

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
        if type(delta) is not Fraction:  # 1.0 and True would find the tables of 1
            delta = as_time(delta)
        tables = self._ticks.get(delta)
        if tables is None:  # a zero, a negative or an unknown duration
            return state if as_time(delta) == 0 else None
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
        return self._template % tuple(map(dict.__getitem__, self._texts, state))

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

    @property
    def ticks(self) -> tuple[Tick, ...]:
        """Joint ticks, in the order of the components' tick lists."""
        return tuple(
            (sources, targets, d)
            for s, t, d in self._leaves[0].ticks
            if d in self._ticks
            for sources, targets in self._joint_ticks(d, (s,), (t,))
        )

    @property
    def props(self) -> dict[str, frozenset]:
        states = self.states
        return {name: frozenset(s for s in states if self.prop_holds(s, name)) for name in self._flags}


def compatible(c1: TimedTransitionSystem, s1: Any, c2: TimedTransitionSystem, s2: Any) -> bool:
    """Whether the two sides agree on every shared proposition."""
    shared = c1.propositions() & c2.propositions()
    return all(c1.prop_holds(s1, p) == c2.prop_holds(s2, p) for p in shared)


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
    return SyncProduct(tuple(leaves), template, flags)


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
    try:
        states = [str(s) for s in json_shape(doc["states"], list, "states")]
        initial = str(doc["initial"])
        rules = [
            (str(r["label"]), str(r["source"]), str(r["target"]))
            for r in json_objects(doc.get("rules", []), "rules")
        ]
        props = {
            str(name): [str(s) for s in json_shape(holds, list, f"proposition {name}")]
            for name, holds in json_shape(doc.get("props", {}), dict, "props").items()
        }
        ticks = [
            (str(t["source"]), str(t["target"]), parse_rational(t["duration"]))
            for t in json_objects(doc.get("ticks", []), "ticks")
        ]
    except KeyError as missing:
        raise ModelError(f"component document is missing {missing}") from None
    return Component(states, initial, rules, props, ticks)


def component_to_json(component: Component | SyncProduct) -> dict:
    text = component.serialize
    states = component.states
    return {
        "kind": "component",
        "states": [text(s) for s in states],
        "initial": text(component.initial),
        "rules": [
            {"label": label, "source": text(s), "target": text(t)} for label, s, t in component.rules
        ],
        "props": {name: [text(s) for s in states if s in holds] for name, holds in component.props.items()},
        "ticks": [
            {"source": text(s), "target": text(t), "duration": str(d)} for s, t, d in component.ticks
        ],
    }
