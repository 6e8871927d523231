"""Synchronous products of labeled transition systems, with optional timing.

Components synchronize on shared rule labels; unshared rules interleave.
Every product state must be compatible: the two sides agree on all shared
propositions.  In the timed variant components also synchronize on ticks of
equal duration.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, Optional

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
from .explore import Kripke, kripke_structure

Rule = tuple[str, Any, Any]  # (label, source, target)
Tick = tuple[Any, Any, Fraction]  # (source, target, duration)


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

    def __init__(
        self,
        states: Iterable[Any],
        initial: Any,
        rules: Iterable[Rule],
        props: dict[str, Iterable[Any]],
        ticks: Iterable[Tick] = (),
    ):
        self.states = tuple(states)
        if not self.states:
            raise ModelError("a component needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise ModelError("duplicate component states")
        member = set(self.states)
        self._text = {s: render_component_state(s) for s in self.states}
        by_text = {text: s for s, text in self._text.items()}
        if len(by_text) != len(self.states):
            clash = next(text for s, text in self._text.items() if by_text[text] != s)
            raise ModelError(f"two component states render as {clash!r}")
        if initial not in member:
            raise ModelError(f"initial state {initial!r} is not a component state")
        self.initial = initial
        self.rules = tuple((str(l), s, t) for l, s, t in rules)
        for label, s, t in self.rules:
            if s not in member or t not in member:
                raise ModelError(f"rule {label!r} uses unknown states")
        self.props: dict[str, frozenset] = {}
        for name, holds_at in props.items():
            check_prop_name(name)
            holds = frozenset(holds_at)
            if not holds <= member:
                raise ModelError(f"proposition {name!r} marks unknown states")
            self.props[name] = holds
        self.ticks = tuple((s, t, as_time(d)) for s, t, d in ticks)
        # successor indexes, so that a state's successors cost its out-degree
        self._tick_target: dict[tuple[Any, Fraction], Any] = {}
        for s, t, d in self.ticks:
            if s not in member or t not in member:
                raise ModelError("tick uses unknown states")
            if d == 0:
                raise ModelError("tick durations must be positive")
            if (s, d) in self._tick_target:
                raise ModelError(f"two ticks of duration {d} from state {s!r}")
            self._tick_target[s, d] = t
        self._moves: dict[Any, list[tuple[str, Any]]] = {s: [] for s in self.states}
        for label, s, t in self.rules:
            self._moves[s].append((label, t))
        for moves in self._moves.values():
            moves.sort(key=lambda lt: (lt[0], self._text[lt[1]]))

    # model contract

    def initial_state(self) -> Any:
        return self.initial

    def discrete_successors(self, state: Any) -> list[tuple[str, Any]]:
        return list(self._moves.get(state, ()))

    def timed_successor(self, state: Any, delta: Fraction) -> Any | None:
        delta = as_time(delta)
        if delta == 0:
            return state
        return self._tick_target.get((state, delta))

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
        seen = []
        for _, _, d in self.ticks:
            if d not in seen:
                seen.append(d)
        return seen


def compatible(
    c1: Component, s1: Any, c2: Component, s2: Any, shared: Optional[Iterable[str]] = None
) -> bool:
    """Whether the two sides agree on every shared proposition."""
    if shared is None:
        shared = sorted(set(c1.props) & set(c2.props))
    return all(c1.prop_holds(s1, p) == c2.prop_holds(s2, p) for p in shared)


def _product_core(c1: Component, c2: Component) -> tuple[list, Any, list[Rule], dict]:
    shared_props = sorted(set(c1.props) & set(c2.props))
    states = [
        (s1, s2)
        for s1 in c1.states
        for s2 in c2.states
        if compatible(c1, s1, c2, s2, shared_props)
    ]
    member = set(states)
    initial = (c1.initial, c2.initial)
    if initial not in member:
        raise ModelError("the initial states disagree on a shared proposition")

    # a label on both sides is shared: its rules fire jointly
    right_by_label: dict[str, list[Rule]] = {}
    for rule in c2.rules:
        right_by_label.setdefault(rule[0], []).append(rule)
    left_labels = {l for l, _, _ in c1.rules}
    rules: list[Rule] = []
    for label, s1, t1 in c1.rules:
        if label in right_by_label:
            for _, s2, t2 in right_by_label[label]:
                if (s1, s2) in member and (t1, t2) in member:
                    rules.append((label, (s1, s2), (t1, t2)))
        else:
            for s2 in c2.states:
                if (s1, s2) in member and (t1, s2) in member:
                    rules.append((label, (s1, s2), (t1, s2)))
    for label, s2, t2 in c2.rules:
        if label not in left_labels:
            for s1 in c1.states:
                if (s1, s2) in member and (s1, t2) in member:
                    rules.append((label, (s1, s2), (s1, t2)))

    props: dict[str, list] = {}
    for name, holds in c1.props.items():
        props[name] = [(s1, s2) for s1, s2 in states if s1 in holds]
    for name, holds in c2.props.items():
        if name not in props:
            props[name] = [(s1, s2) for s1, s2 in states if s2 in holds]
    return states, initial, rules, props


def sync_product(c1: Component, c2: Component) -> Component:
    """Untimed synchronous product: joint steps on shared labels, interleaving
    on the rest, all target states compatibility-filtered."""
    states, initial, rules, props = _product_core(c1, c2)
    return Component(states, initial, rules, props)


def rt_sync_product(c1: Component, c2: Component) -> Component:
    """Timed synchronous product: like sync_product, plus joint ticks pairing
    equal durations with compatible endpoints."""
    states, initial, rules, props = _product_core(c1, c2)
    member = set(states)
    ticks: list[Tick] = []
    for s1, t1, d1 in c1.ticks:
        for s2, t2, d2 in c2.ticks:
            if d1 == d2 and (s1, s2) in member and (t1, t2) in member:
                ticks.append(((s1, s2), (t1, t2), d1))
    return Component(states, initial, rules, props, ticks)


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


def safe_prop(component: Component) -> Component:
    """Add a derived "safe" proposition: not every refill flag raised."""
    refills = [p for p in component.props if p.startswith("refill") and p.endswith("?")]
    if not refills:
        raise ModelError("no refill propositions to derive safety from")
    if "safe" in component.props:
        raise ModelError("the component already has a proposition named 'safe'")
    refills.sort()
    safe_states = [
        s for s in component.states
        if not all(component.prop_holds(s, p) for p in refills)
    ]
    props: dict[str, Iterable[Any]] = {name: holds for name, holds in component.props.items()}
    props["safe"] = safe_states
    return Component(component.states, component.initial, component.rules, props, component.ticks)


def component_kripke(component: Component) -> Kripke:
    """Kripke structure over the component's reachable states.

    Time-abstract: ticks are ordinary edges annotated with their duration,
    so runs may loop through them.  Deadlocked states get a stutter self-loop.
    """
    return kripke_structure(component, component.tick_durations(), None)


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


def component_to_json(component: Component) -> dict:
    return {
        "kind": "component",
        "states": [render_component_state(s) for s in component.states],
        "initial": render_component_state(component.initial),
        "rules": [
            {
                "label": label,
                "source": render_component_state(s),
                "target": render_component_state(t),
            }
            for label, s, t in component.rules
        ],
        "props": {
            name: [render_component_state(s) for s in component.states if s in holds]
            for name, holds in component.props.items()
        },
        "ticks": [
            {
                "source": render_component_state(s),
                "target": render_component_state(t),
                "duration": str(d),
            }
            for s, t, d in component.ticks
        ],
    }
