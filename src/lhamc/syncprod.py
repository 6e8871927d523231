"""Synchronous products of labeled transition systems, with optional timing.

Components synchronize on shared rule labels and on ticks of equal duration;
unshared rules interleave.  Every product state must be compatible: the two
sides agree on all shared propositions.  There is one product; the untimed
product is the product of tick-free components.  A product is built from
what its operands already hold, so it is well formed by construction and
skips the checks the constructor makes on outside input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable

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
        self._adopt(states, initial, rules, checked, ticks, text)

    def _adopt(
        self, states: tuple, initial: Any, rules: tuple, props: dict, ticks: tuple, text: dict
    ) -> None:
        """Take on a structure whose rules, ticks and propositions use only
        its own states; check that texts and ticks stay unambiguous, and
        index successors so that a state's successors cost its out-degree."""
        by_text = {t: s for s, t in text.items()}
        if len(by_text) != len(states):
            clash = next(t for s, t in text.items() if by_text[t] != s)
            raise ModelError(f"two component states render as {clash!r}")
        self.states = states
        self.initial = initial
        self.rules = rules
        self.props = props
        self.ticks = ticks
        self._text = text
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


def compatible(c1: Component, s1: Any, c2: Component, s2: Any) -> bool:
    """Whether the two sides agree on every shared proposition."""
    return all(c1.prop_holds(s1, p) == c2.prop_holds(s2, p) for p in set(c1.props) & set(c2.props))


def _well_formed(*structure: Any) -> Component:
    """A component over a structure built from components (see ``_adopt``)."""
    component = Component.__new__(Component)
    component._adopt(*structure)
    return component


def _signatures(c: Component, shared: list[str]) -> tuple[dict, dict]:
    """Each state's signature, the truth values of the shared propositions,
    and the states with each signature in the component's order."""
    sig = {s: tuple(s in c.props[p] for p in shared) for s in c.states}
    having: dict[tuple, list] = {}
    for s in c.states:
        having.setdefault(sig[s], []).append(s)
    return sig, having


def rt_sync_product(c1: Component, c2: Component) -> Component:
    """Synchronous product: joint steps on shared labels, interleaving on the
    rest, and joint ticks pairing equal durations, all over the compatible
    pairs of states.  With a tick-free operand this is the untimed product.
    A pair is compatible when both sides have the same signature, and its
    text is joined from the operands' texts.
    """
    shared = sorted(set(c1.props) & set(c2.props))
    sig1, with_sig1 = _signatures(c1, shared)
    sig2, with_sig2 = _signatures(c2, shared)
    if sig1[c1.initial] != sig2[c2.initial]:
        raise ModelError("the initial states disagree on a shared proposition")
    states = tuple((s1, s2) for s1 in c1.states for s2 in with_sig2.get(sig1[s1], ()))

    # a label on both sides is shared: its rules fire jointly
    right_by_label: dict[str, list[Rule]] = {}
    for rule in c2.rules:
        right_by_label.setdefault(rule[0], []).append(rule)
    left_labels = {l for l, _, _ in c1.rules}
    rules: list[Rule] = []
    for label, s1, t1 in c1.rules:
        if label in right_by_label:
            for _, s2, t2 in right_by_label[label]:
                if sig1[s1] == sig2[s2] and sig1[t1] == sig2[t2]:
                    rules.append((label, (s1, s2), (t1, t2)))
        elif sig1[s1] == sig1[t1]:
            rules.extend((label, (s1, s2), (t1, s2)) for s2 in with_sig2.get(sig1[s1], ()))
    for label, s2, t2 in c2.rules:
        if label not in left_labels and sig2[s2] == sig2[t2]:
            rules.extend((label, (s1, s2), (s1, t2)) for s1 in with_sig1.get(sig2[s2], ()))
    ticks = tuple(
        ((s1, s2), (t1, t2), d1)
        for s1, t1, d1 in c1.ticks
        for s2, t2, d2 in c2.ticks
        if d1 == d2 and sig1[s1] == sig2[s2] and sig1[t1] == sig2[t2]
    )

    props = {name: frozenset(s for s in states if s[0] in holds) for name, holds in c1.props.items()}
    for name, holds in c2.props.items():
        if name not in props:
            props[name] = frozenset(s for s in states if s[1] in holds)
    text1, text2 = c1._text, c2._text
    text = {s: f"< {text1[s[0]]},{text2[s[1]]} >" for s in states}
    return _well_formed(states, (c1.initial, c2.initial), tuple(rules), props, ticks, text)


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


def refill_props(component: Component) -> list[str]:
    """The component's refill flags: its propositions named refill<i>?."""
    return [p for p in component.props if p.startswith("refill") and p.endswith("?")]


def safe_prop(component: Component) -> Component:
    """Add a derived "safe" proposition: not every refill flag raised."""
    refills = refill_props(component)
    if not refills:
        raise ModelError("no refill propositions to derive safety from")
    if "safe" in component.props:
        raise ModelError("the component already has a proposition named 'safe'")
    flags = [component.props[p] for p in refills]
    safe = frozenset(s for s in component.states if not all(s in f for f in flags))
    # the operand's structure and indexes with one more proposition, read
    # attribute by attribute so that a delegating wrapper works as well
    derived = Component.__new__(Component)
    for name in ("states", "initial", "rules", "ticks", "_text", "_tick_targets", "_moves"):
        setattr(derived, name, getattr(component, name))
    derived.props = {**component.props, "safe": safe}
    return derived


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
    text = component.serialize
    return {
        "kind": "component",
        "states": [text(s) for s in component.states],
        "initial": text(component.initial),
        "rules": [
            {"label": label, "source": text(s), "target": text(t)} for label, s, t in component.rules
        ],
        "props": {
            name: [text(s) for s in component.states if s in holds]
            for name, holds in component.props.items()
        },
        "ticks": [
            {"source": text(s), "target": text(t), "duration": str(d)} for s, t, d in component.ticks
        ],
    }
