"""The plain ``Fraction`` reference semantics of the two models.

``NResSystem`` and ``LhaSystem`` compute on integer numerators over one
common denominator; the functions here compute the same steps on
``NResState`` and ``FractionLhaState`` with ``Fraction`` arithmetic, and the
model tests walk both in lockstep, comparing states by text and values.  Nothing
here uses ``NResSystem`` or ``LhaSystem``, only the data classes that
describe a model, save ``lha_valuation``, which reads a compiled automaton
state's values.  The names the two models share carry a prefix: ``nres_``
for the reservoir ring, ``lha_`` for the automaton.

The eager synchronous product, ``eager_rt_sync_product`` and
``eager_safe_prop``, is the reference for the lazy one in
:mod:`lhamc.syncprod`: it pairs every compatible state of two operands with
every rule and tick up front, and a fold of it nests pairs.

The program reads models from JSON but never writes them; the tests write
them with ``nres_to_json`` and ``component_to_json``.  ``compatible``,
``product_ticks`` and ``product_props`` state a product's agreement, joint
ticks and propositions as its definition enumerates them, and
``rendered_alike`` finds two tuples of states that render alike by rendering
every tuple.

``kripke_labeling``, ``kripke_index`` and ``kripke_elapsed`` read a
:class:`~lhamc.explore.Kripke` as only the tests do: every state's letter,
every state's index by its text and clock numerator, and a state's time as
a ``Fraction``.

``nested_model_check`` is the reference for :func:`lhamc.ltl.model_check`:
the nested depth-first search alone, from the initial product node, on every
structure, timed or not.  ``indexed_replay`` is the reference for
:func:`lhamc.ltl.validate_counterexample`: it looks every lasso step up among
the structure's indexed states, so it discovers every state inside a leap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product as cartesian
from typing import Any, Iterable, Mapping, Optional

from lhamc.core import ZERO, ModelError, as_time
from lhamc.explore import Kripke
from lhamc.lha import AffineConstraint, AffineExpr, Edge, Lha, LhaState, Location
from lhamc.ltl import Counterexample, Formula, negated_nnf, props_of, to_buchi
from lhamc.ltl.checker import _accepting_cycle, _extract, lasso_accepted
from lhamc.reservoir import (
    MOVE_HOSE,
    PROPOSITIONS,
    Hose,
    NResState,
    Reservoir,
    SearchPattern,
)
from lhamc.syncprod import Component, SyncProduct


# exact arithmetic


def monus(a: Fraction, b: Fraction) -> Fraction:
    """Saturating subtraction on nonnegative rationals: max(a - b, 0)."""
    if a < 0 or b < 0:
        raise ModelError(f"monus is defined on nonnegative rationals, got {a}, {b}")
    return a - b if a > b else ZERO


# the reservoir ring


def check_rate(tank: Reservoir, rate: Fraction) -> None:
    """A hose pouring at ``rate`` must outpour the tank's leak."""
    if rate < tank.leak:
        raise ModelError(
            f"reservoir {tank.id}: hose rate {rate} is below the leak rate {tank.leak}"
        )


def check_hose(state: NResState) -> NResState:
    """The ring, if its hose outpours every tank's leak, wherever the hose
    is; a ring is rejected when it is built, whatever is explored of it."""
    for r in state.reservoirs:
        check_rate(r, state.hose.rate)
    return state


def fill(tank: Reservoir, rate: Fraction, t: Fraction) -> Reservoir:
    """Level after t time units under a hose pouring at ``rate``."""
    t = as_time(t)
    check_rate(tank, rate)
    return replace(tank, level=tank.level + (rate - tank.leak) * t)


def needs_refill(tanks: Iterable[Reservoir]) -> bool:
    return any(r.level <= r.lower for r in tanks)


def tick(state: NResState, t: Fraction) -> NResState | None:
    """Let t time units pass, or None if some unattended tank is already low.

    Unattended tanks leak, their levels floored at zero.  A zero step always
    succeeds.
    """
    t = as_time(t)
    if t == 0:
        return state
    away = [r for r in state.reservoirs if r.id != state.hose.position]
    if needs_refill(away):
        return None
    new_tanks = []
    for r in state.reservoirs:
        if r.id == state.hose.position:
            new_tanks.append(fill(r, state.hose.rate, t))
        else:
            new_tanks.append(replace(r, level=monus(r.level, r.leak * t)))
    return NResState(state.hose, tuple(new_tanks))


def nres_reservoir(state: NResState, rid: int) -> Reservoir:
    for r in state.reservoirs:
        if r.id == rid:
            return r
    raise ModelError(f"no reservoir with id {rid}")


def move_hose_successors(state: NResState) -> list[tuple[str, NResState]]:
    """All ways to carry the hose to a tank that has fallen to its threshold.

    Allowed only once the currently hosed tank is back at or above its own
    threshold.  Targets are ordered by reservoir id.
    """
    current = nres_reservoir(state, state.hose.position)
    if current.level < current.lower:
        return []
    out = []
    for r in state.reservoirs:  # already sorted by id
        if r.id != current.id and r.level <= r.lower:
            out.append((MOVE_HOSE, NResState(Hose(state.hose.rate, r.id), state.reservoirs)))
    return out


def valuation(state: NResState, prop: str) -> bool:
    if prop == "one-down":
        return any(r.level <= r.lower for r in state.reservoirs)
    if prop == "macondo":
        return all(r.level <= r.lower for r in state.reservoirs)
    raise ModelError(f"unknown proposition {prop!r}, expected one of {sorted(PROPOSITIONS)}")


def above_upper(state: NResState) -> tuple[int, ...]:
    """Ids of reservoirs currently above their upper threshold."""
    return tuple(r.id for r in state.reservoirs if r.level > r.upper)


def nres_render_state(state: NResState) -> str:
    parts = [f"hose({state.hose.rate},{state.hose.position})"]
    for r in state.reservoirs:
        parts.append(f"< {r.id} | thr:({r.lower},{r.upper}), hth: {r.level}, rte: {r.leak} >")
    return " ".join(parts)


def _unconstrained_text(tank: Reservoir, level: Optional[Fraction]) -> str:
    parts = [f"thr:({tank.lower},{tank.upper})"]
    if level is None:
        parts.append(f"hth: {tank.level}")
    parts.append(f"rte: {tank.leak}")
    return ", ".join(parts)


def nres_to_json(state: NResState) -> dict:
    return {
        "kind": "nres",
        "hose": {"rate": str(state.hose.rate), "position": state.hose.position},
        "reservoirs": [
            {
                "id": r.id,
                "lower": str(r.lower),
                "upper": str(r.upper),
                "level": str(r.level),
                "leak": str(r.leak),
            }
            for r in state.reservoirs
        ],
    }


def nres_match(pattern: SearchPattern, state: Any) -> Optional[dict[str, str]]:
    """A bound ``SearchPattern``'s predicate on a ``Fraction`` ring state."""
    if pattern == SearchPattern():
        return {}
    if not isinstance(state, NResState):
        raise ModelError("reservoir-specific patterns only apply to reservoir models")
    if pattern.hose is not None and state.hose.position != pattern.hose:
        return None
    bindings: dict[str, str] = {}
    for rid, level in pattern.reservoirs:
        tank = nres_reservoir(state, rid)
        if level is not None and tank.level != level:
            return None
        bindings[f"R{rid}"] = _unconstrained_text(tank, level)
    return bindings


def nres_validate_pattern(pattern: SearchPattern, initial: Any) -> None:
    """``SearchPattern.bind``'s checks on a model's ``Fraction`` start state."""
    if pattern == SearchPattern():
        return
    if not isinstance(initial, NResState):
        raise ModelError("reservoir-specific patterns only apply to reservoir models")
    known = {r.id for r in initial.reservoirs}
    if pattern.hose is not None and pattern.hose not in known:
        raise ModelError(f"pattern mentions unknown reservoir id {pattern.hose}")
    for rid, _ in pattern.reservoirs:
        if rid not in known:
            raise ModelError(f"pattern mentions unknown reservoir id {rid}")


# the linear hybrid automaton


@dataclass(frozen=True)
class FractionLhaState:
    """An automaton state as a location and a valuation of ``Fraction``s."""

    location: str
    valuation: Mapping[str, Fraction]


def lha_valuation(lha: Lha, state: LhaState) -> dict[str, Fraction]:
    """The values of a compiled automaton state, by variable."""
    return {var: Fraction(n, state.den) for var, n in zip(lha.variables, state.nums)}


def eval_affine(expr: AffineExpr, valuation: Mapping[str, Fraction]) -> Fraction:
    total = expr.const
    for var, coeff in expr.coeffs.items():
        try:
            total += coeff * valuation[var]
        except KeyError:
            raise ModelError(f"expression mentions unknown variable {var!r}") from None
    return total


def holds(constraint: AffineConstraint, valuation: Mapping[str, Fraction]) -> bool:
    value = eval_affine(constraint.expr, valuation)
    rel = constraint.rel
    if rel == "<":
        return value < 0
    if rel == "<=":
        return value <= 0
    if rel == "=":
        return value == 0
    if rel == ">=":
        return value >= 0
    return value > 0


def holds_all(constraints: tuple[AffineConstraint, ...], valuation: Mapping[str, Fraction]) -> bool:
    return all(holds(c, valuation) for c in constraints)


def flow(location: Location, valuation: Mapping[str, Fraction], delta: Fraction) -> dict[str, Fraction]:
    """Valuation after delta time units of the location's constant rates."""
    delta = as_time(delta)
    return {var: value + location.rates.get(var, ZERO) * delta for var, value in valuation.items()}


def lha_timed_successor(lha: Lha, state: FractionLhaState, delta: Fraction) -> FractionLhaState | None:
    """Let delta time pass, or None if the location forbids it.

    Zero durations always succeed.  Otherwise the tick guard must hold at the
    start and the invariant at the endpoint; linear flows make the endpoint
    check sufficient for the whole segment.
    """
    delta = as_time(delta)
    if delta == 0:
        return state
    location = lha.location_named(state.location)
    if not holds_all(location.tick_guard, state.valuation):
        return None
    target = flow(location, state.valuation, delta)
    if not holds_all(location.invariant, target):
        return None
    return FractionLhaState(state.location, target)


def jump(lha: Lha, state: FractionLhaState, edge: Edge) -> FractionLhaState | None:
    """Apply one edge, or None if its guard or the target invariant fails."""
    if edge.source != state.location:
        return None
    if not holds_all(edge.guard, state.valuation):
        return None
    after = dict(state.valuation)
    for a in edge.assignments:
        after[a.var] = eval_affine(a.expr, state.valuation)
    if not holds_all(lha.location_named(edge.target).invariant, after):
        return None
    return FractionLhaState(edge.target, after)


def lha_discrete_successors(lha: Lha, state: FractionLhaState) -> list[tuple[str, FractionLhaState]]:
    out = []
    for edge in lha.edges:
        succ = jump(lha, state, edge)
        if succ is not None:
            out.append((edge.label, succ))
    out.sort(key=lambda ls: (ls[0], lha_render_state(lha, ls[1])))
    return out


def lha_render_state(lha: Lha, state: FractionLhaState) -> str:
    values = ",".join(str(state.valuation[v]) for v in lha.variables)
    return f"{state.location},{values}"


# the eager synchronous product

Rule = tuple[str, Any, Any]  # (label, source, target)
Tick = tuple[Any, Any, Fraction]  # (source, target, duration)


def compatible(c1: Any, s1: Any, c2: Any, s2: Any) -> bool:
    """Whether the two sides agree on every shared proposition."""
    shared = c1.propositions() & c2.propositions()
    return all(c1.prop_holds(s1, p) == c2.prop_holds(s2, p) for p in shared)


def product_ticks(c: Component | SyncProduct) -> tuple[Tick, ...]:
    """A component's ticks, or a product's joint ticks: every choice of one
    tick per component, the first component's outermost, whose ticks share
    one duration and whose sources and targets agree on every shared
    proposition."""
    if isinstance(c, Component):
        return c.ticks
    leaves = c._leaves
    names = {name for leaf in leaves for name in leaf.props}

    def agree(states: tuple) -> bool:
        return all(
            len({s in leaf.props[name] for leaf, s in zip(leaves, states) if name in leaf.props}) == 1
            for name in names
        )

    return tuple(
        (sources, targets, durations[0])
        for ticks in cartesian(*(leaf.ticks for leaf in leaves))
        for sources, targets, durations in [tuple(zip(*ticks))]
        if len(set(durations)) == 1 and agree(sources) and agree(targets)
    )


def product_props(c: Component | SyncProduct) -> dict[str, frozenset]:
    """Each proposition of a component or product and the states where it holds."""
    if isinstance(c, Component):
        return c.props
    states = c.states
    return {name: frozenset(s for s in states if c.prop_holds(s, name)) for name in c._flags}


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
        "props": {
            name: [text(s) for s in states if s in holds] for name, holds in product_props(component).items()
        },
        "ticks": [
            {"source": text(s), "target": text(t), "duration": str(d)} for s, t, d in product_ticks(component)
        ],
    }


def rendered_alike(template: str, texts: list[list[str]]) -> str | None:
    """A text that two distinct tuples of states render into the template, or
    None.  ``texts[k]`` lists component k's state texts, one per state, and
    every tuple of states is rendered."""
    owners: dict[str, tuple] = {}
    for at in cartesian(*(range(len(t)) for t in texts)):
        text = template % tuple(t[i] for t, i in zip(texts, at))
        if owners.setdefault(text, at) != at:
            return text
    return None


def _signatures(c: Component, shared: list[str]) -> tuple[dict, dict]:
    """Each state's signature, the truth values of the shared propositions,
    and the states with each signature in the component's order."""
    sig = {s: tuple(s in c.props[p] for p in shared) for s in c.states}
    having: dict[tuple, list] = {}
    for s in c.states:
        having.setdefault(sig[s], []).append(s)
    return sig, having


def eager_rt_sync_product(c1: Component, c2: Component) -> Component:
    """Synchronous product: joint steps on shared labels, interleaving on the
    rest, and joint ticks pairing equal durations, all over the compatible
    pairs of states.  With a tick-free operand this is the untimed product.
    A pair is compatible when both sides have the same signature; its text
    is the nested rendering of the pair.
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
    return Component(states, (c1.initial, c2.initial), tuple(rules), props, ticks)


def eager_refill_props(component: Component) -> list[str]:
    return [p for p in component.props if p.startswith("refill") and p.endswith("?")]


def eager_safe_prop(component: Component) -> Component:
    """Add a derived "safe" proposition: not every refill flag raised."""
    refills = eager_refill_props(component)
    if not refills:
        raise ModelError("no refill propositions to derive safety from")
    if "safe" in component.props:
        raise ModelError("the component already has a proposition named 'safe'")
    flags = [component.props[p] for p in refills]
    safe = frozenset(s for s in component.states if not all(s in f for f in flags))
    # the operand's structure and indexes with one more proposition, read
    # attribute by attribute so that a delegating wrapper works as well
    derived = Component.__new__(Component)
    copied = ("states", "initial", "rules", "ticks", "_text", "_prefix_free", "_tick_targets", "_tick_tables", "_moves")
    for name in copied:
        setattr(derived, name, getattr(component, name))
    derived.props = {**component.props, "safe": safe}
    return derived


# the LTL check


def kripke_labeling(kripke: Kripke) -> list[frozenset[str]]:
    """Every state's letter, in index order, once every state is expanded."""
    return [kripke.letter(i) for i in range(len(kripke))]


def kripke_index(kripke: Kripke) -> dict[tuple[str, int], int]:
    """Every state's index by its text and clock numerator, the explorer's
    key, once every state is expanded."""
    return {key: i for i, key in enumerate(zip(kripke.texts, kripke.clock))}


def kripke_elapsed(kripke: Kripke, i: int) -> Fraction:
    """State i's elapsed time."""
    return Fraction(kripke.clock_of(i), kripke.scale)


def nested_model_check(kripke: Kripke, formula: Formula) -> Optional[Counterexample]:
    """``model_check`` by the nested search alone: the product's successors
    in the checker's order, each state's letter asked afresh."""
    ba = to_buchi(negated_nnf(formula))
    props = props_of(formula)

    def succs(v: tuple[int, int]) -> list[tuple[int, int]]:
        s, q = v
        targets = ba.successors(q, kripke.letter(s) & props)
        return [(e.target, t) for e in kripke.out(s) for t in targets]

    hit = _accepting_cycle((kripke.initial, ba.initial), succs, ba.accepting)
    return None if hit is None else _extract(kripke, *hit)


def indexed_replay(kripke: Kripke, formula: Formula, ce: Counterexample) -> bool:
    """``validate_counterexample`` over indexed states alone: each step is
    looked up by its text and time, and must follow a labeled edge of the
    structure to the next one (the last one to the cycle's first); the trace
    of their letters must violate the formula.  Every state the replay
    steps to is discovered, so it counts against ``max_states``."""
    if not ce.cycle:
        return False
    steps = ce.steps()
    cycle_start = len(ce.prefix)
    i = kripke.index_of(steps[0].text, steps[0].clock, steps[0].scale)
    if i != kripke.initial:
        return False
    indices = []
    for pos, step in enumerate(steps):
        indices.append(i)
        out = kripke.out(i)  # discovers every state the lasso may step to
        nxt = steps[pos + 1] if pos + 1 < len(steps) else steps[cycle_start]
        i = kripke.index_of(nxt.text, nxt.clock, nxt.scale)
        if i is None or not any(e.target == i and e.label == step.label for e in out):
            return False
    letters = [kripke.letter(i) for i in indices]
    ba = to_buchi(negated_nnf(formula))
    return lasso_accepted(ba, letters[:cycle_start], letters[cycle_start:])
