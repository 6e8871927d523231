import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

from lhamc.cli import main
from lhamc.core import ModelError
from lhamc.explore import STUTTER, TICK, kripke_structure
from lhamc.ltl import (
    Counterexample,
    CounterexampleStep,
    model_check,
    parse_formula,
    validate_counterexample,
)
from lhamc.syncprod import (
    Component,
    SyncProduct,
    abstract_reservoir,
    compatible,
    component_from_json,
    component_kripke,
    component_to_json,
    render_component_state,
    rt_sync_product,
    safe_prop,
)
from reference import eager_rt_sync_product, eager_safe_prop


def reservoir_pair():
    return rt_sync_product(abstract_reservoir(1), abstract_reservoir(2))


class TestRendering:
    def test_flat_state(self):
        assert render_component_state("ok") == "ok"

    def test_pair(self):
        assert render_component_state(("ok", "below")) == "< ok,below >"

    def test_nested(self):
        assert render_component_state((("a", "b"), "c")) == "< < a,b >,c >"


class TestComponent:
    def test_abstract_reservoir_shape(self):
        r = abstract_reservoir(3)
        assert r.states == ("ok", "below")
        assert r.initial_state() == "ok"
        assert r.rules == (("fill3", "below", "ok"),)
        assert r.props == {"refill3?": frozenset({"below"})}
        assert r.ticks == (("ok", "below", Fraction(1)),)
        assert r.propositions() == frozenset({"refill3?"})

    def test_negative_index_rejected(self):
        with pytest.raises(ModelError):
            abstract_reservoir(-1)

    def test_discrete_successors_sorted(self):
        c = Component(
            states=("a", "b", "c"),
            initial="a",
            rules=(("z", "a", "b"), ("m", "a", "c"), ("m", "a", "b")),
            props={},
        )
        assert c.discrete_successors("a") == [("m", "b"), ("m", "c"), ("z", "b")]

    def test_timed_successor(self):
        r = abstract_reservoir(1)
        assert r.timed_successor("ok", Fraction(0)) == "ok"
        assert r.timed_successor("ok", Fraction(1)) == "below"
        assert r.timed_successor("ok", Fraction(2)) is None
        assert r.timed_successor("below", Fraction(1)) is None

    def test_prop_holds(self):
        r = abstract_reservoir(1)
        assert r.prop_holds("below", "refill1?")
        assert not r.prop_holds("ok", "refill1?")
        with pytest.raises(ModelError):
            r.prop_holds("ok", "refill9?")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(states=(), initial="a", rules=(), props={}),
            dict(states=("a", "a"), initial="a", rules=(), props={}),
            dict(states=("a",), initial="b", rules=(), props={}),
            dict(states=("a",), initial="a", rules=(("r", "a", "b"),), props={}),
            dict(states=("a",), initial="a", rules=(), props={"p": ("b",)}),
            dict(states=("a",), initial="a", rules=(), props={"": ("a",)}),
            dict(states=("a", "b"), initial="a", rules=(), props={}, ticks=(("a", "c", Fraction(1)),)),
            dict(states=("a", "b"), initial="a", rules=(), props={}, ticks=(("a", "b", Fraction(0)),)),
            dict(
                states=("a", "b"),
                initial="a",
                rules=(),
                props={},
                ticks=(("a", "b", Fraction(1)), ("a", "a", Fraction(1))),
            ),
            dict(states=(("a", "b"), "< a,b >"), initial="< a,b >", rules=(), props={}),
        ],
    )
    def test_validation_errors(self, kwargs):
        with pytest.raises(ModelError):
            Component(**kwargs)

    def test_tick_durations_deduplicated_in_order(self):
        c = Component(
            states=("a", "b"),
            initial="a",
            rules=(),
            props={},
            ticks=(("a", "b", Fraction(2)), ("b", "a", Fraction(1)), ("b", "b", Fraction(2))),
        )
        assert c.tick_durations() == [Fraction(2), Fraction(1)]


class TestCompatibility:
    def two_with_shared_prop(self):
        c1 = Component(("u", "v"), "u", (), props={"busy": ("v",)})
        c2 = Component(("x", "y"), "x", (), props={"busy": ("y",), "own": ("x",)})
        return c1, c2

    def test_compatible_agrees_on_shared(self):
        c1, c2 = self.two_with_shared_prop()
        assert compatible(c1, "u", c2, "x")
        assert compatible(c1, "v", c2, "y")
        assert not compatible(c1, "u", c2, "y")
        assert not compatible(c1, "v", c2, "x")

    def test_no_shared_props_always_compatible(self):
        r1, r2 = abstract_reservoir(1), abstract_reservoir(2)
        assert compatible(r1, "ok", r2, "below")

    def test_product_keeps_only_compatible_pairs(self):
        c1, c2 = self.two_with_shared_prop()
        p = rt_sync_product(c1, c2)
        assert p.states == (("u", "x"), ("v", "y"))

    def test_incompatible_initials_rejected(self):
        c1 = Component(("u",), "u", (), props={"busy": ("u",)})
        c2 = Component(("x",), "x", (), props={"busy": ()})
        with pytest.raises(ModelError):
            rt_sync_product(c1, c2)


class TestSyncProduct:
    def test_shared_labels_fire_jointly(self):
        c1 = Component(("a", "b"), "a", (("go", "a", "b"), ("solo1", "b", "a")), props={})
        c2 = Component(("x", "y"), "x", (("go", "x", "y"),), props={})
        p = rt_sync_product(c1, c2)
        assert ("go", ("a", "x"), ("b", "y")) in p.rules
        assert all(not (label == "go" and (s[0], t[0]) == ("a", "a")) for label, s, t in p.rules)
        assert ("solo1", ("b", "x"), ("a", "x")) in p.rules
        assert ("solo1", ("b", "y"), ("a", "y")) in p.rules

    def test_interleaving_respects_compatibility(self):
        c1 = Component(("u", "v"), "u", (("hop", "u", "v"),), props={"busy": ("v",)})
        c2 = Component(("x", "y"), "x", (("mark", "x", "y"),), props={"busy": ("y",)})
        p = rt_sync_product(c1, c2)
        assert p.states == (("u", "x"), ("v", "y"))
        assert p.rules == ()

    def test_prop_union_prefers_left_on_shared(self):
        c1 = Component(("u", "v"), "u", (), props={"busy": ("v",)})
        c2 = Component(("x", "y"), "x", (), props={"busy": ("y",), "own": ("x",)})
        p = rt_sync_product(c1, c2)
        assert p.props["busy"] == frozenset({("v", "y")})
        assert p.props["own"] == frozenset({("u", "x")})

    def test_reservoir_product_structure(self):
        p = reservoir_pair()
        assert p.states == (
            ("ok", "ok"),
            ("ok", "below"),
            ("below", "ok"),
            ("below", "below"),
        )
        assert p.initial_state() == ("ok", "ok")
        assert set(p.rules) == {
            ("fill1", ("below", "ok"), ("ok", "ok")),
            ("fill1", ("below", "below"), ("ok", "below")),
            ("fill2", ("ok", "below"), ("ok", "ok")),
            ("fill2", ("below", "below"), ("below", "ok")),
        }
        assert p.ticks == ((("ok", "ok"), ("below", "below"), Fraction(1)),)

    def test_rt_product_requires_equal_durations(self):
        slow = Component(
            ("a", "b"), "a", (), props={}, ticks=(("a", "b", Fraction(2)),)
        )
        fast = Component(
            ("x", "y"), "x", (), props={}, ticks=(("x", "y", Fraction(1)),)
        )
        p = rt_sync_product(slow, fast)
        assert p.ticks == ()


    @pytest.mark.parametrize("delta", [Fraction(-1), -1, 1.0, True, "x"])
    @pytest.mark.parametrize("kind", ["component", "product"])
    def test_durations_are_validated(self, kind, delta):
        # 1.0 and True hash and compare equal to Fraction(1), a tick duration here
        model = {"component": abstract_reservoir(1), "product": reservoir_pair()}[kind]
        model.timed_successor(model.initial_state(), Fraction(1))
        with pytest.raises(ModelError):
            model.timed_successor(model.initial_state(), delta)

    def test_product_states_must_render_distinctly(self):
        # ("a,b", "c") and ("a", "b,c") would both be the state "< a,b,c >"
        left = Component(("a,b", "a"), "a,b", (("go1", "a,b", "a"),), props={"p": ("a",)})
        right = Component(("c", "b,c"), "c", (("go2", "c", "b,c"),), props={"q": ("b,c",)})
        with pytest.raises(ModelError, match="two component states render as"):
            rt_sync_product(left, right)


class TestSafeProp:
    def test_safe_added(self):
        p = safe_prop(reservoir_pair())
        assert p.props["safe"] == frozenset(
            {("ok", "ok"), ("ok", "below"), ("below", "ok")}
        )

    def test_requires_refill_props(self):
        c = Component(("a",), "a", (), props={})
        with pytest.raises(ModelError):
            safe_prop(c)

    def test_rejects_existing_safe(self):
        r = abstract_reservoir(1)
        once = safe_prop(r)
        with pytest.raises(ModelError):
            safe_prop(once)

    def test_keeps_the_operands_steps_and_texts(self):
        c = ladder(3)
        p = safe_prop(c)
        assert "safe" not in c.props and set(p.props) == set(c.props) | {"safe"}
        for s in c.states:
            assert p.discrete_successors(s) == c.discrete_successors(s)
            assert [p.timed_successor(s, d) for d in DURATIONS] == [c.timed_successor(s, d) for d in DURATIONS]
            assert p.serialize(s) == c.serialize(s)

    def test_reads_a_delegating_operand(self):
        c = ladder(3)
        via, direct = component_kripke(safe_prop(Delegate(c))), component_kripke(safe_prop(c))
        assert (via.texts, via.edges, via.labeling) == (direct.texts, direct.edges, direct.labeling)


class Delegate:
    """A model that forwards every attribute, as a tracing wrapper does."""

    def __init__(self, component):
        self._component = component

    def __getattr__(self, name):
        return getattr(self._component, name)


class TestComponentKripke:
    def test_reservoir_product_kripke(self):
        k = component_kripke(safe_prop(reservoir_pair()))
        assert k.texts == ["< ok,ok >", "< below,below >", "< ok,below >", "< below,ok >"]
        got = {(e.source, e.target, e.label, e.duration) for e in k.edges}
        assert got == {
            (0, 1, TICK, Fraction(1)),
            (1, 2, "fill1", Fraction(0)),
            (1, 3, "fill2", Fraction(0)),
            (2, 0, "fill2", Fraction(0)),
            (3, 0, "fill1", Fraction(0)),
        }
        assert k.labeling[0] == frozenset({"safe"})
        assert k.labeling[1] == frozenset({"refill1?", "refill2?"})
        assert k.labeling[2] == frozenset({"refill2?", "safe"})
        assert k.labeling[3] == frozenset({"refill1?", "safe"})

    def test_deadlock_gets_stutter(self):
        c = Component(("a", "b"), "a", (("go", "a", "b"),), props={"done": ("b",)})
        k = component_kripke(c)
        assert (1, 1, STUTTER) in {(e.source, e.target, e.label) for e in k.edges}

    def test_safety_fails_with_validating_counterexample(self):
        k = component_kripke(safe_prop(reservoir_pair()))
        f = parse_formula("[] safe")
        ce = model_check(k, f)
        assert ce is not None
        assert validate_counterexample(k, f, ce)

    def test_published_refill_lasso_validates(self):
        k = component_kripke(safe_prop(reservoir_pair()))
        f = parse_formula("[] safe")
        steps = [
            CounterexampleStep("< ok,ok >", Fraction(0), TICK),
            CounterexampleStep("< below,below >", Fraction(0), "fill2"),
            CounterexampleStep("< below,ok >", Fraction(0), "fill1"),
        ]
        assert validate_counterexample(k, f, Counterexample(prefix=[], cycle=steps))

    def test_unsafety_is_unavoidable(self):
        k = component_kripke(safe_prop(reservoir_pair()))
        assert model_check(k, parse_formula("<> ~ safe")) is None


class TestJson:
    def test_round_trip(self):
        r = abstract_reservoir(1)
        doc = component_to_json(r)
        assert doc["kind"] == "component"
        back = component_from_json(doc)
        assert back.states == r.states
        assert back.initial == r.initial
        assert back.rules == r.rules
        assert back.props == r.props
        assert back.ticks == r.ticks

    def test_missing_field_rejected(self):
        with pytest.raises(ModelError):
            component_from_json({"states": ["a"]})

    def test_bad_tick_rejected(self):
        doc = component_to_json(abstract_reservoir(1))
        doc["ticks"][0]["duration"] = "1/0"
        with pytest.raises(Exception):
            component_from_json(doc)


# The successor indexes against a scan over every rule and tick.

DURATIONS = (Fraction(1), Fraction(1, 2), Fraction(3))


def random_component(rng: random.Random, name: str) -> Component:
    """1-6 states, labels partly shared with other components, some ticks.

    The shared proposition ``p`` never holds initially, so any two of these
    components have compatible initial states.
    """
    states = [f"{name}{i}" for i in range(rng.randint(1, 6))]
    initial = rng.choice(states)
    labels = ["a", "b", f"own{name}"]
    rules = [
        (rng.choice(labels), rng.choice(states), rng.choice(states))
        for _ in range(rng.randint(0, 10))
    ]
    props = {
        "p": [s for s in states if s != initial and rng.random() < 0.5],
        f"q{name}": [s for s in states if rng.random() < 0.5],
    }
    ticks = [
        (s, rng.choice(states), d)
        for s in states
        for d in DURATIONS[:2]
        if rng.random() < 0.4
    ]
    return Component(states, initial, rules, props, ticks)


def scanned_successors(c: Component, state) -> list:
    out = [(label, t) for label, s, t in c.rules if s == state]
    out.sort(key=lambda lt: (lt[0], c.serialize(lt[1])))
    return out


def scanned_tick(c: Component, state, delta: Fraction):
    if delta == 0:
        return state
    for s, t, d in c.ticks:
        if s == state and d == delta:
            return t
    return None


class Scanned(Component):
    """A component whose successors are found by scanning rules and ticks."""

    def discrete_successors(self, state):
        return scanned_successors(self, state)

    def timed_successor(self, state, delta):
        return scanned_tick(self, state, delta)


def pair(s1, s2) -> tuple:
    """The product state of two component states."""
    return (s1, s2)


def extend(s1: tuple, s2) -> tuple:
    """The product state of a product's flat state and a component state."""
    return (*s1, s2)


def nested(state):
    """A flat product state as the nested pairs of the left fold that built
    it; a pair is its own nesting."""
    return reduce(pair, state) if isinstance(state, tuple) else state


def defined_rules(c1: Component, c2: Component, states: list, join=pair) -> Counter:
    """Product rules as the definition states them: joint steps on shared
    labels, interleaving on the rest, both endpoints in the product.
    ``join`` makes a product state from the two sides' states."""
    member = set(states)
    shared = {l for l, _, _ in c1.rules} & {l for l, _, _ in c2.rules}
    rules = [
        (l1, join(s1, s2), join(t1, t2))
        for l1, s1, t1 in c1.rules
        for l2, s2, t2 in c2.rules
        if l1 == l2 and l1 in shared
    ]
    rules += [(l, join(s1, s2), join(t1, s2)) for l, s1, t1 in c1.rules if l not in shared for s2 in c2.states]
    rules += [(l, join(s1, s2), join(s1, t2)) for l, s2, t2 in c2.rules if l not in shared for s1 in c1.states]
    return Counter(r for r in rules if r[1] in member and r[2] in member)


def tick_free(c: Component) -> Component:
    return Component(c.states, c.initial, c.rules, c.props)


def random_components(seed: int) -> list[Component]:
    """Two random components, their untimed product and their timed one."""
    rng = random.Random(seed)
    left, right = random_component(rng, "x"), random_component(rng, "y")
    return [left, right, rt_sync_product(tick_free(left), tick_free(right)), rt_sync_product(left, right)]


class TestSuccessorIndexes:
    @pytest.mark.parametrize("seed", range(40))
    def test_lookups_match_a_scan(self, seed):
        for c in random_components(seed):
            for state in c.states:
                assert c.discrete_successors(state) == scanned_successors(c, state)
                for d in (Fraction(0), *DURATIONS):
                    assert c.timed_successor(state, d) == scanned_tick(c, state, d)

    @pytest.mark.parametrize("seed", range(40))
    def test_products_pair_rules_as_defined(self, seed):
        left, right, untimed, timed = random_components(seed)
        for product in (untimed, timed):
            assert Counter(product.rules) == defined_rules(left, right, list(product.states))

    @pytest.mark.parametrize("seed", range(40))
    def test_kripke_matches_the_scanned_kripke(self, seed):
        for c in random_components(seed):
            got = component_kripke(c)
            scanned = Scanned(c.states, c.initial, c.rules, c.props, c.ticks)
            want = kripke_structure(scanned, c.tick_durations(), None)
            assert got.texts == want.texts
            assert got.edges == want.edges
            assert got.labeling == want.labeling

    def test_the_returned_successor_list_is_fresh(self):
        c = Component(("a", "b"), "a", (("go", "a", "b"),), props={})
        c.discrete_successors("a").clear()
        assert c.discrete_successors("a") == [("go", "b")]


# Products built from their operands against the definition, and against the
# same structure passed through the validating constructor.


def ladder(k: int) -> Component:
    product = abstract_reservoir(1)
    for i in range(2, k + 1):
        product = rt_sync_product(product, abstract_reservoir(i))
    return product


OPERANDS = (
    [("random", seed) for seed in range(40)]
    + [("tick-free", seed) for seed in range(40)]
    + [("ladder", k) for k in range(2, 9)]
)


def operands(kind: str, n: int) -> tuple[Component, Component]:
    if kind == "ladder":
        return ladder(n - 1), abstract_reservoir(n)
    left, right = random_components(n)[:2]
    return (tick_free(left), tick_free(right)) if kind == "tick-free" else (left, right)


def defined_product(c1: Component, c2: Component, join=pair) -> tuple[list, list, dict]:
    """States, ticks and propositions of the product as the definition
    states them: the compatible pairs in c1 x c2 order, joint ticks of equal
    duration, and the left operand's propositions before the right's.
    ``join`` makes a product state from the two sides' states."""
    states = [join(s1, s2) for s1 in c1.states for s2 in c2.states if compatible(c1, s1, c2, s2)]
    member = set(states)
    ticks = [
        (join(s1, s2), join(t1, t2), d1)
        for s1, t1, d1 in c1.ticks
        for s2, t2, d2 in c2.ticks
        if d1 == d2 and join(s1, s2) in member and join(t1, t2) in member
    ]
    sides = {join(s1, s2): (s1, s2) for s1 in c1.states for s2 in c2.states}
    props = {name: frozenset(s for s in states if sides[s][0] in holds) for name, holds in c1.props.items()}
    for name, holds in c2.props.items():
        props.setdefault(name, frozenset(s for s in states if sides[s][1] in holds))
    return states, ticks, props


def nested_rebuild(c) -> Component:
    """The product through the validating constructor, with every state as
    the nested pairs of the fold, whose rendering is the product's text."""
    return Component(
        [nested(s) for s in c.states],
        nested(c.initial),
        [(label, nested(s), nested(t)) for label, s, t in c.rules],
        {name: [nested(s) for s in holds] for name, holds in c.props.items()},
        [(nested(s), nested(t), d) for s, t, d in c.ticks],
    )


class TestProductFromOperands:
    @pytest.mark.parametrize("kind, n", OPERANDS)
    def test_product_matches_the_definition(self, kind, n):
        left, right = operands(kind, n)
        # a left operand that is a product has flat tuples as states, and the
        # product's states extend them by the right operand's state
        join = extend if isinstance(left, SyncProduct) else pair
        product = rt_sync_product(left, right)
        states, ticks, props = defined_product(left, right, join)
        assert product.states == tuple(states)
        assert product.initial == join(left.initial, right.initial)
        assert product.ticks == tuple(ticks)
        assert list(product.props.items()) == list(props.items())
        assert Counter(product.rules) == defined_rules(left, right, states, join)
        for state in product.states:
            assert product.serialize(state) == render_component_state(nested(state))

    @pytest.mark.parametrize("kind, n", OPERANDS)
    def test_kripke_matches_the_validated_rebuild(self, kind, n):
        product = rt_sync_product(*operands(kind, n))
        built = [product, safe_prop(product)] if kind == "ladder" else [product]
        for c in built:
            rebuilt = nested_rebuild(c)
            got, want = component_kripke(c), component_kripke(rebuilt)
            assert got.texts == want.texts
            assert got.edges == want.edges
            assert got.labeling == want.labeling


# The lazy product against the eager reference fold, which pairs every
# compatible state with every rule and tick up front and nests its states.


def eager_ladder(k: int) -> Component:
    return reduce(eager_rt_sync_product, [abstract_reservoir(i) for i in range(1, k + 1)])


def assert_same_kripke(lazy, eager) -> None:
    got, want = component_kripke(lazy), component_kripke(eager)
    assert [nested(s) for s in got.states] == want.states
    assert got.texts == want.texts
    assert got.edges == want.edges  # labels, durations and order
    assert got.labeling == want.labeling
    assert lazy.tick_durations() == eager.tick_durations()


class TestAgainstTheEagerProduct:
    @pytest.mark.parametrize("timed", [True, False], ids=["timed", "tick-free"])
    @pytest.mark.parametrize("seed", range(40))
    def test_random_pairs(self, seed, timed):
        left, right = random_components(seed)[:2]
        if not timed:
            left, right = tick_free(left), tick_free(right)
        assert_same_kripke(rt_sync_product(left, right), eager_rt_sync_product(left, right))

    @pytest.mark.parametrize("k", range(2, 11))
    def test_ladder(self, k):
        lazy, eager = ladder(k), eager_ladder(k)
        assert len(lazy._leaves) == k
        assert_same_kripke(lazy, eager)
        assert_same_kripke(safe_prop(lazy), eager_safe_prop(eager))

    def test_delegating_operands(self):
        lazy = rt_sync_product(Delegate(ladder(3)), Delegate(abstract_reservoir(4)))
        assert len(lazy._leaves) == 4
        assert_same_kripke(lazy, eager_ladder(4))
        assert_same_kripke(safe_prop(Delegate(lazy)), eager_safe_prop(eager_ladder(4)))


class TestNaryProduct:
    def test_operands_are_flattened(self):
        r1, r2, r3 = (abstract_reservoir(i) for i in (1, 2, 3))
        folded, flat = rt_sync_product(rt_sync_product(r1, r2), r3), rt_sync_product(r1, r2, r3)
        assert folded.initial == flat.initial == ("ok", "ok", "ok")
        assert folded.states == flat.states
        assert folded.rules == flat.rules
        # the text follows the operand tree
        assert folded.serialize(("ok", "below", "ok")) == "< < ok,below >,ok >"
        assert flat.serialize(("ok", "below", "ok")) == "< ok,below,ok >"
        nested_right = rt_sync_product(r1, rt_sync_product(r2, r3))
        assert nested_right.serialize(("ok", "below", "ok")) == "< ok,< below,ok > >"

    @pytest.mark.parametrize("seed", range(40))
    def test_random_triples_match_the_definition(self, seed):
        """A label fires jointly in every component whose rules use it and
        interleaves when one component alone uses it; every state and every
        successor agrees on the shared propositions."""
        rng = random.Random(seed)
        parts = [random_component(rng, name) for name in "xyz"]
        product = rt_sync_product(*parts)

        def agrees(state) -> bool:
            return all(
                compatible(parts[i], state[i], parts[j], state[j]) for i in range(3) for j in range(i + 1, 3)
            )

        states = [s for s in itertools.product(*(c.states for c in parts)) if agrees(s)]
        assert product.states == tuple(states)
        labels = sorted({l for c in parts for l, _, _ in c.rules})
        rules = []
        for s in states:
            for label in labels:
                # every component that uses the label steps on it, alone or jointly
                succs = [s]
                for i, c in enumerate(parts):
                    if any(l == label for l, _, _ in c.rules):
                        steps = [t for l, src, t in c.rules if l == label and src == s[i]]
                        succs = [u[:i] + (t,) + u[i + 1 :] for u in succs for t in steps]
                rules += [(label, s, t) for t in succs if agrees(t)]
        assert Counter(product.rules) == Counter(rules)
        for d in DURATIONS:
            for s in states:
                after = tuple(c.timed_successor(x, d) for c, x in zip(parts, s))
                want = after if None not in after and agrees(after) else None
                assert product.timed_successor(s, d) == want


class TestExplorationReadsNoView:
    """Exploring and checking a product never enumerates it: with its
    ``states``, ``rules``, ``props`` and ``ticks`` views raising, the library
    and ``lhamc product-check`` give the same output."""

    def test_same_output_without_the_views(self, monkeypatch, tmp_path, capsys):
        paths = []
        for i in (1, 2, 3):
            paths += ["--component", str(tmp_path / f"r{i}.json")]
            (tmp_path / f"r{i}.json").write_text(json.dumps(component_to_json(abstract_reservoir(i))))

        def run() -> list:
            got = []
            for formula in ("[] safe", "[] <> safe"):
                kripke = component_kripke(safe_prop(ladder(5)))
                ce = model_check(kripke, parse_formula(formula))
                got.append((kripke.texts, kripke.edges, kripke.labeling, ce))
                code = main(["product-check", *paths, "--formula", formula])
                got.append((code, capsys.readouterr()))
            return got

        before = run()

        def refuse(name):
            def read(self):
                raise AssertionError(f"the {name} view was read")

            return property(read)

        for view in ("states", "rules", "props", "ticks"):
            monkeypatch.setattr(SyncProduct, view, refuse(view))
        with pytest.raises(AssertionError, match="states view"):
            ladder(2).states
        assert run() == before


PRODUCT_BUDGET_SECONDS = 10.0


class TestScaling:
    def test_twelve_fold_product_checks_within_budget(self):
        started = time.perf_counter()
        product = abstract_reservoir(1)
        for i in range(2, 13):
            product = rt_sync_product(product, abstract_reservoir(i))
        kripke = component_kripke(safe_prop(product))
        ce = model_check(kripke, parse_formula("[] <> safe"))
        took = time.perf_counter() - started
        assert len(kripke) == 4096
        assert ce is None
        assert took < PRODUCT_BUDGET_SECONDS


class TestIdentity:
    """A state's text is its identity: over the reachable states of seeded
    random components, their products and the ladder (and over every state
    they hold), two states have the same text exactly when they are the same
    state tuple."""

    def test_serialize_is_injective_on_reachable_states(self):
        components = [c for seed in range(40) for c in random_components(seed)]
        components += [ladder(k) for k in (2, 3, 5)] + [safe_prop(ladder(4))]
        reachable = held = 0
        for c in components:
            found = component_kripke(c).states
            for states in (found, c.states):
                assert len({c.serialize(s) for s in states}) == len(set(states)) == len(states)
            reachable += len(found)
            held += len(c.states)
        assert reachable > 400 and held > 600, (reachable, held)
