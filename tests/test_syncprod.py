import ast
import inspect
import itertools
import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

from lhamc.cli import main
from lhamc.core import ModelError
from lhamc import syncprod
from lhamc.explore import STUTTER, TICK
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
    component_from_json,
    component_kripke,
    render_component_state,
    rt_sync_product,
    safe_prop,
)
from oracles import whole_kripke
from reference import (
    compatible,
    component_to_json,
    eager_rt_sync_product,
    eager_safe_prop,
    product_props,
    product_ticks,
    rendered_alike,
)
from test_core import BAD_DURATIONS, assert_the_duration_rule


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
        assert product_props(p)["busy"] == frozenset({("v", "y")})
        assert product_props(p)["own"] == frozenset({("u", "x")})

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
        assert product_ticks(p) == ((("ok", "ok"), ("below", "below"), Fraction(1)),)

    def test_rt_product_requires_equal_durations(self):
        slow = Component(
            ("a", "b"), "a", (), props={}, ticks=(("a", "b", Fraction(2)),)
        )
        fast = Component(
            ("x", "y"), "x", (), props={}, ticks=(("x", "y", Fraction(1)),)
        )
        p = rt_sync_product(slow, fast)
        assert product_ticks(p) == ()


    @pytest.mark.parametrize("delta", BAD_DURATIONS)
    @pytest.mark.parametrize("kind", ["component", "product"])
    def test_durations_are_validated(self, kind, delta):
        # Fraction(1) is a tick duration here
        assert_the_duration_rule({"component": abstract_reservoir(1), "product": reservoir_pair()}[kind], delta)

    def test_product_states_must_render_distinctly(self):
        # ("a,b", "c") and ("a", "b,c") would both be the state "< a,b,c >"
        left = Component(("a,b", "a"), "a,b", (("go1", "a,b", "a"),), props={"p": ("a",)})
        right = Component(("c", "b,c"), "c", (("go2", "c", "b,c"),), props={"q": ("b,c",)})
        with pytest.raises(ModelError, match="two component states render as"):
            len(component_kripke(rt_sync_product(left, right)))

    def test_two_moves_under_one_label_must_render_distinctly(self):
        # "go" leads to ("a", "b,c") and to ("a,b", "c"), both "< a,b,c >"; the
        # product is rejected when it is built, before moves are sorted by text
        left = Component(("l", "a", "a,b"), "l", (("go", "l", "a"), ("go", "l", "a,b")), props={})
        right = Component(("r", "b,c", "c"), "r", (("go", "r", "b,c"), ("go", "r", "c")), props={})
        with pytest.raises(ModelError, match="two component states render as '< a,b,c >'"):
            product = rt_sync_product(left, right)
            product.discrete_successors(product.initial_state())
        with pytest.raises(ModelError, match="two component states render as '< a,b,c >'"):
            len(component_kripke(rt_sync_product(left, right)))


class TestSafeProp:
    def test_safe_added(self):
        p = safe_prop(reservoir_pair())
        assert product_props(p)["safe"] == frozenset(
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
        assert "safe" not in product_props(c) and set(product_props(p)) == set(product_props(c)) | {"safe"}
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
    for s, t, d in product_ticks(c):
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
            scanned = Scanned(c.states, c.initial, c.rules, product_props(c), product_ticks(c))
            want = whole_kripke(scanned, c.tick_durations(), None)
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
        for s1, t1, d1 in product_ticks(c1)
        for s2, t2, d2 in product_ticks(c2)
        if d1 == d2 and join(s1, s2) in member and join(t1, t2) in member
    ]
    sides = {join(s1, s2): (s1, s2) for s1 in c1.states for s2 in c2.states}
    props = {
        name: frozenset(s for s in states if sides[s][0] in holds) for name, holds in product_props(c1).items()
    }
    for name, holds in product_props(c2).items():
        props.setdefault(name, frozenset(s for s in states if sides[s][1] in holds))
    return states, ticks, props


def nested_rebuild(c) -> Component:
    """The product through the validating constructor, with every state as
    the nested pairs of the fold, whose rendering is the product's text."""
    return Component(
        [nested(s) for s in c.states],
        nested(c.initial),
        [(label, nested(s), nested(t)) for label, s, t in c.rules],
        {name: [nested(s) for s in holds] for name, holds in product_props(c).items()},
        [(nested(s), nested(t), d) for s, t, d in product_ticks(c)],
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
        assert product_ticks(product) == tuple(ticks)
        assert list(product_props(product).items()) == list(props.items())
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


def comma_reservoir(i: int) -> Component:
    """``abstract_reservoir(i)`` with its state ``ok`` named ``o,k``."""
    return Component(
        states=("o,k", "below"),
        initial="o,k",
        rules=((f"fill{i}", "below", "o,k"),),
        props={f"refill{i}?": ("below",)},
        ticks=(("o,k", "below", 1),),
    )


class TestExplorationReadsNoView:
    """Exploring and checking a product never enumerates it, also where a
    state's text holds a ``,``: with its ``states`` and ``rules`` views
    raising, the library and ``lhamc product-check`` give the same output."""

    def test_same_output_without_the_views(self, monkeypatch, tmp_path, capsys):
        paths = {abstract_reservoir: [], comma_reservoir: []}
        for make, at in paths.items():
            for i in (1, 2, 3):
                path = tmp_path / f"{make.__name__}{i}.json"
                path.write_text(json.dumps(component_to_json(make(i))))
                at += ["--component", str(path)]

        def run() -> list:
            got = []
            for make, at in paths.items():
                for formula in ("[] safe", "[] <> safe"):
                    product = safe_prop(reduce(rt_sync_product, map(make, range(1, 6))))
                    kripke = component_kripke(product)
                    ce = model_check(kripke, parse_formula(formula))
                    got.append((kripke.texts, kripke.edges, kripke.labeling, ce))
                    code = main(["product-check", *at, "--formula", formula])
                    got.append((code, capsys.readouterr()))
            return got

        before = run()

        def refuse(name):
            def read(self):
                raise AssertionError(f"the {name} view was read")

            return property(read)

        for view in ("states", "rules"):
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


class TestRenderedOnce:
    def test_each_state_is_rendered_once_however_many_edges_reach_it(self):
        fills = Counter()

        class CountedTemplate(str):
            def __mod__(self, texts):
                fills[texts] += 1
                return str.__mod__(self, texts)

        product = safe_prop(ladder(10))
        product._template = CountedTemplate(product._template)
        kripke = component_kripke(product)
        assert len(kripke) == 2**10 and len(kripke.edges) > 4 * 2**10
        assert len(fills) == sum(fills.values()) == 2**10


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


# alphabets for the state texts of one product: all of "ab,<> ", and some
# that favour the template's own separators, so that clashes are frequent
ALIKE_ALPHABETS = ("ab,<> ", ",", ",", "a,", "a,", "a,", "ab,", "a, >", "a,< ")
# most components add no state; some add tuple states, and some the tuple
# state ("a",) beside the state "< a >", which renders alike
ALIKE_EXTRAS = ((),) * 27 + ((("a",),), ("< a >", ("a",)), (("a",), ("a", ",")))


class TestRenderingCheckedAtBuild:
    """A component or product is rejected when it is built exactly when two
    distinct tuples of its states render alike, as enumerating every tuple
    finds, and the text it names is one that two distinct tuples render."""

    def checked(self, make, template: str, texts: list[list[str]], verdicts: Counter):
        """``make()`` with ``texts[k]`` component k's state texts, or None
        where it is rejected, checked against :func:`rendered_alike`."""
        clash = rendered_alike(template, texts)
        kind = "component" if template == "%s" else "product"
        try:
            model = make()
        except ModelError as err:
            named = ast.literal_eval(str(err).removeprefix("two component states render as "))
            assert str(err) == f"two component states render as {named!r}"
            assert clash is not None, (template, texts)
            renders = [template % tuple(t) for t in itertools.product(*texts)]
            assert renders.count(named) >= 2, (template, texts, named)
            verdicts["rejected", kind] += 1
            return None
        assert clash is None, (template, texts, clash)
        verdicts["accepted", kind] += 1
        return model

    def product(self, parts: list, verdicts: Counter):
        """The product of parts, each (model, template, texts), or None."""
        template = "< " + ",".join(t for _, t, _ in parts) + " >"
        texts = [t for _, _, ts in parts for t in ts]
        model = self.checked(lambda: rt_sync_product(*(m for m, _, _ in parts)), template, texts, verdicts)
        return model and (model, template, texts)

    def test_the_check_agrees_with_enumerating_every_tuple(self):
        rng = random.Random(28)
        verdicts, shapes = Counter(), Counter()
        for _ in range(5000):
            alphabet = rng.choice(ALIKE_ALPHABETS)
            parts = []
            for _ in range(rng.randint(1, 4)):
                words = ("".join(rng.choices(alphabet, k=rng.randint(0, 4))) for _ in range(rng.randint(1, 4)))
                states = [*dict.fromkeys(words), *rng.choice(ALIKE_EXTRAS)]
                texts = [render_component_state(s) for s in states]
                component = self.checked(lambda: Component(states, states[0], (), {}), "%s", [texts], verdicts)
                parts.append(component and (component, "%s", [texts]))
            shape = rng.choice(("flat", "left fold", "nested")) if len(parts) > 1 else "component"
            shapes[shape] += 1
            if None in parts or shape == "component":
                continue
            if shape == "flat":
                self.product(parts, verdicts)
            elif shape == "left fold":
                folded = parts[0]
                for part in parts[1:]:
                    folded = folded and self.product([folded, part], verdicts)
            else:
                # products of products: the parts in groups of one to three
                groups, at = [], 0
                while at < len(parts):
                    size = rng.randint(1, 3)
                    group = parts[at : at + size]
                    groups.append(group[0] if len(group) == 1 else self.product(group, verdicts))
                    at += size
                if None not in groups and len(groups) > 1:
                    self.product(groups, verdicts)
        assert verdicts["rejected", "product"] > 300 and verdicts["accepted", "product"] > 3000, verdicts
        assert verdicts["rejected", "component"] > 200, verdicts
        assert min(shapes.values()) > 1000, shapes


class TestRenderingCheckedOnce:
    """``rt_sync_product`` checks its texts once, after the product is built;
    ``safe_prop`` keeps its operand's leaves and template and checks nothing.
    A walk starts only from a prefix pair whose overhang can meet the literal
    after its slot."""

    @staticmethod
    def counted(monkeypatch, build) -> tuple[int, int]:
        """The rendering checks ``build()`` runs and the walks they start."""
        check = syncprod._check_rendering
        lines, first = inspect.getsourcelines(check)
        start = first + next(i for i, line in enumerate(lines) if "todo = [" in line)
        checks = walks = 0

        def counting(*args):
            nonlocal checks
            checks += 1
            return check(*args)

        def in_check(frame, event, arg):
            nonlocal walks
            walks += event == "line" and frame.f_lineno == start
            return in_check

        monkeypatch.setattr(syncprod, "_check_rendering", counting)
        outer = sys.gettrace()
        sys.settrace(lambda frame, event, arg: in_check if frame.f_code is check.__code__ else None)
        try:
            build()
        finally:
            sys.settrace(outer)
            monkeypatch.setattr(syncprod, "_check_rendering", check)
        return checks, walks

    def test_a_prefix_chain_starts_no_walk(self, monkeypatch):
        chain = Component(["a" * n for n in range(1, 101)], "a", [], {"p": ["a"]})
        fold = lambda: rt_sync_product(rt_sync_product(chain, abstract_reservoir(1)), abstract_reservoir(2))
        assert self.counted(monkeypatch, fold) == (2, 0)
        folded = fold()
        assert self.counted(monkeypatch, lambda: safe_prop(folded)) == (0, 0)

    def test_an_overhang_that_meets_the_literal_starts_a_walk(self, monkeypatch):
        left = Component(["a", "a,x"], "a", [], {})
        assert self.counted(monkeypatch, lambda: rt_sync_product(left, Component(["y"], "y", [], {}))) == (1, 1)
        assert self.counted(monkeypatch, lambda: safe_prop(abstract_reservoir(1))) == (0, 0)


def no_joint_tick(k: int, *first_ticks) -> list[Component]:
    """k components of 1-ticks where no joint tick agrees on ``p``: it holds
    only at the first one's start, which has no tick of its own unless
    ``first_ticks`` gives one, and at every state of the last one."""
    one = Fraction(1)
    first = Component(["a"] + [f"x{i}" for i in range(8)], "a", [], {"p": ["a"]},
                      [(f"x{i}", f"x{i}", one) for i in range(8)] + list(first_ticks))
    middle = [Component([f"m{i}" for i in range(8)], "m0", [], {}, [(f"m{i}", f"m{i}", one) for i in range(8)])
              for _ in range(k - 2)]
    return [first, *middle, Component(["z"], "z", [], {"p": ["z"]}, [("z", "z", one)])]


class TestJointTicks:
    """Whether a joint tick exists is decided by a search that remembers its
    dead ends, so it tries each once instead of every combination of the
    middle components' ticks before ``p`` refuses the last one."""

    @staticmethod
    def counted(monkeypatch, product) -> tuple[list, int]:
        """``product.tick_durations()`` and the ``_joint_ticks`` calls it makes."""
        joint_ticks, calls = SyncProduct._joint_ticks, 0

        def counting(self, *args):
            nonlocal calls
            calls += 1
            return joint_ticks(self, *args)

        monkeypatch.setattr(SyncProduct, "_joint_ticks", counting)
        return product.tick_durations(), calls

    def test_a_refused_tick_costs_polynomially_many_calls(self, monkeypatch):
        k = 6
        durations, calls = self.counted(monkeypatch, rt_sync_product(*no_joint_tick(k)))
        assert durations == [] and calls <= 10 * k, calls

    def test_a_tick_after_the_dead_ends_is_still_found(self, monkeypatch):
        k = 6
        durations, calls = self.counted(monkeypatch, rt_sync_product(*no_joint_tick(k, ("a", "a", Fraction(1)))))
        assert durations == [Fraction(1)] and calls <= 10 * k, calls
