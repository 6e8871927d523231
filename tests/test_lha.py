import random
from collections import Counter
from fractions import Fraction

import pytest

from lhamc.core import ModelError, TimedTransitionSystem
from lhamc.lha import (
    RELATIONS,
    AffineConstraint,
    AffineExpr,
    Assignment,
    Edge,
    Lha,
    LhaState,
    LhaSystem,
    Location,
    lha_from_json,
    lha_to_json,
    two_reservoir,
)
from oracles import whole_kripke
from reference import FractionLhaState, eval_affine, flow, holds, lha_valuation
from reference import lha_discrete_successors as discrete_successors
from reference import lha_render_state as render_state
from reference import lha_timed_successor as timed_successor
from test_core import BAD_DURATIONS, assert_the_duration_rule

F = Fraction


def val(**kwargs):
    return {k: Fraction(v) for k, v in kwargs.items()}


class TestAffine:
    def test_eval(self):
        expr = AffineExpr.make({"x": 2, "y": "-1/2"}, 3)
        assert eval_affine(expr, val(x=1, y=4)) == F(3)

    def test_zero_coefficients_dropped(self):
        assert AffineExpr.make({"x": 0, "y": 1}) == AffineExpr.make({"y": 1})

    def test_unknown_variable(self):
        with pytest.raises(ModelError):
            eval_affine(AffineExpr.make({"z": 1}), val(x=0))

    @pytest.mark.parametrize(
        "rel,value,expected",
        [
            ("<", -1, True), ("<", 0, False),
            ("<=", 0, True), ("<=", 1, False),
            ("=", 0, True), ("=", 2, False),
            (">=", 0, True), (">=", -1, False),
            (">", 1, True), (">", 0, False),
        ],
    )
    def test_holds_against_zero(self, rel, value, expected):
        c = AffineConstraint(AffineExpr.make({}, value), rel)
        assert holds(c, {}) is expected

    def test_unknown_relation(self):
        with pytest.raises(ModelError):
            AffineConstraint(AffineExpr.make({}), "!=")


class TestTwoReservoir:
    def test_locations_and_edges(self):
        lha = two_reservoir(10, 5, 5, 15, 15, 30, 30)
        assert [loc.name for loc in lha.locations] == ["left", "right"]
        assert [e.label for e in lha.edges] == ["moveright", "moveleft"]
        assert lha.initial_location == "left"
        left = lha.location_named("left")
        assert left.rates == {"x1": F(5), "x2": F(-5)}
        right = lha.location_named("right")
        assert right.rates == {"x1": F(-5), "x2": F(5)}

    def test_unknown_location_name(self):
        lha = two_reservoir(10, 5, 5, 15, 15, 30, 30)
        with pytest.raises(ModelError, match="unknown location 'middle'"):
            lha.location_named("middle")
        assert lha == two_reservoir(10, 5, 5, 15, 15, 30, 30)

    def test_timed_step_one_unit(self):
        # hand-computed: filling tank 1 at 10-5 while tank 2 leaks 5
        lha = two_reservoir(10, 5, 5, 15, 15, 30, 30)
        s = FractionLhaState("left", val(x1=30, x2=30))
        after = timed_successor(lha, s, F(1))
        assert after == FractionLhaState("left", val(x1=35, x2=25))

    def test_timed_step_to_the_boundary(self):
        lha = two_reservoir(10, 5, 5, 15, 15, 30, 30)
        s = FractionLhaState("left", val(x1=30, x2=30))
        assert timed_successor(lha, s, F(3)) == FractionLhaState("left", val(x1=45, x2=15))

    def test_timed_step_past_the_boundary_is_blocked(self):
        lha = two_reservoir(10, 5, 5, 15, 15, 30, 30)
        s = FractionLhaState("left", val(x1=30, x2=30))
        assert timed_successor(lha, s, F(7, 2)) is None

    def test_time_cannot_pass_at_the_boundary(self):
        lha = two_reservoir(10, 5, 5, 15, 15, 30, 30)
        s = FractionLhaState("left", val(x1=45, x2=15))
        assert timed_successor(lha, s, F(1)) is None
        assert timed_successor(lha, s, F(1, 1000)) is None

    def test_zero_duration_always_allowed(self):
        lha = two_reservoir(10, 5, 5, 15, 15, 30, 30)
        s = FractionLhaState("left", val(x1=45, x2=15))
        assert timed_successor(lha, s, F(0)) == s

    def test_exact_fractional_step(self):
        lha = two_reservoir(10, 5, 5, 15, 15, 30, 30)
        s = FractionLhaState("left", val(x1=30, x2=30))
        after = timed_successor(lha, s, F(1, 2))
        assert after == FractionLhaState("left", val(x1=F(65, 2), x2=F(55, 2)))

    def test_move_only_at_the_threshold(self):
        lha = two_reservoir(10, 5, 5, 15, 15, 30, 30)
        assert discrete_successors(lha, FractionLhaState("left", val(x1=30, x2=30))) == []
        succs = discrete_successors(lha, FractionLhaState("left", val(x1=45, x2=15)))
        assert succs == [("moveright", FractionLhaState("right", val(x1=45, x2=15)))]

    def test_move_blocked_by_target_invariant(self):
        # jumping right requires tank 1 at or above its threshold
        lha = two_reservoir(10, 5, 5, 15, 15, 30, 30)
        assert discrete_successors(lha, FractionLhaState("left", val(x1=10, x2=15))) == []

    def test_symmetric_in_right_location(self):
        lha = two_reservoir(10, 5, 5, 15, 15, 30, 30)
        s = FractionLhaState("right", val(x1=45, x2=15))
        after = timed_successor(lha, s, F(2))
        assert after == FractionLhaState("right", val(x1=35, x2=25))

    def test_preconditions(self):
        with pytest.raises(ModelError):
            two_reservoir(10, 5, 5, 15, 15, 10, 30)  # starts below threshold
        with pytest.raises(ModelError):
            two_reservoir(-1, 5, 5, 15, 15, 30, 30)

    def test_round_trip_through_json(self):
        lha = two_reservoir(10, 5, 5, 15, 15, 30, 30)
        assert lha_from_json(lha_to_json(lha)) == lha


class TestFlow:
    def test_additivity(self):
        rng = random.Random(101)
        loc = Location("l", {"x": F(3), "y": F(-2)})
        for _ in range(200):
            v = val(x=rng.randint(-50, 50), y=rng.randint(-50, 50))
            a = F(rng.randint(0, 20), rng.randint(1, 7))
            b = F(rng.randint(0, 20), rng.randint(1, 7))
            assert flow(loc, flow(loc, v, a), b) == flow(loc, v, a + b)

    def test_missing_rate_means_constant(self):
        loc = Location("l", {"x": F(1)})
        assert flow(loc, val(x=0, y=9), F(4)) == val(x=4, y=9)


class TestJumps:
    def test_assignments_are_simultaneous(self):
        swap = Edge(
            "a", "a", "swap",
            assignments=(
                Assignment("x", AffineExpr.make({"y": 1})),
                Assignment("y", AffineExpr.make({"x": 1})),
            ),
        )
        lha = Lha(("x", "y"), (Location("a", {}),), (swap,), "a", val(x=1, y=2))
        succs = discrete_successors(lha, FractionLhaState("a", val(x=1, y=2)))
        assert succs == [("swap", FractionLhaState("a", val(x=2, y=1)))]


class TestLhaSystem:
    def test_contract(self):
        system = LhaSystem(two_reservoir(10, 5, 5, 15, 15, 30, 30))
        s = system.initial_state()
        assert system.serialize(s) == "left,30,30"
        after = FractionLhaState("left", val(x1=35, x2=25))
        assert system.serialize(system.timed_successor(s, F(1))) == render_state(system.lha, after)
        with pytest.raises(ModelError):
            system.prop_holds(s, "one-down")

    def test_serialize_uses_canonical_rationals(self):
        lha = two_reservoir(10, 5, 5, 15, 15, 30, 30)
        s = FractionLhaState("left", val(x1=F(65, 2), x2=F(55, 2)))
        assert render_state(lha, s) == "left,65/2,55/2"


class TestValidation:
    def test_duplicate_locations(self):
        with pytest.raises(ModelError):
            Lha(("x",), (Location("a", {}), Location("a", {})), (), "a", val(x=0))

    def test_unknown_rate_variable(self):
        with pytest.raises(ModelError):
            Lha(("x",), (Location("a", {"y": F(1)}),), (), "a", val(x=0))

    def test_unknown_initial_location(self):
        with pytest.raises(ModelError):
            Lha(("x",), (Location("a", {}),), (), "b", val(x=0))

    def test_initial_valuation_must_cover_variables(self):
        with pytest.raises(ModelError):
            Lha(("x", "y"), (Location("a", {}),), (), "a", val(x=0))

    def test_initial_valuation_must_satisfy_the_invariant(self):
        at_least_5 = AffineConstraint(AffineExpr.make({"x": 1}, -5), ">=")
        with pytest.raises(ModelError):
            Lha(("x",), (Location("l", {"x": F(10)}, invariant=(at_least_5,)),), (), "l", val(x=0))

    @pytest.mark.parametrize("where", ["invariant", "tick_guard", "guard", "assignment"])
    def test_expressions_over_undeclared_variables(self, where):
        over_y = AffineConstraint(AffineExpr.make({"y": 1}), ">=")
        location = Location("b", {}, **{where: (over_y,)} if where in ("invariant", "tick_guard") else {})
        edge = Edge(
            "a", "b", "go",
            guard=(over_y,) if where == "guard" else (),
            assignments=(Assignment("x", over_y.expr),) if where == "assignment" else (),
        )
        with pytest.raises(ModelError, match="unknown variable 'y'"):
            Lha(("x",), (Location("a", {}), location), (edge,), "a", val(x=0))


def random_rational(rng, bound):
    return F(rng.randint(-bound, bound), rng.choice((1, 1, 2, 3, 4, 6)))


def random_expr(rng, names):
    coeffs = {v: random_rational(rng, 4) for v in rng.sample(names, rng.randint(1, len(names)))}
    return AffineExpr.make(coeffs, random_rational(rng, 30))


def random_constraints(rng, names, most):
    return tuple(
        AffineConstraint(random_expr(rng, names), rng.choice(RELATIONS)) for _ in range(rng.randint(0, most))
    )


def random_automaton(rng):
    """1-3 variables, fractional rates and constraints, and assignments with
    non-integer coefficients; retried until the initial state is admissible."""
    names = ["x", "y", "z"][: rng.randint(1, 3)]
    while True:
        locations = tuple(
            Location(
                f"l{i}",
                {v: random_rational(rng, 6) for v in names if rng.random() < 0.8},
                invariant=random_constraints(rng, names, 2),
                tick_guard=random_constraints(rng, names, 1),
            )
            for i in range(rng.randint(1, 3))
        )
        edges = tuple(
            Edge(
                rng.choice(locations).name,
                rng.choice(locations).name,
                rng.choice(("a", "b", "c")),
                guard=random_constraints(rng, names, 1),
                assignments=tuple(
                    Assignment(v, random_expr(rng, names)) for v in rng.sample(names, rng.randint(0, len(names)))
                ),
            )
            for _ in range(rng.randint(0, 5))
        )
        valuation = {v: random_rational(rng, 10) for v in names}
        try:
            return Lha(tuple(names), locations, edges, "l0", valuation)
        except ModelError:
            continue


class TestScaledSystem:
    """LhaSystem computes on integers; the reference functions are the
    Fraction semantics it must agree with, step for step."""

    INCREMENTS = (F(1), F(1, 2), F(1, 3), F(0))

    def assert_same(self, system, lha, fast, ref):
        assert system.serialize(fast) == render_state(lha, ref)
        assert (fast.location, lha_valuation(lha, fast)) == (ref.location, ref.valuation)

    def test_walks_agree_with_the_fraction_reference(self):
        rng = random.Random(2024)
        steps = jumps = 0
        for _ in range(150):
            lha = random_automaton(rng)
            system = LhaSystem(lha)
            initial = (system.initial_state(), FractionLhaState(lha.initial_location, dict(lha.initial_valuation)))
            fast, ref = initial
            for _ in range(30):
                self.assert_same(system, lha, fast, ref)
                moves = []
                fast_jumps = system.discrete_successors(fast)
                ref_jumps = discrete_successors(lha, ref)
                assert [(label, system.serialize(s)) for label, s in fast_jumps] == [
                    (label, render_state(lha, s)) for label, s in ref_jumps
                ]
                assert [(label, s.location, lha_valuation(lha, s)) for label, s in fast_jumps] == [
                    (label, s.location, s.valuation) for label, s in ref_jumps
                ]
                assert sorted({label for label, _ in fast_jumps}) == sorted({label for label, _ in ref_jumps})
                moves += [(a, b) for (_, a), (_, b) in zip(fast_jumps, ref_jumps)]
                jumps += len(fast_jumps)
                delta = rng.choice(self.INCREMENTS)
                fast_after = system.timed_successor(fast, delta)
                ref_after = timed_successor(lha, ref, delta)
                assert (fast_after is None) == (ref_after is None)
                if fast_after is not None:
                    self.assert_same(system, lha, fast_after, ref_after)
                    moves.append((fast_after, ref_after))
                    steps += delta != 0
                fast, ref = rng.choice(moves) if moves else initial
        assert steps > 1000 and jumps > 300

    def test_valuation_reads_as_fractions(self):
        system = LhaSystem(two_reservoir(10, 5, 5, 15, 15, 30, 30))
        after = system.timed_successor(system.initial_state(), F(1, 2))
        assert system.serialize(after) == "left,65/2,55/2"
        assert (after.nums, after.den) == ((65, 55), 2)

    @pytest.mark.parametrize("delta", BAD_DURATIONS)
    def test_durations_are_validated(self, delta):
        assert_the_duration_rule(LhaSystem(two_reservoir(10, 5, 5, 15, 15, 30, 30)), delta)

    def test_unknown_location(self):
        system = LhaSystem(two_reservoir(10, 5, 5, 15, 15, 30, 30))
        with pytest.raises(ModelError, match="unknown location 'middle'"):
            system.timed_successor(LhaState("middle", (30, 30), 1), F(1))
        with pytest.raises(ModelError, match="unknown location 'middle'"):
            system.timed_trace(LhaState("middle", (30, 30), 1), F(1), 3)

    # 2/7 grows the denominator of states held over sixths
    RUN_INCREMENTS = (F(1), F(1, 2), F(1, 3), F(2, 7), F(0))

    def reachable_states(self, rng, system, most):
        """Up to ``most`` states of one seeded random walk of jumps and ticks
        from the initial state."""
        state = system.initial_state()
        seen = [state]
        for _ in range(12):
            moves = [s for _, s in system.discrete_successors(state)]
            after = system.timed_successor(state, rng.choice(self.RUN_INCREMENTS))
            if after is not None:
                moves.append(after)
            if not moves:
                break
            state = rng.choice(moves)
            seen.append(state)
        return rng.sample(seen, min(most, len(seen)))

    @staticmethod
    def flat(segments):
        """The (text, enabled labels, annotations) of each state of a
        segmented run, in order."""
        return [(text, enabled, facts) for texts, enabled, facts in segments for text in texts]

    @staticmethod
    def failing_relations(lha, state, delta):
        """The relation of each row that blocks a tick of ``delta`` from
        ``state``: a tick guard row false at ``state``, or an invariant row
        false where the tick would end."""
        location = lha.location_named(state.location)
        target = flow(location, state.valuation, delta)
        return [c.rel for c in location.tick_guard if not holds(c, state.valuation)] + [
            c.rel for c in location.invariant if not holds(c, target)
        ]

    def test_timed_runs_agree_with_the_fraction_reference(self):
        rng = random.Random(1818)
        blocked = blocked_later = relabelled = 0
        binding = dict.fromkeys(RELATIONS, 0)
        for _ in range(60):
            lha = random_automaton(rng)
            system = LhaSystem(lha)
            for start in self.reachable_states(rng, system, 2):
                for delta in self.RUN_INCREMENTS:
                    origin = state = FractionLhaState(start.location, lha_valuation(lha, start))
                    reference = [origin]  # the reference run: the start and up to 40 ticks
                    for _ in range(40):
                        state = timed_successor(lha, state, delta)
                        if state is None:
                            break
                        reference.append(state)
                    run = self.flat(system.timed_trace(start, delta, 40))
                    assert run == [
                        (render_state(lha, s), sorted({label for label, _ in discrete_successors(lha, s)}), {})
                        for s in reference
                    ]
                    # stepping one tick at a time gives the same run, and a
                    # shorter count a prefix of it
                    assert self.flat(TimedTransitionSystem.timed_trace(system, start, delta, 40)) == run
                    for count in (-1, 0, *range(1, 40)):
                        assert self.flat(system.timed_trace(start, delta, count)) == run[: max(count, 0) + 1]
                    relabelled += any(a[1] != b[1] for a, b in zip(run, run[1:]))
                    if len(reference) <= 40:
                        blocked += 1
                        blocked_later += len(reference) >= 3
                        relations = self.failing_relations(lha, reference[-1], delta)
                        if len(relations) == 1:
                            binding[relations[0]] += 1
        report = (blocked, blocked_later, relabelled, binding)
        assert blocked >= 100 and blocked_later >= 20 and relabelled >= 25 and min(binding.values()) >= 1, report

    def test_a_run_of_no_ticks_looks_nothing_up(self):
        system = LhaSystem(two_reservoir(10, 5, 5, 15, 15, 30, 30))
        nowhere = LhaState("middle", (30, 30), 1)
        for count in (0, -1):
            assert system.timed_trace(nowhere, 1.0, count) == [(["middle,30,30"], [], {})]
            assert TimedTransitionSystem.timed_trace(system, nowhere, 1.0, count) == [(["middle,30,30"], [], {})]


def stepped_stretch(system: LhaSystem, state, delta, limit: int) -> list:
    """``state`` and the states after it, one tick at a time, while the last
    has no jump and an unblocked tick, for at most ``limit`` ticks: what
    :meth:`LhaSystem.quiet` leaps over.  A location fixes the letter."""
    run = [state]
    while len(run) <= limit:
        after = system.timed_successor(run[-1], delta)
        if after is None or system.discrete_successors(run[-1]):
            break
        run.append(after)
    return run


class TestQuietStretch:
    """``LhaSystem.quiet`` finds a stretch from its rows' intervals and
    ``quiet_run`` builds the stretch's states in closed form; ticking
    ``timed_successor`` one step at a time is the judge of both."""

    LIMITS = (0, 1, 2, 3, 7, 300)

    @staticmethod
    def fields(states) -> list:
        return [(s.location, s.nums, s.den) for s in states]

    def test_a_leap_ends_where_ticking_one_step_at_a_time_does(self):
        rng = random.Random(3939)
        seen = Counter()
        for _ in range(120):
            system = LhaSystem(random_automaton(rng))
            for start in TestScaledSystem().reachable_states(rng, system, 3):
                for delta in TestScaledSystem.RUN_INCREMENTS[:-1]:
                    longest = stepped_stretch(system, start, delta, max(self.LIMITS) + 1)
                    for limit in self.LIMITS:
                        run = longest[:limit + 1]
                        k = len(run) - 1
                        leap = system.quiet(start, delta, limit)
                        if k < 2:
                            assert leap is None, (system.serialize(start), delta, limit)
                            seen["none"] += 1
                            continue
                        assert leap is not None and leap[0] == k, (system.serialize(start), delta, limit)
                        assert self.fields([leap[1]]) == self.fields(run[-1:])
                        for j in {1, k - 1, k}:
                            states, texts = system.quiet_run(start, delta, j)
                            assert self.fields(states) == self.fields(run[1:j + 1])
                            assert texts == [system.serialize(s) for s in run[1:j + 1]]
                        # the longest stretch: the limit cut it, or its last state has a jump or a blocked tick
                        cut = len(longest) > k + 1
                        assert k == limit or not cut
                        seen["leap"] += 1
                        seen["cut"] += cut
                        seen["jump"] += not cut and bool(system.discrete_successors(run[-1]))
                        seen["blocked"] += not cut and not system.discrete_successors(run[-1])
                        seen["grown"] += run[1].den != start.den
        assert min(seen.values()) > 50 and seen["leap"] > 2000 and seen["grown"] > 300, seen


class TestIdentity:
    """A state's text is its identity: over the reachable states of seeded
    random automata, two states have the same text exactly when they have
    the same location and the same Fraction valuation, whatever
    denominators they are held over."""

    def test_serialize_is_injective_on_reachable_states(self):
        rng = random.Random(616)
        compared = distinct = 0
        for _ in range(150):
            lha = random_automaton(rng)
            system = LhaSystem(lha)
            by_text, by_state = {}, {}
            for durations, bound in (((F(1),), F(4)), ((F(1, 2), F(1, 3)), F(2))):
                try:
                    kripke = whole_kripke(system, durations, bound, max_states=400)
                except ModelError:
                    continue
                for state in kripke.states:
                    text = system.serialize(state)
                    key = (state.location, tuple(lha_valuation(lha, state).values()))
                    assert by_text.setdefault(text, key) == key
                    assert by_state.setdefault(key, text) == text
                    compared += 1
            assert len(by_text) == len(by_state)
            distinct += len(by_text)
        assert compared > 2000 and distinct > 1400, (compared, distinct)
