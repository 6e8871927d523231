import itertools
import json
import random
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from lhamc.cli import main
from lhamc.core import ModelError, ModelWarning, TimedTransitionSystem
from conftest import three_tank_state
from lhamc.explore import Kripke
from lhamc.lha import LhaSystem, two_reservoir
from lhamc.reservoir import (
    PROPOSITIONS,
    Hose,
    NResState,
    NResSystem,
    Reservoir,
    SearchPattern,
    nres_from_json,
    parse_pattern,
)
from reference import (
    above_upper,
    check_hose,
    fill,
    move_hose_successors,
    needs_refill,
    nres_match,
    nres_to_json,
    nres_validate_pattern,
    tick,
    valuation,
)
from reference import nres_render_state as render_state
from oracles import whole_kripke
from test_core import BAD_DURATIONS, assert_the_duration_rule

INIT2 = Path(__file__).resolve().parent.parent / "models" / "init2.json"

F = Fraction


def tank(rid, level, lower=15, upper=50, leak=5) -> Reservoir:
    return Reservoir(rid, F(lower), F(upper), F(level), F(leak))


def state(hose_pos, *levels) -> NResState:
    return NResState.make(Hose(F(10), hose_pos), [tank(i, lv) for i, lv in enumerate(levels)])


class TestFillDrain:
    def test_fill_nets_rate_minus_leak(self):
        assert fill(tank(0, 30), F(10), F(1)).level == F(35)
        assert fill(tank(0, 30), F(10), F(3)).level == F(45)

    def test_fill_requires_rate_at_least_leak(self):
        with pytest.raises(ModelError):
            fill(tank(0, 30, leak=12), F(10), F(1))

    def test_drain_saturates_at_zero(self):
        start = NResState.make(Hose(F(10), 1), [tank(0, 3, lower=0), tank(1, 30)])
        after = tick(start, F(1))
        assert [r.level for r in after.reservoirs] == [F(0), F(35)]

    def test_needs_refill_at_the_threshold(self):
        assert needs_refill([tank(0, 15)])
        assert not needs_refill([tank(0, F("151/10"))])


class TestTick:
    def test_one_unit(self, init2_state):
        after = tick(init2_state, F(1))
        assert [r.level for r in after.reservoirs] == [F(35), F(25), F(25)]

    def test_large_step_checks_guard_only_at_the_start(self, init2_state):
        after = tick(init2_state, F(3))
        assert [r.level for r in after.reservoirs] == [F(45), F(15), F(15)]

    def test_blocked_when_an_unattended_tank_is_low(self):
        assert tick(state(0, 45, 15, 15), F(1)) is None

    def test_own_tank_does_not_block(self):
        assert tick(state(0, 15, 30, 30), F(1)) is not None

    def test_zero_duration_always_succeeds(self):
        blocked = state(0, 45, 15, 15)
        assert tick(blocked, F(0)) == blocked

    def test_fractional_durations_are_exact(self, init2_state):
        after = tick(init2_state, F(1, 3))
        assert [r.level for r in after.reservoirs] == [F(95, 3), F(85, 3), F(85, 3)]

    def test_two_steps_compose_when_both_are_allowed(self):
        rng = random.Random(99)
        for _ in range(200):
            levels = [rng.randint(16, 60) for _ in range(3)]
            s = state(rng.randrange(3), *levels)
            a = F(rng.randint(1, 8), rng.randint(1, 4))
            b = F(rng.randint(1, 8), rng.randint(1, 4))
            first = tick(s, a)
            if first is None:
                continue
            second = tick(first, b)
            if second is None:
                continue
            assert tick(s, a + b) == second


class TestMoveHose:
    def test_targets_ordered_by_id(self):
        succs = move_hose_successors(state(0, 45, 15, 15))
        assert [s.hose.position for _, s in succs] == [1, 2]
        assert all(label == "move-hose" for label, _ in succs)

    def test_only_low_tanks_are_targets(self):
        succs = move_hose_successors(state(0, 45, 15, 30))
        assert [s.hose.position for _, s in succs] == [1]

    def test_blocked_until_own_tank_recovers(self):
        assert move_hose_successors(state(0, 10, 15, 15)) == []

    def test_levels_unchanged_by_the_move(self):
        [(_, s)] = move_hose_successors(state(0, 45, 15, 30))
        assert [r.level for r in s.reservoirs] == [F(45), F(15), F(30)]


class TestPropositions:
    def test_one_down_is_existential(self):
        assert valuation(state(0, 45, 15, 30), "one-down")
        assert not valuation(state(0, 45, 16, 30), "one-down")

    def test_macondo_is_universal(self):
        assert valuation(state(0, 15, 15, 15), "macondo")
        assert not valuation(state(0, 45, 15, 15), "macondo")

    def test_unknown_proposition(self):
        with pytest.raises(ModelError):
            valuation(state(0, 30, 30, 30), "flooded")


class TestRendering:
    def test_canonical_text(self, init2_state):
        assert render_state(init2_state) == (
            "hose(10,0)"
            " < 0 | thr:(15,50), hth: 30, rte: 5 >"
            " < 1 | thr:(15,50), hth: 30, rte: 5 >"
            " < 2 | thr:(15,50), hth: 30, rte: 5 >"
        )

    def test_reservoirs_sorted_by_id(self):
        s = NResState.make(Hose(F(10), 2), [tank(2, 10), tank(0, 20)])
        assert render_state(s).index("< 0 |") < render_state(s).index("< 2 |")

    def test_fractions_render_exactly(self):
        s = NResState.make(Hose(F(10), 0), [tank(0, F(95, 3))])
        assert "hth: 95/3" in render_state(s)


class TestValidation:
    def test_duplicate_ids(self):
        with pytest.raises(ModelError):
            NResState.make(Hose(F(10), 0), [tank(0, 30), tank(0, 20)])

    def test_hose_position_must_exist(self):
        with pytest.raises(ModelError):
            NResState.make(Hose(F(10), 9), [tank(0, 30)])

    def test_thresholds_must_be_ordered(self):
        with pytest.raises(ModelError):
            NResState.make(Hose(F(10), 0), [tank(0, 30, lower=50, upper=15)])

    def test_negative_quantities_rejected(self):
        with pytest.raises(ModelError):
            NResState.make(Hose(F(10), 0), [tank(0, -1)])

    def test_at_least_one_reservoir(self):
        with pytest.raises(ModelError):
            NResState.make(Hose(F(10), 0), [])


class TestSystem:
    def test_unbalanced_leak_warns(self, init2_state):
        with pytest.warns(ModelWarning):
            NResSystem(init2_state)

    def test_balanced_system_is_silent(self, recwarn):
        s = NResState.make(Hose(F(10), 0), [tank(0, 30), tank(1, 30)])
        NResSystem(s)
        assert not [w for w in recwarn if issubclass(w.category, ModelWarning)]

    def test_contract(self, init2_system, init2_state):
        initial = init2_system.initial_state()
        assert init2_system.serialize(initial) == render_state(init2_state)
        assert init2_system.propositions() == frozenset({"one-down", "macondo"})
        assert init2_system.prop_holds(initial, "one-down") is False

    def test_above_upper(self):
        s = NResState.make(Hose(F(10), 0), [tank(0, 55), tank(1, 30)])
        assert above_upper(s) == (0,)


class TestJson:
    def test_round_trip(self, init2_state):
        assert nres_from_json(nres_to_json(init2_state)) == init2_state

    def test_rejects_float_levels(self):
        doc = nres_to_json(state(0, 30, 30))
        doc["reservoirs"][0]["level"] = 30.5
        with pytest.raises(ModelError):
            nres_from_json(doc)

    def test_rejects_missing_keys(self):
        with pytest.raises(ModelError):
            nres_from_json({"kind": "nres", "hose": {"rate": "10", "position": 0}})

    def test_rejects_non_integer_ids(self):
        doc = nres_to_json(state(0, 30, 30))
        doc["reservoirs"][0]["id"] = "0"
        with pytest.raises(ModelError):
            nres_from_json(doc)


def random_ring(rng) -> NResState:
    """1-4 tanks with scattered ids and fractional rates, levels, leaks and
    thresholds; low thresholds and large leaks let drains saturate at 0, and
    now and then the hose rate is below a leak."""
    ids = rng.sample(range(12), rng.randint(1, 4))
    tanks = []
    for rid in ids:
        lower = F(rng.randint(0, 12), rng.randint(1, 4)) if rng.random() < 0.7 else F(0)
        upper = lower + F(rng.randint(0, 40), rng.randint(1, 6))
        level = F(rng.randint(0, 60), rng.randint(1, 5))
        tanks.append(Reservoir(rid, lower, upper, level, F(rng.randint(0, 24), rng.randint(1, 6))))
    rate = sum(r.leak for r in tanks) + F(rng.randint(-2, 6), rng.randint(1, 3))
    return NResState.make(Hose(max(rate, F(0)), rng.choice(ids)), tanks)


def tenths_ring() -> NResState:
    """A ring like the benchmark's, with levels in tenths, to sample every 1/10."""
    tanks = [Reservoir(i, F(lo), F(lo + 30), F(lv, 10), F(leak))
             for i, (lo, lv, leak) in enumerate([(12, 251, 3), (7, 180, 2), (15, 305, 4), (9, 122, 1)])]
    return NResState.make(Hose(F(11), 2), tanks)


def quiet_system(initial: NResState) -> NResSystem:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelWarning)
        return NResSystem(initial)


def outcome(step, *args):
    """A step's result, or the text of the ModelError it raised."""
    try:
        return step(*args)
    except ModelError as err:
        return str(err)


class FractionRing(TimedTransitionSystem):
    """The module functions as a model: the reference NResSystem must match."""

    def __init__(self, initial: NResState):
        self.initial = check_hose(initial)

    def initial_state(self):
        return self.initial

    def discrete_successors(self, s):
        return move_hose_successors(s)

    def timed_successor(self, s, delta):
        return tick(s, delta)

    def prop_holds(self, s, prop):
        return valuation(s, prop)

    def serialize(self, s):
        return render_state(s)

    def propositions(self):
        return PROPOSITIONS


class TestScaledSystem:
    """NResSystem computes on integers; the reference functions are the
    Fraction semantics it must agree with, step for step.  A state's text
    prints the hose and every tank's thresholds, level and leak, so equal
    texts are equal states."""

    INCREMENTS = (F(1), F(1, 2), F(1, 3), F(0))

    def assert_same(self, system, fast, ref):
        assert system.serialize(fast) == render_state(ref)
        assert fast.low == tuple(i for i, r in enumerate(ref.reservoirs) if r.level <= r.lower)
        for prop in sorted(PROPOSITIONS):
            assert system.prop_holds(fast, prop) == valuation(ref, prop)
        assert system.annotations(fast) == {"above_upper": list(above_upper(ref))}
        labels = sorted({label for label, _ in move_hose_successors(ref)})
        assert sorted({label for label, _ in system.discrete_successors(fast)}) == labels

    def test_walks_agree_with_the_fraction_reference(self):
        rng = random.Random(2025)
        steps = moves_taken = saturated = errors = rejected = 0
        for _ in range(100):
            ref_initial = random_ring(rng)
            system = outcome(quiet_system, ref_initial)
            if isinstance(system, str):  # a hose below a leak: the ring is rejected
                assert system == outcome(check_hose, ref_initial)
                rejected += 1
                continue
            assert check_hose(ref_initial) == ref_initial
            initial = (system.initial_state(), ref_initial)
            fast, ref = initial
            for _ in range(30):
                self.assert_same(system, fast, ref)
                fast_moves = system.discrete_successors(fast)
                assert all(s.low is fast.low for _, s in fast_moves)  # a hose move keeps the levels
                ref_moves = move_hose_successors(ref)
                assert [(label, system.serialize(s)) for label, s in fast_moves] == [
                    (label, render_state(s)) for label, s in ref_moves
                ]
                moves = [(a, b) for (_, a), (_, b) in zip(fast_moves, ref_moves)]
                moves_taken += len(moves)
                delta = rng.choice(self.INCREMENTS)
                fast_after = outcome(system.timed_successor, fast, delta)
                ref_after = outcome(tick, ref, delta)
                assert (fast_after is None) == (ref_after is None)
                if isinstance(ref_after, str):
                    assert fast_after == ref_after
                    errors += 1
                elif ref_after is not None:
                    self.assert_same(system, fast_after, ref_after)
                    moves.append((fast_after, ref_after))
                    steps += delta != 0
                    saturated += any(
                        a.level == 0 < b.level for a, b in zip(ref_after.reservoirs, ref.reservoirs)
                    )
                fast, ref = rng.choice(moves) if moves else initial
        # a ring is rejected when built, so no tick raises
        assert steps > 800 and moves_taken > 150 and saturated > 40 and errors == 0 and rejected == 10

    def test_kripke_structures_are_identical(self):
        rng = random.Random(77)
        samplings = (((F(1),), F(6)), ((F(1, 2), F(1, 3)), F(3)), ((F(1, 3),), F(7, 4)))
        cases = [(ring, *sampling) for ring in [three_tank_state()] + [random_ring(rng) for _ in range(40)]
                 for sampling in samplings]
        cases.append((tenths_ring(), (F(1, 10),), F(40)))
        compared = 0
        for ring, durations, bound in cases:
            system, fast, ref = explore_both(ring, durations, bound)
            if isinstance(ref, str):
                assert fast == ref
                continue
            assert fast.texts == ref.texts
            assert [system.serialize(s) for s in fast.states] == [render_state(s) for s in ref.states]
            assert (fast.clock, fast.scale) == (ref.clock, ref.scale)  # elapsed times
            assert [(e.source, e.target, e.label, e.duration) for e in fast.edges] == [
                (e.source, e.target, e.label, e.duration) for e in ref.edges
            ]
            assert fast.labeling == ref.labeling
            for a, b in zip(fast.states, ref.states):
                self.assert_same(system, a, b)
            compared += len(ref)
        assert compared > 1500

    def test_levels_near_fractional_thresholds(self):
        # integer levels against thresholds of 5/2 and 7/2: each tank is
        # just below, at or just above them, hosed or not
        for hosed, other, upper in itertools.product((2, F(5, 2), 3), (3, F(7, 2), 4), (F(5, 2), 3)):
            tanks = [Reservoir(0, F(5, 2), upper, F(hosed), F(1)), Reservoir(1, F(7, 2), F(9, 2), F(other), F(3))]
            ring = NResState.make(Hose(F(4), 0), tanks)
            system = quiet_system(ring)
            initial = system.initial_state()
            self.assert_same(system, initial, ring)
            moves = system.discrete_successors(initial)
            assert all(s.low is initial.low for _, s in moves)
            assert [(label, system.serialize(s)) for label, s in moves] == [
                (label, render_state(s)) for label, s in move_hose_successors(ring)
            ]

    def test_zero_step_returns_the_state_itself(self):
        system = quiet_system(state(0, 45, 15, 15))
        blocked = system.initial_state()
        assert system.timed_successor(blocked, F(0)) is blocked
        assert system.timed_successor(blocked, F(1)) is None

    @pytest.mark.parametrize("delta", BAD_DURATIONS)
    def test_durations_are_validated(self, init2_system, delta):
        assert_the_duration_rule(init2_system, delta)

    def test_rate_below_the_hosed_leak(self):
        # rejected when built, whether or not the hose is at the leakier tank
        for hosed in (0, 1):
            ring = NResState.make(Hose(F(3), hosed), [tank(0, 30, leak=4), tank(1, 30, leak=1)])
            with pytest.raises(ModelError, match="^reservoir 0: hose rate 3 is below the leak rate 4$"):
                quiet_system(ring)
            assert outcome(FractionRing, ring) == outcome(quiet_system, ring)


def explore_both(ring: NResState, durations, bound):
    """The compiled system and the whole structures of it and of the
    Fraction reference, or the text of the ModelError that building or
    exploring raised (the system is None when building it raised)."""
    system = outcome(quiet_system, ring)
    if isinstance(system, str):
        assert outcome(FractionRing, ring) == system
        return None, system, system
    fast = outcome(whole_kripke, system, durations, bound)
    return system, fast, outcome(whole_kripke, FractionRing(ring), durations, bound)


def reachable_pairs(ring: NResState, durations, bound):
    """The system and (compiled state, Fraction state) pairs for every
    reachable state, aligned by index; None if building or exploring raises."""
    system, fast, ref = explore_both(ring, durations, bound)
    if isinstance(ref, str):
        assert fast == ref
        return system, None
    assert fast.texts == ref.texts
    return system, list(zip(fast.states, ref.states))


def thirds_ring() -> NResState:
    """Levels in thirds, sampled every 1/10: most reachable levels are off
    the grid of either, and R1 starts at exactly 1/3."""
    tanks = [Reservoir(0, F(2), F(9), F(14, 3), F(1)), Reservoir(1, F(0), F(4), F(1, 3), F(1, 2)),
             Reservoir(2, F(1, 3), F(7, 3), F(5, 3), F(1, 3))]
    return NResState.make(Hose(F(11, 6), 0), tanks)


def random_pattern_text(rng, ids, levels) -> str:
    """A pattern over known and unknown ids: hose pins, level pins drawn from
    reachable levels (hits) or off the grid (misses), and "*" levels."""
    if rng.random() < 0.1:
        return "*"
    tokens = []
    if rng.random() < 0.4:
        tokens.append(f"hose={rng.choice(ids) if rng.random() < 0.85 else 40 + rng.randrange(3)}")
    pinned = rng.sample(ids, rng.randint(0, len(ids)))
    if rng.random() < 0.1:
        pinned.insert(rng.randrange(len(pinned) + 1), 40 + rng.randrange(3))
    for rid in sorted(set(pinned)):
        kind = rng.random()
        if kind < 0.3:
            level = "*"
        elif kind < 0.8:
            level = str(rng.choice(levels))
        else:
            level = str(rng.choice((F(1, 3), F(2, 3), F(7, 3), F(1, 7), F(0))))
        tokens.append(f"R{rid}.hth={level}")
    return " ".join(tokens) or "*"


class TestMatchAgainstFractions:
    """A pattern binds to a ring by the ids of its start state, and its
    predicate reads a ring state's numerators; over the reachable states of
    seeded random rings, a state's outcome, the bind error or the
    predicate's bindings, agrees with the Fraction matcher's."""

    def test_match_and_validate_agree_with_the_fraction_matcher(self):
        rng = random.Random(4242)
        samplings = (((F(1, 10),), F(2)), ((F(1), F(1, 3)), F(3)))
        rings = [thirds_ring(), three_tank_state()] + [random_ring(rng) for _ in range(30)]
        seen = {"wildcard": 0, "hit": 0, "miss": 0, "error": 0, "pinned hit": 0, "rejected": 0}
        for ring in rings:
            for durations, bound in samplings:
                system, pairs = reachable_pairs(ring, durations, bound)
                if pairs is None:
                    continue
                ids = [r.id for r in ring.reservoirs]
                levels = sorted({r.level for _, ref in pairs for r in ref.reservoirs})
                for _ in range(12):
                    pat = parse_pattern(random_pattern_text(rng, ids, levels))
                    predicate = outcome(pat.bind, system)
                    checked = outcome(nres_validate_pattern, pat, ring)
                    assert (predicate if isinstance(predicate, str) else None) == checked
                    seen["rejected"] += checked is not None
                    for fast, ref in pairs:
                        got = checked or outcome(predicate, fast)
                        assert got == (checked or outcome(nres_match, pat, ref)), (pat, system.serialize(fast))
                        if pat == SearchPattern():
                            seen["wildcard"] += 1
                        elif isinstance(got, str):
                            seen["error"] += 1
                        elif got is None:
                            seen["miss"] += 1
                        else:
                            seen["hit"] += 1
                            seen["pinned hit"] += any(level is not None for _, level in pat.reservoirs)
        assert min(seen.values()) > 50, seen

    def test_thirds_pin_hits_only_where_the_level_is_a_third(self):
        system, pairs = reachable_pairs(thirds_ring(), (F(1, 10),), F(2))
        pat = parse_pattern("R1.hth=1/3")
        predicate = pat.bind(system)
        hits = [system.serialize(fast) for fast, ref in pairs if predicate(fast) is not None]
        assert hits and all("< 1 | thr:(0,4), hth: 1/3, rte: 1/2 >" in h for h in hits)
        assert len(hits) == sum(nres_match(pat, ref) is not None for _, ref in pairs)

    def test_other_models_are_refused_alike(self):
        lha = LhaSystem(two_reservoir(10, 5, 5, 15, 15, 30, 30))
        pat = parse_pattern("hose=0 R0.hth=*")
        initial = lha.initial_state()
        refused = outcome(pat.bind, lha)
        assert refused == outcome(nres_validate_pattern, pat, initial) == outcome(nres_match, pat, initial)
        assert isinstance(refused, str)
        assert parse_pattern("*").bind(lha)(initial) == nres_match(parse_pattern("*"), initial) == {}


class TestIdentity:
    """A state's text is its identity: over every reachable state of seeded
    random rings, two states have the same text exactly when the Fraction
    reference states are equal."""

    def test_serialize_is_injective_on_reachable_states(self):
        rng = random.Random(515)
        samplings = (((F(1),), F(8)), ((F(1, 2), F(1, 3)), F(3)), ((F(1, 10),), F(2)))
        compared = distinct = 0
        for ring in [thirds_ring()] + [random_ring(rng) for _ in range(40)]:
            by_text, by_state = {}, {}
            for durations, bound in samplings:
                system, pairs = reachable_pairs(ring, durations, bound)
                for fast, ref in pairs or ():
                    text = system.serialize(fast)
                    assert by_text.setdefault(text, ref) == ref
                    assert by_state.setdefault(ref, text) == text
                    compared += 1
            assert len(by_text) == len(by_state)
            distinct += len(by_text)
        assert compared > 2000 and distinct > 1800, (compared, distinct)


class TestLevelTextMemo:
    """``serialize`` reads each level's text from a memo of its system, by
    denominator and numerator."""

    @staticmethod
    def uncached(system: NResSystem, state) -> str:
        ring = system.initial
        tanks = [
            Reservoir(r.id, r.lower, r.upper, F(n, state.den), r.leak) for r, n in zip(ring.reservoirs, state.nums)
        ]
        return render_state(NResState(Hose(ring.hose.rate, ring.reservoirs[state.pos].id), tuple(tanks)))

    def test_texts_match_the_uncached_rendering_as_the_denominator_grows(self):
        system = quiet_system(three_tank_state())
        kripke = Kripke(system, (F(1, 3), F(1, 7)), F(4))
        states = kripke.states
        assert {s.den for s in states} == {1, 3, 7, 21} and len(states) > 70
        for s, text in zip(states, kripke.texts):
            assert text == system.serialize(s) == self.uncached(system, s)

    def test_systems_from_one_document_keep_their_own_memo(self):
        with open(INIT2, encoding="utf-8") as fh:
            doc = json.load(fh)
        first, second = quiet_system(nres_from_json(doc)), quiet_system(nres_from_json(doc))
        texts = Kripke(first, (F(1, 3),), F(2)).texts
        assert first._levels and not second._levels
        assert Kripke(second, (F(1, 3),), F(2)).texts == texts
        assert all(first._levels[den] is not second._levels[den] for den in first._levels)



def stepped_stretch(system: NResSystem, state, delta, limit: int) -> list:
    """``state`` and the states after it, one tick at a time, while the last
    has no move, an unblocked tick and ``state``'s propositions, for at most
    ``limit`` ticks: what :meth:`NResSystem.quiet` leaps over."""
    def letter(s):
        return {p for p in PROPOSITIONS if system.prop_holds(s, p)}

    run = [state]
    while len(run) <= limit:
        s = run[-1]
        after = system.timed_successor(s, delta)
        if system.discrete_successors(s) or after is None or letter(s) != letter(state):
            break
        run.append(after)
    return run


class TestQuietStretch:
    """``quiet`` is one division per tank; stepping ``timed_successor`` one
    tick at a time is the judge of its length and its end state."""

    LIMITS = (0, 1, 2, 3, 7, 300)

    @staticmethod
    def rings():
        """Seeded rings, and two built for the corner cases: a tank that never
        leaks beside a low hosed tank that the hose only keeps level (fill 0),
        and a drain that clamps to 0 on the stretch's last tick."""
        rng = random.Random(3232)
        for _ in range(40):
            yield random_ring(rng)
        yield NResState.make(Hose(F(2), 0), [Reservoir(0, F(4), F(9), F(3), F(2)), Reservoir(1, F(1), F(5), F(3), F(0))])
        yield NResState.make(Hose(F(3), 1), [Reservoir(0, F(0), F(9), F(5), F(2)), Reservoir(1, F(2), F(9), F(4), F(1))])

    def test_a_leap_ends_where_ticking_one_step_at_a_time_does(self):
        seen = dict.fromkeys(("leap", "none", "no leak", "no fill", "clamped", "grown", "cut"), 0)
        for ring in self.rings():
            try:
                system = quiet_system(ring)
            except ModelError:  # a hose below a leak: the ring is rejected
                continue
            leaks = [r.leak for r in ring.reservoirs]
            for delta in (F(1), F(1, 3), F(1, 10)):
                kripke = Kripke(system, (delta,), F(6), max_states=200)
                try:
                    states = kripke.states
                except ModelError:
                    states = kripke._states  # the states found below the cap
                for state in states:
                    longest = stepped_stretch(system, state, delta, max(self.LIMITS) + 1)
                    for limit in self.LIMITS:
                        run = longest[:limit + 1]
                        k, end = len(run) - 1, run[-1]
                        leap = system.quiet(state, delta, limit)
                        if k < 2 or run[1].den != state.den:
                            assert leap is None, (system.serialize(state), delta, limit)
                            seen["none"] += 1
                            seen["grown"] += k > 1
                            continue
                        assert leap is not None and leap[0] == k, (system.serialize(state), delta, limit)
                        assert system.serialize(leap[1]) == system.serialize(end)
                        assert (leap[1].den, leap[1].low) == (end.den, end.low)
                        # the longest stretch: the state after it has other low tanks, or limit cut it
                        cut = len(longest) > k + 1
                        assert cut and k == limit or end.low != state.low
                        drained = [i for i in range(len(leaks)) if i != state.pos]
                        seen["leap"] += 1
                        seen["cut"] += cut
                        seen["no leak"] += any(leaks[i] == 0 for i in drained)
                        seen["no fill"] += bool(state.low) and ring.hose.rate == leaks[state.pos]
                        # a drained tank's step is run[-3] - run[-2] until it clamps
                        seen["clamped"] += any(0 == end.nums[i] < run[-2].nums[i] < run[-3].nums[i] - run[-2].nums[i]
                                               for i in drained)
        assert min(seen.values()) > 100 and seen["leap"] > 5000, seen


def flat(segments) -> list:
    """A run's (text, labels, annotations), one per state."""
    return [(text, labels, facts) for texts, labels, facts in segments for text in texts]


class TestClosedFormRun:
    """``NResSystem.timed_trace`` computes a run in closed form, and
    ``Kripke.stretch`` reads a leap's states from it; ticking
    ``timed_successor`` one state at a time, as the default
    ``TimedTransitionSystem.timed_trace`` does, is the judge of both."""

    def test_stretch_texts_are_those_of_ticking(self):
        seen = Counter()
        for ring in TestQuietStretch.rings():
            try:
                system = quiet_system(ring)
            except ModelError:  # a hose below a leak: the ring is rejected
                continue
            for delta in (F(1), F(1, 3), F(1, 10)):
                kripke = Kripke(system, (delta,), F(6), max_states=400)
                (_, step), = kripke._ticks
                try:
                    leaps = [(i, kripke.leap(i)) for i in range(len(kripke)) if kripke.leap(i)]
                except ModelError:
                    continue
                for i, (k, j) in leaps:
                    run = [kripke.states[i]]
                    for _ in range(k):
                        run.append(system.timed_successor(run[-1], delta))
                    ticked = [(system.serialize(s), kripke.clock_of(i) + m * step) for m, s in enumerate(run) if m]
                    assert kripke.stretch(i) == ticked[:-1]
                    assert ticked[-1] == (kripke.text(j), kripke.clock_of(j))
                    seen["leap"] += 1
                    seen["cut by the bound"] += system.quiet(run[0], delta, 10**6)[0] > k
                    seen["lower 0"] += 0 in [r.lower for r in ring.reservoirs]
                    # a drain that stops at 0 on the leap's last tick
                    seen["clamped"] += any(0 == a < b < c - b for a, b, c in zip(run[-1].nums, run[-2].nums, run[-3].nums))
        assert min(seen.values()) > 20, seen

    def test_runs_are_those_of_ticking(self):
        # from every state a seeded ring reaches, for counts short of, at and past its blocking
        rng = random.Random(3636)
        seen = Counter()
        for _ in range(60):
            try:
                system = quiet_system(random_ring(rng))
            except ModelError:  # a hose below a leak: the ring is rejected
                continue
            for delta in (F(1), F(1, 3), F(2, 7)):
                try:
                    states = Kripke(system, (delta,), F(4), max_states=60).states
                except ModelError:
                    continue
                for start in states:
                    ticked = flat(TimedTransitionSystem.timed_trace(system, start, delta, 60))
                    for count in {-1, 0, 1, 2, 5, len(ticked) - 2, len(ticked) - 1, min(len(ticked), 60)}:
                        assert flat(system.timed_trace(start, delta, count)) == ticked[:max(count, 0) + 1]
                    run = [start]
                    while len(run) < len(ticked):
                        run.append(system.timed_successor(run[-1], delta))
                    seen["blocked"] += len(ticked) < 61
                    seen["grown"] += len(run) > 1 and run[1].den != start.den
                    seen["clamped"] += any(0 == a < b for s, t in zip(run, run[1:]) for a, b in zip(t.nums, s.nums))
                    seen["moves at the end"] += bool(ticked[-1][1]) and len(ticked) > 1
                    seen["above upper changes inside"] += len({str(facts) for _, _, facts in ticked[1:-1]}) > 1
        assert min(seen.values()) > 50, seen

    @pytest.mark.parametrize("increment", ["1/10", "1/3", "1"])
    def test_simulate_prints_the_bytes_of_ticking(self, tmp_path, capsys, monkeypatch, increment):
        rings = [tenths_ring(), *TestQuietStretch.rings()][:12]
        for n, ring in enumerate(rings):
            path = tmp_path / f"ring{n}.json"
            path.write_text(json.dumps(nres_to_json(ring)), encoding="utf-8")
            for fmt in ("text", "json"):
                argv = ["simulate", "--model", str(path), "--time-bound", "40", "--increment", increment, "--format", fmt]
                outputs = []
                for trace in (NResSystem.timed_trace, TimedTransitionSystem.timed_trace):
                    monkeypatch.setattr(NResSystem, "timed_trace", trace)
                    outputs.append((main(argv), capsys.readouterr()))
                assert outputs[0] == outputs[1], (n, fmt)
