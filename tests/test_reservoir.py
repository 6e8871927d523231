import random
from fractions import Fraction

import pytest

from lhamc.core import ModelError, ModelWarning
from lhamc.reservoir import (
    Hose,
    NResState,
    NResSystem,
    Reservoir,
    above_upper,
    fill,
    move_hose_successors,
    needs_refill,
    nres_from_json,
    nres_to_json,
    render_state,
    tick,
    valuation,
)

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
        assert init2_system.initial_state() == init2_state
        assert init2_system.propositions() == frozenset({"one-down", "macondo"})
        assert init2_system.prop_holds(init2_state, "one-down") is False
        assert init2_system.serialize(init2_state) == render_state(init2_state)

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
