"""Release acceptance suite.

One test per criterion; each prints a single PASS line with the measured
numbers when it succeeds, and fails its assertion otherwise.  Time budgets
are pinned as constants next to the tests that use them.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from lhamc.core import ZERO, ModelError
from lhamc.explore import build_kripke, search
from lhamc.lha import LhaSystem, Location, two_reservoir
from lhamc.ltl import (
    Counterexample,
    CounterexampleStep,
    model_check,
    parse_formula,
    validate_counterexample,
)
from lhamc.reservoir import Hose, NResState, NResSystem, Reservoir, SearchPattern, parse_pattern
from lhamc.syncprod import (
    Component,
    abstract_reservoir,
    compatible,
    component_kripke,
    rt_sync_product,
    safe_prop,
)
from oracles import (
    all_two_state_kripkes,
    counterexample_letters,
    eval_on_lasso,
    find_violating_lasso,
    lasso_budget,
    random_branching_kripke,
    random_formula,
    random_functional_kripke,
)
from reference import flow, tick

MODELS = Path(__file__).resolve().parent.parent / "models"
INIT2 = MODELS / "init2.json"

SEARCH_BUDGET_SECONDS = 1.0
NO_SOLUTION_BUDGET_SECONDS = 10.0
LONG_BOUND_BUDGET_SECONDS = 5.0


def load_init2() -> NResSystem:
    from lhamc.reservoir import nres_from_json

    with open(INIT2, encoding="utf-8") as fh:
        return NResSystem(nres_from_json(json.load(fh)))


def tank_text(hose_pos: int, levels: list[int]) -> str:
    tanks = " ".join(
        f"< {i} | thr:(15,50), hth: {lvl}, rte: 5 >" for i, lvl in enumerate(levels)
    )
    return f"hose(10,{hose_pos}) {tanks}"


def rational(rng: random.Random, lo: int = 0, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 9))


class TestCriterion1:
    def test_c1_bounded_search_finds_all_six_states(self):
        system = load_init2()
        started = time.perf_counter()
        solutions = search(system, SearchPattern(), Fraction(5), Fraction(1))
        took = time.perf_counter() - started
        got = [(s.text, s.elapsed) for s in solutions]
        assert got == [
            (tank_text(0, [30, 30, 30]), Fraction(0)),
            (tank_text(0, [35, 25, 25]), Fraction(1)),
            (tank_text(0, [40, 20, 20]), Fraction(2)),
            (tank_text(0, [45, 15, 15]), Fraction(3)),
            (tank_text(1, [45, 15, 15]), Fraction(3)),
            (tank_text(2, [45, 15, 15]), Fraction(3)),
        ]
        assert all(s.bindings == {} for s in solutions)
        assert took < SEARCH_BUDGET_SECONDS
        print(f"PASS: criterion 1 - bound-5 search returned all 6 states in {took:.3f}s")


class TestCriterion2:
    def test_c2_unreachable_pattern_terminates(self):
        system = load_init2()
        pattern = parse_pattern("R0.hth=45 R1.hth=10 R2.hth=10")
        started = time.perf_counter()
        solutions = search(system, pattern, Fraction(100), Fraction(1))
        took = time.perf_counter() - started
        assert solutions == []
        assert took < NO_SOLUTION_BUDGET_SECONDS
        print(f"PASS: criterion 2 - unreachable pattern exhausted bound 100 in {took:.3f}s")


class TestCriterion3:
    def test_c3_macondo_cannot_recur_forever(self):
        kripke = build_kripke(load_init2(), Fraction(5), Fraction(1))
        assert model_check(kripke, parse_formula("~ [] <> macondo")) is None
        print("PASS: criterion 3 - '~ [] <> macondo' holds on the bound-5 structure")


class TestCriterion4:
    def published_counterexample(self) -> Counterexample:
        low = [45, 15, 15]
        return Counterexample(
            prefix=[
                CounterexampleStep(tank_text(0, [30, 30, 30]), Fraction(0), "tick"),
                CounterexampleStep(tank_text(0, [35, 25, 25]), Fraction(1), "tick"),
                CounterexampleStep(tank_text(0, [40, 20, 20]), Fraction(2), "tick"),
                CounterexampleStep(tank_text(0, low), Fraction(3), "move-hose"),
                CounterexampleStep(tank_text(1, low), Fraction(3), "move-hose"),
            ],
            cycle=[
                CounterexampleStep(tank_text(2, low), Fraction(3), "move-hose"),
                CounterexampleStep(tank_text(1, low), Fraction(3), "move-hose"),
            ],
        )

    def test_c4_one_down_refutation_and_published_trace(self):
        kripke = build_kripke(load_init2(), Fraction(5), Fraction(1))
        formula = parse_formula("[] ~ <> one-down")
        ce = model_check(kripke, formula)
        assert ce is not None
        assert validate_counterexample(kripke, formula, ce)
        prefix, cycle = counterexample_letters(kripke, ce)
        assert not eval_on_lasso(formula, prefix, cycle)
        assert validate_counterexample(kripke, formula, self.published_counterexample())
        print(
            "PASS: criterion 4 - '[] ~ <> one-down' refuted; checker and published"
            " lassos both replay"
        )


class TestCriterion5:
    def test_c5_joint_refill_refutes_safety(self):
        product = safe_prop(rt_sync_product(abstract_reservoir(1), abstract_reservoir(2)))
        kripke = component_kripke(product)
        formula = parse_formula("[] safe")
        ce = model_check(kripke, formula)
        assert ce is not None
        assert validate_counterexample(kripke, formula, ce)
        published = Counterexample(
            prefix=[],
            cycle=[
                CounterexampleStep("< ok,ok >", ZERO, "tick"),
                CounterexampleStep("< below,below >", ZERO, "fill2"),
                CounterexampleStep("< below,ok >", ZERO, "fill1"),
            ],
        )
        assert validate_counterexample(kripke, formula, published)
        print(
            "PASS: criterion 5 - '[] safe' refuted on the two-reservoir product;"
            " published lasso replays"
        )


class TestCriterion6Flows:
    def test_c6a_flow_additivity_and_shared_hose_conservation(self):
        rng = random.Random(6001)
        for _ in range(1000):
            names = ["x1", "x2", "x3"][: rng.randint(1, 3)]
            rates = {v: rational(rng, -9, 9) for v in names if rng.random() < 0.8}
            location = Location("loc", rates, invariant=(), tick_guard=())
            valuation = {v: rational(rng, -9, 9) for v in names}
            d1, d2 = rational(rng), rational(rng)
            stepwise = flow(location, flow(location, valuation, d1), d2)
            assert stepwise == flow(location, valuation, d1 + d2)

        checked = 0
        walks = 0
        while checked < 1000:
            walks += 1
            v1, v2 = rational(rng), rational(rng)
            r1, r2 = rational(rng), rational(rng)
            x1 = r1 + rational(rng)
            x2 = r2 + rational(rng)
            system = LhaSystem(two_reservoir(v1 + v2, v1, v2, r1, r2, x1, x2))
            state = system.initial_state()
            total = x1 + x2
            for _ in range(12):
                increment = rng.choice((Fraction(1), Fraction(1, 2), Fraction(1, 3)))
                succ = system.timed_successor(state, increment)
                if succ is None:
                    jumps = system.discrete_successors(state)
                    if not jumps:
                        break
                    succ = rng.choice(jumps)[1]
                state = succ
                assert state.valuation["x1"] + state.valuation["x2"] == total
                checked += 1
        print(
            f"PASS: criterion 6a - flow additivity on 1000 cases and exact level"
            f" conservation over {checked} steps of {walks} shared-hose walks"
        )


class TestCriterion6Reservoirs:
    def test_c6b_tick_conserves_levels_up_to_net_rate(self):
        rng = random.Random(6002)
        checked = 0
        while checked < 1000:
            n = rng.randint(1, 5)
            hose_pos = rng.randrange(n)
            hose_rate = rational(rng)
            tanks = []
            for i in range(n):
                leak = rational(rng)
                if i == hose_pos and leak > hose_rate:
                    leak = hose_rate
                lower = rational(rng)
                level = lower + rational(rng)
                tanks.append(
                    Reservoir(id=i, lower=lower, upper=level + rational(rng), level=level, leak=leak)
                )
            state = NResState.make(Hose(hose_rate, hose_pos), tanks)
            duration = rational(rng, 1, 4)
            if any(
                r.level < r.leak * duration for r in state.reservoirs if r.id != hose_pos
            ):
                continue
            after = tick(state, duration)
            if after is None:
                continue
            before_total = sum(r.level for r in state.reservoirs)
            after_total = sum(r.level for r in after.reservoirs)
            net = hose_rate - sum(r.leak for r in state.reservoirs)
            assert after_total - before_total == net * duration
            checked += 1
        print(
            "PASS: criterion 6b - 1000 saturation-free ticks changed total level"
            " by exactly (hose rate - total leak) * duration"
        )


class TestCriterion6Logic:
    POOL = [
        "[] p",
        "<> q",
        "p U q",
        "[] <> p",
        "<> [] q",
        "p -> X q",
        "<> (p /\\ X ~ p)",
        "X X q",
    ]

    def agree(self, kripke, formula, specified: int) -> None:
        """``specified`` is the number of states the structure was given, of
        which it keeps those the initial state reaches; the oracle's budget
        counts them all."""
        ce = model_check(kripke, formula)
        if ce is None:
            assert find_violating_lasso(kripke, formula, lasso_budget(specified, formula)) is None
        else:
            assert validate_counterexample(kripke, formula, ce)
            prefix, cycle = counterexample_letters(kripke, ce)
            assert not eval_on_lasso(formula, prefix, cycle)

    def test_c6c_checker_agrees_with_lasso_oracles(self):
        cases = 0
        pool = [parse_formula(t) for t in self.POOL]
        for kripke in all_two_state_kripkes():
            for formula in pool:
                self.agree(kripke, formula, 2)
                cases += 1
        rng = random.Random(6003)
        for _ in range(200):
            n = rng.randint(1, 8)
            kripke = random_functional_kripke(rng, n)
            self.agree(kripke, random_formula(rng, temporal_budget=2), n)
            cases += 1
        for _ in range(100):
            n = rng.randint(2, 4)
            kripke = random_branching_kripke(rng, n)
            self.agree(kripke, random_formula(rng, temporal_budget=2), n)
            cases += 1
        assert cases >= 1000
        print(
            f"PASS: criterion 6c - model checker agreed with the independent"
            f" lasso oracles on all {cases} structure/formula cases"
        )


def random_component(rng: random.Random, side: str) -> Component:
    n = rng.randint(1, 5)
    states = [f"{side}{i}" for i in range(n)]
    labels = ["a", "b", f"only-{side}"]
    rules = []
    for _ in range(rng.randint(0, 6)):
        rules.append((rng.choice(labels), rng.choice(states), rng.choice(states)))
    props = {}
    for name in ("p", f"own-{side}"):
        if rng.random() < 0.8:
            props[name] = [s for s in states if rng.random() < 0.5]
    return Component(states, states[0], rules, props)


class TestCriterion6Products:
    def test_c6d_products_project_and_stay_compatible(self):
        rng = random.Random(6004)
        built = 0
        attempts = 0
        while built < 1000:
            attempts += 1
            assert attempts < 20000
            c1 = random_component(rng, "L")
            c2 = random_component(rng, "R")
            try:
                product = rt_sync_product(c1, c2)
            except ModelError:
                continue
            built += 1
            shared_labels = {l for l, _, _ in c1.rules} & {l for l, _, _ in c2.rules}
            for s1, s2 in product.states:
                assert compatible(c1, s1, c2, s2)
            for label, (s1, s2), (t1, t2) in product.rules:
                if label in shared_labels:
                    assert (label, s1, t1) in c1.rules
                    assert (label, s2, t2) in c2.rules
                elif any(l == label for l, _, _ in c1.rules):
                    assert (label, s1, t1) in c1.rules
                    assert s2 == t2
                else:
                    assert (label, s2, t2) in c2.rules
                    assert s1 == t1
            member = set(product.states)
            for label in shared_labels:
                for l1, s1, t1 in c1.rules:
                    for l2, s2, t2 in c2.rules:
                        if l1 == label == l2 and (s1, s2) in member and (t1, t2) in member:
                            assert (label, (s1, s2), (t1, t2)) in product.rules
            kripke = component_kripke(product)
            for s1, s2 in kripke.states:
                assert compatible(c1, s1, c2, s2)
        print(
            f"PASS: criterion 6d - {built} random products projected soundly and"
            f" every reachable pair stayed compatible"
        )


class TestCriterion6Determinism:
    def test_c6e_search_output_is_reproducible(self):
        outputs = set()
        for _ in range(5):
            done = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "lhamc",
                    "search",
                    "--model",
                    str(INIT2),
                    "--time-bound",
                    "5",
                ],
                capture_output=True,
                cwd=str(MODELS.parent),
            )
            assert done.returncode == 0
            outputs.add(done.stdout)
        assert len(outputs) == 1
        assert b"Solution 6" in next(iter(outputs))
        print("PASS: criterion 6e - five search runs produced byte-identical output")


class TestCriterion7:
    def test_c7_long_bound_saturates_quickly(self):
        system = load_init2()
        started = time.perf_counter()
        solutions = search(system, SearchPattern(), Fraction(50), Fraction(1))
        took = time.perf_counter() - started
        assert len(solutions) == 6
        assert took < LONG_BOUND_BUDGET_SECONDS
        print(f"PASS: criterion 7 - bound-50 exploration saturated in {took:.3f}s")
