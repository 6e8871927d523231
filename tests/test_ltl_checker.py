import random
from collections import Counter
from fractions import Fraction

import pytest

from lhamc.core import ModelError
from lhamc.explore import Kripke, build_kripke
from lhamc.ltl import (
    Counterexample,
    CounterexampleStep,
    model_check,
    negated_nnf,
    parse_formula,
    props_of,
    to_buchi,
    validate_counterexample,
)
from lhamc.ltl.buchi import BuchiAutomaton
from lhamc.reservoir import Hose, NResState, NResSystem, Reservoir
from lhamc.syncprod import Component, component_kripke
from oracles import (
    counterexample_letters,
    eval_on_lasso,
    find_violating_lasso,
    lasso_budget,
    make_kripke,
    random_branching_kripke,
    random_formula,
    random_functional_kripke,
)


def check(kripke, text: str):
    return model_check(kripke, parse_formula(text))


def assert_valid(kripke, text: str, ce) -> None:
    assert ce is not None
    f = parse_formula(text)
    assert validate_counterexample(kripke, f, ce)
    prefix, cycle = counterexample_letters(kripke, ce)
    assert not eval_on_lasso(f, prefix, cycle)


class TestHandBuiltStructures:
    def ring(self):
        return make_kripke(
            {0: [1], 1: [2], 2: [0]},
            {0: {"p"}, 1: {"p"}, 2: {"p", "q"}},
            props={"p", "q"},
        )

    def test_invariant_holds_on_ring(self):
        assert check(self.ring(), "[] p") is None

    def test_fairness_holds_on_ring(self):
        assert check(self.ring(), "[] <> q") is None

    def test_false_invariant_yields_witness(self):
        k = self.ring()
        ce = check(k, "[] q")
        assert_valid(k, "[] q", ce)

    def test_escapable_goal_has_avoiding_lasso(self):
        k = make_kripke({0: [0, 1], 1: [1]}, {0: set(), 1: {"p"}}, props={"p"})
        ce = check(k, "<> p")
        assert_valid(k, "<> p", ce)
        assert [s.text for s in ce.cycle] == ["s0"]

    def test_until_counterexample(self):
        k = make_kripke(
            {0: [1], 1: [2], 2: [2]},
            {0: {"p"}, 1: set(), 2: {"q"}},
            props={"p", "q"},
        )
        ce = check(k, "p U q")
        assert_valid(k, "p U q", ce)

    def test_next_operator(self):
        k = make_kripke({0: [1], 1: [0]}, {0: {"p"}, 1: set()}, props={"p"})
        assert check(k, "X ~ p") is None
        ce = check(k, "X p")
        assert_valid(k, "X p", ce)

    def test_branching_picks_some_bad_path(self):
        k = make_kripke(
            {0: [1, 2], 1: [1], 2: [2]},
            {0: set(), 1: {"good"}, 2: set()},
            props={"good"},
        )
        ce = check(k, "<> good")
        assert_valid(k, "<> good", ce)
        assert all(s.text != "s1" for s in ce.prefix + ce.cycle)

    def test_unknown_proposition_is_rejected(self):
        with pytest.raises(ModelError):
            check(self.ring(), "[] unheard-of")


class TestReservoirKripke:
    def test_one_down_is_eventually_inevitable(self, init2_kripke):
        assert check(init2_kripke, "[] <> one-down") is None

    def test_negation_produces_validating_counterexample(self, init2_kripke):
        ce = check(init2_kripke, "~ [] <> one-down")
        assert_valid(init2_kripke, "~ [] <> one-down", ce)

    def test_macondo_never_recurs_forever(self, init2_kripke):
        assert check(init2_kripke, "~ [] <> macondo") is None

    def test_eventually_one_down_holds(self, init2_kripke):
        assert check(init2_kripke, "<> one-down") is None

    def test_always_macondo_fails_immediately(self, init2_kripke):
        ce = check(init2_kripke, "[] macondo")
        assert_valid(init2_kripke, "[] macondo", ce)


class TestProductSuccessors:
    def test_each_transition_reads_each_letter_once(self, monkeypatch):
        # a sustaining ring: (lower, upper, level, leak) per tank, hose rate 13 at tank 1
        tanks = [(18, 57, 23, 3), (16, 40, 23, 4), (12, 32, 38, 2), (12, 47, 34, 1)]
        state = NResState.make(
            Hose(Fraction(13), 1), [Reservoir(i, *map(Fraction, t)) for i, t in enumerate(tanks)]
        )
        kripke = build_kripke(NResSystem(state), Fraction(20), Fraction(1, 10))
        formula = parse_formula("([] <> one-down /\\ [] <> ~ one-down) -> [] <> macondo")
        plain = BuchiAutomaton.literals_hold
        calls = []

        def counted(literals, letter):
            calls.append(letter)
            return plain(literals, letter)

        monkeypatch.setattr(BuchiAutomaton, "literals_hold", staticmethod(counted))
        assert model_check(kripke, formula) is None
        transitions = len(to_buchi(negated_nnf(formula)).transitions)
        props = props_of(formula)
        assert len(calls) <= transitions * len({letter & props for letter in kripke.labeling})

    @staticmethod
    def asked(monkeypatch, text, durations) -> tuple[bool, Counter]:
        """Whether the formula holds on the sustaining ring above, and how
        often the check asks each state a proposition."""
        plain = NResSystem.prop_holds
        asked = Counter()

        def counted(system, state, prop):
            asked[id(state)] += 1  # the structure keeps every state it found, so ids are not reused
            return plain(system, state, prop)

        monkeypatch.setattr(NResSystem, "prop_holds", counted)
        tanks = [(18, 57, 23, 3), (16, 40, 23, 4), (12, 32, 38, 2), (12, 47, 34, 1)]
        state = NResState.make(
            Hose(Fraction(13), 1), [Reservoir(i, *map(Fraction, t)) for i, t in enumerate(tanks)]
        )
        kripke = Kripke(NResSystem(state), durations, Fraction(20))
        return model_check(kripke, parse_formula(text)) is None, asked

    FAIR = "([] <> one-down /\\ [] <> ~ one-down) -> [] <> macondo"

    # a structure of two durations never leaps, and a refuted check's nested
    # search reads every tick, so each visits more than 150 states
    @pytest.mark.parametrize(
        "text, holds, durations",
        [(FAIR, True, (Fraction(1, 10), Fraction(1, 5))), ("[] (one-down -> <> macondo)", False, (Fraction(1, 10),))],
        ids=[f"{FAIR}-True", "[] (one-down -> <> macondo)-False"],
    )
    def test_each_state_is_asked_each_proposition_once(self, monkeypatch, text, holds, durations):
        result, asked = self.asked(monkeypatch, text, durations)
        assert result == holds
        assert len(asked) > 150 and max(asked.values()) <= len(props_of(parse_formula(text))) == 2

    def test_a_held_check_that_leaps_asks_only_the_ends_of_quiet_stretches(self, monkeypatch):
        holds, asked = self.asked(monkeypatch, self.FAIR, (Fraction(1, 10),))
        assert holds and len(asked) == 12 and max(asked.values()) <= 2

    def test_parallel_edges_give_the_first_label_in_move_order(self):
        # moves are sorted by label, so "alpha" comes before "zeta"
        c = Component(
            states=("a", "b"),
            initial="a",
            rules=(("zeta", "a", "b"), ("alpha", "a", "b"), ("back", "b", "a")),
            props={"p": ("b",)},
        )
        kripke = component_kripke(c)
        assert [e.label for e in kripke.adjacency[0]] == ["alpha", "zeta"]
        ce = check(kripke, "[] ~ p")
        assert_valid(kripke, "[] ~ p", ce)
        assert [(s.text, s.label) for s in ce.prefix] == [("a", "alpha"), ("b", "back"), ("a", "alpha")]
        assert [(s.text, s.label) for s in ce.cycle] == [("b", "back"), ("a", "alpha")]


def mk_step(text: str, label: str) -> CounterexampleStep:
    return CounterexampleStep(text=text, elapsed=Fraction(0), label=label)


class TestValidation:
    """Replay checking on a fixed structure with a hand-written lasso."""

    def structure(self):
        return make_kripke(
            {0: [1], 1: [2], 2: [1]},
            {0: {"p"}, 1: set(), 2: {"p"}},
            props={"p"},
        )

    def genuine(self) -> Counterexample:
        return Counterexample(
            prefix=[mk_step("s0", "e0-1")],
            cycle=[mk_step("s1", "e1-2"), mk_step("s2", "e2-1")],
        )

    def test_hand_written_lasso_validates(self):
        assert validate_counterexample(self.structure(), parse_formula("[] p"), self.genuine())

    def test_checker_output_validates(self):
        k = self.structure()
        ce = check(k, "[] p")
        assert_valid(k, "[] p", ce)

    def test_wrong_start_rejected(self):
        ce = Counterexample(prefix=[], cycle=self.genuine().cycle)
        assert not validate_counterexample(self.structure(), parse_formula("[] p"), ce)

    def test_wrong_label_rejected(self):
        ce = Counterexample(prefix=[mk_step("s0", "e0-2")], cycle=self.genuine().cycle)
        assert not validate_counterexample(self.structure(), parse_formula("[] p"), ce)

    def test_missing_wrap_edge_rejected(self):
        ce = Counterexample(prefix=[mk_step("s0", "e0-1")], cycle=[mk_step("s1", "e1-2")])
        assert not validate_counterexample(self.structure(), parse_formula("[] p"), ce)

    def test_unknown_state_rejected(self):
        ce = Counterexample(prefix=[], cycle=[mk_step("nowhere", "e0-1")])
        assert not validate_counterexample(self.structure(), parse_formula("[] p"), ce)

    def test_wrong_elapsed_rejected(self):
        off = CounterexampleStep(text="s0", elapsed=Fraction(1), label="e0-1")
        ce = Counterexample(prefix=[off], cycle=self.genuine().cycle)
        assert not validate_counterexample(self.structure(), parse_formula("[] p"), ce)

    def test_non_violating_trace_rejected(self):
        ce = self.genuine()
        assert not validate_counterexample(self.structure(), parse_formula("<> ~ p"), ce)

    def test_empty_cycle_rejected(self):
        ce = Counterexample(prefix=self.genuine().steps(), cycle=[])
        assert not validate_counterexample(self.structure(), parse_formula("[] p"), ce)

    def test_unknown_prop_in_validation_rejected(self):
        with pytest.raises(ModelError):
            validate_counterexample(self.structure(), parse_formula("[] zz"), self.genuine())

    @pytest.mark.parametrize("walk", ["to_buchi", "model_check", "validate_counterexample"])
    def test_deep_formulas_fail_closed(self, walk):
        # 600 nested X is within every walk's depth, so the formula gets a
        # verdict rather than failing closed: it holds, because every run is
        # s0 (s1 s2)^omega and position 600 is s2
        deep = parse_formula("X " * 600 + "p")
        run, verdict = {
            "to_buchi": (lambda: to_buchi(negated_nnf(deep)).size, 603),
            "model_check": (lambda: model_check(self.structure(), deep), None),
            "validate_counterexample": (lambda: validate_counterexample(self.structure(), deep, self.genuine()), False),
        }[walk]
        assert run() == verdict


class TestAgainstOracles:
    def run_agreement(self, kripke, formula, specified: int) -> None:
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

    def test_functional_kripkes(self):
        rng = random.Random(555)
        for _ in range(150):
            n = rng.randint(1, 6)
            k = random_functional_kripke(rng, n)
            f = random_formula(rng, temporal_budget=2)
            self.run_agreement(k, f, n)

    def test_branching_kripkes(self):
        rng = random.Random(556)
        for _ in range(100):
            n = rng.randint(2, 4)
            k = random_branching_kripke(rng, n)
            f = random_formula(rng, temporal_budget=2)
            self.run_agreement(k, f, n)
