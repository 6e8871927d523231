"""Times as the explorer keeps them.

Search solutions and lasso steps carry their state's integer clock numerator
and the structure's scale.  Every reader of a time (``Solution.elapsed``,
``Step.duration``, ``CounterexampleStep.elapsed``, ``Kripke.elapsed``) must
give ``Fraction(clock, scale)``, and the CLI text and JSON must print
``str`` of that ``Fraction``.  A step built by hand from a ``Fraction`` is
the checker's step, and replay accepts both and never raises on a time off
the structure's grid.
"""

import json
import random
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from lhamc.cli import check_json, format_counterexample, load_model, main
from lhamc.explore import Kripke, Solution, build_kripke, search
from lhamc.ltl import Counterexample, CounterexampleStep, model_check, parse_formula, validate_counterexample
from lhamc.reservoir import SearchPattern
from lhamc.syncprod import component_kripke
from oracles import random_formula
from test_syncprod import random_components

F = Fraction
MODELS = Path(__file__).resolve().parent.parent / "models"
INIT2 = str(MODELS / "init2.json")
TWO_RES = str(MODELS / "two_reservoir.json")
INCREMENTS = (F(1, 3), F(2, 7), F(7, 5))
# refuted on init2 at every increment and bound below
REFUTED = ("[] ~ <> one-down", "<> macondo", "X X one-down")


def by_hand(steps: list[CounterexampleStep]) -> list[CounterexampleStep]:
    return [CounterexampleStep(s.text, F(s.clock, s.scale), s.label) for s in steps]


def lasso_text(ce: Counterexample) -> str:
    """The timed CLI counterexample, with every time printed by ``str``."""
    def lines(steps):
        return [f"    {{{s.text} in time {s.elapsed},'{s.label}}}" for s in steps]

    body = ["Result ModelCheckResult :", "  counterexample(", *lines(ce.prefix), "    ,", *lines(ce.cycle), "  )"]
    return "\n".join(body) + "\n"


def lasso_doc(ce: Counterexample) -> dict:
    steps = {
        part: [{"state": s.text, "elapsed": str(s.elapsed), "label": s.label} for s in getattr(ce, part)]
        for part in ("prefix", "cycle")
    }
    return {"kind": "check", "holds": False, "counterexample": steps}


class TestSearchTimes:
    @pytest.mark.parametrize("seed", range(9))
    def test_solutions_and_paths_read_the_clock(self, seed, capsys):
        rng = random.Random(seed)
        increment = INCREMENTS[seed % 3]
        model = rng.choice((INIT2, TWO_RES))
        bound = F(rng.randint(2, 9))
        system = load_model(model)
        kripke = build_kripke(system, bound, increment)
        assert all(kripke.elapsed(i) == F(kripke.clock[i], kripke.scale) for i in range(len(kripke)))
        solutions = search(system, SearchPattern().bind(system), bound, increment)
        assert len(solutions) == len(kripke)
        for sol in solutions:
            assert sol.scale == kripke.scale
            i = kripke.index_of(sol.text, sol.clock, sol.scale)
            assert sol.elapsed == F(sol.clock, sol.scale) == kripke.elapsed(i)
            clock = 0
            for step in sol.path:
                j = kripke.index_of(step.text, clock + step.duration * kripke.scale, kripke.scale)
                assert j is not None
                assert step.duration == F(kripke.clock_of(j) - clock, kripke.scale)
                clock = kripke.clock_of(j)
            assert clock == sol.clock
        argv = ["search", "--model", model, "--time-bound", str(bound), "--increment", str(increment)]
        assert main(argv) == 0
        text = "".join(
            f"Solution {k}\nS:System --> {sol.text}; TIME_ELAPSED:Time --> {sol.elapsed}\n"
            for k, sol in enumerate(solutions, start=1)
        )
        assert capsys.readouterr() == (text + "No more solutions\n", "")
        assert main([*argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [s["elapsed"] for s in doc["solutions"]] == [str(sol.elapsed) for sol in solutions]
        assert [[p["duration"] for p in s["path"]] for s in doc["solutions"]] == [
            [str(step.duration) for step in sol.path] for sol in solutions
        ]

    def test_a_solution_built_from_a_fraction_is_one_built_from_a_clock(self):
        made = Solution("s", F(1, 3), "t", {"k": "v"}, None, [None], ["t"])
        found = Solution("s", 2, "t", {"k": "v"}, None, [None], ["t"], 6)
        assert (made.clock, made.scale, found.clock, found.scale) == (1, 3, 2, 6)
        assert made.elapsed == found.elapsed == F(1, 3)
        assert made == found
        assert made != Solution("s", 1, "t", {"k": "v"}, None, [None], ["t"], 6)
        assert repr(made) == "Solution(state='s', elapsed=Fraction(1, 3), text='t', bindings={'k': 'v'})"


class TestLassoTimes:
    @pytest.mark.parametrize("seed", range(9))
    def test_timed_lasso_steps_read_the_clock(self, seed, capsys):
        rng = random.Random(seed)
        increment = INCREMENTS[seed % 3]
        bound = F(rng.randint(5, 9))
        formula = rng.choice(REFUTED)
        system = load_model(INIT2)
        kripke = Kripke(system, (increment,), bound)
        ce = model_check(kripke, parse_formula(formula))
        assert ce is not None
        # neither the check nor the replay indexes a state inside a leap; the whole structure has each lasso state
        assert validate_counterexample(kripke, parse_formula(formula), ce)
        whole = build_kripke(system, bound, increment)
        for step in ce.steps():
            assert step.scale == kripke.scale == whole.scale
            i = whole.index_of(step.text, step.clock, step.scale)
            assert step.elapsed == F(step.clock, step.scale) == whole.elapsed(i)
        hand = Counterexample(by_hand(ce.prefix), by_hand(ce.cycle))
        assert hand == ce
        for made, found in zip(hand.steps(), ce.steps()):
            assert hash(made) == hash(found) == hash((found.text, found.elapsed, found.label))
            assert repr(made) == repr(found)
        for lasso in (ce, hand):
            assert validate_counterexample(Kripke(system, (increment,), bound), parse_formula(formula), lasso)
        argv = ["check", "--model", INIT2, "--formula", formula, "--time-bound", str(bound),
                "--increment", str(increment)]
        assert main(argv) == 1
        assert capsys.readouterr() == (lasso_text(ce), "")
        assert main([*argv, "--format", "json"]) == 1
        out = capsys.readouterr().out
        assert out == json.dumps(lasso_doc(ce), indent=2) + "\n"

    @pytest.mark.parametrize("seed", range(12))
    def test_untimed_lasso_steps_are_at_zero(self, seed):
        rng = random.Random(seed)
        scales = set()
        for component in random_components(seed):
            kripke = component_kripke(component)
            # the first of a few random formulas that the component refutes, or false
            formulas = [random_formula(rng, tuple(sorted(kripke.props))) for _ in range(5) if kripke.props]
            formula = next((f for f in formulas if model_check(kripke, f)), parse_formula("[] ~ true"))
            ce = model_check(kripke, formula)
            scales.add(kripke.scale)
            for step in ce.steps():
                assert (step.clock, step.scale) == (0, kripke.scale)
                i = kripke.index_of(step.text, step.clock, step.scale)
                assert step.elapsed == F(step.clock, step.scale) == kripke.elapsed(i) == 0
            hand = Counterexample(by_hand(ce.prefix), by_hand(ce.cycle))
            assert hand == ce
            assert check_json(ce) == check_json(hand) == json.dumps(lasso_doc(ce), indent=2)
            assert format_counterexample(ce, False) == format_counterexample(hand, False)
            for lasso in (ce, hand):
                assert validate_counterexample(component_kripke(component), formula, lasso)
        assert scales <= {1, 2} and (2 in scales or seed in (2, 11))  # a half-unit tick makes scale 2

    def test_each_step_is_rendered_from_its_own_scale(self):
        # neighbours that share a clock numerator over different scales, or a
        # time over different scales
        steps = [
            CounterexampleStep("a", 2, "x", 6),
            CounterexampleStep("b", F(1, 3), "y"),
            CounterexampleStep("c", 1, "z", 6),
            CounterexampleStep("d", 4, "z", 2),
            CounterexampleStep("e", 4, "z", 6),
            CounterexampleStep("f", F(2, 3), "z"),
            CounterexampleStep("g", 0, "z", 9),
        ]
        ce = Counterexample(steps[:3], steps[3:])
        assert [s.elapsed for s in steps] == [F(1, 3), F(1, 3), F(1, 6), F(2), F(2, 3), F(2, 3), F(0)]
        assert check_json(ce) == json.dumps(lasso_doc(ce), indent=2)
        assert format_counterexample(ce, True) + "\n" == lasso_text(ce)
        assert steps[0] == CounterexampleStep("a", F(1, 3), "x") != CounterexampleStep("a", F(2, 3), "x")
        assert hash(steps[0]) == hash(("a", F(1, 3), "x"))


class TestReplayOffTheGrid:
    """A step whose time is off the structure's grid, or is given over
    another scale, is looked up by its time: replay is False for a time the
    structure has no state at, and it never raises."""

    @pytest.mark.parametrize("seed", range(9))
    def test_off_grid_steps_are_rejected(self, seed):
        rng = random.Random(seed)
        increment = INCREMENTS[seed % 3]
        bound = F(rng.randint(5, 9))
        formula = parse_formula(rng.choice(REFUTED))
        system = load_model(INIT2)
        ce = model_check(Kripke(system, (increment,), bound), formula)
        steps = ce.steps()
        for _ in range(12):
            pos = rng.randrange(len(steps))
            step = steps[pos]
            k = rng.choice((2, 3, 7))
            scale = step.scale * k
            changed = {
                "same time over another scale": CounterexampleStep(step.text, step.clock * k, step.label, scale),
                "off the grid over another scale": CounterexampleStep(step.text, step.clock * k + 1, step.label, scale),
                "off the grid as a Fraction": CounterexampleStep(step.text, F(step.clock * k + 1, scale), step.label),
                "a negative time": CounterexampleStep(step.text, -1 - step.clock, step.label, step.scale),
                "past the bound": CounterexampleStep(step.text, bound * 2, step.label),
            }
            for what, other in changed.items():
                lasso = steps[:pos] + [other] + steps[pos + 1:]
                ce2 = Counterexample(lasso[: len(ce.prefix)], lasso[len(ce.prefix):])
                got = validate_counterexample(Kripke(system, (increment,), bound), formula, ce2)
                assert got is (what == "same time over another scale"), what

    def test_a_step_over_a_scale_the_clock_does_not_divide(self):
        system = load_model(INIT2)
        kripke = build_kripke(system, F(1), F(1, 10))
        i = kripke.clock.index(3)
        text = kripke.text(i)
        assert kripke.index_of(text, 3, 10) == kripke.index_of(text, 9, 30) == kripke.index_of(text, F(3, 10)) == i
        assert kripke.index_of(text, 1, 3) is None  # 1/3 lies between two ticks
        assert kripke.index_of(text, 3, 7) is None
        ce = Counterexample([], [CounterexampleStep(text, 1, "tick", 3)])
        assert validate_counterexample(kripke, parse_formula("[] ~ macondo"), ce) is False


class TestRecords:
    """A lasso step cannot be changed once built; a solution can, and is not
    hashable.  Both read a time as ``Fraction`` does, as ``Kripke.index_of``
    does."""

    def test_a_step_cannot_be_changed(self):
        step = CounterexampleStep("a", 2, "x", 6)
        held = {step}
        for name in ("text", "elapsed", "label", "clock", "scale"):
            with pytest.raises(FrozenInstanceError):
                setattr(step, name, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(step, name)
        assert (step.text, step.clock, step.scale, step.label) == ("a", 2, 6, "x")
        assert CounterexampleStep("a", F(1, 3), "x") in held

    def test_a_solution_can_be_changed_and_is_not_hashable(self):
        sol = Solution("s", F(1, 3), "t", {}, None, [None], ["t"])
        with pytest.raises(TypeError, match="unhashable type: 'Solution'"):
            hash(sol)
        sol.text = "u"
        assert sol == Solution("s", F(1, 3), "u", {}, None, [None], ["t"])

    @pytest.mark.parametrize("time", [0.3, Decimal("0.3"), "3/10", F(3, 10), 0.5, Decimal("0.5"), "1/2"])
    def test_a_time_is_read_as_fraction_reads_it(self, time):
        kripke = build_kripke(load_model(INIT2), F(1), F(1, 10))
        exact = F(time)  # 0.3 as a float is not 3/10, so no state is at it
        i = kripke.clock.index(exact * 10) if exact * 10 in kripke.clock else None
        text = kripke.text(i if i is not None else 0)
        assert kripke.index_of(text, time) == i
        step = CounterexampleStep(text, time, "tick")
        assert step == CounterexampleStep(text, exact, "tick") and hash(step) == hash((text, exact, "tick"))
        assert (step.clock, step.scale) == (exact.numerator, exact.denominator)
        assert Solution("s", time, text, {}, None, [None], [text]).elapsed == exact
