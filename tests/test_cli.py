import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from lhamc.cli import check_json, format_counterexample, load_model, main
from lhamc.core import ModelError
from lhamc.explore import build_kripke
from lhamc.lha import lha_from_json, lha_to_json, two_reservoir
from lhamc.ltl import (
    Counterexample,
    CounterexampleStep,
    model_check,
    parse_formula,
    validate_counterexample,
)
from lhamc.reservoir import NResSystem, SearchPattern, nres_from_json, parse_pattern
from lhamc.syncprod import (
    Component,
    abstract_reservoir,
    component_from_json,
    component_kripke,
    rt_sync_product,
    safe_prop,
)
from oracles import random_formula
from reference import FractionLhaState, component_to_json
from reference import lha_discrete_successors as discrete_successors
from reference import lha_render_state as render_state
from reference import lha_timed_successor as timed_successor
from test_lha import random_automaton
from test_syncprod import tick_free

MODELS = Path(__file__).resolve().parent.parent / "models"
INIT2 = str(MODELS / "init2.json")
RES1 = str(MODELS / "reservoir1.json")
RES2 = str(MODELS / "reservoir2.json")
TWO_RES = str(MODELS / "two_reservoir.json")
# the largest numeral the interpreter converts to an int has this many
# digits, or 0 where it has no limit
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

TANKS_30 = (
    "hose(10,0) < 0 | thr:(15,50), hth: 30, rte: 5 > "
    "< 1 | thr:(15,50), hth: 30, rte: 5 > < 2 | thr:(15,50), hth: 30, rte: 5 >"
)
TANKS_FINAL = (
    "< 0 | thr:(15,50), hth: 45, rte: 5 > "
    "< 1 | thr:(15,50), hth: 15, rte: 5 > < 2 | thr:(15,50), hth: 15, rte: 5 >"
)


class TestParsePattern:
    def test_wildcard(self):
        assert parse_pattern("*") == SearchPattern()

    def test_hose_and_levels(self):
        got = parse_pattern("hose=2 R1.hth=15 R0.hth=*")
        assert got == SearchPattern(hose=2, reservoirs=((0, None), (1, Fraction(15))))

    @pytest.mark.parametrize(
        "bad",
        ["", "hose=left", "hose=1 hose=2", "R1.hth=15 R1.hth=20", "R1.level=3", "* hose=1", "R1.hth=1.5"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ModelError):
            parse_pattern(bad)

    @pytest.mark.parametrize(
        "pattern, error",
        [
            ("hose=1_0", "cannot read hose position in 'hose=1_0'"),
            ("hose=+1", "cannot read hose position in 'hose=+1'"),
            ("hose=\u0663", "cannot read hose position in 'hose=\u0663'"),
            ("R\u0663.hth=1", "cannot read pattern token 'R\u0663.hth=1'"),
        ],
    )
    def test_an_id_is_an_ascii_decimal_numeral(self, capsys, pattern, error):
        assert main(["search", "--model", INIT2, "--time-bound", "5", "--pattern", pattern]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter converts numerals of any length")
    @pytest.mark.parametrize("template", ["hose={}", "R{}.hth=1"])
    def test_an_id_past_the_digit_limit_is_a_model_error(self, capsys, template):
        digits = max(5000, DIGIT_LIMIT + 1)
        pattern = template.format("9" * digits)
        assert main(["search", "--model", INIT2, "--time-bound", "5", "--pattern", pattern]) == 2
        error = f"not a reservoir id: a numeral of {digits} digits, past the limit of {DIGIT_LIMIT}"
        assert capsys.readouterr() == ("", f"error: {error}\n")


class TestSimulate:
    def test_golden_trace_until_bound(self, capsys):
        code = main(["simulate", "--model", INIT2, "--time-bound", "4"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"{{{TANKS_30}}} in time 0"
        assert lines[3] == f"{{hose(10,0) {TANKS_FINAL}}} in time 3  enabled: move-hose"
        assert lines[4] == "Time bound reached"
        assert len(lines) == 5

    def test_blocked_when_tick_is_inadmissible(self, capsys):
        code = main(["simulate", "--model", INIT2, "--time-bound", "100"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "Timed evolution blocked"
        assert lines[-2].endswith("in time 3  enabled: move-hose")

    def test_fractional_increment(self, capsys):
        code = main(["simulate", "--model", INIT2, "--time-bound", "2", "--increment", "1/2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "in time 1/2" in out
        assert "hth: 65/2" in out

    def test_json_trace(self, capsys):
        code = main(["simulate", "--model", INIT2, "--time-bound", "4", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["kind"] == "simulation"
        assert doc["stopped"] == "bound"
        assert [e["elapsed"] for e in doc["trace"]] == ["0", "1", "2", "3"]
        assert doc["trace"][3]["enabled"] == ["move-hose"]
        assert doc["trace"][0]["above_upper"] == []


class TestSimulateAgainstFractions:
    """simulate on the two-tank automaton and on seeded random automata,
    against a plain Fraction loop."""

    @staticmethod
    def reference(bound: Fraction, increment: Fraction, model: str = TWO_RES):
        with open(model, encoding="utf-8") as fh:
            lha = lha_from_json(json.load(fh))
        state = FractionLhaState(lha.initial_location, dict(lha.initial_valuation))
        elapsed = Fraction(0)
        trace = [(state, elapsed)]
        stopped = "bound"
        while elapsed + increment < bound:
            state = timed_successor(lha, state, increment)
            if state is None:
                stopped = "blocked"
                break
            elapsed += increment
            trace.append((state, elapsed))
        rows = [
            (render_state(lha, s), str(t), sorted({label for label, _ in discrete_successors(lha, s)}))
            for s, t in trace
        ]
        return rows, stopped

    @pytest.mark.parametrize(
        "bound,increment,length,stopped",
        [
            ("0", "1", 1, "bound"),
            ("1/2", "1/2", 1, "bound"),
            ("7/3", "1/2", 5, "bound"),
            ("10", "1", 4, "blocked"),
        ],
    )
    def test_text_and_json(self, capsys, bound, increment, length, stopped):
        rows, expected_stop = self.reference(Fraction(bound), Fraction(increment))
        assert (len(rows), expected_stop) == (length, stopped)
        self.assert_simulates(capsys, TWO_RES, bound, increment, rows, stopped)

    def test_random_automata(self, capsys, tmp_path):
        rng = random.Random(1818)
        endings = {"bound": 0, "blocked": 0}
        longest = blocked_later = 0
        for n in range(40):
            model = tmp_path / f"lha{n}.json"
            model.write_text(json.dumps(lha_to_json(random_automaton(rng))), encoding="utf-8")
            bound = str(Fraction(rng.randint(1, 24), rng.choice((1, 2, 3))))
            increment = rng.choice(("1", "1/2", "1/3", "2/7"))
            rows, stopped = self.reference(Fraction(bound), Fraction(increment), str(model))
            self.assert_simulates(capsys, str(model), bound, increment, rows, stopped)
            endings[stopped] += 1
            longest = max(longest, len(rows))
            blocked_later += stopped == "blocked" and len(rows) > 2
        report = (endings, longest, blocked_later)
        assert min(endings.values()) >= 5 and longest >= 10 and blocked_later >= 2, report

    @staticmethod
    def assert_simulates(capsys, model, bound, increment, rows, stopped):
        argv = ["simulate", "--model", model, "--time-bound", bound, "--increment", increment]
        assert main(argv) == 0
        lines = [
            f"{{{text}}} in time {t}" + ("  enabled: " + ",".join(labels) if labels else "")
            for text, t, labels in rows
        ]
        lines.append("Time bound reached" if stopped == "bound" else "Timed evolution blocked")
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

        assert main([*argv, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "kind": "simulation",
            "trace": [{"state": text, "elapsed": t, "enabled": labels} for text, t, labels in rows],
            "stopped": stopped,
        }


class TestSearch:
    GOLDEN = "\n".join(
        [
            "Solution 1",
            f"S:System --> {TANKS_30}; TIME_ELAPSED:Time --> 0",
            "Solution 2",
            "S:System --> hose(10,0) < 0 | thr:(15,50), hth: 35, rte: 5 > "
            "< 1 | thr:(15,50), hth: 25, rte: 5 > < 2 | thr:(15,50), hth: 25, rte: 5 >; "
            "TIME_ELAPSED:Time --> 1",
            "Solution 3",
            "S:System --> hose(10,0) < 0 | thr:(15,50), hth: 40, rte: 5 > "
            "< 1 | thr:(15,50), hth: 20, rte: 5 > < 2 | thr:(15,50), hth: 20, rte: 5 >; "
            "TIME_ELAPSED:Time --> 2",
            "Solution 4",
            f"S:System --> hose(10,0) {TANKS_FINAL}; TIME_ELAPSED:Time --> 3",
            "Solution 5",
            f"S:System --> hose(10,1) {TANKS_FINAL}; TIME_ELAPSED:Time --> 3",
            "Solution 6",
            f"S:System --> hose(10,2) {TANKS_FINAL}; TIME_ELAPSED:Time --> 3",
            "No more solutions",
            "",
        ]
    )

    def test_golden_wildcard_search(self, capsys):
        code = main(["search", "--model", INIT2, "--time-bound", "5"])
        assert capsys.readouterr().out == self.GOLDEN
        assert code == 0

    def test_pattern_with_binding(self, capsys):
        code = main(
            ["search", "--model", INIT2, "--time-bound", "5", "--pattern", "hose=1 R1.hth=15"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == (
            "Solution 1\n"
            f"S:System --> hose(10,1) {TANKS_FINAL}; TIME_ELAPSED:Time --> 3\n"
            "R1 --> thr:(15,50), rte: 5\n"
            "No more solutions\n"
        )

    def test_no_solution_exit_one(self, capsys):
        code = main(["search", "--model", INIT2, "--time-bound", "5", "--pattern", "R1.hth=999"])
        assert capsys.readouterr().out == "No solution\n"
        assert code == 1

    def test_unknown_reservoir_in_pattern_is_an_error(self, capsys):
        code = main(["search", "--model", INIT2, "--time-bound", "5", "--pattern", "hose=9"])
        assert code == 2
        assert "unknown reservoir" in capsys.readouterr().err

    def test_expect_none_flips_exit(self, capsys):
        assert (
            main(
                [
                    "search",
                    "--model",
                    INIT2,
                    "--time-bound",
                    "5",
                    "--pattern",
                    "R1.hth=999",
                    "--expect-none",
                ]
            )
            == 0
        )
        assert (
            main(["search", "--model", INIT2, "--time-bound", "5", "--expect-none"])
            == 1
        )
        capsys.readouterr()

    def test_json_solutions(self, capsys):
        code = main(["search", "--model", INIT2, "--time-bound", "5", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["kind"] == "search"
        assert doc["count"] == 6
        assert [s["elapsed"] for s in doc["solutions"]] == ["0", "1", "2", "3", "3", "3"]
        last = doc["solutions"][5]
        assert [p["label"] for p in last["path"]] == ["tick", "tick", "tick", "move-hose"]


class TestSearchAgainstFractions:
    """search '*' on the two-tank automaton against a breadth-first walk of
    the Fraction reference: solution texts, times, order and paths."""

    @staticmethod
    def reference(bound: Fraction, increment: Fraction) -> list[tuple[str, str, list]]:
        """(text, elapsed, path) of each state reached below ``bound``,
        ordered by elapsed time and then by discovery; a path lists
        (label, duration, text) steps from the initial state."""
        with open(TWO_RES, encoding="utf-8") as fh:
            lha = lha_from_json(json.load(fh))

        def key(state, elapsed):
            return state.location, tuple(state.valuation[v] for v in lha.variables), elapsed

        start = FractionLhaState(lha.initial_location, dict(lha.initial_valuation))
        found = [(start, Fraction(0), [])]
        seen = {key(start, Fraction(0))}
        for state, elapsed, path in found:  # grows while it is walked
            moves = [(label, succ, elapsed, 0) for label, succ in discrete_successors(lha, state)]
            if elapsed + increment < bound:
                after = timed_successor(lha, state, increment)
                if after is not None:
                    moves.append(("tick", after, elapsed + increment, increment))
            for label, succ, at, duration in moves:
                if key(succ, at) not in seen:
                    seen.add(key(succ, at))
                    found.append((succ, at, [*path, (label, str(duration), render_state(lha, succ))]))
        found.sort(key=lambda f: f[1])
        return [(render_state(lha, s), str(t), path) for s, t, path in found]

    @pytest.mark.parametrize("increment", ["1", "1/2"])
    def test_text_and_json(self, capsys, increment):
        solutions = self.reference(Fraction(10), Fraction(increment))
        assert any(label == "moveright" for _, _, path in solutions for label, _, _ in path)
        assert any(label == "moveleft" for _, _, path in solutions for label, _, _ in path)
        argv = ["search", "--model", TWO_RES, "--time-bound", "10", "--increment", increment, "--pattern", "*"]
        assert main(argv) == 0
        lines = []
        for i, (text, elapsed, _) in enumerate(solutions, start=1):
            lines += [f"Solution {i}", f"S:System --> {text}; TIME_ELAPSED:Time --> {elapsed}"]
        assert capsys.readouterr().out == "\n".join([*lines, "No more solutions", ""])

        assert main([*argv, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "kind": "search",
            "count": len(solutions),
            "solutions": [
                {
                    "state": text,
                    "elapsed": elapsed,
                    "bindings": {},
                    "path": [{"label": label, "duration": d, "state": t} for label, d, t in path],
                }
                for text, elapsed, path in solutions
            ],
        }


class TestCheck:
    def test_holds_golden(self, capsys):
        code = main(
            ["check", "--model", INIT2, "--formula", "~ [] <> macondo", "--time-bound", "5"]
        )
        assert capsys.readouterr().out == "Result Bool :\n  true\n"
        assert code == 0

    def test_violation_exit_one_with_counterexample(self, capsys):
        code = main(
            ["check", "--model", INIT2, "--formula", "[] ~ <> one-down", "--time-bound", "5"]
        )
        out = capsys.readouterr().out
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "Result ModelCheckResult :"
        assert lines[1] == "  counterexample("
        assert lines[-1] == "  )"
        separator = lines.index("    ,")
        assert separator > 2
        assert all(" in time " in line for line in lines[2:separator])

    def test_json_counterexample_replays(self, capsys):
        code = main(
            [
                "check",
                "--model",
                INIT2,
                "--formula",
                "[] ~ <> one-down",
                "--time-bound",
                "5",
                "--format",
                "json",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["kind"] == "check"
        assert doc["holds"] is False
        with open(INIT2, encoding="utf-8") as fh:
            system = NResSystem(nres_from_json(json.load(fh)))
        kripke = build_kripke(system, Fraction(5), Fraction(1))

        def steps(block):
            return [
                CounterexampleStep(e["state"], Fraction(e["elapsed"]), e["label"])
                for e in doc["counterexample"][block]
            ]

        ce = Counterexample(prefix=steps("prefix"), cycle=steps("cycle"))
        assert validate_counterexample(kripke, parse_formula("[] ~ <> one-down"), ce)

    def test_json_holds(self, capsys):
        code = main(
            [
                "check",
                "--model",
                INIT2,
                "--formula",
                "[] <> one-down",
                "--time-bound",
                "5",
                "--format",
                "json",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc == {"kind": "check", "holds": True}

    def test_a_ring_is_rejected_whatever_the_formula(self, tmp_path, capsys):
        # checking "<> one-down" never lets time pass with the hose at tank 2
        with open(INIT2, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["reservoirs"][2]["leak"] = "20"
        model = write_doc(tmp_path / "leaky.json", doc)
        for formula in ("[] ~ <> one-down", "[] true", "<> one-down"):
            code = main(["check", "--model", model, "--formula", formula, "--time-bound", "8"])
            assert (code, capsys.readouterr()) == (
                2, ("", "error: reservoir 2: hose rate 10 is below the leak rate 20\n")
            ), formula


# a quote, a backslash, a newline, a tab, a non-ASCII letter and a non-BMP
# character, which JSON writes as a surrogate pair
ODD = ('"', "\\", "\n", "\t", "\u00fc", "\U0001d11e")


def check_doc(ce) -> dict:
    """The check document as a plain value, for ``json.dumps``."""
    doc = {"kind": "check", "holds": ce is None}
    if ce is not None:
        doc["counterexample"] = {
            part: [{"state": s.text, "elapsed": str(s.elapsed), "label": s.label} for s in steps]
            for part, steps in (("prefix", ce.prefix), ("cycle", ce.cycle))
        }
    return doc


def odd_component(rng: random.Random, name: str) -> Component:
    """1-4 states and 1-8 rules, whose names and labels hold ``ODD`` characters."""
    states = [name + str(i) + "".join(rng.sample(ODD, 2)) for i in range(rng.randint(1, 4))]
    rules = [
        (rng.choice(("a", "b", name)) + rng.choice(ODD), rng.choice(states), rng.choice(states))
        for _ in range(rng.randint(1, 8))
    ]
    ticks = [(s, rng.choice(states), 1) for s in states if rng.random() < 0.5]
    return Component(states, states[0], rules, {f"q{name}": [s for s in states if rng.random() < 0.5]}, ticks)


class TestCheckJson:
    """The check document is written directly; it must be the bytes that
    ``json.dumps(doc, indent=2)`` gives."""

    def test_products_with_odd_names_match_json_dumps(self):
        seen = Counter()
        for seed in range(80):
            rng = random.Random(seed)
            left, right = odd_component(rng, "x"), odd_component(rng, "y")
            for product in (rt_sync_product(left, right), rt_sync_product(tick_free(left), tick_free(right))):
                ce = model_check(component_kripke(product), random_formula(rng, atoms=("qx", "qy")))
                # the checker's lassos never start on their cycle: the automaton's initial state has no
                # incoming transitions; the whole lasso as a cycle has an empty prefix
                for lasso in (ce,) if ce is None else (ce, Counterexample([], ce.steps())):
                    assert check_json(lasso) == json.dumps(check_doc(lasso), indent=2), seed
                seen["holds" if ce is None else "refuted"] += 1
                for c in ODD if ce is not None else ():
                    seen[c] += any(c in s.text + s.label for s in ce.steps())
        assert min(seen[case] for case in ("holds", "refuted", *ODD)) > 0, seen

    @pytest.mark.parametrize("formula", ["[] ~ <> one-down", "<> macondo", "X X one-down", "~ [] <> macondo"])
    def test_ring_checks_print_json_dumps(self, capsys, formula):
        code = main(["check", "--model", INIT2, "--formula", formula, "--time-bound", "5", "--format", "json"])
        ce = model_check(build_kripke(load_model(INIT2), Fraction(5), Fraction(1)), parse_formula(formula))
        assert (code, capsys.readouterr().out) == (int(ce is not None), json.dumps(check_doc(ce), indent=2) + "\n")


class TestProductCheck:
    def test_safety_violation_golden(self, capsys):
        code = main(
            ["product-check", "--left", RES1, "--right", RES2, "--formula", "[] safe"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out == (
            "Result ModelCheckResult :\n"
            "  counterexample(\n"
            "    {< ok,ok >,'tick}\n"
            "    {< below,below >,'fill1}\n"
            "    {< ok,below >,'fill2}\n"
            "    ,\n"
            "    {< ok,ok >,'tick}\n"
            "    {< below,below >,'fill1}\n"
            "    {< ok,below >,'fill2}\n"
            "  )\n"
        )

    def test_unsafety_inevitable(self, capsys):
        code = main(
            ["product-check", "--left", RES1, "--right", RES2, "--formula", "<> ~ safe"]
        )
        assert capsys.readouterr().out == "Result Bool :\n  true\n"
        assert code == 0

    @pytest.mark.parametrize("formula", ["[] ~ busy", "[] safe"])
    def test_untimed_operand_gives_the_untimed_product(self, tmp_path, capsys, formula):
        pump = {
            "kind": "component",
            "states": ["idle", "busy"],
            "initial": "idle",
            "rules": [
                {"label": "start", "source": "idle", "target": "busy"},
                {"label": "fill1", "source": "busy", "target": "idle"},
            ],
            "props": {"busy": ["busy"]},
        }
        right = tmp_path / "pump.json"
        right.write_text(json.dumps(pump), encoding="utf-8")
        code = main(["product-check", "--left", RES1, "--right", str(right), "--formula", formula])
        out = capsys.readouterr().out
        with open(RES1, encoding="utf-8") as fh:
            timed = component_from_json(json.load(fh))
        # the untimed product is the product of tick-free components
        left = Component(timed.states, timed.initial, timed.rules, timed.props)
        kripke = component_kripke(safe_prop(rt_sync_product(left, component_from_json(pump))))
        ce = model_check(kripke, parse_formula(formula))
        if ce is None:
            assert (code, out) == (0, "Result Bool :\n  true\n")
        else:
            assert (code, out) == (1, format_counterexample(ce, False) + "\n")

    @pytest.mark.parametrize("formula", ["[] safe", "[] ~ refill3?", "[] <> safe"])
    def test_components_check_the_folded_product(self, tmp_path, capsys, formula):
        third = write_doc(tmp_path / "reservoir3.json", component_to_json(abstract_reservoir(3)))
        args = ["--component", RES1, "--component", RES2, "--component", third]
        code = main(["product-check", *args, "--formula", formula])
        out = capsys.readouterr().out
        operands = [load(RES1), load(RES2), abstract_reservoir(3)]
        product = safe_prop(rt_sync_product(rt_sync_product(*operands[:2]), operands[2]))
        ce = model_check(component_kripke(product), parse_formula(formula))
        assert ce is not None or formula == "[] <> safe"
        if ce is None:
            assert (code, out) == (0, "Result Bool :\n  true\n")
        else:
            assert (code, out) == (1, format_counterexample(ce, False) + "\n")
            assert "{< < ok,ok >,ok >,'tick}" in out

    def test_two_components_are_left_and_right(self, capsys):
        outputs = []
        for operands in (["--left", RES1, "--right", RES2], ["--component", RES1, "--component", RES2]):
            code = main(["product-check", *operands, "--formula", "[] safe", "--format", "json"])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 1

    def test_json_counterexample_replays(self, capsys):
        code = main(
            [
                "product-check",
                "--left",
                RES1,
                "--right",
                RES2,
                "--formula",
                "[] safe",
                "--format",
                "json",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        with open(RES1, encoding="utf-8") as fh:
            left = component_from_json(json.load(fh))
        with open(RES2, encoding="utf-8") as fh:
            right = component_from_json(json.load(fh))
        kripke = component_kripke(safe_prop(rt_sync_product(left, right)))

        def steps(block):
            return [
                CounterexampleStep(e["state"], Fraction(e["elapsed"]), e["label"])
                for e in doc["counterexample"][block]
            ]

        ce = Counterexample(prefix=steps("prefix"), cycle=steps("cycle"))
        assert validate_counterexample(kripke, parse_formula("[] safe"), ce)


class TestComponentModel:
    """Goldens of ``simulate``, ``search`` and ``check`` on one component: an
    ``ok`` state whose 1-tick leads to ``below``, and ``fill1`` back."""

    @staticmethod
    def run(capsys, *args):
        code = main([args[0], "--model", RES1, *args[1:]])
        text = capsys.readouterr().out
        code_json = main([args[0], "--model", RES1, *args[1:], "--format", "json"])
        out = capsys.readouterr()
        assert out.err == "" and code_json == code
        return code, text, out.out

    @staticmethod
    def dumped(doc) -> str:
        return json.dumps(doc, indent=2) + "\n"

    @staticmethod
    def entry(state, elapsed, **more):
        return {"state": state, "elapsed": str(elapsed), **more}

    def test_simulate(self, capsys):
        code, text, doc = self.run(capsys, "simulate", "--time-bound", "4", "--increment", "1")
        assert code == 0
        assert text == "{ok} in time 0\n{below} in time 1  enabled: fill1\nTimed evolution blocked\n"
        trace = [self.entry("ok", 0, enabled=[]), self.entry("below", 1, enabled=["fill1"])]
        assert doc == self.dumped({"kind": "simulation", "trace": trace, "stopped": "blocked"})

    def test_simulate_blocks_at_once_off_the_tick_duration(self, capsys):
        code, text, doc = self.run(capsys, "simulate", "--time-bound", "4", "--increment", "1/2")
        assert code == 0
        assert text == "{ok} in time 0\nTimed evolution blocked\n"
        trace = [self.entry("ok", 0, enabled=[])]
        assert doc == self.dumped({"kind": "simulation", "trace": trace, "stopped": "blocked"})

    def test_search(self, capsys):
        code, text, doc = self.run(capsys, "search", "--time-bound", "3")
        assert code == 0
        found = [("ok", 0), ("below", 1), ("ok", 1), ("below", 2), ("ok", 2)]
        assert text == "".join(
            f"Solution {i}\nS:System --> {state}; TIME_ELAPSED:Time --> {elapsed}\n"
            for i, (state, elapsed) in enumerate(found, 1)
        ) + "No more solutions\n"
        tick = {"label": "tick", "duration": "1", "state": "below"}
        fill = {"label": "fill1", "duration": "0", "state": "ok"}
        paths = [[], [tick], [tick, fill], [tick, fill, tick], [tick, fill, tick, fill]]
        solutions = [self.entry(s, e, bindings={}, path=p) for (s, e), p in zip(found, paths)]
        assert doc == self.dumped({"kind": "search", "count": 5, "solutions": solutions})

    def test_check(self, capsys):
        code, text, doc = self.run(capsys, "check", "--time-bound", "4", "--formula", "[] ~ refill1?")
        assert code == 1
        prefix = [("ok", 0, "tick"), ("below", 1, "fill1"), ("ok", 1, "tick"),
                  ("below", 2, "fill1"), ("ok", 2, "tick"), ("below", 3, "fill1")]
        lines = [f"    {{{s} in time {e},'{label}}}" for s, e, label in prefix]
        lines += ["    ,", "    {ok in time 3,'stutter}"]
        assert text == "\n".join(["Result ModelCheckResult :", "  counterexample(", *lines, "  )", ""])
        ce = {
            "prefix": [self.entry(s, e, label=label) for s, e, label in prefix],
            "cycle": [self.entry("ok", 3, label="stutter")],
        }
        assert doc == self.dumped({"kind": "check", "holds": False, "counterexample": ce})


class TestErrors:
    def test_missing_model_file(self, capsys):
        code = main(["simulate", "--model", "no-such-file.json", "--time-bound", "4"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unreadable_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["simulate", "--model", str(bad), "--time-bound", "4"]) == 2
        capsys.readouterr()

    def test_unknown_kind(self, tmp_path, capsys):
        doc = tmp_path / "strange.json"
        doc.write_text('{"kind": "starship"}', encoding="utf-8")
        assert main(["simulate", "--model", str(doc), "--time-bound", "4"]) == 2
        capsys.readouterr()

    def test_non_object_document(self, tmp_path, capsys):
        doc = tmp_path / "arr.json"
        doc.write_text("[1, 2]", encoding="utf-8")
        assert main(["simulate", "--model", str(doc), "--time-bound", "4"]) == 2
        capsys.readouterr()

    def test_bad_formula(self, capsys):
        code = main(["check", "--model", INIT2, "--formula", "p /\\", "--time-bound", "4"])
        assert code == 2
        capsys.readouterr()

    def test_unknown_prop_in_formula(self, capsys):
        code = main(["check", "--model", INIT2, "--formula", "[] zz", "--time-bound", "4"])
        assert code == 2
        capsys.readouterr()

    def test_bad_pattern(self, capsys):
        code = main(["search", "--model", INIT2, "--time-bound", "4", "--pattern", "R1.x=2"])
        assert code == 2
        capsys.readouterr()

    def test_zero_increment(self, capsys):
        code = main(["simulate", "--model", INIT2, "--time-bound", "4", "--increment", "0"])
        assert code == 2
        capsys.readouterr()

    def test_negative_time_bound(self, capsys):
        code = main(["simulate", "--model", INIT2, "--time-bound", "-3"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "operands",
        [
            ["--left", RES1, "--component", RES2],
            ["--left", RES1, "--right", RES2, "--component", RES1],
            ["--left", RES1],
            ["--right", RES2],
            ["--component", RES1],
            [],
        ],
        ids=["mixed", "mixed-three", "left-only", "right-only", "one-component", "none"],
    )
    def test_product_needs_two_operands_in_one_form(self, capsys, operands):
        code = main(["product-check", *operands, "--formula", "[] safe"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    def test_product_rejects_non_component(self, capsys):
        code = main(["product-check", "--left", INIT2, "--right", RES2, "--formula", "[] safe"])
        assert code == 2
        assert "component" in capsys.readouterr().err

    def test_deeply_nested_formula(self, capsys):
        formula = "X " * 3000 + "safe"
        code = main(["product-check", "--left", RES1, "--right", RES2, "--formula", formula])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: input nests too deeply\n"

    def test_deeply_nested_document(self, tmp_path, capsys):
        doc = tmp_path / "deep.json"
        doc.write_text('{"kind": "component", "states": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        assert main(["simulate", "--model", str(doc), "--time-bound", "4"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: input nests too deeply\n"


LHA_DOC = {
    "kind": "lha",
    "variables": ["x"],
    "locations": [{"name": "l", "rates": {"x": "10"}}],
    "initial": {"location": "l", "valuation": {"x": "0"}},
}
NRES_DOC = {
    "kind": "nres",
    "hose": {"rate": "10", "position": 0},
    "reservoirs": [{"id": 0, "lower": "15", "upper": "50", "level": "30", "leak": "10"}],
}
COMPONENT_DOC = {
    "kind": "component",
    "states": ["a", "b"],
    "initial": "a",
    "rules": [{"label": "go", "source": "a", "target": "b"}],
    "ticks": [{"source": "a", "target": "b", "duration": "1"}],
}
AT_LEAST_5 = [{"expr": {"coeffs": {"x": "1"}, "const": "-5"}, "rel": ">="}]
OVER_Y = [{"expr": {"coeffs": {"y": "1"}}, "rel": ">="}]  # y is undeclared


AT_LEAST_0 = [{"expr": {"coeffs": {"x": "1"}}, "rel": ">="}]
LHA_EDGE = {
    "source": "l",
    "target": "l",
    "label": "go",
    "guard": AT_LEAST_5,
    "assignments": [{"var": "x", "expr": {"coeffs": {"x": "1/2"}}}],
}
# documents that load but for one key their loader does not read, by the
# place the error names
UNKNOWN_KEYS = {
    "'props' in the automaton document": {**LHA_DOC, "props": {"low": AT_LEAST_5}},
    "'flow' in locations[0]": {**LHA_DOC, "locations": [{"name": "l", "flow": {"x": "10"}}]},
    "'kind' in locations[0].invariant[0]": {
        **LHA_DOC, "locations": [{"name": "l", "invariant": [{**AT_LEAST_0[0], "kind": "lha"}]}]
    },
    "'x' in edges[0].guard[0].expr": {
        **LHA_DOC, "edges": [{**LHA_EDGE, "guard": [{"expr": {"x": "1"}, "rel": ">="}]}]
    },
    "'urgent' in edges[1]": {**LHA_DOC, "edges": [LHA_EDGE, {**LHA_EDGE, "urgent": True}]},
    "'rel' in edges[0].assignments[0]": {
        **LHA_DOC, "edges": [{**LHA_EDGE, "assignments": [{"var": "x", "expr": {}, "rel": "="}]}]
    },
    "'rel' in edges[0].assignments[0].expr": {
        **LHA_DOC, "edges": [{**LHA_EDGE, "assignments": [{"var": "x", "expr": {"const": 1, "rel": "="}}]}]
    },
    "'time' in initial": {**LHA_DOC, "initial": {**LHA_DOC["initial"], "time": "0"}},
    "'tanks' in the reservoir document": {**NRES_DOC, "tanks": []},
    "'leak' in hose": {**NRES_DOC, "hose": {**NRES_DOC["hose"], "leak": "0"}},
    "'hose' in reservoirs[0]": {**NRES_DOC, "reservoirs": [{**NRES_DOC["reservoirs"][0], "hose": True}]},
    "'prop' in the component document": {**COMPONENT_DOC, "prop": {}},
    "'duration' in rules[0]": {**COMPONENT_DOC, "rules": [{**COMPONENT_DOC["rules"][0], "duration": "1"}]},
    "'label' in ticks[0]": {**COMPONENT_DOC, "ticks": [{**COMPONENT_DOC["ticks"][0], "label": "t"}]},
}

# automaton documents with one malformed constraint or expression, by the
# error line that names its place
MALFORMED_PLACES = {
    "locations[1].invariant must be a JSON list, got 5": {
        **LHA_DOC, "locations": [*LHA_DOC["locations"], {"name": "b", "invariant": 5}]
    },
    "edges[0].guard[0] must be a JSON object, got [1]": {
        **LHA_DOC, "edges": [{**LHA_EDGE, "guard": [[1]]}]
    },
    "edges[0].guard[0].expr must be a JSON object, got 3": {
        **LHA_DOC, "edges": [{**LHA_EDGE, "guard": [{"expr": 3, "rel": ">="}]}]
    },
    "edges[0].assignments[0].expr must be a JSON object, got 3": {
        **LHA_DOC, "edges": [{**LHA_EDGE, "assignments": [{"var": "x", "expr": 3}]}]
    },
    "locations[0].tick_guard[0].expr.coeffs must be a JSON object, got ['x']": {
        **LHA_DOC, "locations": [{"name": "l", "tick_guard": [{"expr": {"coeffs": ["x"]}, "rel": ">"}]}]
    },
    "unknown relation '!=' at edges[1].guard[0].rel, expected one of ('<', '<=', '=', '>=', '>')": {
        **LHA_DOC, "edges": [LHA_EDGE, {**LHA_EDGE, "guard": [{**AT_LEAST_5[0], "rel": "!="}]}]
    },
}
# one error of each family that a loader reports, by the error line that
# names its place: a missing key, a wrong shape, a bad rational, a value that
# is not a string, and an id that is not an integer
LOAD_ERRORS = {
    "initial is missing 'valuation'": {**LHA_DOC, "initial": {"location": "l"}},
    "locations[0].rates must be a JSON object, got ['x']": {**LHA_DOC, "locations": [{"name": "l", "rates": ["x"]}]},
    "locations[0].rates.x: not a rational: 'y' (expected 'p' or 'p/q')": {
        **LHA_DOC, "locations": [{"name": "l", "rates": {"x": "y"}}]
    },
    "locations[0].name must be a JSON string, got None": {**LHA_DOC, "locations": [{"name": None}]},
    "edges[0].label must be a JSON string, got None": {**LHA_DOC, "edges": [{**LHA_EDGE, "label": None}]},
    "variables[0] must be a JSON string, got ['x']": {**LHA_DOC, "variables": [["x"]]},
    "reservoirs[0] is missing 'level'": {
        **NRES_DOC, "reservoirs": [{k: v for k, v in NRES_DOC["reservoirs"][0].items() if k != "level"}]
    },
    "reservoirs[0] must be a JSON object, got 'a'": {**NRES_DOC, "reservoirs": ["a"]},
    "reservoirs[0].level: not a rational: 'x' (expected 'p' or 'p/q')": {
        **NRES_DOC, "reservoirs": [{**NRES_DOC["reservoirs"][0], "level": "x"}]
    },
    "reservoirs[0].level: not a rational: '\u0663\u0660' (expected 'p' or 'p/q')": {
        **NRES_DOC, "reservoirs": [{**NRES_DOC["reservoirs"][0], "level": "\u0663\u0660"}]
    },
    "reservoirs[0].id must be an integer id, got '0'": {
        **NRES_DOC, "reservoirs": [{**NRES_DOC["reservoirs"][0], "id": "0"}]
    },
    "hose.position must be an integer id, got True": {**NRES_DOC, "hose": {"rate": "10", "position": True}},
    "ticks[0] is missing 'duration'": {**COMPONENT_DOC, "ticks": [{"source": "a", "target": "b"}]},
    "props.p must be a JSON list, got 'a'": {**COMPONENT_DOC, "props": {"p": "a"}},
    "ticks[0].duration: not a rational: 'x' (expected 'p' or 'p/q')": {
        **COMPONENT_DOC, "ticks": [{**COMPONENT_DOC["ticks"][0], "duration": "x"}]
    },
    "rules[0].label must be a JSON string, got None": {
        **COMPONENT_DOC, "rules": [{**COMPONENT_DOC["rules"][0], "label": None}]
    },
    "states[1] must be a JSON string, got 1": {**COMPONENT_DOC, "states": ["a", 1]},
}
PLACED_ERRORS = {**MALFORMED_PLACES, **LOAD_ERRORS}


def load(path: str) -> Component:
    with open(path, encoding="utf-8") as fh:
        return component_from_json(json.load(fh))


ALIKE_LEFT = {
    "kind": "component",
    "states": ["a,b", "a"],
    "initial": "a,b",
    "rules": [{"label": "go1", "source": "a,b", "target": "a"}],
    "props": {"p": ["a"]},
}
ALIKE_RIGHT = {
    "kind": "component",
    "states": ["c", "b,c"],
    "initial": "c",
    "rules": [{"label": "go2", "source": "c", "target": "b,c"}],
    "props": {"q": ["b,c"]},
}
PRODUCT_FORMULAS = ("[] safe", "[] <> safe", "~ safe", "X safe", "safe U ~ safe")
OTHER_TYPES = (None, True, 0, 7, 1.5, "x", [], {}, ["ok"], {"ok": 1})
BAD_RATIONALS = ("1/0", "-1", "0", "0/5", "1.5.2", "abc", "", "1/-2", "1 /2", "--1")
# names holding a ",", of which "ok,ok" and "below,below" make the states of
# two reservoirs render alike when they rename the other state of both
COMMA_NAMES = ("a,b", "< ok,below >", "ok,", ",below", "o,k", "ok,ok", "below,below")


def mutate_operands(rng: random.Random, docs: list[dict]) -> None:
    """Change component documents in place: one value of one document to
    another JSON type, a bad rational or a name holding a ``,``, one key
    deleted, or a state of every document renamed to such a name."""
    doc = rng.choice(docs)
    places = []  # (container, key or index)

    def walk(node):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            places.append((node, key))
            if isinstance(child, (dict, list)):
                walk(child)

    walk(doc)
    node, key = rng.choice(places)
    kind = rng.choice(("type", "rational", "comma", "rename", "rename", "delete"))
    if kind == "type":
        node[key] = rng.choice(OTHER_TYPES)
    elif kind == "rational":
        ticks = doc.get("ticks")
        if isinstance(ticks, list) and ticks and isinstance(ticks[0], dict):
            node, key = ticks[0], "duration"
        node[key] = rng.choice(BAD_RATIONALS)
    elif kind == "comma":
        node[key] = rng.choice(COMMA_NAMES)
    elif kind == "rename":
        old, new = json.dumps(rng.choice(("ok", "below"))), json.dumps(rng.choice(COMMA_NAMES))
        docs[:] = [json.loads(json.dumps(d).replace(old, new)) for d in docs]
    elif isinstance(node, dict):
        del node[key]
    else:
        node.pop(key)


def write_doc(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestMalformedModels:
    def test_well_formed_documents_load(self, tmp_path, capsys):
        for i, doc in enumerate((LHA_DOC, NRES_DOC, COMPONENT_DOC)):
            path = write_doc(tmp_path / f"doc{i}.json", doc)
            assert main(["simulate", "--model", path, "--time-bound", "3"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "doc",
        [
            {**LHA_DOC, "locations": ["a"]},
            {**LHA_DOC, "initial": "l"},
            {**LHA_DOC, "locations": [{"name": "l", "rates": {"x": "10"}, "invariant": AT_LEAST_5}]},
            {**NRES_DOC, "reservoirs": {"a": 1}},
            {**NRES_DOC, "hose": 10},
            {**COMPONENT_DOC, "rules": [1]},
            {**COMPONENT_DOC, "states": "ab"},
            {**COMPONENT_DOC, "ticks": ["t"]},
            {**LHA_DOC, "locations": [*LHA_DOC["locations"], {"name": "b", "invariant": OVER_Y}]},
            *UNKNOWN_KEYS.values(),
        ],
    )
    def test_exit_two_with_one_error_line(self, tmp_path, capsys, doc):
        path = write_doc(tmp_path / "bad.json", doc)
        assert main(["simulate", "--model", path, "--time-bound", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("where", UNKNOWN_KEYS)
    def test_an_unknown_key_is_named_with_its_place(self, tmp_path, capsys, where):
        path = write_doc(tmp_path / "bad.json", UNKNOWN_KEYS[where])
        assert main(["simulate", "--model", path, "--time-bound", "3"]) == 2
        assert capsys.readouterr() == ("", f"error: unknown key {where}\n")

    @pytest.mark.parametrize("error", PLACED_ERRORS)
    def test_a_malformed_constraint_is_named_with_its_place(self, tmp_path, capsys, error):
        path = write_doc(tmp_path / "bad.json", PLACED_ERRORS[error])
        assert main(["simulate", "--model", path, "--time-bound", "3"]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize(
        "duration, error",
        [
            ("-1", "negative duration: -1"),
            ("0", "tick durations must be positive"),
            ("0/5", "tick durations must be positive"),
        ],
    )
    def test_a_tick_duration_that_is_not_positive_is_named_with_its_place(self, tmp_path, capsys, duration, error):
        doc = {**COMPONENT_DOC, "ticks": [{**COMPONENT_DOC["ticks"][0], "duration": duration}]}
        path = write_doc(tmp_path / "bad.json", doc)
        assert main(["product-check", "--left", path, "--right", RES1, "--formula", "[] true"]) == 2
        assert capsys.readouterr() == ("", f"error: ticks[0].duration: {error}\n")

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter converts numerals of any length")
    def test_a_numeral_past_the_digit_limit_is_a_model_error(self, tmp_path, capsys):
        numeral = "1" * (DIGIT_LIMIT + 1)
        error = f"not a rational: a numeral of {DIGIT_LIMIT + 1} digits, past the limit of {DIGIT_LIMIT}"
        doc = {**NRES_DOC, "reservoirs": [{**NRES_DOC["reservoirs"][0], "level": numeral}]}
        path = write_doc(tmp_path / "bad.json", doc)
        assert main(["simulate", "--model", path, "--time-bound", "3"]) == 2
        assert capsys.readouterr() == ("", f"error: reservoirs[0].level: {error}\n")
        assert main(["simulate", "--model", INIT2, "--time-bound", numeral]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter converts numerals of any length")
    def test_an_unquoted_numeral_past_the_digit_limit_is_a_model_error(self, tmp_path, capsys):
        # the JSON reader keeps such a numeral by its digit count, and the read of it names its place
        digits = max(5000, DIGIT_LIMIT + 1)
        numeral = f"a numeral of {digits} digits, past the limit of {DIGIT_LIMIT}"
        doc = json.dumps({**NRES_DOC, "reservoirs": [{**NRES_DOC["reservoirs"][0], "level": 0}]})
        for key, error in [
            ("level", f"reservoirs[0].level: not a rational: {numeral}"),
            ("position", f"hose.position must be an integer id, got {numeral}"),
            ("id", f"reservoirs[0].id must be an integer id, got {numeral}"),
        ]:
            path = tmp_path / f"{key}.json"
            path.write_text(doc.replace(f'"{key}": 0', f'"{key}": ' + "1" * digits), encoding="utf-8")
            assert main(["simulate", "--model", str(path), "--time-bound", "3"]) == 2
            assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_product_states_rendering_alike(self, tmp_path, capsys):
        left = write_doc(tmp_path / "left.json", {
            "kind": "component",
            "states": ["a,b", "a"],
            "initial": "a,b",
            "rules": [{"label": "go1", "source": "a,b", "target": "a"}],
            "props": {"p": ["a"]},
        })
        right = write_doc(tmp_path / "right.json", {
            "kind": "component",
            "states": ["c", "b,c"],
            "initial": "c",
            "rules": [{"label": "go2", "source": "c", "target": "b,c"}],
            "props": {"q": ["b,c"]},
        })
        code = main(["product-check", "--left", left, "--right", right, "--formula", "[] ~ (p /\\ ~ q)"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("formula", ["p", "X p", "[] true", "~ p", "true"])
    def test_product_rendering_alike_is_rejected_whatever_the_formula(self, formula, tmp_path, capsys):
        # ("a,b", "c") and ("a", "b,c") render alike, though only the first is reachable
        left = write_doc(tmp_path / "left.json", ALIKE_LEFT)
        right = write_doc(tmp_path / "right.json", ALIKE_RIGHT)
        assert main(["product-check", "--left", left, "--right", right, "--formula", formula]) == 2
        assert capsys.readouterr() == ("", "error: two component states render as '< a,b,c >'\n")

    def test_mutated_product_operands(self, tmp_path, capsys):
        """A seeded campaign over mutated copies of the reservoir components:
        no traceback, every exit 2 is one error line with nothing on stdout,
        and a set of operands is rejected with one line whatever the formula."""
        rng = random.Random(17)
        originals = [json.loads((MODELS / f"reservoir{i}.json").read_text(encoding="utf-8")) for i in (1, 2, 3)]
        outcomes = Counter()
        for run in range(150):
            docs = [json.loads(json.dumps(doc)) for doc in rng.sample(originals, rng.choice((2, 3)))]
            for _ in range(rng.randint(1, 3)):
                mutate_operands(rng, docs)
            paths = []
            for k, doc in enumerate(docs):
                paths += ["--component", write_doc(tmp_path / f"{run}-{k}.json", doc)]
            errors = set()
            for formula in PRODUCT_FORMULAS:
                code = main(["product-check", *paths, "--formula", formula])
                out, err = capsys.readouterr()
                if code == 2:
                    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (docs, err)
                else:
                    assert code in (0, 1) and err == "", (docs, err)
                errors.add(err)
            # rejected with one line for every formula, or for none
            assert len(errors) == 1, (docs, errors)
            outcomes[errors.pop() or "accepted"] += 1
        alike = [line for line in outcomes if line.startswith("error: two component states render as")]
        assert outcomes["accepted"] > 10 and len(outcomes) > 20 and alike, outcomes


UNFINISHED_FORMULA = "error: expected a formula but found 'end of input'\n"


class TestModuleInvocation:
    def run_module(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "lhamc", *args],
            capture_output=True,
            text=True,
            cwd=str(MODELS.parent),
        )

    def test_help(self):
        done = self.run_module("--help")
        assert done.returncode == 0
        assert "simulate" in done.stdout
        assert "product-check" in done.stdout

    def test_no_command_is_usage_error(self):
        done = self.run_module()
        assert done.returncode == 2

    def test_missing_time_bound_is_usage_error(self):
        done = self.run_module("search", "--model", INIT2)
        assert done.returncode == 2

    def test_reader_closing_the_pipe_exits_141_quietly(self, tmp_path):
        # 10,000 lines overfill the pipe, so the write fails once the reader has gone
        model = tmp_path / "long.json"
        model.write_text(json.dumps(lha_to_json(two_reservoir(10, 5, 5, 15, 15, 30, 530))), encoding="utf-8")
        argv = ["simulate", "--model", str(model), "--time-bound", "100", "--increment", "1/100"]
        with subprocess.Popen(
            [sys.executable, "-m", "lhamc", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=str(MODELS.parent),
        ) as proc:
            assert proc.stdout.readline() == b"{left,30,530} in time 0\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""

    @pytest.mark.parametrize(
        "args,error",
        [
            (("check", "--formula", "p U", "--model", INIT2, "--time-bound", "3"), UNFINISHED_FORMULA),
            (("search", "--pattern", "((", "--model", INIT2, "--time-bound", "3"),
             "error: cannot read pattern token '(('\n"),
            (("product-check", "--formula", "p U", "--left", str(MODELS / "missing.json"), "--right", RES1),
             UNFINISHED_FORMULA),
        ],
    )
    def test_malformed_input_is_one_line_before_the_model_loads(self, args, error):
        # the model would warn about its leak rate, and the operand file does
        # not exist; the input is read first
        done = self.run_module(*args)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", error)

    def test_an_error_is_one_line_without_the_model_warning(self):
        # init2's leaks do not balance its hose rate, which a result reports
        for args, error in (
            (("search", "--pattern", "hose=9"), "error: pattern mentions unknown reservoir id 9\n"),
            (("check", "--formula", "[] foo"), "error: formula mentions unknown propositions: ['foo']\n"),
        ):
            done = self.run_module(*args, "--model", INIT2, "--time-bound", "5")
            assert (done.returncode, done.stdout, done.stderr) == (2, "", error)

    @pytest.mark.parametrize("args,code", [
        (("search", "--pattern", "hose=1 R1.hth=15"), 0),
        (("search", "--pattern", "hose=1 R1.hth=15", "--expect-none"), 1),
    ])
    def test_a_result_comes_with_the_model_warning(self, args, code):
        done = self.run_module(*args, "--model", INIT2, "--time-bound", "5")
        assert (done.returncode, done.stderr) == (
            code, "warning: total leak rate 15 differs from hose rate 10; the system cannot stay balanced\n"
        )
