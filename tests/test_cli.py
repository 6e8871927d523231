import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lhamc.cli import format_counterexample, main
from lhamc.core import ModelError
from lhamc.explore import build_kripke
from lhamc.lha import LhaState, discrete_successors, lha_from_json, render_state, timed_successor
from lhamc.ltl import (
    Counterexample,
    CounterexampleStep,
    model_check,
    parse_formula,
    validate_counterexample,
)
from lhamc.reservoir import NResSystem, ReservoirPattern, SearchPattern, nres_from_json, parse_pattern
from lhamc.syncprod import (
    Component,
    component_from_json,
    component_kripke,
    rt_sync_product,
    safe_prop,
)

MODELS = Path(__file__).resolve().parent.parent / "models"
INIT2 = str(MODELS / "init2.json")
RES1 = str(MODELS / "reservoir1.json")
RES2 = str(MODELS / "reservoir2.json")
TWO_RES = str(MODELS / "two_reservoir.json")

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
        assert got == SearchPattern(
            hose=2,
            reservoirs=(
                (0, ReservoirPattern(level=None)),
                (1, ReservoirPattern(level=Fraction(15))),
            ),
        )

    @pytest.mark.parametrize(
        "bad",
        ["", "hose=left", "hose=1 hose=2", "R1.hth=15 R1.hth=20", "R1.level=3", "* hose=1", "R1.hth=1.5"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ModelError):
            parse_pattern(bad)


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
    """simulate on the two-tank automaton, against a plain Fraction loop."""

    @staticmethod
    def reference(bound: Fraction, increment: Fraction):
        with open(TWO_RES, encoding="utf-8") as fh:
            lha = lha_from_json(json.load(fh))
        state = LhaState(lha.initial_location, dict(lha.initial_valuation))
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
        argv = ["simulate", "--model", TWO_RES, "--time-bound", bound, "--increment", increment]

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
        ],
    )
    def test_exit_two_with_one_error_line(self, tmp_path, capsys, doc):
        path = write_doc(tmp_path / "bad.json", doc)
        assert main(["simulate", "--model", path, "--time-bound", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

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

    def test_model_warning_is_one_line_before_the_error(self):
        done = self.run_module("search", "--model", INIT2, "--time-bound", "5", "--pattern", "hose=9")
        assert done.returncode == 2
        assert done.stderr == (
            "warning: total leak rate 15 differs from hose rate 10; the system cannot stay balanced\n"
            "error: pattern mentions unknown reservoir id 9\n"
        )
