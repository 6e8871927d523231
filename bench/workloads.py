"""Seeded models, jobs and answer checks for the three benchmark workloads.

Every model is generated from the seed and written as a JSON file; the program
only ever receives those files.  Each job's answer is checked against facts
that do not come from the code under test alone:

* ``lha-sampled``: the two-tank automaton's sampled run is a single line, so
  the full ``simulate`` and ``search '*'`` output is computed here in exact
  arithmetic; the ``*`` solution count must also equal the state count of
  ``build_kripke`` on the same model and bound.
* ``nres-check``: rings are kept only when an integer replay of their sampled
  run never blocks, never needs a choice of hose target and never lets two
  tanks run low at once.  The reachable structure is then one line ending in a
  stutter loop, so every verdict is decided here by ``tests/oracles.py``'s
  ``eval_on_lasso`` on that single run.
* ``product-ladder``: the k-fold product of abstract reservoirs has 2^k
  reachable states, refutes ``[] safe`` and satisfies ``[] <> safe``.

Every counterexample is replayed with ``validate_counterexample`` and, on
letters computed here from the state texts, with ``eval_on_lasso``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Output:
    """Everything a job shows its user: exit code, standard output, diagnostics."""

    exit: int
    stdout: str
    stderr: str = ""

    def digest(self) -> str:
        blob = f"{self.exit}\n{self.stdout}\0{self.stderr}".encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class Check:
    """Result of verifying one job."""

    problems: list[str]
    states: int  # distinct states the job produced
    violated: bool = False
    lasso_len: int = 0
    replay_s: float = 0.0


@dataclass
class Job:
    key: str
    root: str  # name of the job's root span in the traced pass
    run: Callable[[], tuple[Output, Any]]  # output, plus evidence for verify
    verify: Callable[[Output, Any], Check]


def run_cli(lib: Any, argv: list[str]) -> Output:
    """``lhamc`` in-process, as a fresh process would run it.

    Warnings are recorded afresh for every job, because a new process would
    print each of them again.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lib.cli.main(argv)
            except SystemExit as stop:  # argparse usage errors
                code = stop.code if isinstance(stop.code, int) else 2
    notes = "".join(f"warning: {w.message}\n" for w in caught)
    return Output(code, out.getvalue(), err.getvalue() + notes)


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _collapse(letters: list) -> list:
    """Drop letters equal to their predecessor (stutter reduction)."""
    return [a for i, a in enumerate(letters) if i == 0 or a != letters[i - 1]]


def eval_lasso(lib: Any, formula: Any, prefix: list, cycle: list) -> bool:
    """The oracle's verdict on prefix . cycle^omega.

    Every formula checked here is free of X, and such formulas cannot tell
    stutter-equivalent words apart (Lamport 1983; Peled and Wilke 1997), so
    the oracle gets the stutter-reduced word, which is short.
    """
    return lib.oracles.eval_on_lasso(formula, _collapse(prefix), _collapse(cycle))


def _replay(lib: Any, kripke: Any, formula: Any, ce: Any, letter: Callable[[Any], Any]) -> tuple[list[str], float]:
    """Replay a counterexample with the checker's validator and with the oracle."""
    problems = []
    start = perf_counter()
    valid = lib.ltl.validate_counterexample(kripke, formula, ce)
    replay_s = perf_counter() - start
    if not valid:
        problems.append("validate_counterexample rejects the counterexample")
    try:
        prefix = [letter(s) for s in ce.prefix]
        cycle = [letter(s) for s in ce.cycle]
    except KeyError as missing:
        problems.append(f"counterexample visits an unreachable state {missing}")
    else:
        if eval_lasso(lib, formula, prefix, cycle):
            problems.append("the oracle says the counterexample satisfies the formula")
    return problems, replay_s


# lha-sampled ---------------------------------------------------------------

LHA_REFERENCE = (2, 1, 1, 1, 1, 5, 3)  # w, v1, v2, r1, r2, x1, x2
LHA_SEARCH_INCREMENTS = ("1/5", "1/10")
LHA_SIMULATE_INCREMENT = "1/100"


def lha_params(rng: random.Random) -> tuple[int, ...]:
    """A two_reservoir variant whose sampled runs reach the bound.

    Unit leak rates and integer levels put every threshold crossing on an
    integer time, which every increment used here samples exactly, and
    w >= v1 + v2 lets the hose keep both tanks above their thresholds.
    """
    w = rng.choice((2, 3))
    r1, r2 = rng.randint(1, 4), rng.randint(1, 4)
    return (w, 1, 1, r1, r2, r1 + rng.randint(0, 6), r2 + rng.randint(1, 6))


def lha_search_line(params: tuple[int, ...], bound: int, inc: Fraction) -> list[tuple[str, Fraction, Fraction, Fraction]]:
    """The reachable (location, x1, x2, time) states in discovery order."""
    w, v1, v2, r1, r2, x1, x2 = (Fraction(p) for p in params)
    loc = "left"
    steps = int(bound / inc)
    line = []
    for k in range(steps):
        t = k * inc
        line.append((loc, x1, x2, t))
        if loc == "left" and x2 <= r2:
            loc = "right"
            line.append((loc, x1, x2, t))
        elif loc == "right" and x1 <= r1:
            loc = "left"
            line.append((loc, x1, x2, t))
        if (loc == "left" and x2 <= r2) or (loc == "right" and x1 <= r1):
            raise ValueError(f"two_reservoir{params}: zero-time hose cycle")
        if k + 1 < steps:
            if loc == "left":
                x1, x2 = x1 + (w - v1) * inc, x2 - v2 * inc
            else:
                x1, x2 = x1 - v1 * inc, x2 + (w - v2) * inc
            if (loc == "left" and x2 < r2) or (loc == "right" and x1 < r1):
                raise ValueError(f"two_reservoir{params}: run blocks at {t + inc}")
    return line


def lha_search_text(line: list) -> str:
    parts = [
        f"Solution {i}\nS:System --> {loc},{x1},{x2}; TIME_ELAPSED:Time --> {t}\n"
        for i, (loc, x1, x2, t) in enumerate(line, start=1)
    ]
    return "".join(parts) + "No more solutions\n"


def lha_simulate_text(params: tuple[int, ...], bound: int, inc: Fraction) -> str:
    """Tick-only trace; tank 2 starts high enough to last the whole bound."""
    w, v1, v2, _, _, x1, x2 = (Fraction(p) for p in params)
    lines = []
    for k in range(int(bound / inc)):
        t = k * inc
        lines.append(f"{{left,{x1 + (w - v1) * t},{x2 - v2 * t}}} in time {t}\n")
    return "".join(lines) + "Time bound reached\n"


def lha_sampled(lib: Any, seed: int, model_dir: Path, small: bool = False) -> list[Job]:
    rng = random.Random(f"lha-sampled:{seed}")
    bound = 10 if small else 100
    jobs = []
    for n, params in enumerate([LHA_REFERENCE] + [lha_params(rng) for _ in range(2)]):
        w, v1, v2, r1, r2, x1, x2 = params
        # Tank 2 starts full enough to last the bound, so time never blocks.
        sim = (w, v1, v2, r1, r2, x1, x2 + bound * v2)
        path = _write(model_dir / f"lha{n}.json", lib.lha.lha_to_json(lib.lha.two_reservoir(*params)))
        sim_path = _write(model_dir / f"lha{n}-sim.json", lib.lha.lha_to_json(lib.lha.two_reservoir(*sim)))
        jobs.append(_lha_simulate_job(lib, _lha_name(sim), sim_path, sim, bound))
        jobs += [_lha_search_job(lib, _lha_name(params), path, params, bound, inc) for inc in LHA_SEARCH_INCREMENTS]
    return jobs


def _lha_name(params: tuple[int, ...]) -> str:
    return "two_reservoir(" + ",".join(map(str, params)) + ")"


def _lha_simulate_job(lib: Any, name: str, path: str, params: tuple, bound: int) -> Job:
    inc = Fraction(LHA_SIMULATE_INCREMENT)
    argv = ["simulate", "--model", path, "--time-bound", str(bound), "--increment", LHA_SIMULATE_INCREMENT]
    expected: list[str] = []

    def verify(out: Output, _: Any) -> Check:
        if not expected:
            expected.append(lha_simulate_text(params, bound, inc))
        problems = []
        if out.exit != 0 or out.stdout != expected[0] or out.stderr:
            problems.append(f"simulate output differs from the analytic trace (exit {out.exit})")
        return Check(problems, int(bound / inc))

    return Job(f"{name}/simulate@{LHA_SIMULATE_INCREMENT}", "cli", lambda: (run_cli(lib, argv), None), verify)


def _lha_search_job(lib: Any, name: str, path: str, params: tuple, bound: int, inc_text: str) -> Job:
    inc = Fraction(inc_text)
    argv = ["search", "--model", path, "--pattern", "*", "--time-bound", str(bound), "--increment", inc_text]
    expected: list[tuple[str, int]] = []

    def verify(out: Output, _: Any) -> Check:
        if not expected:
            line = lha_search_line(params, bound, inc)
            kripke = lib.explore.build_kripke(lib.cli.load_model(path), Fraction(bound), inc)
            expected.append((lha_search_text(line), len(kripke)))
        text, kripke_states = expected[0]
        solutions = out.stdout.count("\nS:System --> ")
        problems = []
        if out.exit != 0 or out.stdout != text or out.stderr:
            problems.append(f"search output differs from the analytic run (exit {out.exit})")
        if solutions != kripke_states:
            problems.append(f"{solutions} '*' solutions but build_kripke finds {kripke_states} states")
        return Check(problems, solutions)

    return Job(f"{name}/search@{inc_text}", "cli", lambda: (run_cli(lib, argv), None), verify)


# nres-check ----------------------------------------------------------------

NRES_INCREMENT = "1/10"
NRES_TANKS = (4, 5, 6)

# Specification patterns (Dwyer, Avrunin and Corbett 1999) over the two
# propositions, none using X.  Most hold on a ring that sustains itself, so
# the nested DFS has to sweep the whole product; two conditioned on fairness
# give the largest automata.
NRES_FORMULAS = (
    ("absence", "[] ~ macondo"),
    ("recurrence", "[] <> ~ one-down"),
    ("persistence", "<> [] ~ macondo"),
    ("response", "[] (one-down -> <> ~ one-down)"),
    ("precedence", "(~ macondo U one-down) \\/ [] ~ macondo"),
    ("fair-macondo", "([] <> one-down /\\ [] <> ~ one-down) -> [] <> macondo"),
    ("fair-recovery", "[] <> one-down -> [] <> ~ macondo"),
    ("never-low", "[] ~ one-down"),
    ("reach-macondo", "<> macondo"),
)


@dataclass
class Ring:
    rate: int
    lower: list[int]
    upper: list[int]
    leak: list[int]
    line: list[tuple[int, int, tuple[int, ...]]]  # (step, hose position, levels in tenths)

    def doc(self) -> dict:
        return {
            "kind": "nres",
            "hose": {"rate": str(self.rate), "position": self.line[0][1]},
            "reservoirs": [
                {
                    "id": i,
                    "lower": str(self.lower[i]),
                    "upper": str(self.upper[i]),
                    "level": str(Fraction(self.line[0][2][i], 10)),
                    "leak": str(self.leak[i]),
                }
                for i in range(len(self.lower))
            ],
        }

    def text(self, pos: int, levels: tuple[int, ...]) -> str:
        tanks = "".join(
            f" < {i} | thr:({self.lower[i]},{self.upper[i]}), hth: {Fraction(levels[i], 10)}, rte: {self.leak[i]} >"
            for i in range(len(levels))
        )
        return f"hose({self.rate},{pos}){tanks}"

    def steps(self) -> list[tuple[str, Fraction, str]]:
        """The run as (text, elapsed, label of the edge leaving the state)."""
        out = []
        for i, (step, pos, levels) in enumerate(self.line):
            if i + 1 == len(self.line):
                label = "stutter"
            else:
                label = "tick" if self.line[i + 1][0] > step else "move-hose"
            out.append((self.text(pos, levels), Fraction(step, 10), label))
        return out

    def letters(self) -> list[frozenset[str]]:
        """Propositions of each state of the run."""
        out = []
        for _, _, levels in self.line:
            low = [levels[i] <= 10 * self.lower[i] for i in range(len(levels))]
            out.append(frozenset((["one-down"] if any(low) else []) + (["macondo"] if all(low) else [])))
        return out


def ring_run(lower: list[int], level: list[int], leak: list[int], rate: int, pos: int, steps: int):
    """The ring's sampled run in tenths, or None unless it is one straight line.

    Time stops while an unattended tank is at or below its lower threshold;
    the hose must then move to it.  A run is kept only if each such moment has
    exactly one low tank, the hosed tank can leave, and no tank is left low.
    """
    n = len(level)
    floor = [10 * x for x in lower]
    level = [10 * x for x in level]
    line = []
    for k in range(steps):
        line.append((k, pos, tuple(level)))
        low = [i for i in range(n) if i != pos and level[i] <= floor[i]]
        if low:
            if len(low) > 1 or level[pos] < floor[pos]:
                return None
            pos = low[0]
            line.append((k, pos, tuple(level)))
            if any(i != pos and level[i] <= floor[i] for i in range(n)):
                return None
        if k + 1 < steps:
            level = [
                level[i] + rate - leak[i] if i == pos else max(level[i] - leak[i], 0)
                for i in range(n)
            ]
    return line


def make_ring(rng: random.Random, n: int, steps: int) -> Ring:
    while True:
        lower = [rng.randint(5, 20) for _ in range(n)]
        upper = [x + rng.randint(20, 40) for x in lower]
        level = [x + rng.randint(5, 30) for x in lower]
        leak = [rng.randint(1, 5) for _ in range(n)]
        rate = sum(leak) + rng.randint(0, 3)
        line = ring_run(lower, level, leak, rate, rng.randrange(n), steps)
        if line is not None:
            return Ring(rate, lower, upper, leak, line)


def nres_check(lib: Any, seed: int, model_dir: Path, small: bool = False) -> list[Job]:
    rng = random.Random(f"nres-check:{seed}")
    bound = 20 if small else 200
    steps = int(bound / Fraction(NRES_INCREMENT))
    jobs = []
    for n in NRES_TANKS:
        ring = make_ring(rng, n, steps)
        path = _write(model_dir / f"ring{n}.json", ring.doc())
        facts: dict[str, Any] = {}

        def known(ring: Ring = ring, path: str = path, facts: dict = facts) -> dict:
            """Reference structure, letters and run of one ring, built once."""
            if not facts:
                facts["kripke"] = lib.explore.build_kripke(
                    lib.cli.load_model(path), Fraction(bound), Fraction(NRES_INCREMENT)
                )
                facts["steps"] = ring.steps()
                facts["run"] = ring.letters()
                facts["letter"] = {(text, t): a for (text, t, _), a in zip(facts["steps"], facts["run"])}
            return facts

        for name, formula in NRES_FORMULAS:
            argv = [
                "check", "--model", path, "--formula", formula, "--time-bound", str(bound),
                "--increment", NRES_INCREMENT, "--format", "json",
            ]
            jobs.append(Job(
                f"ring{n}/{name}", "cli",
                lambda argv=argv: (run_cli(lib, argv), None),
                _nres_verify(lib, formula, len(ring.line), known),
            ))
    return jobs


def _nres_verify(lib: Any, formula_text: str, states: int, known: Callable[[], dict]) -> Callable[[Output, Any], Check]:
    formula = lib.ltl.parse_formula(formula_text)
    verdict: list[bool] = []

    def verify(out: Output, _: Any) -> Check:
        facts = known()
        if not verdict:
            run = facts["run"]
            verdict.append(eval_lasso(lib, formula, run[:-1], run[-1:]))
        problems = []
        if len(facts["kripke"]) != states:
            problems.append(f"build_kripke finds {len(facts['kripke'])} states, the ring's run has {states}")
        try:
            doc = json.loads(out.stdout)
        except ValueError:
            return Check([f"check printed no JSON (exit {out.exit})"], states)
        holds = doc.get("holds")
        if out.exit != (0 if holds else 1):
            problems.append(f"exit {out.exit} does not match holds={holds}")
        if holds != verdict[0]:
            problems.append(f"checker says holds={holds}, the oracle says {verdict[0]}")
        if holds is not False:
            return Check(problems, states)
        steps = [
            [lib.ltl.CounterexampleStep(s["state"], Fraction(s["elapsed"]), s["label"]) for s in doc["counterexample"][part]]
            for part in ("prefix", "cycle")
        ]
        ce = lib.ltl.Counterexample(*steps)
        # The only infinite run is the whole line, ending in the stutter loop.
        run = [(s.text, s.elapsed, s.label) for s in ce.steps()]
        line = facts["steps"]
        if run[: len(line)] != line or any(step != line[-1] for step in run[len(line):]):
            problems.append("counterexample is not the ring's single run")
        letter = facts["letter"]
        more, replay_s = _replay(lib, facts["kripke"], formula, ce, lambda s: letter[s.text, s.elapsed])
        return Check(problems + more, states, True, len(ce.prefix) + len(ce.cycle), replay_s)

    return verify


# product-ladder ------------------------------------------------------------

LADDER_KS = tuple(range(4, 11))
LADDER_FORMULAS = ("[] safe", "[] <> safe")  # refuted, holds


def component_doc(i: int) -> dict:
    """``abstract_reservoir(i)``: one unit of neglect takes the tank below."""
    return {
        "kind": "component",
        "states": ["ok", "below"],
        "initial": "ok",
        "rules": [{"label": f"fill{i}", "source": "below", "target": "ok"}],
        "props": {f"refill{i}?": ["below"]},
        "ticks": [{"source": "ok", "target": "below", "duration": "1"}],
    }


def product_ladder(lib: Any, seed: int, model_dir: Path, small: bool = False) -> list[Job]:
    """The seed names the k components (``abstract_reservoir(i)`` for seeded i)."""
    rng = random.Random(f"product-ladder:{seed}")
    ks = (3, 4) if small else LADDER_KS
    paths = [_write(model_dir / f"tank{i}.json", component_doc(i)) for i in rng.sample(range(100), max(ks))]
    return [
        Job(f"k{k}/{formula}", "product-check",
            lambda k=k, formula=formula: _product_check(lib, paths[:k], formula),
            _ladder_verify(lib, k, formula))
        for k in ks
        for formula in LADDER_FORMULAS
    ]


def _product_check(lib: Any, paths: list[str], formula_text: str) -> tuple[Output, Any]:
    """``lhamc product-check`` over k components, through the same library calls."""
    parts = [lib.cli.load_model(p) for p in paths]
    product = parts[0]
    for part in parts[1:]:
        product = lib.syncprod.rt_sync_product(product, part)
    product = lib.syncprod.safe_prop(product)
    formula = lib.ltl.parse_formula(formula_text)
    kripke = lib.syncprod.component_kripke(product)
    ce = lib.ltl.model_check(kripke, formula)
    if ce is None:
        return Output(0, "Result Bool :\n  true\n"), (kripke, formula, ce)
    return Output(1, lib.cli.format_counterexample(ce, False) + "\n"), (kripke, formula, ce)


_TANK = re.compile(r"ok|below")


def _ladder_letter(k: int, text: str) -> frozenset[str]:
    tanks = _TANK.findall(text)
    if len(tanks) != k:
        raise KeyError(text)
    return frozenset({"safe"}) if "ok" in tanks else frozenset()


def _ladder_verify(lib: Any, k: int, formula_text: str) -> Callable[[Output, Any], Check]:
    refuted = formula_text == "[] safe"

    def verify(out: Output, evidence: Any) -> Check:
        kripke, formula, ce = evidence
        problems = []
        if len(kripke) != 2 ** k:
            problems.append(f"{len(kripke)} reachable states, expected 2^{k}")
        if (ce is not None) != refuted or out.exit != (1 if refuted else 0):
            problems.append(f"verdict for {formula_text!r} at k={k} is wrong (exit {out.exit})")
        if ce is None:
            return Check(problems, len(kripke))
        more, replay_s = _replay(lib, kripke, formula, ce, lambda s: _ladder_letter(k, s.text))
        return Check(problems + more, len(kripke), True, len(ce.prefix) + len(ce.cycle), replay_s)

    return verify


WORKLOADS = {
    "lha-sampled": lha_sampled,
    "nres-check": nres_check,
    "product-ladder": product_ladder,
}
