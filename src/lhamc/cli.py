"""Command line front end: simulate, search, check, product-check.

Exit codes: 0 when the command succeeds and any stated expectation holds,
1 when a property is violated or a search expectation fails, 2 for usage,
input, or model errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from .core import ONE, ModelError, TimedTransitionSystem, as_time, parse_rational
from .explore import build_kripke, search
from .lha import LhaSystem, lha_from_json
from .ltl import Counterexample, model_check, parse_formula
from .reservoir import (
    NResState,
    NResSystem,
    ReservoirPattern,
    SearchPattern,
    above_upper,
    nres_from_json,
    validate_pattern,
)
from .syncprod import (
    Component,
    component_from_json,
    component_kripke,
    rt_sync_product,
    safe_prop,
    sync_product,
)


@dataclass
class RunConfig:
    command: str
    model: Optional[str] = None
    left: Optional[str] = None
    right: Optional[str] = None
    formula: Optional[str] = None
    pattern: str = "*"
    time_bound: Fraction = ONE
    increment: Fraction = ONE
    expect_none: bool = False
    format: str = "text"


def load_model(path: str) -> TimedTransitionSystem:
    """Read a model document and dispatch on its "kind"."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ModelError("a model document must be a JSON object")
    kind = doc.get("kind")
    if kind == "nres":
        return NResSystem(nres_from_json(doc))
    if kind == "lha":
        return LhaSystem(lha_from_json(doc))
    if kind == "component":
        return component_from_json(doc)
    raise ModelError(f"unknown model kind {kind!r}")


_PATTERN_TOKEN = re.compile(r"^R(\d+)\.hth=(.+)$")


def parse_pattern(text: str) -> SearchPattern:
    """Pattern mini-language: "*", "hose=N", "R<id>.hth=<rational or *>"."""
    text = text.strip()
    if not text:
        raise ModelError("empty pattern")
    if text == "*":
        return SearchPattern()
    hose: Optional[int] = None
    tanks: dict[int, Optional[Fraction]] = {}
    for token in text.split():
        if token == "*":
            raise ModelError("'*' must be the whole pattern")
        if token.startswith("hose="):
            if hose is not None:
                raise ModelError("duplicate hose constraint")
            try:
                hose = int(token[len("hose="):])
            except ValueError:
                raise ModelError(f"cannot read hose position in {token!r}") from None
            continue
        m = _PATTERN_TOKEN.match(token)
        if m is None:
            raise ModelError(f"cannot read pattern token {token!r}")
        rid = int(m.group(1))
        if rid in tanks:
            raise ModelError(f"duplicate constraint for reservoir {rid}")
        value = m.group(2)
        tanks[rid] = None if value == "*" else parse_rational(value)
    reservoirs = tuple(
        (rid, ReservoirPattern(level=level)) for rid, level in sorted(tanks.items())
    )
    return SearchPattern(hose=hose, reservoirs=reservoirs)


# output formatting


def _state_line(system: TimedTransitionSystem, state: Any, elapsed: Fraction) -> str:
    line = f"{{{system.serialize(state)}}} in time {elapsed}"
    enabled = sorted({label for label, _ in system.discrete_successors(state)})
    if enabled:
        line += "  enabled: " + ",".join(enabled)
    if isinstance(state, NResState):
        over = above_upper(state)
        if over:
            line += "  above-upper: " + ",".join(str(i) for i in over)
    return line


def run_simulate(config: RunConfig) -> int:
    system = load_model(config.model)
    state = system.initial_state()
    elapsed = Fraction(0)
    trace: list[tuple[Any, Fraction]] = [(state, elapsed)]
    while True:
        if elapsed + config.increment >= config.time_bound:
            stopped = "bound"
            break
        succ = system.timed_successor(state, config.increment)
        if succ is None:
            stopped = "blocked"
            break
        state = succ
        elapsed = elapsed + config.increment
        trace.append((state, elapsed))
    if config.format == "json":
        entries = []
        for s, t in trace:
            entry: dict[str, Any] = {
                "state": system.serialize(s),
                "elapsed": str(t),
                "enabled": sorted({label for label, _ in system.discrete_successors(s)}),
            }
            if isinstance(s, NResState):
                entry["above_upper"] = list(above_upper(s))
            entries.append(entry)
        print(json.dumps({"kind": "simulation", "trace": entries, "stopped": stopped}, indent=2))
    else:
        for s, t in trace:
            print(_state_line(system, s, t))
        if stopped == "bound":
            print("Time bound reached")
        else:
            print("Timed evolution blocked")
    return 0


def run_search(config: RunConfig) -> int:
    system = load_model(config.model)
    pattern = parse_pattern(config.pattern)
    validate_pattern(pattern, system)
    solutions = search(system, pattern, config.time_bound, config.increment)
    if config.format == "json":
        print(json.dumps({"kind": "search", "count": len(solutions), "solutions": [
            {
                "state": sol.text,
                "elapsed": str(sol.elapsed),
                "bindings": {k: sol.bindings[k] for k in sorted(sol.bindings)},
                "path": [
                    {"label": st.label, "duration": str(st.duration), "state": st.text}
                    for st in sol.path
                ],
            }
            for sol in solutions
        ]}, indent=2))
    else:
        if not solutions:
            print("No solution")
        else:
            for i, sol in enumerate(solutions, start=1):
                print(f"Solution {i}")
                print(f"S:System --> {sol.text}; TIME_ELAPSED:Time --> {sol.elapsed}")
                for key in sorted(sol.bindings):
                    print(f"{key} --> {sol.bindings[key]}")
            print("No more solutions")
    found = bool(solutions)
    if config.expect_none:
        return 1 if found else 0
    return 0 if found else 1


def format_counterexample(ce: Counterexample, timed: bool) -> str:
    def step_text(step) -> str:
        if timed:
            return f"    {{{step.text} in time {step.elapsed},'{step.label}}}"
        return f"    {{{step.text},'{step.label}}}"

    lines = ["Result ModelCheckResult :", "  counterexample("]
    lines.extend(step_text(s) for s in ce.prefix)
    lines.append("    ,")
    lines.extend(step_text(s) for s in ce.cycle)
    lines.append("  )")
    return "\n".join(lines)


def _ce_json(ce: Counterexample) -> dict:
    def block(steps) -> list:
        return [
            {"state": s.text, "elapsed": str(s.elapsed), "label": s.label}
            for s in steps
        ]

    return {"prefix": block(ce.prefix), "cycle": block(ce.cycle)}


def _report_check(ce: Optional[Counterexample], config: RunConfig, timed: bool) -> int:
    if config.format == "json":
        doc: dict[str, Any] = {"kind": "check", "holds": ce is None}
        if ce is not None:
            doc["counterexample"] = _ce_json(ce)
        print(json.dumps(doc, indent=2))
    else:
        if ce is None:
            print("Result Bool :")
            print("  true")
        else:
            print(format_counterexample(ce, timed))
    return 0 if ce is None else 1


def run_check(config: RunConfig) -> int:
    system = load_model(config.model)
    formula = parse_formula(config.formula)
    kripke = build_kripke(system, config.time_bound, config.increment)
    ce = model_check(kripke, formula)
    return _report_check(ce, config, timed=True)


def _load_component(path: str) -> Component:
    system = load_model(path)
    if not isinstance(system, Component):
        raise ModelError(f"{path}: product operands must be component models")
    return system


def run_product_check(config: RunConfig) -> int:
    left = _load_component(config.left)
    right = _load_component(config.right)
    if left.ticks and right.ticks:
        product = rt_sync_product(left, right)
    else:
        product = sync_product(left, right)
    refills = [p for p in product.props if p.startswith("refill") and p.endswith("?")]
    if refills and "safe" not in product.props:
        product = safe_prop(product)
    formula = parse_formula(config.formula)
    kripke = component_kripke(product)
    ce = model_check(kripke, formula)
    return _report_check(ce, config, timed=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lhamc",
        description="Simulate, search, and model check sampled-time hybrid models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p: argparse.ArgumentParser, with_time: bool) -> None:
        if with_time:
            p.add_argument("--time-bound", required=True, help="explore strictly below this time")
            p.add_argument("--increment", default="1", help="sampling step (default 1)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("simulate", help="deterministic tick-only trace")
    p.add_argument("--model", required=True)
    add_shared(p, with_time=True)

    p = sub.add_parser("search", help="reachable states matching a pattern")
    p.add_argument("--model", required=True)
    p.add_argument("--pattern", default="*", help="'*', 'hose=N', 'R<id>.hth=<rational or *>'")
    p.add_argument("--expect-none", action="store_true", help="succeed only if nothing matches")
    add_shared(p, with_time=True)

    p = sub.add_parser("check", help="LTL model check of one model")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    add_shared(p, with_time=True)

    p = sub.add_parser("product-check", help="LTL model check of a synchronous product")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--formula", required=True)
    add_shared(p, with_time=False)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command, format=args.format)
    if args.command in ("simulate", "search", "check"):
        config.model = args.model
        config.time_bound = as_time(args.time_bound)
        config.increment = as_time(args.increment)
        if config.increment == 0:
            raise ModelError("the sampling increment must be positive")
    if args.command == "search":
        config.pattern = args.pattern
        config.expect_none = args.expect_none
    if args.command == "check":
        config.formula = args.formula
    if args.command == "product-check":
        config.left = args.left
        config.right = args.right
        config.formula = args.formula
    return config


def run(config: RunConfig) -> int:
    if config.command == "simulate":
        return run_simulate(config)
    if config.command == "search":
        return run_search(config)
    if config.command == "check":
        return run_check(config)
    if config.command == "product-check":
        return run_product_check(config)
    raise ModelError(f"unknown command {config.command!r}")


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return run(config_from_args(args))
        except (ModelError, OSError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        except RecursionError:
            # deeply nested formulas and JSON documents
            print("error: input nests too deeply", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
