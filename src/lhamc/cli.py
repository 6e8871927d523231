"""Command line front end: simulate, search, check, product-check.

Exit codes: 0 when the command succeeds and any stated expectation holds,
1 when a property is violated or a search expectation fails, 2 for usage,
input, or model errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from fractions import Fraction
from functools import reduce
from typing import Any, Optional

from .core import ModelError, TimedTransitionSystem, as_time, fraction_text
from .explore import Kripke, search
from .lha import LhaSystem, lha_from_json
from .ltl import Counterexample, model_check, parse_formula
from .reservoir import NResSystem, nres_from_json, parse_pattern, validate_pattern
from .syncprod import (
    Component,
    component_from_json,
    component_kripke,
    refill_props,
    rt_sync_product,
    safe_prop,
)


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


# output formatting


def _state_line(system: TimedTransitionSystem, state: Any, elapsed: str) -> str:
    line = f"{{{system.serialize(state)}}} in time {elapsed}"
    enabled = system.enabled_labels(state)
    if enabled:
        line += "  enabled: " + ",".join(enabled)
    for name, facts in system.annotations(state).items():
        if facts:
            line += f"  {name.replace('_', '-')}: " + ",".join(map(str, facts))
    return line


def _sampling(args: argparse.Namespace) -> tuple[Fraction, Fraction]:
    """The time bound and the sampling increment of a timed subcommand."""
    time_bound = as_time(args.time_bound)
    increment = as_time(args.increment)
    if increment == 0:
        raise ModelError("the sampling increment must be positive")
    return time_bound, increment


def run_simulate(args: argparse.Namespace) -> int:
    time_bound, increment = _sampling(args)
    system = load_model(args.model)
    # trace[k] is at k increments; the step from k to k + 1 is taken while
    # (k + 1) * increment < time_bound, that is while k < last
    last = math.ceil(time_bound / increment) - 1
    state = system.initial_state()
    trace = [state]
    stopped = "bound"
    while len(trace) <= last:
        state = system.timed_successor(state, increment)
        if state is None:
            stopped = "blocked"
            break
        trace.append(state)
    num, den = increment.numerator, increment.denominator
    trace_times = [(s, fraction_text(k * num, den)) for k, s in enumerate(trace)]
    if args.format == "json":
        entries = [
            {
                "state": system.serialize(s),
                "elapsed": t,
                "enabled": system.enabled_labels(s),
                **system.annotations(s),
            }
            for s, t in trace_times
        ]
        print(json.dumps({"kind": "simulation", "trace": entries, "stopped": stopped}, indent=2))
    else:
        lines = [_state_line(system, s, t) for s, t in trace_times]
        lines.append("Time bound reached" if stopped == "bound" else "Timed evolution blocked")
        print("\n".join(lines))
    return 0


def run_search(args: argparse.Namespace) -> int:
    time_bound, increment = _sampling(args)
    system = load_model(args.model)
    pattern = parse_pattern(args.pattern)
    validate_pattern(pattern, system)
    solutions = search(system, pattern, time_bound, increment)
    if args.format == "json":
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
    if args.expect_none:
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


def _report_check(ce: Optional[Counterexample], args: argparse.Namespace, timed: bool) -> int:
    if args.format == "json":
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


def run_check(args: argparse.Namespace) -> int:
    time_bound, increment = _sampling(args)
    system = load_model(args.model)
    formula = parse_formula(args.formula)
    kripke = Kripke(system, (increment,), time_bound)
    ce = model_check(kripke, formula)
    return _report_check(ce, args, timed=True)


def _load_component(path: str) -> Component:
    system = load_model(path)
    if not isinstance(system, Component):
        raise ModelError(f"{path}: product operands must be component models")
    return system


def _operand_paths(args: argparse.Namespace) -> list[str]:
    """The product's operands: --left and --right, or every --component."""
    paths = args.component
    if args.left is not None or args.right is not None:
        if paths:
            raise ModelError("give the operands as --left/--right or as --component, not both")
        paths = [p for p in (args.left, args.right) if p is not None]
    if len(paths) < 2:
        raise ModelError("a product needs two operands: --left and --right, or two or more --component")
    return paths


def run_product_check(args: argparse.Namespace) -> int:
    components = [_load_component(path) for path in _operand_paths(args)]
    # folded from the left, so that texts nest as two operands' do; when any
    # operand has no ticks none pair up: the untimed product
    product = reduce(rt_sync_product, components)
    if refill_props(product) and "safe" not in product.propositions():
        product = safe_prop(product)
    formula = parse_formula(args.formula)
    kripke = component_kripke(product)
    ce = model_check(kripke, formula)
    return _report_check(ce, args, timed=False)


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
    p.set_defaults(handler=run_simulate)
    p.add_argument("--model", required=True)
    add_shared(p, with_time=True)

    p = sub.add_parser("search", help="reachable states matching a pattern")
    p.set_defaults(handler=run_search)
    p.add_argument("--model", required=True)
    p.add_argument("--pattern", default="*", help="'*', 'hose=N', 'R<id>.hth=<rational or *>'")
    p.add_argument("--expect-none", action="store_true", help="succeed only if nothing matches")
    add_shared(p, with_time=True)

    p = sub.add_parser("check", help="LTL model check of one model")
    p.set_defaults(handler=run_check)
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    add_shared(p, with_time=True)

    p = sub.add_parser("product-check", help="LTL model check of a synchronous product")
    p.set_defaults(handler=run_product_check)
    p.add_argument("--left", help="first of two operands")
    p.add_argument("--right", help="second of two operands")
    p.add_argument(
        "--component", action="append", default=[], help="an operand; give two or more, in product order"
    )
    p.add_argument("--formula", required=True)
    add_shared(p, with_time=False)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.handler(args)
        except (ModelError, OSError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        except RecursionError:
            # deeply nested JSON documents; formulas fail closed with ModelError
            print("error: input nests too deeply", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
