"""Command line front end: simulate, search, check, product-check.

Exit codes: 0 when the command succeeds and any stated expectation holds,
1 when a property is violated or a search expectation fails, 2 for usage,
input, or model errors, and 141 (128 + SIGPIPE), with nothing on standard
error, when the reader of standard output closes it early, as ``head`` does.
Model warnings go to standard error after the output, with exit 0 or 1 only;
an exit 2 prints its one ``error:`` line alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from fractions import Fraction
from functools import reduce
from json.encoder import encode_basestring_ascii as quote
from typing import Optional

from .core import ModelError, TimedTransitionSystem, as_time, fraction_text, fraction_texts, json_int
from .explore import Kripke, search
from .lha import LhaSystem, lha_from_json
from .ltl import Counterexample, model_check, parse_formula
from .reservoir import NResSystem, nres_from_json, parse_pattern
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
        doc = json.load(fh, parse_int=json_int)  # a numeral past the digit limit fails where it is read
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


def _sampling(args: argparse.Namespace) -> tuple[Fraction, Fraction]:
    """The time bound and the sampling increment of a timed subcommand."""
    return as_time(args.time_bound), as_time(args.increment, "the sampling increment")


def run_simulate(args: argparse.Namespace) -> int:
    time_bound, increment = _sampling(args)
    system = load_model(args.model)
    # the run's k-th state is at k increments; the step from k to k + 1 is
    # taken while (k + 1) * increment < time_bound, that is while k < last
    last = math.ceil(time_bound / increment) - 1
    segments = system.timed_trace(system.initial_state(), increment, last)
    count = sum(len(texts) for texts, _, _ in segments)
    stopped = "bound" if count > last else "blocked"
    times = iter(fraction_texts(0, increment.numerator, increment.denominator, count))
    if args.format == "json":
        entries = [
            {"state": text, "elapsed": next(times), "enabled": enabled, **facts}
            for texts, enabled, facts in segments
            for text in texts
        ]
        print(json.dumps({"kind": "simulation", "trace": entries, "stopped": stopped}, indent=2))
    else:
        lines = []
        for texts, enabled, facts in segments:
            tail = "  enabled: " + ",".join(enabled) if enabled else ""
            for name, items in facts.items():
                if items:
                    tail += f"  {name.replace('_', '-')}: " + ",".join(map(str, items))
            lines += ["{" + text + "} in time " + time + tail for text, time in zip(texts, times)]
        lines.append("Time bound reached" if stopped == "bound" else "Timed evolution blocked")
        print("\n".join(lines))
    return 0


def run_search(args: argparse.Namespace) -> int:
    time_bound, increment = _sampling(args)
    pattern = parse_pattern(args.pattern)
    system = load_model(args.model)
    solutions = search(system, pattern.bind(system), time_bound, increment)
    if args.format == "json":
        print(json.dumps({"kind": "search", "count": len(solutions), "solutions": [
            {
                "state": sol.text,
                "elapsed": fraction_text(sol.clock, sol.scale),
                "bindings": {k: sol.bindings[k] for k in sorted(sol.bindings)},
                "path": [
                    {"label": st.label, "duration": str(st.duration), "state": st.text}
                    for st in sol.path
                ],
            }
            for sol in solutions
        ]}, indent=2))
    else:
        lines = []  # printed as one document
        for i, sol in enumerate(solutions, start=1):
            time = fraction_text(sol.clock, sol.scale)
            lines.append(f"Solution {i}\nS:System --> {sol.text}; TIME_ELAPSED:Time --> {time}")
            if sol.bindings:  # saves a sort and a list per hit of a pattern that binds nothing
                lines += [f"{key} --> {sol.bindings[key]}" for key in sorted(sol.bindings)]
        print("\n".join([*lines, "No more solutions"]) if solutions else "No solution")
    found = bool(solutions)
    if args.expect_none:
        return 1 if found else 0
    return 0 if found else 1


def format_counterexample(ce: Counterexample, timed: bool) -> str:
    def step_text(step) -> str:
        if timed:
            return f"    {{{step.text} in time {fraction_text(step.clock, step.scale)},'{step.label}}}"
        return f"    {{{step.text},'{step.label}}}"

    lines = ["Result ModelCheckResult :", "  counterexample("]
    lines.extend(step_text(s) for s in ce.prefix)
    lines.append("    ,")
    lines.extend(step_text(s) for s in ce.cycle)
    lines.append("  )")
    return "\n".join(lines)


def check_json(ce: Optional[Counterexample]) -> str:
    """``json.dumps(doc, indent=2)`` of the check document, written directly
    with ``json``'s own string escaping: the indented encoder is pure Python,
    and a lasso can have thousands of steps."""
    if ce is None:
        return '{\n  "kind": "check",\n  "holds": true\n}'

    def block(steps) -> str:
        items = ",\n".join(
            f'      {{\n        "state": {quote(s.text)},\n'
            f'        "elapsed": {quote(fraction_text(s.clock, s.scale))},\n'
            f'        "label": {quote(s.label)}\n      }}'
            for s in steps
        )
        return f"[\n{items}\n    ]" if steps else "[]"

    return (f'{{\n  "kind": "check",\n  "holds": false,\n  "counterexample": {{\n    "prefix": {block(ce.prefix)},\n'
            f'    "cycle": {block(ce.cycle)}\n  }}\n}}')


def _report_check(ce: Optional[Counterexample], args: argparse.Namespace, timed: bool) -> int:
    if args.format == "json":
        print(check_json(ce))
    else:
        if ce is None:
            print("Result Bool :")
            print("  true")
        else:
            print(format_counterexample(ce, timed))
    return 0 if ce is None else 1


def run_check(args: argparse.Namespace) -> int:
    time_bound, increment = _sampling(args)
    formula = parse_formula(args.formula)
    system = load_model(args.model)
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
    formula = parse_formula(args.formula)
    components = [_load_component(path) for path in _operand_paths(args)]
    # folded from the left, so that texts nest as two operands' do; when any
    # operand has no ticks none pair up: the untimed product
    product = reduce(rt_sync_product, components)
    if refill_props(product) and "safe" not in product.propositions():
        product = safe_prop(product)
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


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    held = []
    with warnings.catch_warnings():
        # model warnings are printed only with a result, never before an error
        warnings.showwarning = lambda message, *_: held.append(message)
        try:
            code = args.handler(args)
        except BrokenPipeError:
            # the rest of the output, flushed at exit, goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
        except (ModelError, OSError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        except RecursionError:
            # deeply nested JSON documents; formulas fail closed with ModelError
            print("error: input nests too deeply", file=sys.stderr)
            return 2
    for message in held:
        print(f"warning: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
