"""In-memory spans around calls into lhamc's layers, for the traced pass.

Nothing here edits the program.  While a traced job runs, module-level
functions of the layers are replaced by timing wrappers (and restored when the
job ends), and the model objects those functions hand out are wrapped in
delegating proxies that time successor, serialize and proposition calls.

A span is ``(name, start, end, parent, job)``: ``parent`` is the index of the
enclosing span or -1, ``job`` the key of the job that caused it.  The program
is single-threaded and every span is closed before its parent, so the child
spans of one span never overlap and self time is simply the span's duration
minus the summed durations of its direct children.

Spans are recorded in wall seconds; ``totals`` converts them to reference
seconds (see ``reference.py``) with each job's factor in ``Tracer.scale``.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator


class Tracer:
    """Spans kept as parallel arrays (24 bytes each), since the traced pass
    records one for every successor, serialize and proposition call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.jobs: list[str] = []
        self.scale = array("d")  # per job: reference seconds per wall second
        self.name = array("H")
        self.parent = array("i")
        self.job_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.job: int | None = None  # spans and counts are kept only while set
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        if self.job is None:
            return fn(*args, **kwargs)
        index = len(self.start)
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job_of.append(self.job)
        self.end.append(0.0)
        self._stack.append(index)
        start = perf_counter()
        self.start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.job is not None:
            self.counts[name] += value

    @contextlib.contextmanager
    def job_scope(self, job: str, lib: Any) -> Iterator[None]:
        """Trace one job: patch the layers, record under ``job``, then restore."""
        undo = _patch(self, lib)
        self.job = len(self.jobs)
        self.jobs.append(job)
        self.scale.append(1.0)
        try:
            yield
        finally:
            self.job = None
            for module, attr, original in undo:
                setattr(module, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Summed duration, summed self time (both in reference seconds) and
        number of spans, by name."""
        scale = self.scale
        duration = [(e - s) * scale[j] for s, e, j in zip(self.start, self.end, self.job_of)]
        child = [0.0] * len(duration)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += duration[i]
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, name_id in enumerate(self.name):
            name = self.names[name_id]
            total[name] += duration[i]
            own[name] += duration[i] - child[i]
            calls[name] += 1
        return total, own, calls

    def write(self, path: str) -> None:
        """Spans as tab-separated lines; times in seconds from the first span."""
        origin = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - origin:.7f}"
                    f"\t{self.end[i] - origin:.7f}\t{self.parent[i]}\t{self.jobs[self.job_of[i]]}\n"
                )


class ModelProxy:
    """Delegates to a model, timing the calls the exploration engines make."""

    def __init__(self, model: Any, layer: str, tracer: Tracer) -> None:
        self._model = model
        self._tracer = tracer
        self._succ = layer + ".succ"
        self._serialize = layer + ".serialize"
        self._label = layer + ".label"

    def __getattr__(self, name: str) -> Any:
        return getattr(self._model, name)

    def discrete_successors(self, state: Any) -> Any:
        return self._tracer.call(self._succ, self._model.discrete_successors, state)

    def timed_successor(self, state: Any, delta: Any) -> Any:
        return self._tracer.call(self._succ, self._model.timed_successor, state, delta)

    def serialize(self, state: Any) -> str:
        return self._tracer.call(self._serialize, self._model.serialize, state)

    def prop_holds(self, state: Any, prop: str) -> bool:
        return self._tracer.call(self._label, self._model.prop_holds, state, prop)


def _layer_of(model: Any, lib: Any) -> str:
    if isinstance(model, lib.lha.LhaSystem):
        return "lha"
    if isinstance(model, lib.reservoir.NResSystem):
        return "reservoir"
    return "syncprod"


def _patch(tracer: Tracer, lib: Any) -> list[tuple[Any, str, Any]]:
    """Replace each traced function in every module of ``lib`` that binds it."""

    def proxied(model: Any) -> Any:
        if isinstance(model, ModelProxy):
            return model
        return ModelProxy(model, _layer_of(model, lib), tracer)

    def after_search(result: Any, args: tuple) -> None:
        tracer.count("explore.solutions", len(result))
        tracer.count("explore.path_steps", sum(len(s.path) for s in result))

    def after_kripke(kripke: Any, args: tuple) -> None:
        successor_edges = sum(1 for e in kripke.edges if e.label != lib.explore.STUTTER)
        tracer.count("explore.states", len(kripke))
        tracer.count("explore.edges", len(kripke.edges))
        tracer.count("explore.successor_edges", successor_edges)
        tracer.count("explore.known_targets", successor_edges - (len(kripke) - 1))

    def after_buchi(ba: Any, args: tuple) -> None:
        tracer.count("ltl.buchi_states", ba.size)
        tracer.count("ltl.buchi_transitions", len(ba.transitions))

    def after_product(product: Any, args: tuple) -> None:
        tracer.count("syncprod.product_states", len(product.states))
        tracer.count("syncprod.product_rules", len(product.rules))

    def after_component_kripke(kripke: Any, args: tuple) -> None:
        tracer.count("syncprod.reachable", len(kripke))
        tracer.count("syncprod.materialized", len(args[0].states))

    # (function, span name, hook on the result, wrap the result in a proxy)
    targets = [
        (lib.cli.load_model, "cli.load", None, True),
        (lib.explore.search, "explore.search", after_search, False),
        (lib.explore.build_kripke, "explore.kripke", after_kripke, False),
        (lib.ltl.formula.parse_formula, "ltl.formula.parse", None, False),
        (lib.ltl.buchi.to_buchi, "ltl.buchi", after_buchi, False),
        (lib.ltl.checker.model_check, "ltl.checker", None, False),
        (lib.syncprod.rt_sync_product, "syncprod.product", after_product, True),
        (lib.syncprod.safe_prop, "syncprod.product", None, True),
        (lib.syncprod.component_kripke, "syncprod.kripke", after_component_kripke, False),
    ]
    undo = []
    modules = [
        lib.cli, lib.explore, lib.lha, lib.reservoir, lib.syncprod,
        lib.ltl, lib.ltl.formula, lib.ltl.buchi, lib.ltl.checker,
    ]
    for original, span, hook, wrap in targets:
        wrapper = _wrapper(tracer, original, span, hook, proxied if wrap else None)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
    return undo


def _wrapper(tracer: Tracer, fn: Callable, span: str, hook: Any, wrap: Any) -> Callable:
    def traced(*args: Any, **kwargs: Any) -> Any:
        result = tracer.call(span, fn, *args, **kwargs)
        if hook is not None:
            hook(result, args)
        return wrap(result) if wrap is not None else result

    traced.__name__ = getattr(fn, "__name__", span)
    return traced
