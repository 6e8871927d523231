"""Independent test oracles for the temporal logic and exploration engines.

Nothing here uses the automaton pipeline under test: formulas are evaluated
on ultimately periodic words by direct fixpoint computation over the finitely
many positions, and counterexample existence is decided by brute-force
enumeration of lassos in the structure.
"""

from __future__ import annotations

import random
from typing import Optional

from lhamc.explore import Kripke
from lhamc.ltl.formula import (
    Always,
    And,
    Bottom,
    Eventually,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Top,
    Until,
    temporal_count,
)
from lhamc.syncprod import Component, component_kripke

Letter = frozenset[str]


def eval_on_lasso(formula: Formula, prefix: list[Letter], cycle: list[Letter]) -> bool:
    """Truth of the formula at position 0 of the word prefix . cycle^omega.

    Computed by fixpoint iteration over the finite position set: least
    fixpoints for until/eventually, greatest for release/always.
    """
    if not cycle:
        raise ValueError("lasso cycle must be nonempty")
    word = list(prefix) + list(cycle)
    n = len(word)
    loop = len(prefix)

    def nxt(i: int) -> int:
        return i + 1 if i + 1 < n else loop

    memo: dict[Formula, list[bool]] = {}

    def fixpoint(start: bool, step) -> list[bool]:
        v = [start] * n
        for _ in range(n + 1):
            nv = [step(i, v) for i in range(n)]
            if nv == v:
                break
            v = nv
        return v

    def vals(f: Formula) -> list[bool]:
        got = memo.get(f)
        if got is not None:
            return got
        match f:
            case Top():
                v = [True] * n
            case Bottom():
                v = [False] * n
            case Prop(name):
                v = [name in word[i] for i in range(n)]
            case Not(a):
                v = [not x for x in vals(a)]
            case And(a, b):
                v = [x and y for x, y in zip(vals(a), vals(b))]
            case Or(a, b):
                v = [x or y for x, y in zip(vals(a), vals(b))]
            case Implies(a, b):
                v = [(not x) or y for x, y in zip(vals(a), vals(b))]
            case Next(a):
                va = vals(a)
                v = [va[nxt(i)] for i in range(n)]
            case Eventually(a):
                va = vals(a)
                v = fixpoint(False, lambda i, cur: va[i] or cur[nxt(i)])
            case Always(a):
                va = vals(a)
                v = fixpoint(True, lambda i, cur: va[i] and cur[nxt(i)])
            case Until(a, b):
                va, vb = vals(a), vals(b)
                v = fixpoint(False, lambda i, cur: vb[i] or (va[i] and cur[nxt(i)]))
            case Release(a, b):
                va, vb = vals(a), vals(b)
                v = fixpoint(True, lambda i, cur: vb[i] and (va[i] or cur[nxt(i)]))
            case _:
                raise ValueError(f"not a formula: {f!r}")
        memo[f] = v
        return v

    return vals(formula)[0]


def make_kripke(successors: dict[int, list[int]], labeling, props: set[str]) -> Kripke:
    """Tiny hand-specified structure, explored from s0 (only the states s0
    reaches are discovered, so indices follow discovery order).

    Its component has states s0, s1, ...; labeling maps state index to its
    proposition set, given either as a list or as a dict keyed by index.  The
    edge from s<i> to its successor s<j> is labeled ``e<i>-<j>``, with one
    ``~`` after ``e<i>`` per earlier successor: a component lists a state's
    moves by label, and these labels keep the given order.
    """
    if isinstance(labeling, dict):
        labeling = [labeling.get(i, set()) for i in range(max(labeling) + 1)]
    names = [f"s{i}" for i in range(len(labeling))]
    rules = [
        (f"e{src}{'~' * k}-{dst}", names[src], names[dst])
        for src, targets in successors.items()
        for k, dst in enumerate(targets)
    ]
    holds = {p: [names[i] for i, letter in enumerate(labeling) if p in letter] for p in props}
    return component_kripke(Component(names, names[0], rules, holds))


def lasso_letters(kripke: Kripke, prefix: list[int], cycle: list[int]) -> tuple[list[Letter], list[Letter]]:
    return [kripke.labeling[i] for i in prefix], [kripke.labeling[i] for i in cycle]


def counterexample_letters(kripke: Kripke, ce) -> tuple[list[Letter], list[Letter]]:
    """Letter trace of a checker counterexample, resolved against the structure."""

    def index(step) -> int:
        i = kripke.index_of(step.text, step.elapsed)
        if i is None:
            raise ValueError(f"counterexample step not in structure: {step!r}")
        return i

    return lasso_letters(kripke, [index(s) for s in ce.prefix], [index(s) for s in ce.cycle])


def lasso_budget(states: int, formula: Formula) -> int:
    """The walk length ``2 * states * (temporal operators + 1)``."""
    return 2 * states * (temporal_count(formula) + 1)


def find_violating_lasso(
    kripke: Kripke, formula: Formula, max_len: Optional[int] = None
) -> Optional[tuple[list[int], list[int]]]:
    """Some lasso from the initial state whose trace falsifies the formula.

    Exhausts every walk up to max_len states, closing a cycle at each revisit.
    Complete up to the length budget; callers keep structures small enough
    that the budget covers every shape that matters.  The default budget is
    :func:`lasso_budget` of the structure's size.
    """
    if max_len is None:
        max_len = lasso_budget(len(kripke), formula)
    seen_traces: set = set()

    def walk(path: list[int]) -> Optional[tuple[list[int], list[int]]]:
        last = path[-1]
        for e in kripke.adjacency[last]:
            t = e.target
            for j in range(len(path)):
                if path[j] == t:
                    pre, cyc = path[:j], path[j:]
                    key = (
                        tuple(kripke.labeling[i] for i in pre),
                        tuple(kripke.labeling[i] for i in cyc),
                    )
                    if key in seen_traces:
                        continue
                    seen_traces.add(key)
                    letters = lasso_letters(kripke, pre, cyc)
                    if not eval_on_lasso(formula, letters[0], letters[1]):
                        return pre, cyc
            if len(path) < max_len:
                found = walk(path + [t])
                if found is not None:
                    return found
        return None

    return walk([kripke.initial])


def all_two_state_kripkes(props=("p", "q")):
    """Every total structure on two states over the given propositions."""
    out = []
    choices = [[0], [1], [0, 1]]
    subsets = []
    for mask in range(2 ** len(props)):
        subsets.append({props[i] for i in range(len(props)) if mask >> i & 1})
    for succ0 in choices:
        for succ1 in choices:
            for l0 in subsets:
                for l1 in subsets:
                    out.append(make_kripke({0: succ0, 1: succ1}, [l0, l1], set(props)))
    return out


def random_functional_kripke(rng: random.Random, n: int, props=("p", "q")) -> Kripke:
    """Exactly one successor per state: the structure has a single run."""
    successors = {i: [rng.randrange(n)] for i in range(n)}
    labeling = [{p for p in props if rng.random() < 0.5} for _ in range(n)]
    return make_kripke(successors, labeling, set(props))


def random_branching_kripke(rng: random.Random, n: int, props=("p", "q")) -> Kripke:
    """One state branches two ways, the rest are deterministic."""
    branch = rng.randrange(n)
    successors = {}
    for i in range(n):
        if i == branch:
            others = [j for j in range(n) if j != i] or [i]
            a = rng.choice(others)
            b = rng.choice(others)
            successors[i] = [a, b] if a != b else [a]
        else:
            successors[i] = [rng.randrange(n)]
    labeling = [{p for p in props if rng.random() < 0.5} for _ in range(n)]
    return make_kripke(successors, labeling, set(props))


def random_formula(rng: random.Random, atoms=("p", "q"), temporal_budget: int = 2, depth: int = 0) -> Formula:
    """Random formula with at most temporal_budget temporal operators."""
    unary_temporal = [Next, Always, Eventually]
    binary_temporal = [Until, Release]
    options = ["atom", "atom", "not", "and", "or", "implies"]
    if temporal_budget > 0:
        options += ["unary_t", "unary_t", "binary_t"]
    if depth >= 4:
        options = ["atom"]
    pick = rng.choice(options)
    if pick == "atom":
        roll = rng.random()
        if roll < 0.05:
            return Top()
        if roll < 0.1:
            return Bottom()
        return Prop(rng.choice(atoms))
    if pick == "not":
        return Not(random_formula(rng, atoms, temporal_budget, depth + 1))
    if pick == "unary_t":
        op = rng.choice(unary_temporal)
        return op(random_formula(rng, atoms, temporal_budget - 1, depth + 1))
    if pick == "binary_t":
        op = rng.choice(binary_temporal)
        left_budget = rng.randint(0, temporal_budget - 1)
        return op(
            random_formula(rng, atoms, left_budget, depth + 1),
            random_formula(rng, atoms, temporal_budget - 1 - left_budget, depth + 1),
        )
    op = {"and": And, "or": Or, "implies": Implies}[pick]
    left_budget = rng.randint(0, temporal_budget)
    return op(
        random_formula(rng, atoms, left_budget, depth + 1),
        random_formula(rng, atoms, temporal_budget - left_budget, depth + 1),
    )


def random_letters(rng: random.Random, atoms=("p", "q"), max_prefix=3, max_cycle=4):
    def letter() -> Letter:
        return frozenset(a for a in atoms if rng.random() < 0.5)

    prefix = [letter() for _ in range(rng.randint(0, max_prefix))]
    cycle = [letter() for _ in range(rng.randint(1, max_cycle))]
    return prefix, cycle
