import random
import time
from collections import Counter, deque
from fractions import Fraction

import pytest

from lhamc.core import ModelError
from lhamc.explore import Kripke, build_kripke, search
from lhamc.lha import AffineExpr, Assignment, Edge, Lha, LhaSystem, Location, two_reservoir
from lhamc.ltl import Counterexample, CounterexampleStep, parse_formula, validate_counterexample
from lhamc.reservoir import NResSystem, SearchPattern, parse_pattern
from lhamc.syncprod import Component
from oracles import whole_kripke
from test_syncprod import Delegate, random_components

F = Fraction

WILD = SearchPattern()


def replay(system, sol) -> None:
    """Step a solution's path through the model and check where it ends."""
    current = system.initial_state()
    elapsed = F(0)
    for step in sol.path:
        if step.label == "tick":
            current = system.timed_successor(current, step.duration)
            elapsed += step.duration
        else:
            targets = [
                s for label, s in system.discrete_successors(current)
                if label == step.label and system.serialize(s) == step.text
            ]
            assert len(targets) == 1
            current = targets[0]
        assert system.serialize(current) == step.text
    assert system.serialize(current) == sol.text
    assert elapsed == sol.elapsed


def resettable_clocks() -> Lha:
    """Two clocks, and two locations joined both ways by edges that reset
    one clock: runs that reset in different orders meet."""
    rates = {"x": F(1), "y": F(1)}
    edges = tuple(
        Edge(source, target, f"reset-{v}", assignments=(Assignment(v, AffineExpr.make({})),))
        for source, target in (("l0", "l1"), ("l1", "l0"))
        for v in ("x", "y")
    )
    return Lha(("x", "y"), (Location("l0", rates), Location("l1", rates)), edges, "l0", {"x": F(0), "y": F(0)})


def assert_breadth_first_paths(system, increment, time_bound, kripke) -> None:
    """Every state is a wildcard search solution whose path replays edge by
    edge in ``kripke``'s adjacency, is as long as the state's breadth-first
    depth, and ends with the state's first in-edge in ``edges`` order."""
    depth = {kripke.initial: 0}
    queue = deque([kripke.initial])
    while queue:
        i = queue.popleft()
        for e in kripke.adjacency[i]:
            if e.target not in depth:
                depth[e.target] = depth[i] + 1
                queue.append(e.target)
    first = {}
    for e in kripke.edges:
        first.setdefault(e.target, e)
    solutions = search(system, WILD.bind(system), time_bound, increment, max_states=len(kripke))
    assert len(solutions) == len(kripke)
    for sol in solutions:
        i = kripke.initial
        for step in sol.path:
            (edge,) = {
                e for e in kripke.adjacency[i]
                if (e.label, e.duration, kripke.text(e.target)) == (step.label, step.duration, step.text)
            }
            i = edge.target
        assert i == kripke.index_of(sol.text, sol.elapsed)
        assert len(sol.path) == depth[i]
        if sol.path:
            assert edge == first[i]


def pattern(system, hose=None, **levels):
    """A pattern with a hose pin and level pins, bound to ``system``."""
    tanks = tuple((int(key[1:]), F(value)) for key, value in sorted(levels.items()))
    return SearchPattern(hose, tanks).bind(system)


class TestSearch:
    def test_finds_exactly_the_six_reachable_states(self, init2_system):
        # hand-stepped: three ticks to (45,15,15), then two hose moves
        sols = search(init2_system, WILD.bind(init2_system), F(5), F(1))
        assert [s.elapsed for s in sols] == [F(0), F(1), F(2), F(3), F(3), F(3)]
        levels = ["30, rte", "35, rte", "40, rte", "45, rte", "45, rte", "45, rte"]
        for sol, snippet in zip(sols, levels):
            assert snippet in sol.text
        assert [s.text.split(" ")[0] for s in sols] == [
            "hose(10,0)", "hose(10,0)", "hose(10,0)", "hose(10,0)", "hose(10,1)", "hose(10,2)",
        ]

    def test_hose_constraint(self, init2_system):
        sols = search(init2_system, pattern(init2_system, hose=1), F(5), F(1))
        assert len(sols) == 1
        assert sols[0].elapsed == F(3)
        assert sols[0].bindings == {}

    def test_level_constraint_and_bindings(self, init2_system):
        sols = search(init2_system, pattern(init2_system, R1=25), F(5), F(1))
        assert len(sols) == 1
        assert sols[0].bindings == {"R1": "thr:(15,50), rte: 5"}

    def test_larger_increment(self, init2_system):
        sols = search(init2_system, WILD.bind(init2_system), F(10), F(3))
        assert [s.elapsed for s in sols] == [F(0), F(3), F(3), F(3)]

    def test_bound_is_strict(self, init2_system):
        sols = search(init2_system, WILD.bind(init2_system), F(2), F(1))
        assert [s.elapsed for s in sols] == [F(0), F(1)]

    def test_paths_replay(self, init2_system):
        for sol in search(init2_system, WILD.bind(init2_system), F(5), F(1)):
            replay(init2_system, sol)

    def test_paths_are_breadth_first_in_branching_models(self):
        # time-abstract components and products, and a timed automaton, where
        # many states have several in-edges
        cases = [(c, F(1), None) for seed in range(40) for c in random_components(seed)]
        cases.append((LhaSystem(resettable_clocks()), F(1, 2), F(3)))
        searched = merged = 0
        for system, increment, bound in cases:
            kripke = whole_kripke(system, (increment,), bound)
            assert_breadth_first_paths(system, increment, bound, kripke)
            in_degree = Counter(e.target for e in kripke.edges if e.source != e.target)
            searched += len(kripke)
            merged += sum(n > 1 for n in in_degree.values())
        assert searched > 450 and merged > 130, (searched, merged)

    def test_fine_sampling_within_budget(self):
        # every solution's path used to be built during the search, which
        # made it quadratic in the solution count: about 8 s here
        system = LhaSystem(two_reservoir(2, 1, 1, 1, 1, 5, 3))
        start = time.perf_counter()
        sols = search(system, WILD.bind(system), F(100), F(1, 25))
        assert time.perf_counter() - start < 3
        assert len(sols) == 2517
        assert len(sols[-1].path) == 2516
        replay(system, sols[-1])

    def test_path_reads_are_equal(self, init2_system):
        sol = search(init2_system, WILD.bind(init2_system), F(5), F(1))[-1]
        first = sol.path
        assert [step.label for step in first] == ["tick", "tick", "tick", "move-hose"]
        assert sol.path == first

    def test_wildcard_works_on_any_model(self):
        system = LhaSystem(two_reservoir(10, 5, 5, 15, 15, 30, 30))
        sols = search(system, WILD.bind(system), F(2), F(1))
        assert [s.text for s in sols] == ["left,30,30", "left,35,25"]

    def test_reservoir_pattern_rejected_on_other_models(self):
        system = LhaSystem(two_reservoir(10, 5, 5, 15, 15, 30, 30))
        with pytest.raises(ModelError):
            search(system, pattern(system, hose=0), F(2), F(1))

    def test_a_pinned_pattern_binds_through_a_delegating_wrapper(self, init2_system):
        # a wrapper that forwards every attribute, as a tracing one does: bind reads the ring through it
        wrapped, pat = Delegate(init2_system), parse_pattern("hose=0 R1.hth=* R2.hth=20")
        via = search(wrapped, pat.bind(wrapped), F(5), F(1))
        bare = search(init2_system, pat.bind(init2_system), F(5), F(1))
        assert [(s.text, s.clock, s.bindings) for s in via] == [(s.text, s.clock, s.bindings) for s in bare]
        assert [s.bindings for s in via] == [{"R1": "thr:(15,50), hth: 20, rte: 5", "R2": "thr:(15,50), rte: 5"}]

    def test_unknown_reservoir_id_rejected(self, init2_system):
        with pytest.raises(ModelError):
            search(init2_system, pattern(init2_system, R7=10), F(5), F(1))

    def test_zero_increment_rejected(self, init2_system):
        with pytest.raises(ModelError):
            search(init2_system, WILD.bind(init2_system), F(5), F(0))

    def test_state_cap(self, init2_system):
        with pytest.raises(ModelError):
            search(init2_system, WILD.bind(init2_system), F(5), F(1), max_states=3)


class TestMatch:
    """A pattern bound to a model, applied to its states."""

    def test_wildcard_binds_nothing(self, init2_state):
        ring = NResSystem(init2_state)
        assert WILD.bind(ring)(ring.initial_state()) == {}
        lha = LhaSystem(two_reservoir(10, 5, 5, 15, 15, 30, 30))
        assert WILD.bind(lha)(lha.initial_state()) == {}

    def test_mismatch_returns_none(self, init2_state):
        system = NResSystem(init2_state)
        ring = system.initial_state()
        assert pattern(system, hose=2)(ring) is None
        assert pattern(system, R0=99)(ring) is None

    def test_unconstrained_attributes_are_reported(self, init2_state):
        system = NResSystem(init2_state)
        bindings = SearchPattern(reservoirs=((0, None),)).bind(system)(system.initial_state())
        assert bindings == {"R0": "thr:(15,50), hth: 30, rte: 5"}

    def test_reservoir_pattern_needs_a_reservoir_state(self):
        with pytest.raises(ModelError, match="^reservoir-specific patterns only apply to reservoir models$"):
            pattern(LhaSystem(two_reservoir(10, 5, 5, 15, 15, 30, 30)), hose=0)


class TestKripke:
    def test_structure(self, init2_kripke):
        k = init2_kripke
        assert len(k) == 6
        assert k.initial == 0
        shape = sorted((e.source, e.target, e.label, e.duration) for e in k.edges)
        assert shape == [
            (0, 1, "tick", F(1)),
            (1, 2, "tick", F(1)),
            (2, 3, "tick", F(1)),
            (3, 4, "move-hose", F(0)),
            (3, 5, "move-hose", F(0)),
            (4, 5, "move-hose", F(0)),
            (5, 4, "move-hose", F(0)),
        ]
        assert [sorted(l) for l in k.labeling] == [[], [], [], ["one-down"], ["one-down"], ["one-down"]]
        assert k.props == frozenset({"one-down", "macondo"})

    def test_deadlocks_get_stutter_loops(self, init2_system):
        k = build_kripke(init2_system, F(3), F(1))
        assert len(k) == 3  # bound cuts the third tick
        last = k.adjacency[2]
        assert [(e.label, e.duration, e.target) for e in last] == [("stutter", F(0), 2)]

    def test_every_state_has_a_successor(self, init2_kripke):
        assert all(init2_kripke.adjacency[i] for i in range(len(init2_kripke)))

    def test_index_lookup(self, init2_kripke):
        k = init2_kripke
        for i in range(len(k)):
            assert k.index_of(k.texts[i], k.elapsed(i)) == i
        assert k.index_of("nonsense", F(0)) is None

    def test_index_of_reads_the_clock_grid(self, init2_system):
        k = build_kripke(init2_system, F(1), F(1, 10))
        assert k.scale == 10
        assert k.index_of(k.texts[0], F(1, 3)) is None  # between two ticks
        assert k.index_of(k.texts[0], 0) == 0
        i = k.clock.index(3)
        assert k.elapsed(i) == F(3, 10)
        assert k.index_of(k.texts[i], F(3, 10)) == i
        j = k.clock.index(1)
        assert k.index_of(k.texts[j], F(1, 30)) is None  # its numerator over 10 is 1/3, not 1

    @pytest.mark.parametrize("seed", range(12))
    def test_index_of_matches_the_fraction_lookup(self, init2_system, seed):
        # the clock-grid lookup against the Fraction expression it replaced,
        # on timed and time-abstract structures of a ring and of components
        rng = random.Random(seed)
        durations = rng.sample([F(1), F(1, 2), F(1, 3), F(2, 5), F(3, 4), F(5, 6)], rng.randint(1, 3))
        systems = [init2_system, *random_components(seed)]
        for k in [whole_kripke(system, durations, bound) for system in systems for bound in (F(3), None)]:
            def fraction_lookup(text, elapsed):
                n = Fraction(elapsed) * k.scale
                return k.index.get((text, n.numerator)) if n.denominator == 1 else None

            for i in range(len(k)):
                text, now = k.texts[rng.randrange(len(k))], k.elapsed(i)
                off = F(1, rng.choice([7, 11, 2 * k.scale, 3 * k.scale]))
                times = [now, now + off, now - off, -now - 1, int(now), rng.randint(-2, 4)]
                times.append(F(rng.randrange(13), 12))
                for elapsed in times:
                    assert k.index_of(k.texts[i], elapsed) == fraction_lookup(k.texts[i], elapsed)
                    assert k.index_of(text, elapsed) == fraction_lookup(text, elapsed)
                assert k.index_of(k.texts[i], now) == i

    def test_off_grid_lasso_step_is_rejected(self, init2_system):
        k = build_kripke(init2_system, F(1), F(1, 10))
        i = k.clock.index(1)
        ce = Counterexample([], [CounterexampleStep(k.texts[i], F(1, 30), "tick")])
        assert validate_counterexample(k, parse_formula("[] ~ macondo"), ce) is False

    def test_states_are_the_model_states(self, init2_system):
        k = build_kripke(init2_system, F(1), F(1, 10))
        assert k.states[0] is init2_system.initial_state()
        assert all(init2_system.serialize(s) == t for s, t in zip(k.states, k.texts))

    def test_edges_are_grouped_by_source_with_stutters_in_place(self):
        # the deadlocked b is state 1 of 3, so its stutter loop sits between
        # a's edges and c's, not at the end
        rules = (("go-b", "a", "b"), ("go-c", "a", "c"), ("stay", "c", "c"))
        c = Component(("a", "b", "c"), "a", rules, {})
        k = whole_kripke(c, (), None)
        assert k.texts == ["a", "b", "c"]
        assert [(e.source, e.target, e.label) for e in k.edges] == [
            (0, 1, "go-b"), (0, 2, "go-c"), (1, 1, "stutter"), (2, 2, "stay"),
        ]
        assert list(k.edges) == [e for out in k.adjacency for e in out]

    def test_state_cap(self, init2_system):
        assert len(build_kripke(init2_system, F(5), F(1), max_states=6)) == 6
        with pytest.raises(ModelError, match="exceeds 5 states"):
            build_kripke(init2_system, F(5), F(1), max_states=5)
        c = Component(("a", "b", "c"), "a", (("go", "a", "b"), ("go", "b", "c")), {})
        assert len(whole_kripke(c, (), None, max_states=3)) == 3
        with pytest.raises(ModelError, match="exceeds 2 states"):
            whole_kripke(c, (), None, max_states=2)

    def test_a_new_structure_has_discovered_only_the_initial_state(self, init2_system, init2_kripke):
        whole = init2_kripke
        k = Kripke(init2_system, (F(1),), F(5))
        assert k.text(0) == whole.texts[0] and k.elapsed(0) == 0
        assert k.index_of(whole.texts[1], F(1)) is None  # not discovered yet
        assert [e.target for e in k.out(0)] == [1]
        assert k.index_of(whole.texts[1], F(1)) == 1
        assert k.edges == whole.edges and k.labeling == whole.labeling

    def test_untimed_component_deadlock(self):
        only = Component(states=("s",), initial="s", rules=(), props={"p": ("s",)})
        k = build_kripke(only, F(5), F(1))
        assert len(k) == 1
        assert [(e.label, e.target) for e in k.adjacency[0]] == [("stutter", 0)]


def fraction_bfs(system, durations, time_bound):
    """The explorer's breadth-first search with Fraction elapsed time:
    (texts, elapsed times, edges as tuples, each stutter loop right after
    the state with no moves)."""
    initial = system.initial_state()
    found = [(initial, F(0))]
    texts = [system.serialize(initial)]
    index = {(texts[0], F(0)): 0}
    edges = []
    for i, (state, now) in enumerate(found):  # the loop also visits appended states
        moves = [(label, succ, now, F(0)) for label, succ in system.discrete_successors(state)]
        for d in durations:
            later = now if time_bound is None else now + d
            if time_bound is not None and later >= time_bound:
                continue
            after = system.timed_successor(state, d)
            if after is not None:
                moves.append(("tick", after, later, d))
        for label, succ, t, d in moves:
            text = system.serialize(succ)
            if (text, t) not in index:
                index[text, t] = len(found)
                found.append((succ, t))
                texts.append(text)
            edges.append((i, index[text, t], label, d))
        if not moves:
            edges.append((i, i, "stutter", F(0)))
    return texts, [t for _, t in found], edges


class TestMixedDurations:
    """Elapsed time is an integer over the lcm of the durations' denominators;
    a Fraction-time search must give the same structure."""

    @pytest.mark.parametrize("bound", [F(3), F(7, 4), F(1, 6), F(0), None])
    @pytest.mark.parametrize("model", ["lha", "ring"])
    def test_matches_a_fraction_time_search(self, model, bound, init2_state):
        if model == "lha":
            system = LhaSystem(two_reservoir(10, 5, 5, 15, 15, 30, 30))
        else:
            system = NResSystem(init2_state)
        durations = (F(1, 2), F(1, 3))
        k = whole_kripke(system, durations, bound)
        texts, elapsed, edges = fraction_bfs(system, durations, bound)
        assert k.texts == texts
        assert [k.elapsed(i) for i in range(len(k))] == elapsed
        assert [(e.source, e.target, e.label, e.duration) for e in k.edges] == edges
        assert all(k.index_of(t, e) == i for i, (t, e) in enumerate(zip(texts, elapsed)))
