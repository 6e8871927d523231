"""Checking while discovering: on a ``Kripke``, discovered as it is read, the
check expands only the states it reads, and it gives the same verdicts and
counterexamples as on the structure ``whole_kripke`` expands whole.  A timed
check is decided one clock layer at a time, expanding only states whose
automaton states step on and leaping over a model's quiet stretches, and it
runs the nested DFS from the initial state only to build a counterexample;
its verdicts and counterexamples are those of the nested DFS alone,
``reference.nested_model_check``.  A lasso replays through its leaps without
indexing their states, as ``reference.indexed_replay`` would replay it over
every state."""

import random
from collections import Counter
from fractions import Fraction as F
from functools import reduce

import pytest

from lhamc.core import ModelError, TimedTransitionSystem
from lhamc.explore import STUTTER, TICK, Kripke
from lhamc.lha import LhaSystem, two_reservoir
from lhamc.ltl import (
    Counterexample,
    CounterexampleStep,
    checker,
    model_check,
    parse_formula,
    props_of,
    validate_counterexample,
)
from lhamc.reservoir import MOVE_HOSE, PROPOSITIONS, Hose, NResState, Reservoir
from lhamc.syncprod import abstract_reservoir, component_kripke, rt_sync_product, safe_prop
from conftest import three_tank_state
from oracles import counterexample_letters, eval_on_lasso, find_violating_lasso, random_formula, whole_kripke
from reference import indexed_replay, kripke_labeling, nested_model_check
from test_lha import random_automaton
from test_reservoir import quiet_system, random_ring, tenths_ring
from test_syncprod import random_components


class Located(LhaSystem):
    """An automaton with one proposition per location, ``at-<name>``."""

    def propositions(self):
        return frozenset(f"at-{loc.name}" for loc in self.lha.locations)

    def prop_holds(self, state, prop):
        return prop == f"at-{state.location}"


class Counted:
    """Delegates to a model, counting the states it is asked to expand, the
    ticks it is asked to take and the propositions it is asked to evaluate,
    and how often each state, by id, is asked for its quiet stretch or a
    proposition."""

    def __init__(self, model):
        self._model = model
        self.expanded = 0
        self.ticked = 0
        self.evaluated = 0
        self.quieted = Counter()
        self.asked = Counter()

    def __getattr__(self, name):
        return getattr(self._model, name)

    def discrete_successors(self, state):
        self.expanded += 1
        return self._model.discrete_successors(state)

    def timed_successor(self, state, delta):
        self.ticked += 1
        return self._model.timed_successor(state, delta)

    def quiet(self, state, delta, limit):
        self.quieted[id(state)] += 1
        return self._model.quiet(state, delta, limit)

    def prop_holds(self, state, prop):
        self.evaluated += 1
        self.asked[id(state)] += 1
        return self._model.prop_holds(state, prop)


class Branches(TimedTransitionSystem):
    """Parallel timelines: state (b, v) is branch b after v ticks.  A tick
    adds 1 to v and a move to another branch keeps it, so a move may land
    inside that branch's quiet stretch, at the same clock.  Each branch's
    letter changes, and it has moves and blocked ticks, at seeded places;
    ``quiet`` leaps at most ``reach[b][v]`` ticks, so some stretches end
    before the letter changes.  ``leaps`` keeps each leap it gave."""

    def __init__(self, rng: random.Random, horizon: int):
        self.horizon = horizon
        letters = [frozenset(), frozenset("p"), frozenset("q"), frozenset("pq")]
        self.letters, self.moves, self.blocked, self.reach = [], [], [], []
        branches = rng.randint(2, 4)
        for b in range(branches):
            row = [rng.choice(letters)]
            for _ in range(horizon):
                row.append(rng.choice(letters) if rng.random() < 0.25 else row[-1])
            self.letters.append(row)
            others = [c for c in range(branches) if c != b]
            self.moves.append([sorted(rng.sample(others, rng.randint(1, len(others)))) if rng.random() < 0.2 else []
                               for _ in range(horizon + 1)])
            self.blocked.append([rng.random() < 0.04 for _ in range(horizon + 1)])
            self.reach.append([rng.choice((2, 3, 5, horizon)) for _ in range(horizon + 1)])
        self.leaps = {}

    def initial_state(self):
        return (0, 0)

    def discrete_successors(self, state):
        b, v = state
        return [(f"go{c}", (c, v)) for c in self.moves[b][v]]

    def timed_successor(self, state, delta):
        b, v = state
        return state if delta == 0 else None if self.blocked[b][v] else (b, v + 1)

    def quiet(self, state, delta, limit):
        b, v = state
        n = 0
        while (n < limit and not self.moves[b][v + n] and not self.blocked[b][v + n]
               and self.letters[b][v + n] == self.letters[b][v]):
            n += 1
        k = min(n, self.reach[b][v])
        if k < 2:
            return None
        self.leaps[state] = k
        return k, (b, v + k)

    def prop_holds(self, state, prop):
        b, v = state
        return prop in self.letters[b][v]

    def serialize(self, state):
        return "%d@%d" % state

    def propositions(self):
        return frozenset("pq")

    def merged(self) -> bool:
        """Whether a state strictly inside a leap was itself asked to leap."""
        return any(0 < v - w < k for b, v in self.leaps for (c, w), k in self.leaps.items() if c == b)


def random_models(seed: int):
    """(system, durations, time bound) for a seeded ring, automaton, and two
    components with their untimed and timed products."""
    rng = random.Random(seed)
    try:
        ring = quiet_system(random_ring(rng))
    except ModelError:  # a hose below a leak: the ring is rejected
        pass
    else:
        yield ring, (F(1, 2),), F(3)
    yield Located(random_automaton(rng)), (F(1), F(1, 2)), F(2)
    for c in random_components(seed):
        yield c, c.tick_durations(), None


def timed_models(seed: int):
    """(system, durations, time bound) for seeded rings sampled every 1, 1/3
    and 1/10, an automaton sampled at two durations and one sampled every
    1/3, which leaps, and two components with their untimed and timed
    products, each under a time bound."""
    rng = random.Random(seed)
    for increment in (F(1), F(1, 3), F(1, 10)):
        try:
            yield quiet_system(random_ring(rng)), (increment,), F(2)
        except ModelError:  # a hose below a leak: the ring is rejected
            pass
    yield Located(random_automaton(rng)), (F(1), F(1, 2)), F(2)
    yield Located(random_automaton(rng)), (F(1, 3),), F(2)
    for c in random_components(seed):
        yield c, c.tick_durations(), F(3)


# the benchmark's ring patterns whose negations have more than two automaton states
RING_PATTERNS = tuple(map(parse_formula, (
    "[] (one-down -> <> ~ one-down)",
    "(~ macondo U one-down) \\/ [] ~ macondo",
    "([] <> one-down /\\ [] <> ~ one-down) -> [] <> macondo",
    "[] <> one-down -> [] <> ~ macondo",
)))
FAIR_MACONDO = RING_PATTERNS[2]


def searches(monkeypatch) -> list:
    """The first node of every nested search the checker runs from now on."""
    calls = []

    def counted(init, succs, accepting):
        calls.append(init)
        return accepting_cycle(init, succs, accepting)

    accepting_cycle = checker._accepting_cycle
    monkeypatch.setattr(checker, "_accepting_cycle", counted)
    return calls


def ladder(k: int):
    """``[] safe`` is refuted on it by a 30-step lasso at k = 14."""
    return safe_prop(reduce(rt_sync_product, [abstract_reservoir(i) for i in range(1, k + 1)]))


class TestAgainstTheExpandedStructure:
    def test_same_verdicts_and_counterexamples(self):
        rng = random.Random(1313)
        refuted = held = brute_forced = 0
        for seed in range(30):
            for system, durations, bound in random_models(seed):
                try:
                    whole = whole_kripke(system, durations, bound, max_states=300)
                except ModelError:
                    continue
                atoms = tuple(sorted(whole.props))
                for _ in range(3):
                    f = random_formula(rng, atoms, temporal_budget=2)
                    lazy = Kripke(system, durations, bound, max_states=300)
                    ce = model_check(lazy, f)
                    assert ce == model_check(whole, f)  # texts, elapsed times and labels
                    if ce is None:
                        held += 1
                        if len(whole.edges) <= len(whole) + 2:  # the brute force is exponential in branching
                            assert find_violating_lasso(whole, f) is None
                            brute_forced += 1
                        continue
                    refuted += 1
                    assert validate_counterexample(lazy, f, ce)
                    assert validate_counterexample(whole, f, ce)
                    prefix, cycle = counterexample_letters(whole, ce)
                    assert not eval_on_lasso(f, prefix, cycle)
        assert refuted > 200 and held > 200 and brute_forced > 120, (refuted, held, brute_forced)

    def test_the_whole_views_expand_the_rest(self):
        system = ladder(6)
        whole = whole_kripke(system, system.tick_durations(), None)
        lazy = component_kripke(system)
        formula = parse_formula("[] safe")
        assert model_check(lazy, formula) is not None
        assert len(lazy) == len(whole) == 2**6

        def shape(k):
            return sorted((k.texts[e.source], k.texts[e.target], e.label, e.duration) for e in k.edges)

        assert shape(lazy) == shape(whole)
        assert dict(zip(lazy.texts, kripke_labeling(lazy))) == dict(zip(whole.texts, kripke_labeling(whole)))
        assert all(lazy.index_of(t, F(0)) == i for i, t in enumerate(lazy.texts))


class TestAgainstTheNestedSearch:
    @staticmethod
    def same(system, durations, bound, formula):
        """The check's counterexample, or None, once it is the nested search's."""
        ce = model_check(Kripke(system, durations, bound, max_states=300), formula)
        assert ce == nested_model_check(Kripke(system, durations, bound, max_states=300), formula)
        return ce

    def test_timed_models(self):
        rng = random.Random(3131)
        held = refuted = zero_time = 0
        for seed in range(30):
            for system, durations, bound in timed_models(seed):
                try:
                    whole_kripke(system, durations, bound, max_states=300)
                except ModelError:
                    continue
                atoms = tuple(sorted(system.propositions()))
                formulas = [random_formula(rng, atoms, temporal_budget=2) for _ in range(3)]
                for f in formulas + list(RING_PATTERNS if set(atoms) == PROPOSITIONS else ()):
                    ce = self.same(system, durations, bound, f)
                    if ce is None:
                        held += 1
                        continue
                    refuted += 1
                    # a cycle along which time does not advance, and not a stutter
                    zero_time += len({s.clock for s in ce.cycle}) == 1 and any(s.label != STUTTER for s in ce.cycle)
        assert held > 500 and refuted > 300 and zero_time > 75, (held, refuted, zero_time)

    def test_under_a_cap_wherever_both_return_they_agree(self):
        # the check carries whole clock layers and the nested search runs depth
        # first, so under a small cap either may hit it where the other returns
        rng = random.Random(7373)
        cases = Counter()
        for seed in range(30):
            for system, durations, bound in timed_models(seed):
                atoms = tuple(sorted(system.propositions()))
                for _ in range(3):
                    f, cap = random_formula(rng, atoms, temporal_budget=2), rng.randint(5, 40)
                    results = []
                    for check in (model_check, nested_model_check):
                        try:
                            results.append(check(Kripke(system, durations, bound, max_states=cap), f))
                        except ModelError as err:
                            assert str(err) == f"state space exceeds {cap} states"
                    if len(results) < 2:
                        cases["capped"] += 1
                        continue
                    assert results[0] == results[1], (seed, f, cap)
                    cases["held" if results[0] is None else "refuted"] += 1
        assert cases["held"] > 250 and cases["refuted"] > 250 and cases["capped"] > 25, cases

    @pytest.mark.parametrize("increment", [F(1), F(1, 3), F(1, 10)])
    def test_a_ring_with_zero_time_hose_cycles(self, init2_system, increment):
        # two tanks are low from time 3 on, and the hose moves between them forever
        texts = ("[] ~ one-down", "<> macondo", "[] <> ~ one-down", "<> [] ~ macondo", "[] ~ macondo")
        ces = [self.same(init2_system, (increment,), F(5), f) for f in (*map(parse_formula, texts), *RING_PATTERNS)]
        assert sum(ce is None for ce in ces) == 5
        for ce in filter(None, ces):
            assert {(s.elapsed, s.label) for s in ce.cycle} == {(F(3), MOVE_HOSE)}


class TestLayers:
    @pytest.mark.parametrize("ring, increment, bound", [
        (three_tank_state(), F(1, 3), F(5)),
        (random_ring(random.Random(0)), F(1, 3), F(10)),
    ])
    def test_a_held_check_runs_no_nested_search_from_the_initial_state(self, monkeypatch, ring, increment, bound):
        calls = searches(monkeypatch)
        kripke = Kripke(quiet_system(ring), (increment,), bound)
        assert model_check(kripke, FAIR_MACONDO) is None
        assert calls  # the last layer, where the ring stutters or its hose cycles
        assert (kripke.initial, 0) not in calls

    def test_a_refuted_check_runs_the_nested_search_once(self, monkeypatch, init2_system):
        calls = searches(monkeypatch)
        kripke = Kripke(init2_system, (F(1, 3),), F(5))
        formula = parse_formula("[] ~ one-down")
        ce = model_check(kripke, formula)
        assert calls.count((kripke.initial, 0)) == 1
        assert ce is not None and validate_counterexample(kripke, formula, ce)


class TestOnTheFly:
    def test_a_refuted_invariant_expands_under_one_percent(self):
        product = Counted(ladder(14))
        kripke = component_kripke(product)
        assert product.expanded == 0
        formula = parse_formula("[] safe")
        ce = model_check(kripke, formula)
        assert ce is not None and len(ce.steps()) == 30
        checked = product.expanded
        assert checked * 100 < 2**14, checked
        assert validate_counterexample(kripke, formula, ce)
        assert product.expanded == checked  # the lasso's states were all expanded

    @pytest.mark.parametrize("text", ["[] <> safe", "[] safe"])
    def test_a_check_evaluates_only_the_formula_propositions(self, text):
        k = 8
        product = Counted(ladder(k))
        kripke = component_kripke(product)
        formula = parse_formula(text)
        ce = model_check(kripke, formula)
        assert len(kripke.props) == k + 1
        # each state the search reads is expanded and evaluated once, on safe only
        assert 0 < product.evaluated <= product.expanded * len(props_of(formula))
        whole = whole_kripke(ladder(k), product.tick_durations(), None)
        assert ce == model_check(whole, formula)
        if text == "[] <> safe":
            assert ce is None and product.expanded == len(whole) == 2**k
        else:
            assert validate_counterexample(whole, formula, ce)
            assert not eval_on_lasso(formula, *counterexample_letters(whole, ce))

    def test_a_ring_check_expands_only_what_the_search_reads(self):
        # the negated precedence pattern's automaton has no run past the ring's
        # first state with a low tank; the initial state leaps over its quiet
        # stretch straight to that state, which the pass evaluates, but no
        # automaton state steps on from it, so the check expands no state and
        # ticks none, of the ring's 414
        ring = Counted(quiet_system(tenths_ring()))
        kripke = Kripke(ring, (F(1, 10),), F(40))
        assert ring.expanded == ring.ticked == 0
        formula = parse_formula("(~ macondo U one-down) \\/ [] ~ macondo")
        assert model_check(kripke, formula) is None
        assert (ring.expanded, ring.ticked, ring.evaluated) == (0, 0, 4)
        assert len(kripke) == 414

    def test_a_refutation_within_the_cap_is_returned(self):
        product = ladder(14)
        kripke = Kripke(product, product.tick_durations(), None, max_states=200)
        formula = parse_formula("[] safe")
        ce = model_check(kripke, formula)
        assert ce is not None and validate_counterexample(kripke, formula, ce)
        with pytest.raises(ModelError, match="state space exceeds 200 states"):
            len(kripke)

    def test_a_property_that_holds_still_hits_the_cap(self):
        product = ladder(14)
        kripke = Kripke(product, product.tick_durations(), None, max_states=200)
        with pytest.raises(ModelError, match="state space exceeds 200 states"):
            model_check(kripke, parse_formula("[] <> safe"))

    def test_a_timed_property_that_holds_still_hits_the_cap(self):
        # the cap counts the states a check indexes: the leaping pass indexes
        # 44 of the ring's 414, so it passes under a cap of 200 and hits one of 40
        ring = quiet_system(tenths_ring())
        assert model_check(Kripke(ring, (F(1, 10),), F(40), max_states=200), FAIR_MACONDO) is None
        kripke = Kripke(ring, (F(1, 10),), F(40), max_states=40)
        with pytest.raises(ModelError, match="state space exceeds 40 states"):
            model_check(kripke, FAIR_MACONDO)


class TestLeaps:
    """A timed check of a ring or an automaton leaps over each quiet stretch,
    where the ring only drains and fills and the automaton has no jump, to the
    stretch's last state; its verdicts and counterexamples stay those of the
    nested search over every tick."""

    def test_verdicts_and_counterexamples_on_long_ring_runs(self):
        rng = random.Random(3232)
        held = refuted = 0
        for _ in range(40):
            try:
                ring = quiet_system(random_ring(rng))
            except ModelError:  # a hose below a leak: the ring is rejected
                continue
            for increment in (F(1), F(1, 3), F(1, 10)):
                formulas = [random_formula(rng, tuple(sorted(PROPOSITIONS)), temporal_budget=2) for _ in range(2)]
                for f in formulas + list(RING_PATTERNS):
                    try:
                        ce = model_check(Kripke(ring, (increment,), F(20), max_states=400), f)
                    except ModelError:
                        continue
                    assert ce == nested_model_check(Kripke(ring, (increment,), F(20), max_states=400), f)
                    held += ce is None
                    refuted += ce is not None
        assert held > 400 and refuted > 100, (held, refuted)

    def test_verdicts_and_counterexamples_on_automaton_runs(self):
        # an automaton leaps while no jump is enabled and its ticks are
        # unblocked, and its letter is its location's
        rng = random.Random(4343)
        cases = Counter()
        for _ in range(40):
            system = Located(random_automaton(rng))
            atoms = tuple(sorted(system.propositions()))
            for increment in (F(1), F(1, 3), F(1, 10)):
                for _ in range(3):
                    f = random_formula(rng, atoms, temporal_budget=2)
                    kripke = Kripke(system, (increment,), F(6), max_states=2000)
                    try:
                        ce = model_check(kripke, f)
                        assert ce == nested_model_check(Kripke(system, (increment,), F(6), max_states=2000), f)
                    except ModelError:
                        cases["capped"] += 1
                        continue
                    cases["leaps"] += sum(map(bool, kripke._leaps.values()))
                    if ce is None:
                        cases["held"] += 1
                        continue
                    cases["refuted"] += 1
                    cases["leapt"] += any(kripke.index_of(s.text, s.clock, s.scale) is None for s in ce.steps())
                    assert validate_counterexample(kripke, f, ce)
        assert cases["held"] > 150 and cases["refuted"] > 80 and cases["leapt"] > 40 and cases["leaps"] > 120, cases

    @pytest.mark.parametrize("increment, ticks", [(F(1), 4), (F(1, 2), 7)])
    def test_a_leap_passes_on_the_mask_after_each_of_its_ticks(self, increment, ticks):
        # X^j reads the letter j ticks on, so a leap whose mask steps one
        # time too few or too many shifts the verdict of one of these
        ring = quiet_system(tenths_ring())
        assert Kripke(ring, (increment,), F(40)).leap(0) == (ticks, 1)
        for j in range(1, 14):
            for p in ("one-down", "~ one-down"):
                f = parse_formula("X " * j + p)
                assert model_check(Kripke(ring, (increment,), F(40)), f) == \
                    nested_model_check(Kripke(ring, (increment,), F(40)), f)

    def test_a_mask_steps_by_its_period_once_it_repeats(self):
        rng = random.Random(3232)
        for _ in range(300):
            f = [rng.randrange(12) for _ in range(12)].__getitem__  # a tail into a cycle, from each start
            m, k = rng.randrange(12), rng.randrange(40)
            stepped = m
            for _ in range(k):
                stepped = f(stepped)
            assert checker._power(f, m, k) == stepped

    def test_a_mask_stops_stepping_at_a_fixed_point(self):
        calls = []

        def f(m):
            calls.append(m)
            assert len(calls) <= 4, "stepped on from the fixed point"
            return min(m + 1, 3)

        assert checker._power(f, 0, 10**9) == 3
        assert calls == [0, 1, 2, 3]

    @pytest.mark.parametrize("formula", RING_PATTERNS + tuple(map(parse_formula, (
        "[] ~ macondo", "[] <> ~ one-down", "<> [] ~ macondo", "[] (one-down -> <> ~ one-down)"))))
    def test_a_held_ring_check_expands_about_its_letter_changes(self, formula):
        # a ring like the benchmark's, 2,037 states over 200 time units
        whole = whole_kripke(quiet_system(tenths_ring()), (F(1, 10),), F(200))
        letters = kripke_labeling(whole)
        changes = sum(letters[e.source] != letters[e.target] for e in whole.edges)
        moves = sum(e.label == MOVE_HOSE for e in whole.edges)
        assert (len(whole), changes, moves) == (2037, 74, 37)
        ring = Counted(quiet_system(tenths_ring()))
        assert model_check(Kripke(ring, (F(1, 10),), F(200)), formula) is None
        assert ring.expanded <= 2 * changes + moves, ring.expanded

    def test_a_refuted_check_asks_only_the_states_it_indexes(self):
        # the nested search steps through each stretch on its first state's
        # letter, and the lasso's stretch states are built but not indexed:
        # the check indexes 44 of the ring's 414 states, and the lasso, to
        # the end of time, has all 414
        ring = Counted(quiet_system(tenths_ring()))
        kripke = Kripke(ring, (F(1, 10),), F(40))
        formula = parse_formula("[] ~ one-down")
        ce = model_check(kripke, formula)
        indexed = {id(state) for state in kripke._states}
        assert len(indexed) == 44 and len(ce.steps()) == 414
        assert ring.asked.keys() == indexed and max(ring.asked.values()) == 1
        assert sum(kripke.index_of(s.text, s.clock, s.scale) is None for s in ce.steps()) == 370
        assert validate_counterexample(kripke, formula, ce)

    def test_each_state_is_asked_for_its_leap_once(self):
        # the pass and the nested search share each state's one quiet call
        ring = Counted(quiet_system(tenths_ring()))
        kripke = Kripke(ring, (F(1, 10),), F(200))
        assert model_check(kripke, parse_formula("[] (one-down -> <> macondo)")) is not None
        assert len(ring.quieted) == len(kripke._states) == 113 and max(ring.quieted.values()) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_leaping_searches_over_merging_branches(self, seed):
        # a move into another branch's stretch gives that state a second
        # identity in the search, beside the stretch's own; the lasso stays
        # the one the nested search finds over every tick
        rng = random.Random(seed)
        cases = Counter()
        for _ in range(40):
            toy = Branches(rng, rng.randint(8, 14))
            for _ in range(30):
                f = random_formula(rng, ("p", "q"), temporal_budget=2)
                toy.leaps.clear()
                kripke = Kripke(toy, (F(1),), F(toy.horizon))
                ce = model_check(kripke, f)
                assert ce == nested_model_check(Kripke(toy, (F(1),), F(toy.horizon)), f), (seed, f)
                if ce is None:
                    cases["held"] += 1
                    continue
                cases["refuted"] += 1
                cases["leapt"] += any(kripke.index_of(s.text, s.clock, s.scale) is None for s in ce.steps())
                cases["merged"] += toy.merged()
                assert validate_counterexample(kripke, f, ce)
        assert cases["refuted"] > 500 and cases["leapt"] > 450 and cases["merged"] > 120, cases

    def test_only_a_timed_structure_of_one_duration_leaps(self):
        ring = quiet_system(tenths_ring())
        assert Kripke(ring, (F(1, 10),), F(40)).leap(0) == (32, 1)  # the initial state and the next 31 are quiet
        # the automaton's tank 2 drains from 40 to its threshold 15 at 5 a unit: 50 ticks of 1/10
        automaton = LhaSystem(two_reservoir(10, 5, 5, 15, 15, 30, 40))
        assert Kripke(automaton, (F(1, 10),), F(20)).leap(0) == (50, 1)
        untimed = Kripke(ring, (F(1, 10),), None)  # its levels grow without bound
        for i in range(100):
            assert untimed.leap(i) is None
            untimed.out(i)
        for kripke in (
            Kripke(ring, (F(1, 10), F(1, 5)), F(4)),
            Kripke(automaton, (F(1, 10), F(1, 5)), F(4)),
            Kripke(abstract_reservoir(1), (F(1),), F(5)),
            Kripke(ladder(3), (F(1),), F(5)),
        ):
            assert all(kripke.leap(i) is None for i in range(len(kripke)))


def leaping_models(rng: random.Random):
    """(system, durations, time bound) for seeded ``timed_models``,
    ``Branches`` toys and the rings of ``TestLeaps``; the rings and toys,
    sampled at one duration, leap."""
    for seed in range(12):
        yield from timed_models(seed)
    for _ in range(12):
        toy = Branches(rng, rng.randint(8, 14))
        yield toy, (F(1),), F(toy.horizon)
    rings = random.Random(3232)
    for _ in range(8):
        try:
            ring = quiet_system(random_ring(rings))
        except ModelError:  # a hose below a leak: the ring is rejected
            continue
        for increment in (F(1), F(1, 3), F(1, 10)):
            yield ring, (increment,), F(20)


def mutations(rng: random.Random, ce: Counterexample):
    """(kind, lasso) for seeded changes of ``ce``: one step's text, time or
    label, a step dropped or doubled, and the cycle's start moved."""
    steps = ce.steps()
    texts, labels = sorted({s.text for s in steps}) + ["nowhere"], sorted({s.label for s in steps} | {TICK, STUTTER})
    cut = len(ce.prefix)

    def split(new_steps, start=cut):
        return Counterexample(new_steps[:start], new_steps[start:])

    def at(pos, text=None, clock=None, label=None):
        s = steps[pos]
        new = CounterexampleStep(s.text if text is None else text, s.clock if clock is None else clock,
                                 s.label if label is None else label, s.scale)
        return split(steps[:pos] + [new] + steps[pos + 1:])

    pos = rng.randrange(len(steps))
    yield "text", at(pos, text=rng.choice([t for t in texts if t != steps[pos].text]))
    yield "time", at(pos, clock=steps[pos].clock + rng.choice((-1, 1, steps[pos].scale)))
    yield "label", at(pos, label=rng.choice([label for label in labels if label != steps[pos].label]))
    yield "dropped", split(steps[:pos] + steps[pos + 1:], cut - (pos < cut))
    yield "doubled", split(steps[:pos] + [steps[pos]] + steps[pos:], cut + (pos < cut))
    start = cut + rng.choice([d for d in (-3, -2, -1, 1, 2, 3) if 0 <= cut + d < len(steps)] or [0])
    yield "cycle start", split(steps, start)


class TestReplayThroughLeaps:
    """``validate_counterexample`` walks each leap's stretch by ticking from
    the leap's first state, and indexes none of it: a lasso that the check
    returns under ``max_states`` replays under that cap.  On a structure
    without a cap its verdicts are those of the replay over indexed states,
    ``reference.indexed_replay``."""

    def test_a_capped_ring_lasso_replays_under_its_cap(self):
        # the check indexes 44 of the ring's 414 states, and the lasso, to the
        # end of time, has all 414: the replay over indexed states runs past the cap
        ring = quiet_system(tenths_ring())
        formula = parse_formula("[] ~ one-down")
        kripke = Kripke(ring, (F(1, 10),), F(40), max_states=100)
        ce = model_check(kripke, formula)
        assert len(kripke._states) == 44 and len(ce.steps()) == 414
        assert validate_counterexample(kripke, formula, ce)
        assert len(kripke._states) == 44
        assert validate_counterexample(Kripke(ring, (F(1, 10),), F(40), max_states=100), formula, ce)
        with pytest.raises(ModelError, match="state space exceeds 100 states"):
            indexed_replay(Kripke(ring, (F(1, 10),), F(40), max_states=100), formula, ce)
        assert indexed_replay(Kripke(ring, (F(1, 10),), F(40)), formula, ce)

    def test_every_lasso_returned_under_a_cap_replays_under_it(self):
        rng = random.Random(4747)
        cases = Counter()
        for system, durations, bound in leaping_models(rng):
            atoms = tuple(sorted(system.propositions()))
            for _ in range(6):
                f, cap = random_formula(rng, atoms, temporal_budget=2), round(5 * 80 ** rng.random())  # 5 to 400
                kripke = Kripke(system, durations, bound, max_states=cap)
                try:
                    ce = model_check(kripke, f)
                except ModelError as err:
                    assert str(err) == f"state space exceeds {cap} states"
                    cases["capped"] += 1
                    continue
                if ce is None:
                    cases["held"] += 1
                    continue
                cases["refuted"] += 1
                indexed = len(kripke._states)
                assert validate_counterexample(kripke, f, ce), (f, cap)
                assert len(kripke._states) == indexed
                assert validate_counterexample(Kripke(system, durations, bound, max_states=cap), f, ce), (f, cap)
                try:
                    assert indexed_replay(Kripke(system, durations, bound, max_states=cap), f, ce)
                except ModelError:
                    cases["past the cap when indexed"] += 1
        assert cases["refuted"] > 250 and cases["past the cap when indexed"] > 20 and cases["capped"] > 15, cases

    def test_verdicts_are_those_of_the_indexed_replay(self):
        rng = random.Random(5151)
        verdicts = Counter()
        for system, durations, bound in leaping_models(rng):
            atoms = tuple(sorted(system.propositions()))
            for _ in range(3):
                f = random_formula(rng, atoms, temporal_budget=2)
                try:
                    ce = model_check(Kripke(system, durations, bound, max_states=3000), f)
                except ModelError:
                    continue
                if ce is None:
                    continue
                for kind, lasso in [("found", ce), *mutations(rng, ce)]:
                    verdict = validate_counterexample(Kripke(system, durations, bound), f, lasso)
                    assert verdict == indexed_replay(Kripke(system, durations, bound), f, lasso), (kind, f)
                    verdicts[kind, verdict] += 1
        assert verdicts["found", True] > 150 and not verdicts["found", False], verdicts
        for kind in ("text", "time", "label", "dropped", "doubled", "cycle start"):
            assert verdicts[kind, False] > 60, verdicts
        assert sum(verdicts[kind, True] for kind in ("dropped", "doubled", "cycle start")) > 60, verdicts

    def test_a_leap_one_tick_too_far_is_rejected(self):
        # the hosed tank fills a tenth as fast as it drains: at 1/10 the hose
        # reaches it at 49/5, and it stays low for the 4 ticks after; the leap
        # takes one more, to 101/10, so the check reads the state at 201/20,
        # X^7 on, as low, and refutes X^7 ~ one-down, which holds
        slow = NResState.make(Hose(F(11, 2), 1), [Reservoir(0, F(10), F(40), F(103, 10), F(5)),
                                                  Reservoir(1, F(5), F(40), F(30), F(1, 2))])
        honest, ring = quiet_system(slow), quiet_system(slow)
        quiet = ring.quiet

        def too_far(state, delta, limit):
            hop = quiet(state, delta, limit - 1)
            after = hop and ring.timed_successor(hop[1], delta)
            return after and (hop[0] + 1, after)

        ring.quiet = too_far
        rejected = []
        for j in range(1, 60):
            for p in ("one-down", "~ one-down"):
                f = parse_formula("X " * j + p)
                ce = model_check(Kripke(ring, (F(1, 10),), F(40)), f)
                if ce is not None:
                    verdict = validate_counterexample(Kripke(ring, (F(1, 10),), F(40)), f, ce)
                    assert verdict == indexed_replay(Kripke(honest, (F(1, 10),), F(40)), f, ce), f
                    rejected += [] if verdict else [(j, p)]
        assert rejected == [(7, "~ one-down")]

    def test_a_leap_to_a_later_end_is_rejected(self):
        # the ring's last leap, cut by the time bound, keeps its length but
        # ends one tick on: the lasso's tick into that end is no edge of the ring
        honest, ring = quiet_system(tenths_ring()), quiet_system(tenths_ring())
        quiet = ring.quiet

        def one_on(state, delta, limit):
            hop = quiet(state, delta, limit - 1)
            after = hop and ring.timed_successor(hop[1], delta)
            return after and (hop[0], after)

        ring.quiet = one_on
        formula = parse_formula("[] ~ one-down")
        ce = model_check(Kripke(ring, (F(1, 10),), F(40)), formula)
        assert ce is not None and len(ce.steps()) == 414
        assert not indexed_replay(Kripke(honest, (F(1, 10),), F(40)), formula, ce)
        assert not validate_counterexample(Kripke(ring, (F(1, 10),), F(40)), formula, ce)

    def test_a_leap_over_moves_is_rejected(self):
        # toys whose quiet leaps over states with moves: a lasso through such
        # a state is a run of the toy, but the leap hid the state's moves
        rng = random.Random(6161)
        cases = Counter()
        for _ in range(30):
            toy = Branches(rng, rng.randint(8, 14))
            honest = Kripke(toy, (F(1),), F(toy.horizon))

            def over_moves(state, delta, limit, toy=toy):
                b, v = state
                n = 0
                while n < limit and not toy.blocked[b][v + n] and toy.letters[b][v + n] == toy.letters[b][v]:
                    n += 1
                return (n, (b, v + n)) if n > 1 else None

            toy.quiet = over_moves
            for _ in range(10):
                f = random_formula(rng, ("p", "q"), temporal_budget=2)
                kripke = Kripke(toy, (F(1),), F(toy.horizon))
                ce = model_check(kripke, f)
                if ce is None:
                    continue
                inside = [tuple(map(int, s.text.split("@"))) for s in ce.steps()
                          if kripke.index_of(s.text, s.clock, s.scale) is None]
                hidden = any(toy.moves[b][v] for b, v in inside)
                verdict = validate_counterexample(Kripke(toy, (F(1),), F(toy.horizon)), f, ce)
                assert verdict == (not hidden and indexed_replay(honest, f, ce)), f
                cases["hidden" if hidden else "shown"] += 1
        assert cases["hidden"] > 20 and cases["shown"] > 20, cases
