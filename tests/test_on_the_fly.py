"""Checking while discovering: on a ``Kripke``, discovered as it is read, the
nested DFS expands only the states it visits, and it gives the same verdicts
and counterexamples as on the structure ``kripke_structure`` expands whole."""

import random
from fractions import Fraction as F
from functools import reduce

import pytest

from lhamc.core import ModelError
from lhamc.explore import Kripke, kripke_structure
from lhamc.lha import LhaSystem
from lhamc.ltl import model_check, parse_formula, validate_counterexample
from lhamc.syncprod import abstract_reservoir, component_kripke, rt_sync_product, safe_prop
from oracles import counterexample_letters, eval_on_lasso, find_violating_lasso, random_formula
from test_lha import random_automaton
from test_reservoir import quiet_system, random_ring
from test_syncprod import random_components


class Located(LhaSystem):
    """An automaton with one proposition per location, ``at-<name>``."""

    def propositions(self):
        return frozenset(f"at-{loc.name}" for loc in self.lha.locations)

    def prop_holds(self, state, prop):
        return prop == f"at-{state.location}"


class Counted:
    """Delegates to a model, counting the states it is asked to expand."""

    def __init__(self, model):
        self._model = model
        self.expanded = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def discrete_successors(self, state):
        self.expanded += 1
        return self._model.discrete_successors(state)


def random_models(seed: int):
    """(system, durations, time bound) for a seeded ring, automaton, and two
    components with their untimed and timed products."""
    rng = random.Random(seed)
    yield quiet_system(random_ring(rng)), (F(1, 2),), F(3)
    yield Located(random_automaton(rng)), (F(1), F(1, 2)), F(2)
    for c in random_components(seed):
        yield c, c.tick_durations(), None


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
                    whole = kripke_structure(system, durations, bound, max_states=300)
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
        whole = kripke_structure(system, system.tick_durations(), None)
        lazy = component_kripke(system)
        formula = parse_formula("[] safe")
        assert model_check(lazy, formula) is not None
        assert len(lazy) == len(whole) == 2**6

        def shape(k):
            return sorted((k.texts[e.source], k.texts[e.target], e.label, e.duration) for e in k.edges)

        assert shape(lazy) == shape(whole)
        assert dict(zip(lazy.texts, lazy.labeling)) == dict(zip(whole.texts, whole.labeling))
        assert all(lazy.index_of(t, F(0)) == i for i, t in enumerate(lazy.texts))


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
