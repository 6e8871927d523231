import hashlib
import random
from itertools import product

import pytest

from lhamc.ltl import lasso_accepted, negated_nnf, parse_formula, props_of, to_buchi, to_nnf
from lhamc.core import ModelError
from lhamc.ltl.buchi import _degeneralized
from lhamc.ltl.checker import _letter_rows
from oracles import eval_on_lasso, random_formula, random_letters


def automaton_for(text: str):
    return to_buchi(to_nnf(parse_formula(text)))


class TestStructure:
    def test_pre_initial_state_has_no_incoming_acceptance_role(self):
        ba = automaton_for("[] p")
        assert ba.initial == 0
        assert all(t.source in range(ba.size) for t in ba.transitions)
        assert all(t.target != 0 for t in ba.transitions)

    def test_true_accepts_everything(self):
        ba = automaton_for("true")
        rng = random.Random(3)
        for _ in range(50):
            prefix, cycle = random_letters(rng)
            assert lasso_accepted(ba, prefix, cycle)

    def test_false_accepts_nothing(self):
        ba = automaton_for("false")
        rng = random.Random(4)
        for _ in range(50):
            prefix, cycle = random_letters(rng)
            assert not lasso_accepted(ba, prefix, cycle)

    def test_literals_hold(self):
        ba = automaton_for("p")
        assert ba.literals_hold((("p", True),), frozenset({"p"}))
        assert not ba.literals_hold((("p", True),), frozenset())
        assert ba.literals_hold((("p", False),), frozenset({"q"}))
        assert not ba.literals_hold((("p", True), ("q", False)), frozenset({"p", "q"}))


class TestSuccessors:
    def test_successors_and_rows_match_the_plain_scan(self):
        rng = random.Random(2718)
        for _ in range(200):
            f = random_formula(rng, temporal_budget=2)
            ba = to_buchi(to_nnf(f))
            names = sorted(props_of(f))
            letters = [
                frozenset(n for n, on in zip(names, bits) if on)
                for bits in product((False, True), repeat=len(names))
            ]
            rows = _letter_rows(ba)
            for q in range(ba.size):
                for letter in letters:
                    scan = tuple(
                        t.target
                        for t in ba.adjacency[q]
                        if all((name in letter) == positive for name, positive in t.literals)
                    )
                    assert ba.successors(q, letter) == scan
                    assert rows[letter][q] == scan


class TestKnownFormulas:
    def test_always_p(self):
        ba = automaton_for("[] p")
        on = frozenset({"p"})
        off = frozenset()
        assert lasso_accepted(ba, [], [on])
        assert lasso_accepted(ba, [on, on], [on])
        assert not lasso_accepted(ba, [], [off])
        assert not lasso_accepted(ba, [on], [on, off])

    def test_eventually_p(self):
        ba = automaton_for("<> p")
        on = frozenset({"p"})
        off = frozenset()
        assert lasso_accepted(ba, [off, off], [on, off])
        assert lasso_accepted(ba, [on], [off])
        assert not lasso_accepted(ba, [off], [off])

    def test_until(self):
        ba = automaton_for("p U q")
        pp = frozenset({"p"})
        qq = frozenset({"q"})
        off = frozenset()
        assert lasso_accepted(ba, [pp, pp], [qq])
        assert lasso_accepted(ba, [], [qq])
        assert not lasso_accepted(ba, [pp], [pp])
        assert not lasso_accepted(ba, [pp, off], [qq])

    def test_next(self):
        ba = automaton_for("X p")
        on = frozenset({"p"})
        off = frozenset()
        assert lasso_accepted(ba, [off], [on])
        assert not lasso_accepted(ba, [on], [off])

    def test_degeneralization_handles_two_fairness_goals(self):
        ba = automaton_for("[] <> p /\\ [] <> q")
        pp = frozenset({"p"})
        qq = frozenset({"q"})
        both = frozenset({"p", "q"})
        off = frozenset()
        assert lasso_accepted(ba, [], [pp, qq])
        assert lasso_accepted(ba, [off, off], [both])
        assert not lasso_accepted(ba, [qq], [pp])
        assert not lasso_accepted(ba, [], [off])

    def test_release(self):
        ba = automaton_for("p R q")
        pq = frozenset({"p", "q"})
        qq = frozenset({"q"})
        off = frozenset()
        assert lasso_accepted(ba, [], [qq])
        assert lasso_accepted(ba, [qq, pq], [off])
        assert not lasso_accepted(ba, [qq], [off])


class TestReduction:
    """``to_buchi`` reduces the degeneralized tableau automaton."""

    @pytest.mark.parametrize("budget,seed", [(2, 16001), (3, 16002)])
    def test_same_lasso_verdicts_as_the_unreduced_automaton(self, budget, seed):
        rng = random.Random(seed)
        for _ in range(300):
            f = random_formula(rng, temporal_budget=budget)
            reduced, unreduced = to_buchi(f), _degeneralized(to_nnf(f))
            assert reduced.size <= unreduced.size
            assert len(reduced.transitions) <= len(unreduced.transitions)
            assert len(reduced.accepting) == len(unreduced.accepting)
            assert all(t.target != 0 for t in reduced.transitions)
            for _ in range(4):
                prefix, cycle = random_letters(rng)
                assert lasso_accepted(reduced, prefix, cycle) == lasso_accepted(unreduced, prefix, cycle), (
                    render_case(f, prefix, cycle)
                )

    # the nine nres-check patterns of bench/workloads.py; unreduced, precedence
    # has 14 states and 29 transitions, fair-macondo 26 and 111, fair-recovery
    # 13 and 38, and the others the sizes pinned here
    @pytest.mark.parametrize(
        "text,states,transitions",
        [
            ("[] ~ macondo", 4, 6),
            ("[] <> ~ one-down", 4, 6),
            ("<> [] ~ macondo", 3, 6),
            ("[] (one-down -> <> ~ one-down)", 4, 6),
            ("(~ macondo U one-down) \\/ [] ~ macondo", 13, 25),
            ("([] <> one-down /\\ [] <> ~ one-down) -> [] <> macondo", 10, 28),
            ("[] <> one-down -> [] <> ~ macondo", 8, 21),
            ("[] ~ one-down", 4, 6),
            ("<> macondo", 2, 2),
        ],
    )
    def test_negated_reservoir_patterns_are_at_most_their_pinned_size(self, text, states, transitions):
        ba = to_buchi(negated_nnf(parse_formula(text)))
        assert ba.size <= states and len(ba.transitions) <= transitions

    def test_subsumed_transitions_are_dropped(self):
        for f in map(parse_formula, ("[] <> p -> [] <> ~ q", "([] <> p /\\ [] <> ~ p) -> [] <> q")):
            ba = to_buchi(negated_nnf(f))
            for out in ba.adjacency:
                assert not any(
                    a.target == b.target and a.literals < b.literals for a in out for b in out
                )


class TestConstructionIsPinned:
    """The automata built for seeded random formulas, transition for
    transition, against a digest recorded before the tableau became one
    rule table: a change to the construction that alters any automaton
    fails here, even where it keeps the language."""

    DIGEST = "910bb97b0fa113aff3f72b0437ee9cf1385c47b08ec1d79320d33d774f6fcc28"

    def test_automata_match_the_recorded_digest(self):
        rng = random.Random(19019)
        digest = hashlib.sha256()
        for n in range(400):
            f = random_formula(rng, atoms=("p", "q", "r"), temporal_budget=n % 5)
            for g in (to_nnf(f), negated_nnf(f)):
                for ba in (to_buchi(g), _degeneralized(g)):
                    transitions = [(t.source, sorted(t.literals), t.target) for t in ba.transitions]
                    digest.update(repr((ba.size, transitions, sorted(ba.accepting))).encode())
        assert digest.hexdigest() == self.DIGEST


class TestAgainstLassoEvaluator:
    def test_acceptance_matches_direct_evaluation(self):
        rng = random.Random(99991)
        for _ in range(600):
            f = random_formula(rng, temporal_budget=2)
            ba = to_buchi(to_nnf(f))
            prefix, cycle = random_letters(rng)
            expected = eval_on_lasso(f, prefix, cycle)
            assert lasso_accepted(ba, prefix, cycle) == expected, (render_case(f, prefix, cycle))

    def test_long_lassos_on_reduced_and_unreduced_automata(self):
        rng = random.Random(2505)
        for _ in range(400):
            f = random_formula(rng, temporal_budget=3)
            prefix, cycle = random_letters(rng, max_prefix=8, max_cycle=8)
            expected = eval_on_lasso(f, prefix, cycle)
            for ba in (to_buchi(f), _degeneralized(to_nnf(f))):
                assert lasso_accepted(ba, prefix, cycle) == expected, render_case(f, prefix, cycle)

    def test_an_empty_cycle_is_an_error(self):
        with pytest.raises(ModelError, match="the cycle of a lasso must be nonempty"):
            lasso_accepted(automaton_for("p"), [frozenset({"p"})], [])

    def test_negation_is_complement_on_lassos(self):
        from lhamc.ltl import negated_nnf

        rng = random.Random(31337)
        for _ in range(300):
            f = random_formula(rng, temporal_budget=2)
            pos = to_buchi(to_nnf(f))
            neg = to_buchi(negated_nnf(f))
            prefix, cycle = random_letters(rng)
            assert lasso_accepted(pos, prefix, cycle) != lasso_accepted(neg, prefix, cycle)


def render_case(f, prefix, cycle) -> str:
    from lhamc.ltl import render

    return f"{render(f)} on {[sorted(s) for s in prefix]} ({[sorted(s) for s in cycle]})^w"
