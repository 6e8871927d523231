import random

import pytest

from lhamc.core import ModelError
from lhamc.ltl import (
    Always,
    And,
    Bottom,
    Eventually,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Top,
    Until,
    negated_nnf,
    parse_formula,
    props_of,
    render,
    temporal_count,
    to_nnf,
)
from oracles import eval_on_lasso, random_formula, random_letters

p, q, r = Prop("p"), Prop("q"), Prop("r")


class TestParser:
    def test_atoms_and_constants(self):
        assert parse_formula("p") == p
        assert parse_formula("true") == Top()
        assert parse_formula("false") == Bottom()

    def test_case_study_identifiers(self):
        assert parse_formula("one-down") == Prop("one-down")
        assert parse_formula("refill1?") == Prop("refill1?")
        assert parse_formula("[] ~ <> one-down") == Always(Not(Eventually(Prop("one-down"))))

    def test_unary_operators(self):
        assert parse_formula("~ [] <> macondo") == Not(Always(Eventually(Prop("macondo"))))
        assert parse_formula("X p") == Next(p)
        assert parse_formula("~~p") == Not(Not(p))

    def test_binary_operators(self):
        assert parse_formula("p /\\ q") == And(p, q)
        assert parse_formula("p \\/ q") == Or(p, q)
        assert parse_formula("p -> q") == Implies(p, q)
        assert parse_formula("p U q") == Until(p, q)
        assert parse_formula("p R q") == Release(p, q)

    def test_precedence(self):
        assert parse_formula("p /\\ q \\/ r") == Or(And(p, q), r)
        assert parse_formula("p \\/ q -> r") == Implies(Or(p, q), r)
        assert parse_formula("p -> q -> r") == Implies(p, Implies(q, r))
        assert parse_formula("p U q U r") == Until(p, Until(q, r))
        assert parse_formula("~ p U q") == Until(Not(p), q)
        assert parse_formula("[] p -> q") == Implies(Always(p), q)
        assert parse_formula("p U q /\\ r") == And(Until(p, q), r)

    def test_implication_lexes_next_to_idents(self):
        assert parse_formula("p->q") == Implies(p, q)

    def test_parentheses(self):
        assert parse_formula("p /\\ (q \\/ r)") == And(p, Or(q, r))
        assert parse_formula("[] (p U q)") == Always(Until(p, q))

    @pytest.mark.parametrize("bad", ["", "p q", "(p", "p /\\", "p U", "p & q", "U p", "->"])
    def test_rejects_malformed_input(self, bad):
        with pytest.raises(ModelError):
            parse_formula(bad)

    def test_deep_nesting_fails_closed(self):
        with pytest.raises(ModelError, match="^input nests too deeply$"):
            parse_formula("X " * 3000 + "p")

    @pytest.mark.parametrize(
        "walk,shallow",
        [
            (to_nnf, Next(Not(p))),
            (negated_nnf, Next(p)),
            (render, "X ~ p"),
            (props_of, frozenset({"p"})),
            (temporal_count, 1),
        ],
    )
    def test_walks_of_deep_formulas_fail_closed(self, walk, shallow):
        deep = p
        for _ in range(3000):
            deep = Next(deep)
        with pytest.raises(ModelError, match="^input nests too deeply$"):
            walk(deep)
        assert walk(Next(Not(p))) == shallow

    def test_render_round_trip(self):
        rng = random.Random(424242)
        for _ in range(300):
            f = random_formula(rng, atoms=("p", "q", "one-down"), temporal_budget=3)
            assert parse_formula(render(f)) == f


class TestNnf:
    def test_dualities(self):
        assert to_nnf(parse_formula("~ [] <> p")) == Eventually(Always(Not(p)))
        assert to_nnf(parse_formula("~ (p /\\ <> q)")) == Or(Not(p), Always(Not(q)))
        assert to_nnf(parse_formula("~ (p U q)")) == Release(Not(p), Not(q))
        assert to_nnf(parse_formula("~ (p R q)")) == Until(Not(p), Not(q))
        assert to_nnf(parse_formula("~ X p")) == Next(Not(p))
        assert to_nnf(parse_formula("~~p")) == p
        assert to_nnf(parse_formula("~ true")) == Bottom()

    def test_implication_expansion(self):
        assert to_nnf(parse_formula("p -> q")) == Or(Not(p), q)
        assert to_nnf(parse_formula("~ (p -> q)")) == And(p, Not(q))

    def test_negations_end_on_atoms(self):
        def only_atomic_negation(f) -> bool:
            if isinstance(f, Not):
                return isinstance(f.sub, Prop)
            subs = [getattr(f, a) for a in ("sub", "left", "right") if hasattr(f, a)]
            return all(only_atomic_negation(s) for s in subs)

        rng = random.Random(7)
        for _ in range(300):
            f = random_formula(rng, temporal_budget=3)
            assert only_atomic_negation(to_nnf(f))

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(200):
            f = random_formula(rng, temporal_budget=3)
            assert to_nnf(to_nnf(f)) == to_nnf(f)

    def test_preserves_meaning_on_lassos(self):
        rng = random.Random(13)
        for _ in range(400):
            f = random_formula(rng, temporal_budget=2)
            prefix, cycle = random_letters(rng)
            assert eval_on_lasso(f, prefix, cycle) == eval_on_lasso(to_nnf(f), prefix, cycle)

    def test_negated_nnf_flips_meaning(self):
        rng = random.Random(17)
        for _ in range(300):
            f = random_formula(rng, temporal_budget=2)
            prefix, cycle = random_letters(rng)
            assert eval_on_lasso(f, prefix, cycle) != eval_on_lasso(negated_nnf(f), prefix, cycle)


class TestHelpers:
    def test_props_of(self):
        assert props_of(parse_formula("[] (p -> <> one-down)")) == frozenset({"p", "one-down"})

    def test_temporal_count(self):
        assert temporal_count(parse_formula("p /\\ q")) == 0
        assert temporal_count(parse_formula("[] <> p")) == 2
        assert temporal_count(parse_formula("(p U q) U X r")) == 3
