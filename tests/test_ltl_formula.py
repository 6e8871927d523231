import copy
import hashlib
import pickle
import random
from pathlib import Path

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
    to_nnf,
)
from lhamc.cli import main
from lhamc.ltl.formula import _NODE_OF, _OPERATORS, Binary, Unary, subformulas
from oracles import eval_on_lasso, random_formula, random_letters, temporal_count

p, q, r = Prop("p"), Prop("q"), Prop("r")
INIT2 = str(Path(__file__).resolve().parent.parent / "models" / "init2.json")


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
        # props_of and temporal_count walk without recursion and answer at
        # any depth; the other walks recurse once per level
        iterative = {props_of: frozenset({"p"}), temporal_count: 3000}
        deep = p
        for _ in range(3000):
            deep = Next(deep)
        if walk in iterative:
            assert walk(deep) == iterative[walk]
        else:
            with pytest.raises(ModelError, match="^input nests too deeply$"):
                walk(deep)
        assert walk(Next(Not(p))) == shallow

    def test_render_round_trip(self):
        rng = random.Random(424242)
        for _ in range(300):
            f = random_formula(rng, atoms=("p", "q", "one-down"), temporal_budget=3)
            assert parse_formula(render(f)) is f


class TestOutcomesArePinned:
    """The parser's outcomes, recorded before the operators became one
    table: the exact error line of each malformed formula through the
    command line, and a digest of the rendered text or error message of
    seeded random token strings, so that a change to the tokenizer or
    parser that alters any outcome fails here."""

    MALFORMED = [
        ("", "empty formula"),
        ("p q", "trailing input after formula: 'q'"),
        ("(p", "expected 'rparen' but found 'end of input'"),
        ("p /\\", "expected a formula but found 'end of input'"),
        ("p U", "expected a formula but found 'end of input'"),
        ("p & q", "cannot read formula at: '& q'"),
        ("U p", "expected a formula but found 'U'"),
        ("->", "expected a formula but found '->'"),
        ("(p))", "trailing input after formula: ')'"),
        ("p)", "trailing input after formula: ')'"),
        ("p -> -> q", "expected a formula but found '->'"),
        ("X", "expected a formula but found 'end of input'"),
        ("[] <>", "expected a formula but found 'end of input'"),
        (")", "expected a formula but found ')'"),
        ("(" * 3000, "input nests too deeply"),
    ]
    TOKENS = ("~", "[]", "<>", "/\\", "\\/", "->", "(", ")", "X", "U", "R", "true", "false", "&", "-", "?")
    IDENTS = ("p", "q", "one-down", "refill1?")
    DIGEST = "4a55a7d75cef241d81f9c0c515b81433ef3bdaa21aa936ace4e8453911e0d8da"

    @pytest.mark.parametrize("text,error", MALFORMED, ids=range(len(MALFORMED)))
    def test_malformed_formula_error_lines(self, text, error, capsys):
        assert main(["check", "--model", INIT2, "--time-bound", "5", "--formula=" + text]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_outcomes_match_the_recorded_digest(self):
        rng = random.Random(27027)
        tokens = self.TOKENS + self.IDENTS * 3
        digest = hashlib.sha256()
        for n in range(5000):
            text = (" " if n % 2 else "").join(rng.choice(tokens) for _ in range(rng.randint(1, 9)))
            try:
                outcome = render(parse_formula(text))
            except ModelError as err:
                outcome = f"error: {err}"
            digest.update(f"{text}\0{outcome}\n".encode())
        assert digest.hexdigest() == self.DIGEST


class TestTables:
    NODES = (Top, Bottom, Not, Next, Always, Eventually, And, Or, Implies, Until, Release)

    def test_every_node_class_has_a_symbol(self):
        assert set(_OPERATORS) == set(self.NODES)
        assert len(_NODE_OF) == len(self.NODES)
        for node, (_, level, right, _) in _OPERATORS.items():
            assert issubclass(node, Binary) == (level is not None) == (right is not None)
            assert issubclass(node, Unary) == (level is None and bool(node.__match_args__))

    def test_dual_is_an_involution(self):
        duals = {node: row[3] for node, row in _OPERATORS.items() if row[3] is not None}
        assert set(duals) == set(self.NODES) - {Not, Implies}
        for node, dual in duals.items():
            assert duals[dual] is node
            assert dual.__match_args__ == node.__match_args__

    def test_each_symbol_parses_to_its_node(self):
        for symbol, node in _NODE_OF.items():
            if issubclass(node, Binary):
                f, text = node(p, q), f"(p {symbol} q)"
            elif issubclass(node, Unary):
                f, text = node(p), f"{symbol} p"
            else:
                f, text = node(), symbol
            assert render(f) == text
            assert parse_formula(text) is f

    def test_subformulas_in_preorder_left_before_right(self):
        f = parse_formula("(p U X q) /\\ ~ p")
        assert list(subformulas(f)) == [f, Until(p, Next(q)), p, Next(q), q, Not(p), p]


class TestInterning:
    def test_same_structure_same_node(self):
        assert parse_formula("[] (p -> <> q)") is Always(Implies(Prop("p"), Eventually(Prop("q"))))
        assert Top() is Top()
        assert Not(p) is not Next(p)
        assert Until(p, q) is not Release(p, q)
        assert And(p, q) is not And(q, p)

    def test_keyword_construction_interns(self):
        assert Prop(name="p") is p
        assert Until(left=p, right=q) is Until(p, q)
        assert Until(p, right=q) is Until(p, q)
        assert Not(sub=p) is Not(p)

    def test_bad_arguments_raise_type_error(self):
        with pytest.raises(TypeError):
            Prop()
        with pytest.raises(TypeError):
            Prop("p", name="p")
        with pytest.raises(TypeError):
            Not(p, q)
        with pytest.raises(TypeError):
            Not(p, other=q)
        assert Prop("p").name == "p" and Not(p).sub is p

    def test_copies_are_the_node(self):
        f = parse_formula("[] (p -> <> q) /\\ (r U true)")
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f

    def test_pickle_round_trip_is_the_node(self):
        f = parse_formula("~ (p R X false) \\/ <> q")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(f, protocol)) is f

    def test_deep_formulas_hash_and_compare(self):
        deep = p
        for _ in range(3000):
            deep = Next(deep)
        again = p
        for _ in range(3000):
            again = Next(again)
        assert again is deep
        assert {deep: 1}[again] == 1


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
