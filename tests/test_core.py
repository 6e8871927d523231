import random
import sys
from fractions import Fraction

import pytest

from lhamc.core import ModelError, TickTables, as_time, fraction_text, fraction_texts, parse_rational
from reference import monus


class TestParseRational:
    def test_integers(self):
        assert parse_rational("7") == Fraction(7)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational(5) == Fraction(5)
        assert parse_rational("0") == Fraction(0)

    def test_fractions_normalize(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("10/4") == Fraction(5, 2)
        assert parse_rational("-9/6") == Fraction(-3, 2)

    def test_whitespace_tolerated(self):
        assert parse_rational(" 3 / 2 ") == Fraction(3, 2)

    @pytest.mark.parametrize("bad", ["1.5", "", "a", "3/0", "1/-2", "3//2", None, 1.5, True, [1]])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ModelError):
            parse_rational(bad)

    # Arabic-Indic and fullwidth digits, and no-break spaces, are not ASCII
    @pytest.mark.parametrize("text", ["\u0663/\u0664", "\uff13", "1\u00a0/\u00a02", "\u0663\u0660"])
    def test_only_ascii_digits_and_spaces(self, text):
        with pytest.raises(ModelError) as err:
            parse_rational(text)
        assert str(err.value) == f"not a rational: {text!r} (expected 'p' or 'p/q')"

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no digit limit")
    @pytest.mark.parametrize("template", ["{}", "-{}", "1/{}", "{}/3"])
    def test_a_numeral_past_the_digit_limit_is_a_model_error(self, template):
        digits = sys.get_int_max_str_digits() + 1
        with pytest.raises(ModelError) as err:
            parse_rational(template.format("7" * digits))
        assert str(err.value) == f"not a rational: a numeral of {digits} digits, past the limit of {digits - 1}"

    def test_text_round_trip(self):
        rng = random.Random(20260814)
        for _ in range(300):
            value = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            assert parse_rational(str(value)) == value


class TestMonus:
    def test_plain_subtraction(self):
        assert monus(Fraction(30), Fraction(5)) == Fraction(25)

    def test_saturates_at_zero(self):
        assert monus(Fraction(5), Fraction(7)) == Fraction(0)
        assert monus(Fraction(0), Fraction(0)) == Fraction(0)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ModelError):
            monus(Fraction(-1), Fraction(0))
        with pytest.raises(ModelError):
            monus(Fraction(1), Fraction(-2))

    def test_matches_clamped_subtraction(self):
        rng = random.Random(7)
        for _ in range(400):
            a = Fraction(rng.randint(0, 1000), rng.randint(1, 50))
            b = Fraction(rng.randint(0, 1000), rng.randint(1, 50))
            assert monus(a, b) == max(a - b, Fraction(0))

    def test_chains_like_a_single_subtraction(self):
        rng = random.Random(8)
        for _ in range(200):
            a = Fraction(rng.randint(0, 500), rng.randint(1, 20))
            b = Fraction(rng.randint(0, 500), rng.randint(1, 20))
            c = Fraction(rng.randint(0, 500), rng.randint(1, 20))
            assert monus(monus(a, b), c) == monus(a, b + c)


class TestAsTime:
    def test_accepts_nonnegative(self):
        assert as_time("3/2") == Fraction(3, 2)
        assert as_time(0) == Fraction(0)

    def test_rejects_negative(self):
        with pytest.raises(ModelError):
            as_time("-1")


# Durations every model rejects, also after a tick of Fraction(1): 1.0 and
# True hash and compare equal to Fraction(1).
BAD_DURATIONS = [Fraction(-1), -1, 1.0, True, "x"]


def assert_the_duration_rule(model, delta) -> None:
    """The duration rule of every model: after a tick of ``Fraction(1)``, the
    bad duration ``delta`` raises in ``timed_successor`` and ``timed_trace``,
    and a zero duration returns the state itself."""
    state = model.initial_state()
    model.timed_successor(state, Fraction(1))
    with pytest.raises(ModelError):
        model.timed_successor(state, delta)
    with pytest.raises(ModelError):
        model.timed_trace(state, delta, 5)
    assert model.timed_successor(state, Fraction(0)) is state


class TestTickTables:
    @staticmethod
    def counted():
        made = []
        return made, TickTables(lambda d: made.append(d) or f"table of {d}")

    def test_one_table_per_distinct_duration(self):
        made, tables = self.counted()
        for delta in (Fraction(1, 2), Fraction(2, 4), Fraction(1, 2), 1, Fraction(1), "1", Fraction(1, 2)):
            assert tables.of(delta) == f"table of {as_time(delta)}"
        assert made == [Fraction(1, 2), Fraction(1)]

    def test_the_last_duration_is_known_by_identity(self):
        made, tables = self.counted()
        delta = Fraction(3)
        assert tables.of(delta) is tables.of(delta) is tables.table
        assert tables.last is delta and made == [delta]

    def test_zero_has_no_table(self):
        made, tables = self.counted()
        for zero in (Fraction(0), 0, "0", "0/5", Fraction(0, 3)):
            assert tables.of(zero) is None
            assert tables.of(Fraction(2)) == "table of 2"
        assert made == [Fraction(2)]

    @pytest.mark.parametrize("delta", BAD_DURATIONS)
    def test_a_bad_duration_raises_after_one_was_seen(self, delta):
        made, tables = self.counted()
        tables.of(Fraction(1))
        with pytest.raises(ModelError):
            tables.of(delta)
        assert tables.of(Fraction(1)) == "table of 1" and made == [Fraction(1)]


class TestFractionTexts:
    """``fraction_texts`` renders an arithmetic progression over one
    denominator as ``fraction_text`` renders each of its terms."""

    @staticmethod
    def one_by_one(start, step, den, count):
        texts = [fraction_text(start + k * step, den) for k in range(count)]
        assert texts == [str(Fraction(start + k * step, den)) for k in range(count)]
        return texts

    @pytest.mark.parametrize(
        "start,step,den,count",
        [
            (0, 1, 100, 250),  # positive step, many residue classes
            (7, -3, 12, 40),  # negative step, crossing zero into negative numerators
            (-30, 4, 6, 25),  # negative start
            (5, 0, 10, 7),  # zero step
            (-5, 0, 1, 3),
            (3, 7, 1, 20),  # den 1
            (-3, -7, 1, 20),
            (1, 1, 1000, 9),  # fewer terms than one residue period
            (0, 5, 15, 0),  # no terms
            (2, 3, 4, -2),
        ],
    )
    def test_matches_term_by_term(self, start, step, den, count):
        assert fraction_texts(start, step, den, count) == self.one_by_one(start, step, den, count)

    def test_random_progressions(self):
        rng = random.Random(2121)
        for _ in range(2000):
            den = rng.choice((1, 2, 6, 7, 12, 100, rng.randint(1, 300)))
            start, step, count = rng.randint(-400, 400), rng.randint(-60, 60), rng.randint(-2, 150)
            assert fraction_texts(start, step, den, count) == self.one_by_one(start, step, den, count)
