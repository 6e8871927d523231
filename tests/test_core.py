import random
from fractions import Fraction

import pytest

from lhamc.core import ModelError, as_time, parse_rational
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
