"""Exact-arithmetic value types: Radical and RadicalSum."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from vcs_irreps.radical import Radical, RadicalSum, squarefree_decompose


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(360) == (6, 10)
    big = 2**6 * 3**5 * 7**2 * 11
    assert squarefree_decompose(big) == (2**3 * 3**2 * 7, 3 * 11)
    with pytest.raises(ValueError):
        squarefree_decompose(0)


def test_invariants_at_construction():
    with pytest.raises(ValueError):
        Radical(1, -2)
    with pytest.raises(ValueError):
        Radical(0, 3)
    with pytest.raises(ValueError):
        Radical(1, 0)
    with pytest.raises(ValueError):
        Radical(2, 1)
    r = Radical(-1, Fraction(18, 8))
    assert r.radicand == Fraction(9, 4)  # lowest terms


def test_value_and_square():
    r = Radical.sqrt_of(Fraction(1, 2))
    assert r.squared == Fraction(1, 2)
    assert math.isclose(float(r), math.sqrt(0.5))
    assert Radical.from_rational(Fraction(-3, 4)).as_fraction() == Fraction(-3, 4)
    assert Radical.from_rational(5) == Radical(1, 25)


def test_products_and_quotients_closed():
    a = Radical.sqrt_of(2)
    b = Radical.sqrt_of(3)
    assert (a * b).squared == 6
    assert (a / b).squared == Fraction(2, 3)
    assert (-a) * b == -(a * b)
    assert abs(-a) == a
    with pytest.raises(ZeroDivisionError):
        a / Radical.zero()


def test_addition_same_class_stays_exact():
    assert Radical.sqrt_of(8) + Radical.sqrt_of(2) == Radical.sqrt_of(18)
    assert Radical.sqrt_of(2) - Radical.sqrt_of(2) == Radical.zero()
    assert Radical.sqrt_of(3) + Radical.zero() == Radical.sqrt_of(3)
    assert Radical.from_rational(Fraction(1, 3)) + Fraction(2, 3) == Radical.one()


def test_addition_mixed_class_is_radical_sum():
    out = Radical.sqrt_of(2) + Radical.sqrt_of(3)
    assert isinstance(out, RadicalSum)
    assert out == RadicalSum({2: Fraction(1), 3: Fraction(1)})
    assert math.isclose(float(out), math.sqrt(2) + math.sqrt(3))
    assert Radical.sqrt_of(8) - Radical.sqrt_of(3) == RadicalSum({2: Fraction(2), 3: Fraction(-1)})
    assert 1 + Radical.sqrt_of(2) == RadicalSum({1: Fraction(1), 2: Fraction(1)})


def test_ordering_exact():
    assert Radical.sqrt_of(2) < Radical.sqrt_of(3)
    assert -Radical.sqrt_of(5) < Radical.sqrt_of(Fraction(1, 100))
    assert Radical.sqrt_of(2) > Radical.zero()
    vals = sorted([Radical.sqrt_of(3), -Radical.one(), Radical.zero()])
    assert vals == [-Radical.one(), Radical.zero(), Radical.sqrt_of(3)]


@pytest.mark.parametrize("compare", [lambda a, b: a >= b, lambda a, b: a <= b], ids=[">=", "<="])
def test_ordering_against_unsupported_operand_raises(compare):
    with pytest.raises(TypeError):
        compare(Radical(1, 2), "x")


def test_float_equality_is_exact_and_agrees_with_hash():
    assert Radical(1, 2) != 2**0.5  # irrational: equal to no float
    assert Radical(1, 4) == 2.0
    assert hash(Radical(1, 4)) == hash(2.0)
    assert Radical(-1, Fraction(1, 4)) == -0.5
    assert Radical.zero() == 0.0
    assert Radical(1, Fraction(1, 9)) != 1 / 3  # 1/3 has no exact float
    for value in (float("nan"), float("inf"), float("-inf")):
        assert Radical(1, 4) != value
        assert not Radical(1, 4) == value


def test_sqrt_of_rational_value():
    assert Radical.from_rational(Fraction(9, 4)).sqrt() == Radical.from_rational(Fraction(3, 2))
    with pytest.raises(ValueError):
        Radical.from_rational(-1).sqrt()
    with pytest.raises(ValueError):
        Radical.sqrt_of(2).sqrt()  # value is irrational


def test_json_round_trip():
    r = Radical(-1, Fraction(27, 2))
    assert Radical.from_json(r.to_json()) == r
    assert r.to_json() == {"sign": -1, "radicand": "27/2"}


def test_radical_sum_arithmetic():
    s = RadicalSum.from_value(Radical.sqrt_of(2)) + Radical.sqrt_of(3)
    s = s * s  # 5 + 2 sqrt(6)
    assert s.terms == {1: Fraction(5), 6: Fraction(2)}
    assert (s - s).is_zero()
    assert math.isclose(float(s), (math.sqrt(2) + math.sqrt(3)) ** 2)
    collapsed = RadicalSum.from_value(Radical.sqrt_of(8)) - Radical.sqrt_of(2)
    assert collapsed.to_radical() == Radical.sqrt_of(2)
    with pytest.raises(ValueError):
        (RadicalSum.from_value(Radical.sqrt_of(2)) + Radical.one()).to_radical()


def test_radical_sum_division_by_radical():
    s = RadicalSum.from_value(Radical.sqrt_of(6))
    assert (s / Radical.sqrt_of(2)).to_radical() == Radical.sqrt_of(3)
    assert (s / 2).to_radical() == Radical.sqrt_of(Fraction(3, 2))
