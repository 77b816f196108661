"""Exact-arithmetic value types: Radical and RadicalSum."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from vcs_irreps import radical, su11
from vcs_irreps.radical import Radical, RadicalSum, squarefree_decompose


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(360) == (6, 10)
    big = 2**6 * 3**5 * 7**2 * 11
    assert squarefree_decompose(big) == (2**3 * 3**2 * 7, 3 * 11)
    with pytest.raises(ValueError):
        squarefree_decompose(0)


def _factorint_split(n: int) -> tuple[int, int]:
    """``(root, core)`` of ``n`` from sympy's factorization."""
    root, core = 1, 1
    for p, e in sympy.factorint(n).items():
        root *= p ** (e // 2)
        core *= p ** (e % 2)
    return root, core


def test_primes_are_the_primes_up_to_the_bound():
    assert radical._PRIMES == tuple(sympy.primerange(radical._FACTOR_BOUND + 1))


def test_squarefree_decompose_matches_factorint_on_a_range():
    # Below the bound squared no prime above it can appear twice.
    for n in range(1, 5000):
        assert squarefree_decompose.__wrapped__(n) == _factorint_split(n), n


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(1, radical._FACTOR_BOUND**2))
def test_squarefree_decompose_matches_factorint_below_the_bound_squared(n):
    assert squarefree_decompose.__wrapped__(n) == _factorint_split(n)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(1, 10**80))
def test_squarefree_decompose_of_a_perfect_square_is_its_root(r):
    assert squarefree_decompose.__wrapped__(r * r) == (r, 1)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(1, radical._FACTOR_BOUND**2), st.integers(1, radical._FACTOR_BOUND))
def test_squarefree_decompose_leaves_a_square_free_core(n, square):
    # Below the bound squared, n has at most one prime above the bound, and
    # that to the first power; the square's primes are all below it.
    n *= square * square
    root, core = squarefree_decompose.__wrapped__(n)
    assert root * root * core == n
    assert all(e == 1 for e in sympy.factorint(core).values())


@pytest.mark.parametrize(
    "n",
    [10007**2 * 10009, 10007**2 * 10009**2, 10007**2 * 10009**2 * 10037, 10007**3 * 10009,
     2**5 * 3 * 10007**2 * 10009, 1000003**2 * 100003, 1000003**2 * 10009 * 10037, 10007**4 * 10009],
    ids=["p2q", "p2q2", "p2q2r", "p3q", "small-times-p2q", "P2Q", "P2qr", "p4q"],
)
def test_squarefree_decompose_splits_a_cofactor_of_primes_above_the_bound(n):
    # a square of a prime above the bound must leave the core, whatever it is multiplied by
    assert n < radical._RHO_LIMIT
    assert squarefree_decompose.__wrapped__(n) == _factorint_split(n)


_LARGE_PRIMES = [int(p) for p in sympy.primerange(radical._FACTOR_BOUND, radical._FACTOR_BOUND + 300)]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_LARGE_PRIMES), min_size=2, max_size=4), st.integers(1, radical._FACTOR_BOUND))
def test_squarefree_decompose_matches_factorint_above_the_bound(primes, small):
    # up to four primes just above the bound, often repeated, times a small part: below the rho limit
    n = small * math.prod(primes)
    assert n < radical._RHO_LIMIT
    assert squarefree_decompose.__wrapped__(n) == _factorint_split(n)


def test_squarefree_decompose_matches_factorint_on_su11_radicands():
    # the su(1,1) integers at the size of induce-su11: p * d of each
    # holomorphic block's radicand as a Radical, and of each closed-form
    # (lam + n)(n + 1) radicand
    irrep = su11.Su11Irrep(Fraction(7, 2), 1000)
    rep = su11.holomorphic_gamma_rep(irrep)
    radicands = [Radical.from_rational(b[0][0]).radicand for blocks in rep.blocks.values() for b in blocks.values()]
    radicands += [v.radicand for v in su11.generator_matrices(irrep)["S+"].entries.values()]
    seen = {q.numerator * q.denominator for q in radicands}
    assert len(seen) > 2000
    for n in seen:
        assert squarefree_decompose.__wrapped__(n) == _factorint_split(n), n


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


def test_constructor_refusals():
    # the same errors for a Fraction radicand and for any other rational form
    for radicand in (-1, Fraction(-1, 2), -0.5):
        with pytest.raises(ValueError, match="radicand must be non-negative"):
            Radical(1, radicand)
    with pytest.raises(ValueError, match="radicand must be non-negative"):
        Radical(5, -1)
    with pytest.raises(ValueError, match="sign must be -1, 0 or \\+1"):
        Radical(2, 1)
    for sign, radicand in ((0, 1), (1, 0), (-1, Fraction(0))):
        with pytest.raises(ValueError, match="sign is zero exactly when the radicand is zero"):
            Radical(sign, radicand)
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        Radical(1, "x")
    with pytest.raises(TypeError):
        Radical(1, None)
    for radicand in ("1/2", 0.5, Fraction(1, 2)):
        value = Radical(1, radicand)
        assert type(value.radicand) is Fraction and value.radicand == Fraction(1, 2)


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


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.integers(2, 10**4), st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 10**3), st.sampled_from([-1, 1])
)
def test_radical_sum_of_a_radical_with_squared_factors_is_one_square_class(f, p, q, g, sign):
    r = Radical(sign, Fraction(f * f * p, g * g * q))
    ((core, c),) = RadicalSum.from_value(r).terms.items()
    assert all(e == 1 for e in sympy.factorint(core).values())
    assert c * c * core == r.squared
    assert (c > 0) == (sign > 0)
    assert RadicalSum.from_value(r).to_radical() == r


def test_radical_sum_division_by_radical():
    s = RadicalSum.from_value(Radical.sqrt_of(6))
    assert (s / Radical.sqrt_of(2)).to_radical() == Radical.sqrt_of(3)
    assert (s / 2).to_radical() == Radical.sqrt_of(Fraction(3, 2))
