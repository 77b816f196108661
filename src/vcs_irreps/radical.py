"""Exact arithmetic with signed square roots of rationals.

A :class:`Radical` stores a value of the form ``sign * sqrt(radicand)`` with a
non-negative rational radicand kept in lowest terms.  Products and quotients of
radicals are again radicals, so the type is closed under everything needed to
evaluate coupling coefficients and ladder-operator matrix elements exactly.

Sums are not closed: ``sqrt(2) + sqrt(3)`` has no such representation.  Adding
two radicals therefore returns a :class:`Radical` when both terms share a
square class (or one is zero) and otherwise the exact :class:`RadicalSum`, a
linear combination over several square classes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Union

Rational = Union[int, Fraction]

# Trial-division bound for square-free extraction.  Every radicand produced by
# the coupling-coefficient formulas is a product of integers bounded by a few
# times the largest spin involved, so all prime factors are tiny.
_FACTOR_BOUND = 10_000


@lru_cache(maxsize=None)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = root**2 * core`` with ``core`` square-free; return ``(root, core)``."""
    if n <= 0:
        raise ValueError(f"positive integer required, got {n}")
    root, core = 1, 1
    p = 2
    while p <= _FACTOR_BOUND and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            root *= p ** (e // 2)
            if e % 2:
                core *= p
        p += 1 if p == 2 else 2
    # Leftover cofactor: either 1, a prime, a perfect square of a prime, or a
    # product of distinct large primes.  Peeling perfect squares covers every
    # case that can arise from inputs with prime factors below the bound.
    if n > 1:
        s = math.isqrt(n)
        if s * s == n:
            root *= s
        else:
            core *= n
    return root, core


def _sqrt_fraction_parts(q: Fraction) -> tuple[Fraction, int]:
    """Express ``sqrt(q)`` as ``coeff * sqrt(core)`` with ``core`` square-free."""
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0), 1
    p, d = q.numerator, q.denominator
    # sqrt(p/d) = sqrt(p*d)/d
    root, core = squarefree_decompose(p * d)
    return Fraction(root, d), core


def _float_sqrt(q: Fraction) -> float:
    """Correctly-rounded-enough float sqrt of a non-negative rational."""
    if q == 0:
        return 0.0
    num, den = q.numerator, q.denominator
    if max(num.bit_length(), den.bit_length()) < 512:
        return math.sqrt(num / den)
    # Very large operands: scale into range with an even power of two.
    shift = (num.bit_length() - den.bit_length()) // 2 * 2
    return math.sqrt((num << max(0, -shift)) / (den << max(0, shift))) * 2.0 ** (shift / 2)


@total_ordering
class Radical:
    """An exact value ``sign * sqrt(radicand)`` with rational ``radicand >= 0``."""

    __slots__ = ("sign", "radicand")

    def __init__(self, sign: int, radicand: Rational):
        radicand = Fraction(radicand)
        if radicand < 0:
            raise ValueError("radicand must be non-negative")
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if (sign == 0) != (radicand == 0):
            raise ValueError("sign is zero exactly when the radicand is zero")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "radicand", radicand)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Radical is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, q: Rational) -> "Radical":
        q = Fraction(q)
        if q == 0:
            return _ZERO
        return cls(1 if q > 0 else -1, q * q)

    @classmethod
    def sqrt_of(cls, q: Rational) -> "Radical":
        """The non-negative square root of a rational ``q >= 0``."""
        q = Fraction(q)
        if q == 0:
            return _ZERO
        return cls(1, q)

    @classmethod
    def zero(cls) -> "Radical":
        return _ZERO

    @classmethod
    def one(cls) -> "Radical":
        return _ONE

    # -- queries -----------------------------------------------------------

    @property
    def squared(self) -> Fraction:
        """The exact rational ``value**2``."""
        return self.radicand

    def is_zero(self) -> bool:
        return self.sign == 0

    def is_rational(self) -> bool:
        p, d = self.radicand.numerator, self.radicand.denominator
        rp, rd = math.isqrt(p), math.isqrt(d)
        return rp * rp == p and rd * rd == d

    def as_fraction(self) -> Fraction:
        """Exact rational value; raises ``ValueError`` if the value is irrational."""
        p, d = self.radicand.numerator, self.radicand.denominator
        rp, rd = math.isqrt(p), math.isqrt(d)
        if rp * rp != p or rd * rd != d:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.sign * rp, rd)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Radical):
            return Radical(self.sign * other.sign, self.radicand * other.radicand)
        if isinstance(other, (int, Fraction)):
            return self * Radical.from_rational(other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Radical):
            if other.sign == 0:
                raise ZeroDivisionError("division by zero Radical")
            return Radical(self.sign * other.sign, self.radicand / other.radicand)
        if isinstance(other, (int, Fraction)):
            return self / Radical.from_rational(other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Radical.from_rational(other) / self
        return NotImplemented

    def __neg__(self):
        if self.sign == 0:
            return self
        return Radical(-self.sign, self.radicand)

    def __abs__(self):
        if self.sign < 0:
            return -self
        return self

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Radical.from_rational(other)
        if not isinstance(other, Radical):
            return NotImplemented
        if other.sign == 0:
            return self
        if self.sign == 0:
            return other
        c1, d1 = _sqrt_fraction_parts(self.radicand)
        c2, d2 = _sqrt_fraction_parts(other.radicand)
        if d1 == d2:
            coeff = self.sign * c1 + other.sign * c2
            if coeff == 0:
                return _ZERO
            return Radical(1 if coeff > 0 else -1, coeff * coeff * d1)
        return RadicalSum({d1: self.sign * c1, d2: other.sign * c2})

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Radical.from_rational(other)
        if not isinstance(other, Radical):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def sqrt(self) -> "Radical":
        """Square root, defined when the value itself is a non-negative rational."""
        if self.sign < 0:
            raise ValueError("square root of a negative value")
        if self.sign == 0:
            return _ZERO
        return Radical.sqrt_of(self.as_fraction())

    # -- conversions -------------------------------------------------------

    def __float__(self) -> float:
        return self.sign * _float_sqrt(self.radicand)

    # -- ordering / identity -----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Radical.from_rational(other)
        if isinstance(other, Radical):
            return self.sign == other.sign and self.radicand == other.radicand
        if isinstance(other, float):
            # Exact, so that equal values hash alike: an irrational value
            # equals no float, and nan and inf equal nothing here.
            return self.is_rational() and self.as_fraction() == other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Radical.from_rational(other)
        if not isinstance(other, Radical):
            return NotImplemented
        if self.sign != other.sign:
            return self.sign < other.sign
        if self.sign >= 0:
            return self.radicand < other.radicand
        return self.radicand > other.radicand

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self.sign, self.radicand))

    def __repr__(self):
        return f"Radical({self.sign:+d}, {self.radicand})"

    def __str__(self):
        if self.is_rational():
            return str(self.as_fraction())
        s = "-" if self.sign < 0 else ""
        return f"{s}sqrt({self.radicand})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"sign": self.sign, "radicand": str(self.radicand)}

    @classmethod
    def from_json(cls, obj: dict) -> "Radical":
        return cls(int(obj["sign"]), Fraction(obj["radicand"]))


_ZERO = Radical.__new__(Radical)
object.__setattr__(_ZERO, "sign", 0)
object.__setattr__(_ZERO, "radicand", Fraction(0))
_ONE = Radical(1, Fraction(1))


class RadicalSum:
    """An exact linear combination ``sum_d coeff_d * sqrt(d)`` over square-free ``d``.

    Closed under addition, subtraction and multiplication, which is what exact
    matrix arithmetic needs.  Division is supported by radicals and rationals
    only.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        self.terms = {d: c for d, c in (terms or {}).items() if c != 0}

    @classmethod
    def from_value(cls, value) -> "RadicalSum":
        if isinstance(value, RadicalSum):
            return value
        if isinstance(value, Radical):
            if value.sign == 0:
                return cls()
            coeff, core = _sqrt_fraction_parts(value.radicand)
            return cls({core: value.sign * coeff})
        if isinstance(value, (int, Fraction)):
            q = Fraction(value)
            return cls({1: q}) if q else cls()
        raise TypeError(f"cannot build RadicalSum from {type(value).__name__}")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = RadicalSum.from_value(other)
        terms = dict(self.terms)
        for d, c in other.terms.items():
            c2 = terms.get(d, Fraction(0)) + c
            if c2:
                terms[d] = c2
            else:
                terms.pop(d, None)
        return RadicalSum(terms)

    __radd__ = __add__

    def __neg__(self):
        return RadicalSum({d: -c for d, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-RadicalSum.from_value(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = RadicalSum.from_value(other)
        out: dict[int, Fraction] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                g = math.gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                c = c1 * c2 * g
                acc = out.get(d, Fraction(0)) + c
                if acc:
                    out[d] = acc
                else:
                    out.pop(d, None)
        return RadicalSum(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Radical.from_rational(other)
        if isinstance(other, Radical):
            if other.sign == 0:
                raise ZeroDivisionError
            inv = Radical(other.sign, 1 / other.radicand)
            return self * inv
        return NotImplemented

    def __eq__(self, other):
        try:
            other = RadicalSum.from_value(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def to_radical(self) -> Radical:
        """Collapse to a single :class:`Radical`; raises if several classes remain."""
        if not self.terms:
            return Radical.zero()
        if len(self.terms) > 1:
            raise ValueError(f"{self} spans more than one square class")
        ((d, c),) = self.terms.items()
        return Radical(1 if c > 0 else -1, c * c * d)

    def __float__(self) -> float:
        return sum((float(c) * math.sqrt(d) for d, c in self.terms.items()), 0.0)

    def __repr__(self):
        if not self.terms:
            return "RadicalSum(0)"
        parts = [f"({c})*sqrt({d})" for d, c in sorted(self.terms.items())]
        return "RadicalSum(" + " + ".join(parts) + ")"


def radical_terms(value) -> list[tuple[int, int, int]]:
    """An exact scalar as ``(core, num, den)`` terms of ``sum num/den * sqrt(core)``, ``core`` square-free.

    Integer-only: the square class comes from the cached
    :func:`squarefree_decompose`, and no ``Fraction`` is built.
    """
    if isinstance(value, Radical):
        if value.is_zero():
            return []
        p, d = value.radicand.numerator, value.radicand.denominator
        root, core = squarefree_decompose(p * d)  # sqrt(p/d) = root * sqrt(core) / d
        return [(core, value.sign * root, d)]
    if isinstance(value, RadicalSum):
        return [(core, c.numerator, c.denominator) for core, c in value.terms.items()]
    return [(1, value.numerator, value.denominator)] if value else []


def as_float(value) -> float:
    if isinstance(value, (int, Fraction, Radical, RadicalSum)):
        return float(value)
    return value
