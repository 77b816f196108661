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
# times the largest spin involved, so all prime factors are tiny; only a
# user's rational (an su(1,1) lambda, a weight, a replayed value) brings larger ones.
_FACTOR_BOUND = 10_000


def _primes_to(bound: int) -> tuple[int, ...]:
    """The primes up to ``bound``, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (bound - 1)
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound + 1, p)))
    return tuple(p for p, prime in enumerate(sieve) if prime)


_PRIMES = _primes_to(_FACTOR_BOUND)


@lru_cache(maxsize=None)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = root**2 * core`` with ``core`` square-free; return ``(root, core)``.

    A perfect square returns ``(isqrt(n), 1)`` at once: every rational value
    reaches here as ``q**2`` (see :meth:`Radical.from_rational`).  Otherwise
    trial division by the primes up to ``_FACTOR_BOUND`` while ``p * p <= n``.
    The cofactor left has only primes above the bound.  Below
    ``_FACTOR_BOUND**3`` it holds at most two of them, so it is square-free
    unless it is a square.  Below ``_RHO_LIMIT`` a composite one is split by
    :func:`_rho_divisor` and the classes of the two parts are joined; one
    that rho cannot split has, but for rho's small chance of a miss, no prime
    up to about 10**7, so at most two primes, and is square-free too.  From
    ``_RHO_LIMIT`` on, the cofactor is kept whole: square-free unless it
    holds the square of a prime above the bound.
    """
    if n <= 0:
        raise ValueError(f"positive integer required, got {n}")
    root = math.isqrt(n)
    if root * root == n:
        return root, 1
    root, core = 1, 1
    for p in _PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            root *= p ** (e // 2)
            if e % 2:
                core *= p
    if n > 1:
        s = math.isqrt(n)
        if s * s == n:
            root *= s
        elif not _FACTOR_BOUND**3 <= n < _RHO_LIMIT or (d := _rho_divisor(n)) == 1:
            core *= n
        else:  # join the square classes of the two parts
            (r1, c1), (r2, c2) = map(squarefree_decompose, (d, n // d))
            g = math.gcd(c1, c2)
            root, core = root * r1 * r2 * g, core * (c1 // g) * (c2 // g)
    return root, core


def _is_prime(n: int) -> bool:
    """Miller-Rabin on an odd ``n`` above ``_FACTOR_BOUND``; these 13 witnesses make it exact below 3.3e24."""
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**r with d odd
    for a in _PRIMES[:13]:
        x = pow(a, (n - 1) >> r, n)
        if x != 1 and x != n - 1 and all((x := x * x % n) != n - 1 for _ in range(r - 1)):
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of an odd ``n`` below ``_RHO_LIMIT`` that is not a square; 1 if ``n`` is prime or none shows.

    Pollard's rho with Brent's cycle search: the walk ``y -> y*y + c (mod n)``
    starts at 2, so the result is a pure function of ``n``, and step
    differences are multiplied ``_RHO_BATCH`` at a time before one gcd.  The
    walk's window stops doubling past ``_RHO_STEPS``, where a prime up to
    about 10**7 has shown, within a few milliseconds.
    """
    if _is_prime(n):
        return 1
    for c in (1, 2, 3):  # a batch that meets every prime at once (g == n, about 1 walk in 100) tries the next c
        y, r, g = 2, 1, 1
        while g == 1 and r <= _RHO_STEPS:
            x, q = y, 1
            for k in range(0, r, _RHO_BATCH):
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                if (g := math.gcd(q, n)) != 1:
                    break
            r *= 2
        if g != n:
            return g
    return 1


_RHO_BATCH = 128
_RHO_STEPS = 2**12
_RHO_LIMIT = 10**21  # (10**7)**3: a cofactor below it that rho cannot split has at most two primes


def float_sqrt(num: int, den: int) -> float:
    """Correctly-rounded-enough float sqrt of the non-negative rational ``num / den``."""
    if num == 0:
        return 0.0
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
        if not isinstance(radicand, Fraction):
            radicand = Fraction(radicand)
        if radicand.numerator < 0:
            raise ValueError("radicand must be non-negative")
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if (sign == 0) != (radicand.numerator == 0):
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
        ((d1, n1, e1),), ((d2, n2, e2),) = radical_terms(self), radical_terms(other)
        c1, c2 = Fraction(n1, e1), Fraction(n2, e2)
        if d1 == d2:
            coeff = c1 + c2
            if coeff == 0:
                return _ZERO
            return Radical(1 if coeff > 0 else -1, coeff * coeff * d1)
        return RadicalSum({d1: c1, d2: c2})

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
        return self.sign * float_sqrt(self.radicand.numerator, self.radicand.denominator)

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
        sign, num, den = json_radical(obj)
        return cls(sign, Fraction(num, den))


def json_radical(obj: dict) -> tuple[int, int, int]:
    """A ``{"sign", "radicand"}`` value as ``(sign, num, den)``, radicand ``num / den`` in lowest terms.

    No object is built.  The sign is read by ``int``, the radicand as ``Fraction`` reads it (``str(Fraction)``'s
    form, ASCII digits and at most one ``/``, by ``int``), and a pair that ``Radical`` refuses raises its error.
    """
    sign, text = int(obj["sign"]), obj["radicand"]
    num, slash, den = text.partition("/") if type(text) is str and text.isascii() else ("", "", "")
    n, d = (int(num), int(den or 1)) if num.isdigit() and (den.isdigit() or not slash) else (0, 0)
    if not d:  # any other form, or a zero denominator, as Fraction reads or refuses it
        q = Fraction(text)
        n, d = q.numerator, q.denominator
    if sign not in (-1, 0, 1) or (sign == 0) != (n == 0) or n < 0:
        Radical(sign, n)  # raises the ValueError of Radical
    g = math.gcd(n, d)
    return sign, n // g, d // g


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
        if isinstance(value, (int, Fraction, Radical)):
            return cls({core: Fraction(num, den) for core, num, den in radical_terms(value)})
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
