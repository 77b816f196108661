"""Exact SU(2) coupling coefficients: Clebsch-Gordan and unitary Racah U.

All coefficients are evaluated from the closed-form alternating sums over
arbitrary-precision integers and returned as :class:`~vcs_irreps.radical.Radical`
values (the alternating sum is rational and the prefactor is the square root
of a rational, so the result is always exactly representable).

Phase convention is Condon-Shortley throughout.  ``racah_u`` is the unitary
recoupling coefficient normalised so that ``sum_f U(abcd;ef) U(abcd;e'f) =
delta(e,e')``, i.e. ``U = sqrt((2e+1)(2f+1)) W(abcd;ef)``.

Angular momenta may be passed as ints, ``Fraction``, :class:`Spin`, or floats
that are exact multiples of 1/2; they are converted to twice-integer form
internally; ``clebsch_gordan_twice`` takes the doubled integers directly, for
callers that already hold them.  One integer kernel sums Racah's series and
returns ``(sign, num, den)``, which the exact caller wraps in a cached
``Radical``.  The su(3) rotor builder needs only rank-2 coefficients
``(L M, 2 nu | L' M+nu)`` at integer L, and :func:`rank2_cg_parts` gives them
as int64 arrays ``(sign, num, den)`` over a whole M range from their closed
forms (Edmonds, Table 2): ``sign * np.sqrt(num / den)`` has the bits of
``float()`` of the exact value, and ``Radical(sign, Fraction(num, den))`` is
the exact value.  Everything here is a pure function of its arguments; the
memo caches are ``functools.lru_cache`` instances, safe for concurrent
callers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np

from .radical import Radical

SpinLike = Union[int, float, Fraction, "Spin"]


class SpinError(ValueError):
    """Malformed spin or projection input (range or parity violation)."""


class Spin:
    """An angular momentum stored as its doubled (integer) value."""

    __slots__ = ("twice",)

    def __init__(self, value: SpinLike):
        if isinstance(value, Spin):
            twice = value.twice
        else:
            twice = _twice(value)
        if twice < 0:
            raise SpinError(f"spin must be non-negative, got {Fraction(twice, 2)}")
        object.__setattr__(self, "twice", twice)

    def __setattr__(self, name, value):
        raise AttributeError("Spin is immutable")

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice, 2)

    def projections(self) -> list[Fraction]:
        """All m with |m| <= j and j - m integer, ascending."""
        return [Fraction(tm, 2) for tm in range(-self.twice, self.twice + 1, 2)]

    def __eq__(self, other):
        if isinstance(other, Spin):
            return self.twice == other.twice
        try:
            return self.twice == _twice(other)
        except (TypeError, SpinError):
            return NotImplemented

    def __hash__(self):
        return hash(("Spin", self.twice))

    def __repr__(self):
        return f"Spin({self.value})"


def _twice(value: SpinLike) -> int:
    """Twice the value of a spin-like number, validating half-integerness."""
    if isinstance(value, Fraction) and value.denominator <= 2:
        return value.numerator * (2 // value.denominator)
    if isinstance(value, Spin):
        return value.twice
    if isinstance(value, bool):
        raise SpinError("bool is not a spin")
    if isinstance(value, int):
        return 2 * value
    q = Fraction(value)
    t = q * 2
    if t.denominator != 1:
        raise SpinError(f"{value} is not an integer or half-odd-integer")
    return int(t)


@lru_cache(maxsize=None)
def _fact(n: int) -> int:
    if n < 0:
        raise ValueError("factorial of negative integer")
    r = 1
    for i in range(2, n + 1):
        r *= i
    return r


def _tfact(twice: int) -> int:
    """Factorial of ``twice/2``, which must be a non-negative even twice-integer."""
    if twice % 2:
        raise ValueError("factorial argument is not an integer")
    return _fact(twice // 2)


def _triangle_ok(ta: int, tb: int, tc: int) -> bool:
    return (
        abs(ta - tb) <= tc <= ta + tb
        and (ta + tb + tc) % 2 == 0
        and ta >= 0
        and tb >= 0
        and tc >= 0
    )


def _delta_sq(ta: int, tb: int, tc: int) -> Fraction:
    """Squared triangle coefficient (a+b-c)!(a-b+c)!(-a+b+c)!/(a+b+c+1)!."""
    return Fraction(
        _tfact(ta + tb - tc) * _tfact(ta - tb + tc) * _tfact(-ta + tb + tc),
        _tfact(ta + tb + tc + 2),
    )


def _validate_pair(tj: int, tm: int, what: str):
    """Negative spins and parity mismatches are errors; out-of-range projections just give zero."""
    if tj < 0:
        raise SpinError(f"spin must be non-negative, got {Fraction(tj, 2)}")
    if (tj + tm) % 2:
        raise SpinError(f"{what} projection has wrong parity for its spin")


def _cg_parts(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> tuple[int, int, int]:
    """``(sign, num, den)`` with ``(j1 m1, j2 m2 | J M) = sign * sqrt(num / den)``; ``(0, 0, 1)`` for zero."""
    if tM != tm1 + tm2 or not _triangle_ok(tj1, tj2, tJ):
        return 0, 0, 1
    # Racah's single-sum form of the Condon-Shortley coefficient, summed in
    # plain integers over the least common denominator of its terms.  The
    # callers' parity checks make every halved argument below an integer.
    a, b, c = (tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    d, e = (tJ - tj2 + tm1) // 2, (tJ - tj1 - tm2) // 2
    kmin, kmax = max(0, -d, -e), min(a, b, c)
    if kmin > kmax:
        return 0, 0, 1
    dens = [
        _fact(k) * _fact(a - k) * _fact(b - k) * _fact(c - k) * _fact(d + k) * _fact(e + k)
        for k in range(kmin, kmax + 1)
    ]
    common = math.lcm(*dens)
    total = sum(-(common // den) if k % 2 else common // den for k, den in enumerate(dens, kmin))
    if total == 0:
        return 0, 0, 1
    num = (
        (tJ + 1)
        * _fact(a)
        * _fact((tj1 - tj2 + tJ) // 2)
        * _fact((tj2 - tj1 + tJ) // 2)
        * _fact((tJ + tM) // 2)
        * _fact((tJ - tM) // 2)
        * _fact((tj1 + tm1) // 2)
        * _fact(b)
        * _fact(c)
        * _fact((tj2 - tm2) // 2)
    )
    den = _fact((tj1 + tj2 + tJ) // 2 + 1) * common * common
    return (1 if total > 0 else -1), num * total * total, den


@lru_cache(maxsize=None)
def _cg_twice(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> Radical:
    sign, num, den = _cg_parts(tj1, tm1, tj2, tm2, tJ, tM)
    return Radical(sign, Fraction(num, den)) if sign else Radical.zero()


def _in_range(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> bool:
    """Validate the doubled arguments; False when a projection exceeds its spin (a zero coefficient)."""
    _validate_pair(tj1, tm1, "j1")
    _validate_pair(tj2, tm2, "j2")
    _validate_pair(tJ, tM, "J")
    return abs(tm1) <= tj1 and abs(tm2) <= tj2 and abs(tM) <= tJ


def clebsch_gordan(
    j1: SpinLike, m1: SpinLike, j2: SpinLike, m2: SpinLike, J: SpinLike, M: SpinLike
) -> Radical:
    """Condon-Shortley coefficient ``(j1 m1, j2 m2 | J M)``, exact.

    Returns zero when ``M != m1 + m2`` or the triangle condition fails; raises
    :class:`SpinError` for malformed spin/projection pairings.
    """
    return clebsch_gordan_twice(*(_twice(x) for x in (j1, m1, j2, m2, J, M)))


def clebsch_gordan_twice(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> Radical:
    """``(j1 m1, j2 m2 | J M)`` from the doubled (integer) arguments ``2 j1, 2 m1, ...``.

    Same rules as :func:`clebsch_gordan`, without converting its arguments.
    """
    if not _in_range(tj1, tm1, tj2, tm2, tJ, tM):
        return Radical.zero()
    return _cg_twice(tj1, tm1, tj2, tm2, tJ, tM)


# (L M, 2 nu | L+d M+nu) = f * sqrt(g / q) for nu >= 0, from the closed forms: q
# depends on d and L, f and g on d, nu, L and M; f carries the sign.
_RANK2_Q = {
    2: lambda L: (2 * L + 1) * (2 * L + 2) * (2 * L + 3) * (2 * L + 4),
    1: lambda L: 2 * L * (L + 1) * (L + 2) * (2 * L + 1),
    0: lambda L: 2 * L * (L + 1) * (2 * L - 1) * (2 * L + 3),
    -1: lambda L: 2 * (L - 1) * L * (L + 1) * (2 * L + 1),
    -2: lambda L: 2 * L * (2 * L - 2) * (2 * L - 1) * (2 * L + 1),
}
_RANK2_FG = {
    (2, 0): lambda L, M: (1, 6 * (L - M + 1) * (L - M + 2) * (L + M + 1) * (L + M + 2)),
    (2, 1): lambda L, M: (1, 4 * (L - M + 1) * (L + M + 1) * (L + M + 2) * (L + M + 3)),
    (2, 2): lambda L, M: (1, (L + M + 1) * (L + M + 2) * (L + M + 3) * (L + M + 4)),
    (1, 0): lambda L, M: (M, 6 * (L - M + 1) * (L + M + 1)),
    (1, 1): lambda L, M: (2 * M - L, (L + M + 1) * (L + M + 2)),
    (1, 2): lambda L, M: (-1, (L - M) * (L + M + 1) * (L + M + 2) * (L + M + 3)),
    (0, 0): lambda L, M: (3 * M * M - L * (L + 1), 2),
    (0, 1): lambda L, M: (-(2 * M + 1), 3 * (L - M) * (L + M + 1)),
    (0, 2): lambda L, M: (1, 3 * (L - M) * (L - M - 1) * (L + M + 1) * (L + M + 2)),
    (-1, 0): lambda L, M: (-M, 6 * (L - M) * (L + M)),
    (-1, 1): lambda L, M: (L + 2 * M + 1, (L - M) * (L - M - 1)),
    (-1, 2): lambda L, M: (-1, (L - M) * (L - M - 1) * (L - M - 2) * (L + M + 1)),
    (-2, 0): lambda L, M: (1, 6 * (L - M) * (L - M - 1) * (L + M) * (L + M - 1)),
    (-2, 1): lambda L, M: (-1, 4 * (L - M) * (L - M - 1) * (L - M - 2) * (L + M)),
    (-2, 2): lambda L, M: (1, (L - M) * (L - M - 1) * (L - M - 2) * (L - M - 3)),
}
# For |M| <= L every f * f * g and q above is below 6 (2L + 4)**4, which stays
# under 2**53 up to this L.
RANK2_MAX_L = 3110


def rank2_cg_parts(L: int, Lp: int, M, nu) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Int64 arrays ``(sign, num, den)`` with ``(L M, 2 nu | Lp M+nu) = sign * sqrt(num / den)``.

    ``M`` and ``nu`` are integer arrays (or scalars) broadcast against each
    other; ``L`` and ``Lp`` are integers.  Zero coefficients, out-of-range
    projections and a failed triangle included, give ``(0, 0, 1)``.  A
    negative ``nu`` comes from the mirror ``(L -M, 2 -nu | Lp -M-nu) =
    (-1)**(L+2-Lp) (L M, 2 nu | Lp M+nu)``.  ``num`` and ``den`` are exact
    in a float64, so ``sign * np.sqrt(num / den)`` rounds the exact value's
    square once and its root once, as ``float()`` of the exact ``Radical``
    does.  Raises ``OverflowError`` above ``L = RANK2_MAX_L``, where they
    could reach 2**53.
    """
    if L > RANK2_MAX_L:
        raise OverflowError(f"rank-2 coefficients at L={L} exceed float64 integers (L <= {RANK2_MAX_L})")
    M, nu = np.broadcast_arrays(np.asarray(M, dtype=np.int64), np.asarray(nu, dtype=np.int64))
    f, g = np.zeros(M.shape, np.int64), np.zeros(M.shape, np.int64)
    d = Lp - L
    if abs(d) > 2 or Lp < abs(L - 2):
        return f, g, np.ones(M.shape, np.int64)
    valid = (np.abs(M) <= L) & (np.abs(nu) <= 2) & (np.abs(M + nu) <= Lp)
    flip = np.where(nu < 0, -1, 1)  # the mirror (M, nu) -> (-M, -nu), and its sign is flip**d
    m, n = np.where(valid, flip * M, 0), np.where(valid, np.abs(nu), -1)
    for k in range(3):
        at = n == k
        if at.any():
            fk, gk = _RANK2_FG[(d, k)](L, m)
            f, g = np.where(at, fk, f), np.where(at, gk, g)
    return np.sign(f) * np.sign(g) * flip ** abs(d), f * f * g, np.where(valid, _RANK2_Q[d](L), 1)


@lru_cache(maxsize=None)
def _sixj_twice(ta: int, tb: int, tc: int, td: int, te: int, tf: int) -> Radical:
    for tri in ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc)):
        if not _triangle_ok(*tri):
            return Radical.zero()
    t1 = ta + tb + tc
    t2 = ta + te + tf
    t3 = td + tb + tf
    t4 = td + te + tc
    t5 = ta + tb + td + te
    t6 = tb + tc + te + tf
    t7 = ta + tc + td + tf
    zmin = max(t1, t2, t3, t4)
    zmax = min(t5, t6, t7)
    total = Fraction(0)
    for tz in range(zmin, zmax + 1, 2):
        den = (
            _tfact(tz - t1)
            * _tfact(tz - t2)
            * _tfact(tz - t3)
            * _tfact(tz - t4)
            * _tfact(t5 - tz)
            * _tfact(t6 - tz)
            * _tfact(t7 - tz)
        )
        num = _tfact(tz + 2)
        term = Fraction(num, den)
        total += -term if (tz // 2) % 2 else term
    if total == 0:
        return Radical.zero()
    pref = _delta_sq(ta, tb, tc) * _delta_sq(ta, te, tf) * _delta_sq(td, tb, tf) * _delta_sq(td, te, tc)
    return Radical(1 if total > 0 else -1, pref * total * total)


def wigner_6j(
    a: SpinLike, b: SpinLike, c: SpinLike, d: SpinLike, e: SpinLike, f: SpinLike
) -> Radical:
    """The 6j symbol ``{a b c; d e f}``, exact."""
    return _sixj_twice(*(Spin(x).twice for x in (a, b, c, d, e, f)))


def racah_u(
    a: SpinLike, b: SpinLike, c: SpinLike, d: SpinLike, e: SpinLike, f: SpinLike
) -> Radical:
    """Unitary recoupling coefficient ``U(a b c d; e f)``.

    Relates ``|(ab)e, d; c>`` to ``|a, (bd)f; c>``:
    ``U(abcd;ef) = sqrt((2e+1)(2f+1)) * (-1)**(a+b+c+d) * {a b e; d c f}``.
    Returns zero when any of the four triangle conditions fails.
    """
    ta, tb, tc, td, te, tf = (Spin(x).twice for x in (a, b, c, d, e, f))
    if not (
        _triangle_ok(ta, tb, te)
        and _triangle_ok(te, td, tc)
        and _triangle_ok(tb, td, tf)
        and _triangle_ok(ta, tf, tc)
    ):
        return Radical.zero()
    six = _sixj_twice(ta, tb, te, td, tc, tf)
    if six.is_zero():
        return Radical.zero()
    norm = Radical.sqrt_of(Fraction((te + 1) * (tf + 1)))
    tsum = ta + tb + tc + td
    if tsum % 2:
        raise SpinError("a+b+c+d is not an integer despite valid triangles")
    phase = -1 if (tsum // 2) % 2 else 1
    return norm * six * phase
