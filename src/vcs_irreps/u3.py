"""Generic u(3) irreps in the canonical U(2)-coupled (Gelfand-Tsetlin) basis.

A highest weight ``{w1, w2, w3}`` (rationals with integer differences,
``w1 >= w2 >= w3``) fixes the intrinsic u(2) spin ``s = (w2 - w3)/2``.  Basis
states carry labels ``(j, S, M)`` where ``2j`` counts lowering steps from the
highest-grade space, ``S`` is the U(2) spin and ``M`` its projection; the
admissible ``(j, S)`` pairs are exactly the images of the Gelfand betweenness
conditions ``w2 <= m12 <= w1``, ``w3 <= m22 <= w2`` under ``2S = m12 - m22``,
``2j = m12 + m22 - w2 - w3``.

The Cartan and U(2) generators act by the standard diagonal and ladder
expressions.  The grade-changing ones are one table of spin-1/2 steps
``(j, S, M) -> (j+1/2, S', M+nu)``: each carries one coupling ``W = (S M, 1/2
nu | S' M+nu) sqrt(2j+1) U(s j S' 1/2; S j+1/2)`` and one norm ratio ``r =``
:func:`k_ratio_sq`, which telescopes the eigenvalues of the U(2)-scalar
lowering operator.  The paper's non-unitary holomorphic realization
:func:`holomorphic_gamma_rep`, which ``kmatrix`` unitarizes, puts ``(W, W r)``
on the lowering/raising pair; the unitary irrep, ``K^-1 Gamma K``, puts
``(W sqrt(r), W sqrt(r))`` on each in-irrep step.  U and the Clebsch-Gordan
coefficient each hold a spin 1/2, so they come from closed forms in ``angmom``
(``spin_half_u_parts``, ``spin_half_cg_parts``), and each entry is ``sign
sqrt(num/den)`` of integers.  One Wigner-Eckart expansion yields them: the
irrep's matrices take them straight into ``repcheck.ExactMatrix`` arrays, and
the holomorphic realization makes each a ``Radical`` block.  The irrep's steps
are evaluated once per weight (:func:`reduced_elements` caches them), for the
matrices and a ``gen`` table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

# ``clebsch_gordan`` stays a module attribute: bench/spans.py wraps it by name.
from .angmom import clebsch_gordan, spin_half_cg_parts, spin_half_u_parts  # noqa: F401
from .kmatrix import GammaRep
from .radical import Radical
from .repcheck import ExactMatrix

GENERATOR_NAMES = tuple(f"C{i}{k}" for i in (1, 2, 3) for k in (1, 2, 3))


class AdmissibilityError(ValueError):
    """Labels outside the irrep where the operation requires inside labels."""


@dataclass(frozen=True)
class U3HighestWeight:
    """Weakly decreasing weight triple; entries may share a common rational shift."""

    w1: Fraction
    w2: Fraction
    w3: Fraction

    def __post_init__(self):
        object.__setattr__(self, "w1", Fraction(self.w1))
        object.__setattr__(self, "w2", Fraction(self.w2))
        object.__setattr__(self, "w3", Fraction(self.w3))
        if not (self.w1 >= self.w2 >= self.w3):
            raise ValueError("weight must satisfy w1 >= w2 >= w3")
        if (self.w1 - self.w2).denominator != 1 or (self.w2 - self.w3).denominator != 1:
            raise ValueError("weight entries must differ by integers")

    @property
    def twice_s(self) -> int:
        """Doubled intrinsic spin, ``2s = w2 - w3``."""
        return int(self.w2 - self.w3)

    @property
    def su3_lam(self) -> int:
        return int(self.w1 - self.w2)

    @property
    def su3_mu(self) -> int:
        return int(self.w2 - self.w3)

    def dimension(self) -> int:
        lam, mu = self.su3_lam, self.su3_mu
        return (lam + 1) * (mu + 1) * (lam + mu + 2) // 2


@dataclass(frozen=True, order=True)
class CanonicalLabel:
    """Doubled quantum numbers ``(2j, 2S, 2M)`` of a canonical basis state."""

    tj: int
    tS: int
    tM: int

    @property
    def j(self) -> Fraction:
        return Fraction(self.tj, 2)

    @property
    def S(self) -> Fraction:
        return Fraction(self.tS, 2)

    @property
    def M(self) -> Fraction:
        return Fraction(self.tM, 2)

    def __str__(self):
        return f"(j={_halves(self.tj)}, S={_halves(self.tS)}, M={_halves(self.tM)})"


def _halves(twice: int) -> str:
    """``str(Fraction(twice, 2))``: ``n`` or ``n/2``."""
    return f"{twice}/2" if twice % 2 else str(twice // 2)


def is_admissible(hw: U3HighestWeight, tj: int, tS: int) -> bool:
    """Whether ``(j, S)`` is in the Gelfand betweenness image for this weight."""
    return _admissible(hw.su3_lam, hw.su3_mu, tj, tS)


def _admissible(lam: int, mu: int, tj: int, tS: int) -> bool:
    """:func:`is_admissible` from the integers ``lam = w1 - w2`` and ``mu = 2s``; the triangle makes ``2j, 2S >= 0``."""
    return (tj + tS + mu) % 2 == 0 and abs(tj - mu) <= tS <= tj + mu and tj + tS - mu <= 2 * lam


def basis_enumeration(hw: U3HighestWeight) -> list[CanonicalLabel]:
    """All canonical labels, ordered lexicographically in ``(2j, 2S, 2M)``."""
    labels = []
    n12 = int(hw.w1 - hw.w2)
    n22 = int(hw.w2 - hw.w3)
    for a in range(n12 + 1):  # m12 = w2 + a
        for b in range(n22 + 1):  # m22 = w3 + b
            tS = hw.twice_s + a - b
            tj = a + b
            for tM in range(-tS, tS + 1, 2):
                labels.append(CanonicalLabel(tj, tS, tM))
    labels.sort()
    if len(labels) != hw.dimension():
        raise AssertionError("basis enumeration disagrees with the Weyl dimension")
    return labels


def k_ratio_sq(hw: U3HighestWeight, tj: int, tS: int, tSp: int) -> Fraction:
    """``|K(j+1/2, S') / K(j, S)|**2``: the rise of ``omega`` from ``(j, S)`` to ``(j+1/2, S')``.

    The K factors telescope the eigenvalues
    ``omega(j, S) = a j - S(S+1) + s(s+1) - j(j-2)``, ``a = 2 w1 - w2 - w3``, of
    the U(2)-scalar lowering operator, so each ratio is one difference of them:
    ``(a - 2j - 2S)/2`` for ``S' = S+1/2`` and ``(a - 2j + 2S + 2)/2`` for
    ``S' = S-1/2``.  It is non-positive for steps leaving the irrep; a
    non-positive value on an admissible pair would mean the basis enumeration
    is wrong and raises.
    """
    return _k_ratio_sq(hw.su3_lam, hw.su3_mu, tj, tS, tSp)


def _k_ratio_sq(lam: int, mu: int, tj: int, tS: int, tSp: int) -> Fraction:
    """:func:`k_ratio_sq` from the integers ``lam`` and ``mu``, as :func:`_admissible` takes them."""
    if abs(tS - tSp) != 1:
        raise ValueError("S' must differ from S by 1/2")
    rise = 2 * lam + mu - tj + (-tS if tSp > tS else tS + 2)
    if rise <= 0 and _admissible(lam, mu, tj, tS) and _admissible(lam, mu, tj + 1, tSp):
        raise AdmissibilityError(
            f"norm ratio {Fraction(rise, 2)} <= 0 for admissible pair (2j={tj}, 2S={tS}) -> "
            f"(2j={tj + 1}, 2S'={tSp})"
        )
    return Fraction(rise, 2)


@lru_cache(maxsize=None)
def reduced_elements(hw: U3HighestWeight) -> tuple[tuple[int, int, int, Radical], ...]:
    """Each non-zero ``(2j, 2S, 2S', <(j+1/2) S' || f || j S>)``, ``f(+-1/2) = C21, C31``, in basis order.

    ``sqrt(2S'+1)`` times each in-irrep step's ``sqrt(2j+1) U sqrt(r)``; cached per weight.
    """
    return tuple(
        (tj, tS, tSp, Radical(sign, Fraction(num * (tSp + 1) * ratio.numerator, den * ratio.denominator)))
        for tj, tS, tSp, sign, num, den, ratio in _steps(hw, int(hw.w1 - hw.w3), irrep=True)
    )


def _steps(hw: U3HighestWeight, tj_cap: int, irrep: bool):
    """Each step ``(j, S) -> (j+1/2, S')``, ``2j < tj_cap``, as ``(2j, 2S, 2S', sign, num, den, k_ratio_sq)``.

    ``sign * sqrt(num / den) = sqrt(2j+1) U(s j S' 1/2; S j+1/2)`` is non-zero;
    with ``irrep``, only the steps between two admissible multiplets.
    """
    lam, ts = hw.su3_lam, hw.su3_mu
    for tj in range(tj_cap):
        for tS in range(abs(tj - ts), tj + ts + 1, 2):
            for tSp in (tS - 1, tS + 1):
                if irrep and not (_admissible(lam, ts, tj, tS) and _admissible(lam, ts, tj + 1, tSp)):
                    continue
                sign, num, den = spin_half_u_parts(ts, tj, tS, tSp)
                if sign:
                    yield tj, tS, tSp, sign, num * (tj + 1), den, _k_ratio_sq(lam, ts, tj, tS, tSp)


def _cartan(hw: U3HighestWeight, keys: dict):
    """Each non-zero ``C11``, ``C22`` and ``C33`` entry as ``(name, key, value)``: on the diagonal, a ``Fraction``.

    ``keys[2j, 2S]`` holds the keys of the multiplet's states in ``M`` order.
    """
    ts, tj_max = hw.twice_s, max(tj for tj, _ in keys)
    # C22 on (j, S, M) is half[2j + 2M] and C33 is half[2j - 2M]: (w2 + w3 + 2j +- 2M) / 2
    half = {n: (hw.w2 + hw.w3 + n) / 2 for n in range(-ts, 2 * tj_max + ts + 1)}
    for (tj, tS), at in keys.items():
        c11 = hw.w1 - tj
        for k, tM in enumerate(range(-tS, tS + 1, 2)):
            for name, value in (("C11", c11), ("C22", half[tj + tM]), ("C33", half[tj - tM])):
                if value:
                    yield name, at[k], value


def _ladder(keys: dict):
    """Each ``C23`` entry as ``(row, col, num)``: the spin ladder ``sqrt((S-M)(S+M+1)) = sqrt(num / 4)``.

    ``C32`` is its transpose.
    """
    for (tj, tS), at in keys.items():
        for k, tM in enumerate(range(-tS, tS, 2)):
            yield at[k + 1], at[k], (tS - tM) * (tS + tM + 2)


def _expand(kets, bras, tS: int, tSp: int, sign: int, num: int, den: int):
    """One step's lowering entries by Wigner-Eckart, each ``(down, up, ket, bra, sign, num, den)``.

    ``down`` (``C12`` or ``C13``) at ``(ket, bra)`` is ``sign sqrt(num / den)``:
    ``(S M, 1/2 nu | S' M+nu)`` times the step's factor ``sign sqrt(num / den)``.
    ``up`` (``C21`` or ``C31``) names the raising generator at ``(bra, ket)``.
    """
    for k, tM in enumerate(range(-tS, tS + 1, 2)):
        for t_nu, down, up in ((1, "C12", "C21"), (-1, "C13", "C31")):
            c_sign, c_num, c_den = spin_half_cg_parts(tS, tM, t_nu, tSp)
            if c_sign:
                yield down, up, kets[k], bras[(tSp + tM + t_nu) // 2], c_sign * sign, c_num * num, c_den * den


def assemble_generators(hw: U3HighestWeight) -> dict[str, ExactMatrix]:
    """All nine generator matrices ``C11 .. C33`` on the canonical basis, exact: ``W sqrt(r)`` both ways per step.

    Each is built straight from the step table's integers: a ``Fraction``'s
    numerator and denominator on the diagonal, and elsewhere each ``sign
    sqrt(num / den)`` reduced by one gcd, with no ``Radical`` per entry.
    """
    basis = basis_enumeration(hw)
    dim = len(basis)
    # each (j, S) multiplet is a run of basis positions, M ascending
    keys = {(lbl.tj, lbl.tS): range(i, i + lbl.tS + 1) for i, lbl in enumerate(basis) if lbl.tM == -lbl.tS}
    diagonal: dict[str, list] = {name: [] for name in ("C11", "C22", "C33")}
    for name, at, value in _cartan(hw, keys):
        diagonal[name].append((at, at, 1, value.numerator, value.denominator))
    lowering: dict[str, list] = {"C12": [], "C13": [], "C23": [(row, col, 1, num, 4) for row, col, num in _ladder(keys)]}
    for tj, tS, tSp, f_red in reduced_elements(hw):
        factor = (f_red.sign, f_red.radicand.numerator, f_red.radicand.denominator * (tSp + 1))
        for down, _, a, b, sign, num, den in _expand(keys[tj, tS], keys[tj + 1, tSp], tS, tSp, *factor):
            lowering[down].append((a, b, sign, num, den))
    gens = {}
    for down, up in (("C12", "C21"), ("C13", "C31"), ("C23", "C32")):
        entries = [(r, c, s, n // g, d // g) for r, c, s, n, d in lowering[down] for g in [gcd(n, d)]]
        gens[down] = ExactMatrix.of_radicals(dim, entries)
        gens[up] = gens[down].adjoint()  # the same values in the same order, transposed
    for name, terms in diagonal.items():
        gens[name] = ExactMatrix.of_terms(dim, terms, lambda terms=terms: [num / den for *_, num, den in terms])
    return {name: gens[name] for name in GENERATOR_NAMES}


def angular_momentum_dense(generators: dict):
    """Dense complex ``L0, L+, L-`` built from the generator combinations, each read by its ``to_dense()``.

    ``L0 = -i (C23 - C32)``, ``L(+/-) = i (C13 - C31) +/- (C12 - C21)``.
    """
    c = {name: generators[name].to_dense() for name in GENERATOR_NAMES}
    l0 = -1j * (c["C23"] - c["C32"])
    lp = 1j * (c["C13"] - c["C31"]) + (c["C12"] - c["C21"])
    lm = 1j * (c["C13"] - c["C31"]) - (c["C12"] - c["C21"])
    return l0, lp, lm


def holomorphic_gamma_rep(hw: U3HighestWeight, extra_grades: int = 1) -> GammaRep:
    """Non-unitary differential-operator realization on coupled monomials: ``(W, W r)`` on each step.

    The raw space is spanned, grade by grade ``2j = N = 0, 1, ...``, by the
    U(2)-coupled products of the degree-``N`` monomials in ``z = (z2, z3)``
    with the intrinsic spin-``s`` states, up to ``extra_grades >= 0`` grades
    past the irrep, so zero-norm states appear; each ``(2j, 2S, 2M)`` is a
    one-dimensional sector.  The lowering tensor ``e = d/dz`` (``C12``,
    ``C13``) has the blocks ``W``.  The raising tensor (``C21``, ``C31``) is
    ``f = z (c - N) - 2 [L.s, z]``, ``c = w1 - (w2+w3)/2``, ``L`` the
    monomials' spin; ``L.s`` is diagonal on coupled states, so ``f``'s block
    back is ``W r``, absent where ``r = 0``.  The rational ``C11``, ``C22``
    and ``C33`` blocks are ``Fraction``s, so no K-matrix stage factors them.
    """
    if type(extra_grades) is not int or extra_grades < 0:
        raise ValueError(f"extra_grades must be a non-negative integer, got {extra_grades!r}")
    ts, tj_cap = hw.twice_s, int(hw.w1 - hw.w3) + extra_grades
    multiplets = [(tj, tS) for tj in range(tj_cap + 1) for tS in range(abs(tj - ts), tj + ts + 1, 2)]
    keys = {(tj, tS): [(tj, tS, tM) for tM in range(-tS, tS + 1, 2)] for tj, tS in multiplets}
    blocks: dict[str, dict] = {name: {} for name in GENERATOR_NAMES}
    for name, at, value in _cartan(hw, keys):
        blocks[name][at, at] = [[value]]
    for row, col, num in _ladder(keys):
        amp = Radical(1, Fraction(num, 4))
        blocks["C23"][row, col], blocks["C32"][col, row] = [[amp]], [[amp]]
    for tj, tS, tSp, sign, num, den, ratio in _steps(hw, tj_cap, irrep=False):
        p, q = ratio.numerator, ratio.denominator
        for down, up, a, b, s, n, d in _expand(keys[tj, tS], keys[tj + 1, tSp], tS, tSp, sign, num, den):
            blocks[down][a, b] = [[Radical(s, Fraction(n, d))]]
            if p:  # f's block back is W r, absent where r = 0
                blocks[up][b, a] = [[Radical(s if p > 0 else -s, Fraction(n * p * p, d * q * q))]]
    sectors = {a: 1 for at in keys.values() for a in at}
    adjoints = {f"C{i}{k}": f"C{k}{i}" for i in (1, 2, 3) for k in (1, 2, 3)}
    return GammaRep(sectors=sectors, grades={a: a[0] for a in sectors}, blocks=blocks, adjoints=adjoints, exact=True)
