"""Generic u(3) irreps in the canonical U(2)-coupled (Gelfand-Tsetlin) basis.

A highest weight ``{w1, w2, w3}`` (rationals with integer differences,
``w1 >= w2 >= w3``) fixes the intrinsic u(2) spin ``s = (w2 - w3)/2``.  Basis
states carry labels ``(j, S, M)`` where ``2j`` counts lowering steps from the
highest-grade space, ``S`` is the U(2) spin and ``M`` its projection; the
admissible ``(j, S)`` pairs are exactly the images of the Gelfand betweenness
conditions ``w2 <= m12 <= w1``, ``w3 <= m22 <= w2`` under ``2S = m12 - m22``,
``2j = m12 + m22 - w2 - w3``.

Matrix elements of the nine generators ``C(i,k)`` follow from closed forms:
the Cartan and U(2) actions are the standard diagonal/ladder expressions, and
the grade-changing spin-1/2 tensors have reduced matrix elements built from a
unitary Racah U coefficient and the square root of a norm-ratio that telescopes
the eigenvalues of the U(2)-scalar lowering operator.  U and the Wigner-Eckart
Clebsch-Gordan coefficients each hold a spin 1/2, so they come from closed
forms in ``angmom`` (``spin_half_u_parts``, ``spin_half_cg_parts``), not from
the Racah series of ``racah_u``, and each entry is one ``Radical`` of integers.  Each
reduced element is evaluated once per weight (:func:`reduced_elements` caches
them), and both the generator matrices and a ``gen`` document's table read
that evaluation.  All values are exact radicals.

The paper's induction starts from the non-unitary holomorphic realization
:func:`holomorphic_gamma_rep`, which ``kmatrix`` unitarizes; its blocks are
the same spin-1/2 couplings, with the norm ratio :func:`k_ratio_sq` itself in
place of its square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

# ``clebsch_gordan`` stays a module attribute: bench/spans.py wraps it by name.
from .angmom import clebsch_gordan, spin_half_cg_parts, spin_half_u_parts  # noqa: F401
from .kmatrix import GammaRep
from .opmatrix import OperatorMatrix
from .radical import Radical

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
        return f"(j={self.j}, S={self.S}, M={self.M})"


def is_admissible(hw: U3HighestWeight, tj: int, tS: int) -> bool:
    """Whether ``(j, S)`` is in the Gelfand betweenness image for this weight."""
    ts = hw.twice_s
    if tj < 0 or tS < 0:
        return False
    if (tj + tS + ts) % 2:
        return False
    if abs(tj - ts) > tS or tS > tj + ts:
        return False
    return tj + tS - ts <= 2 * (hw.w1 - hw.w2)


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
    if abs(tS - tSp) != 1:
        raise ValueError("S' must differ from S by 1/2")
    rise = 2 * hw.su3_lam + hw.su3_mu - tj + (-tS if tSp > tS else tS + 2)
    if rise <= 0 and is_admissible(hw, tj, tS) and is_admissible(hw, tj + 1, tSp):
        raise AdmissibilityError(
            f"norm ratio {Fraction(rise, 2)} <= 0 for admissible pair (2j={tj}, 2S={tS}) -> "
            f"(2j={tj + 1}, 2S'={tSp})"
        )
    return Fraction(rise, 2)


def reduced_me(hw: U3HighestWeight, tj: int, tS: int, tSp: int, which: str) -> Radical:
    """Reduced matrix element of the grade-changing spin-1/2 tensors.

    ``which='f'`` gives ``<(j+1/2) S' || f || j S>`` (grade-raising tensor,
    ``f(1/2) = C21``, ``f(-1/2) = C31``), equal to
    ``sqrt((2j+1)(2S'+1)) U(s j S' 1/2; S j+1/2) sqrt(k_ratio_sq)`` with ``U``
    from the closed form :func:`~vcs_irreps.angmom.spin_half_u_parts`;
    ``which='e'`` gives the partner ``<j S || e || (j+1/2) S'>`` with
    ``e(1/2) = C13``, ``e(-1/2) = -C12``, equal to ``(-1)**(S'-S+1/2)`` times
    the f value.  Inadmissible labels give zero.
    """
    if which not in ("e", "f"):
        raise ValueError("which must be 'e' or 'f'")
    if abs(tS - tSp) != 1:
        return Radical.zero()
    if not (is_admissible(hw, tj, tS) and is_admissible(hw, tj + 1, tSp)):
        return Radical.zero()
    ratio = k_ratio_sq(hw, tj, tS, tSp)  # raises if <= 0 on admissible labels
    sign, num, den = spin_half_u_parts(hw.twice_s, tj, tS, tSp)
    if which == "e" and tSp > tS:
        sign = -sign
    return Radical(sign, Fraction(num * (tj + 1) * (tSp + 1) * ratio.numerator, den * ratio.denominator))


@lru_cache(maxsize=None)
def reduced_elements(hw: U3HighestWeight) -> tuple[tuple[int, int, int, Radical], ...]:
    """Each non-zero f-tensor element ``(2j, 2S, 2S', <(j+1/2) S' || f || j S>)`` in basis order.

    Cached per weight, so the generator matrices and a ``gen`` table read one evaluation.
    """
    elements = []
    for tj, tS in sorted({(lbl.tj, lbl.tS) for lbl in basis_enumeration(hw)}):
        for tSp in (tS - 1, tS + 1):
            value = reduced_me(hw, tj, tS, tSp, "f")
            if not value.is_zero():
                elements.append((tj, tS, tSp, value))
    return tuple(elements)


def assemble_generators(hw: U3HighestWeight) -> dict[str, OperatorMatrix]:
    """All nine generator matrices ``C11 .. C33`` on the canonical basis, exact, from the integer labels."""
    basis = basis_enumeration(hw)
    index = {lbl: i for i, lbl in enumerate(basis)}
    entries: dict[str, dict] = {name: {} for name in GENERATOR_NAMES}
    u2_sum = hw.w2 + hw.w3  # C22 + C33 is w2 + w3 + 2j

    for i, (tj, tS, tM) in enumerate((lbl.tj, lbl.tS, lbl.tM) for lbl in basis):
        entries["C11"][i, i] = hw.w1 - tj
        entries["C22"][i, i] = (u2_sum + tj + tM) / 2
        entries["C33"][i, i] = (u2_sum + tj - tM) / 2
        # Spin ladder sqrt((S-M)(S+M+1)); the basis order puts (j, S, M+1) right after (j, S, M).
        if tM + 2 <= tS:
            amp = Radical(1, Fraction((tS - tM) * (tS + tM + 2), 4))
            entries["C23"][i + 1, i] = entries["C32"][i, i + 1] = amp

    # Grade-changing tensors: C21 = f(1/2) and C31 = f(-1/2) from the f-tensor
    # reduced elements via Wigner-Eckart, (S M, 1/2 nu | S' M+nu) f / sqrt(2S'+1).
    for tj, tS, tSp, f_red in reduced_elements(hw):
        ket = index[CanonicalLabel(tj, tS, -tS)]
        bra = index[CanonicalLabel(tj + 1, tSp, -tSp)]
        f_num, f_den = f_red.radicand.numerator, f_red.radicand.denominator * (tSp + 1)
        for k, tM in enumerate(range(-tS, tS + 1, 2)):
            for t_nu, name in ((1, "C21"), (-1, "C31")):
                sign, num, den = spin_half_cg_parts(tS, tM, t_nu, tSp)
                if sign:
                    row = bra + (tSp + tM + t_nu) // 2
                    entries[name][row, ket + k] = Radical(sign * f_red.sign, Fraction(num * f_num, den * f_den))

    mats = {name: OperatorMatrix(name, basis, entries[name]) for name in GENERATOR_NAMES}
    mats["C12"] = mats["C21"].dagger("C12")
    mats["C13"] = mats["C31"].dagger("C13")
    return mats


def angular_momentum_dense(generators: dict[str, OperatorMatrix]):
    """Dense complex ``L0, L+, L-`` built from the generator combinations.

    ``L0 = -i (C23 - C32)``, ``L(+/-) = i (C13 - C31) +/- (C12 - C21)``.
    """
    c = {name: generators[name].to_dense() for name in GENERATOR_NAMES}
    l0 = -1j * (c["C23"] - c["C32"])
    lp = 1j * (c["C13"] - c["C31"]) + (c["C12"] - c["C21"])
    lm = 1j * (c["C13"] - c["C31"]) - (c["C12"] - c["C21"])
    return l0, lp, lm


def holomorphic_gamma_rep(hw: U3HighestWeight, extra_grades: int = 1) -> GammaRep:
    """Non-unitary differential-operator realization on coupled monomials, in closed form.

    The raw space is spanned, grade by grade ``2j = N = 0, 1, ...``, by the
    U(2)-coupled products of the degree-``N`` monomials in ``z = (z2, z3)``
    with the intrinsic spin-``s`` states, up to ``extra_grades >= 0`` grades
    past the irrep, so zero-norm states appear; each ``(2j, 2S, 2M)`` is a
    one-dimensional sector.  ``C11``, ``C22``, ``C33``, ``C23`` and ``C32`` act
    as in :func:`assemble_generators`; the diagonal ``C11``, ``C22`` and ``C33``
    blocks are ``Fraction``s, so no stage factors them.  The lowering tensor ``e = d/dz``
    (``C12``, ``C13`` for ``nu = +-1/2``) has the block ``W = (S M, 1/2 nu |
    S' M+nu) sqrt(2j+1) U(s j S' 1/2; S j+1/2)`` from ``(j+1/2, S', M+nu)`` to
    ``(j, S, M)``.  The raising tensor (``C21``, ``C31``) is
    ``f = z (c - N) - 2 [L.s, z]``, ``c = w1 - (w2+w3)/2``, ``L`` the
    monomials' spin; ``L.s`` is diagonal on coupled states, so ``f``'s block
    back is ``W`` times the rise of ``omega`` that :func:`k_ratio_sq` gives,
    and absent where that is 0.  ``W`` comes from the closed forms
    ``spin_half_cg_parts`` and ``spin_half_u_parts``: one ``Radical`` of
    integers per block, with no coupling transform summed.
    """
    if not isinstance(extra_grades, int) or extra_grades < 0:
        raise ValueError(f"extra_grades must be a non-negative integer, got {extra_grades!r}")
    ts = hw.twice_s
    tj_cap = int(hw.w1 - hw.w3) + extra_grades
    u2_sum = hw.w2 + hw.w3
    sectors, grades = {}, {}
    blocks: dict[str, dict] = {name: {} for name in GENERATOR_NAMES}
    for tj in range(tj_cap + 1):
        c11 = hw.w1 - tj
        # C22 on (j, S, M) is half[M] and C33 is half[-M]: (w2 + w3 + 2j +- 2M) / 2
        half = {tM: (u2_sum + tj + tM) / 2 for tM in range(-tj - ts, tj + ts + 1, 2)}
        for tS in range(abs(tj - ts), tj + ts + 1, 2):
            for tM in range(-tS, tS + 1, 2):
                a = (tj, tS, tM)
                sectors[a], grades[a] = 1, tj
                for name, value in (("C11", c11), ("C22", half[tM]), ("C33", half[-tM])):
                    if value:
                        blocks[name][a, a] = [[value]]
                if tM + 2 <= tS:
                    amp = Radical(1, Fraction((tS - tM) * (tS + tM + 2), 4))
                    blocks["C23"][(tj, tS, tM + 2), a] = [[amp]]
                    blocks["C32"][a, (tj, tS, tM + 2)] = [[amp]]
            if tj == tj_cap:
                continue
            for tSp in (tS - 1, tS + 1):
                u_sign, u_num, u_den = spin_half_u_parts(ts, tj, tS, tSp)
                if not u_sign:
                    continue
                ratio = k_ratio_sq(hw, tj, tS, tSp)
                p, q = ratio.numerator, ratio.denominator
                for tM in range(-tS, tS + 1, 2):
                    for t_nu, lower, upper in ((1, "C12", "C21"), (-1, "C13", "C31")):
                        c_sign, c_num, c_den = spin_half_cg_parts(tS, tM, t_nu, tSp)
                        if not c_sign:
                            continue
                        a, b = (tj, tS, tM), (tj + 1, tSp, tM + t_nu)
                        sign, num, den = u_sign * c_sign, u_num * c_num * (tj + 1), u_den * c_den
                        blocks[lower][a, b] = [[Radical(sign, Fraction(num, den))]]
                        if p:
                            blocks[upper][b, a] = [[Radical(sign if p > 0 else -sign, Fraction(num * p * p, den * q * q))]]

    adjoints = {f"C{i}{k}": f"C{k}{i}" for i in (1, 2, 3) for k in (1, 2, 3)}
    return GammaRep(sectors=sectors, grades=grades, blocks=blocks, adjoints=adjoints, exact=True)
