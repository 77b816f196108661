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
the eigenvalues of the U(2)-scalar lowering operator.  Each reduced element
is evaluated once (:func:`reduced_elements`), and both the generator matrices
and a ``gen`` document's table read it.  All values are
exact radicals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# ``clebsch_gordan`` stays a module attribute: bench/spans.py wraps it by name.
from .angmom import clebsch_gordan, clebsch_gordan_twice, racah_u  # noqa: F401
from .kmatrix import GammaRep
from .opmatrix import OperatorMatrix
from .radical import Radical, radical_terms, squarefree_decompose

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


def omega(hw: U3HighestWeight, tj: int, tS: int) -> Fraction:
    """Eigenvalue of the U(2)-scalar lowering operator on the ``(j, S)`` multiplet."""
    j = Fraction(tj, 2)
    S = Fraction(tS, 2)
    s = Fraction(hw.twice_s, 2)
    return (2 * hw.w1 - hw.w2 - hw.w3) * j - S * (S + 1) + s * (s + 1) - j * (j - 2)


def k_ratio_sq(hw: U3HighestWeight, tj: int, tS: int, tSp: int) -> Fraction:
    """``|K(j+1/2, S') / K(j, S)|**2``: the rise of ``omega`` from ``(j, S)`` to ``(j+1/2, S')``.

    The K factors telescope the eigenvalues of the U(2)-scalar lowering
    operator, so each ratio is one difference of :func:`omega` values.  It is
    non-positive for steps leaving the irrep; a non-positive value on an
    admissible pair would mean the basis enumeration is wrong and raises.
    """
    if abs(tS - tSp) != 1:
        raise ValueError("S' must differ from S by 1/2")
    value = omega(hw, tj + 1, tSp) - omega(hw, tj, tS)
    if value <= 0 and is_admissible(hw, tj, tS) and is_admissible(hw, tj + 1, tSp):
        raise AdmissibilityError(
            f"norm ratio {value} <= 0 for admissible pair (2j={tj}, 2S={tS}) -> "
            f"(2j={tj + 1}, 2S'={tSp})"
        )
    return value


def reduced_me(hw: U3HighestWeight, tj: int, tS: int, tSp: int, which: str) -> Radical:
    """Reduced matrix element of the grade-changing spin-1/2 tensors.

    ``which='f'`` gives ``<(j+1/2) S' || f || j S>`` (grade-raising tensor,
    ``f(1/2) = C21``, ``f(-1/2) = C31``); ``which='e'`` gives the partner
    ``<j S || e || (j+1/2) S'>`` with ``e(1/2) = C13``, ``e(-1/2) = -C12``,
    equal to ``(-1)**(S'-S+1/2)`` times the f value.  Inadmissible labels give
    zero.
    """
    if which not in ("e", "f"):
        raise ValueError("which must be 'e' or 'f'")
    if abs(tS - tSp) != 1:
        return Radical.zero()
    if not (is_admissible(hw, tj, tS) and is_admissible(hw, tj + 1, tSp)):
        return Radical.zero()
    ratio = k_ratio_sq(hw, tj, tS, tSp)  # raises if <= 0 on admissible labels
    s = Fraction(hw.twice_s, 2)
    j, S, Sp = Fraction(tj, 2), Fraction(tS, 2), Fraction(tSp, 2)
    u = racah_u(s, j, Sp, Fraction(1, 2), S, j + Fraction(1, 2))
    value = Radical.sqrt_of(Fraction((tj + 1) * (tSp + 1))) * u * Radical.sqrt_of(ratio)
    if which == "e" and (tSp - tS + 1) // 2 % 2:
        value = -value
    return value


def reduced_elements(hw: U3HighestWeight):
    """Each non-zero f-tensor element ``(2j, 2S, 2S', <(j+1/2) S' || f || j S>)`` once, in basis order."""
    for tj, tS in sorted({(lbl.tj, lbl.tS) for lbl in basis_enumeration(hw)}):
        for tSp in (tS - 1, tS + 1):
            value = reduced_me(hw, tj, tS, tSp, "f")
            if not value.is_zero():
                yield tj, tS, tSp, value


def assemble_generators(hw: U3HighestWeight) -> dict[str, OperatorMatrix]:
    """All nine generator matrices ``C11 .. C33`` on the canonical basis, exact."""
    basis = basis_enumeration(hw)
    index = {lbl: i for i, lbl in enumerate(basis)}
    mats = {name: OperatorMatrix(name, basis) for name in GENERATOR_NAMES}

    for lbl, i in index.items():
        u2_sum = Fraction(hw.w2 + hw.w3 + lbl.tj)  # eigenvalue of C22 + C33
        mats["C11"][i, i] = hw.w1 - lbl.tj
        mats["C22"][i, i] = Fraction(u2_sum, 2) + lbl.M
        mats["C33"][i, i] = Fraction(u2_sum, 2) - lbl.M
        # Spin ladders inside the (j, S) multiplet.
        if lbl.tM + 2 <= lbl.tS:
            up = CanonicalLabel(lbl.tj, lbl.tS, lbl.tM + 2)
            amp = Radical.sqrt_of((lbl.S - lbl.M) * (lbl.S + lbl.M + 1))
            mats["C23"][index[up], i] = amp
            mats["C32"][i, index[up]] = amp

    # Grade-changing tensors: C21 = f(1/2) and C31 = f(-1/2) from the f-tensor
    # reduced matrix elements via Wigner-Eckart; C12 and C13 are their adjoints.
    for tj, tS, tSp, f_red in reduced_elements(hw):
        norm = Radical.sqrt_of(Fraction(tSp + 1))
        for tM in range(-tS, tS + 1, 2):
            for t_nu, name in ((1, "C21"), (-1, "C31")):
                cgc = clebsch_gordan_twice(tS, tM, 1, t_nu, tSp, tM + t_nu)
                if not cgc.is_zero():
                    target = index[CanonicalLabel(tj + 1, tSp, tM + t_nu)]
                    mats[name][target, index[CanonicalLabel(tj, tS, tM)]] = cgc * f_red / norm

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


def quadrupole_dense(generators: dict[str, OperatorMatrix]):
    """Dense complex quadrupole components ``Q(-2) .. Q(2)`` from the generators."""
    c = {name: generators[name].to_dense() for name in GENERATOR_NAMES}
    h1 = c["C11"] - c["C22"]
    h2 = c["C22"] - c["C33"]
    root32 = np.sqrt(1.5)
    q = {
        0: (2 * h1 + h2).astype(complex),
        1: -root32 * ((c["C12"] + c["C21"]) + 1j * (c["C13"] + c["C31"])),
        -1: root32 * ((c["C12"] + c["C21"]) - 1j * (c["C13"] + c["C31"])),
        2: root32 * (h2 + 1j * (c["C23"] + c["C32"])),
        -2: root32 * (h2 - 1j * (c["C23"] + c["C32"])),
    }
    return q


def holomorphic_gamma_rep(hw: U3HighestWeight, extra_grades: int = 1) -> GammaRep:
    """Non-unitary differential-operator realization on coupled monomials.

    The raw space is spanned, grade by grade ``2j = 0, 1, ...``, by the
    U(2)-coupled products of the normalized monomials in the two lowering
    variables with the intrinsic spin-``s`` states; each ``(2j, 2S, 2M)``
    label is a one-dimensional sector.  Generator blocks are computed in the
    uncoupled monomial basis, where every action is elementary, and then
    conjugated by the exact Clebsch-Gordan transform.  The raw grading extends
    ``extra_grades`` steps past the irrep boundary so zero-norm states appear.

    Every Clebsch-Gordan coefficient and every uncoupled amplitude is split
    once into an integer numerator over a denominator shared by its grade (or
    by all amplitudes), times the square root of a square-free core; each
    block entry is then summed per core in plain integers.
    """
    ts = hw.twice_s
    tj_cap = int(hw.w1 - hw.w3) + extra_grades

    # Amplitudes are ``num / den * sqrt(core)`` over one denominator ``den``:
    # twice the weights' common denominator, so every coefficient below is an
    # integer multiple of ``1 / den``.
    den = 2 * math.lcm(hw.w1.denominator, hw.w2.denominator, hw.w3.denominator)
    half = den // 2
    w1 = int(hw.w1 * den)
    half_sum = int((hw.w2 + hw.w3) * half)  # (w2 + w3) / 2, over den

    # Uncoupled single-particle actions.  States are |j m> (x) |s nu> with
    # phi(j, m) = z2**(j+m) z3**(j-m) / sqrt((j+m)! (j-m)!); every radicand
    # below is an integer, written with doubled labels (j + m = (tj + tm)/2).
    def act_uncoupled(gen, tj, tm, tn):
        """Return a list of ``((tm', tn'), num, core)``, the amplitude over ``den``."""
        out = []

        def add(target, coeff, radicand=1):
            if coeff and radicand:
                root, core = squarefree_decompose(radicand)
                out.append((target, coeff * root, core))

        s_up = (ts - tn) // 2 * ((ts + tn + 2) // 2)  # (s - nu)(s + nu + 1)
        s_down = (ts + tn) // 2 * ((ts - tn + 2) // 2)  # (s + nu)(s - nu + 1)
        if gen == "C11":
            add((tm, tn), w1 - tj * den)
        elif gen == "C22":
            add((tm, tn), half_sum + (tn + tj + tm) * half)
        elif gen == "C33":
            add((tm, tn), half_sum + (-tn + tj - tm) * half)
        elif gen == "C23":  # s+ + z2 d3
            add((tm, tn + 2), den, s_up)
            add((tm + 2, tn), den, (tj - tm) // 2 * ((tj + tm + 2) // 2))
        elif gen == "C32":  # s- + z3 d2
            add((tm, tn - 2), den, s_down)
            add((tm - 2, tn), den, (tj + tm) // 2 * ((tj - tm + 2) // 2))
        elif gen == "C12":  # d2
            add((tm - 1, tn), den, (tj + tm) // 2)
        elif gen == "C13":  # d3
            add((tm + 1, tn), den, (tj - tm) // 2)
        elif gen == "C21":
            add((tm + 1, tn), w1 - half_sum - tn * half - tj * den, (tj + tm) // 2 + 1)
            add((tm - 1, tn + 2), -den, s_up * ((tj - tm) // 2 + 1))
        elif gen == "C31":
            add((tm - 1, tn), w1 - half_sum + tn * half - tj * den, (tj - tm) // 2 + 1)
            add((tm + 1, tn - 2), -den, s_down * ((tj + tm) // 2 + 1))
        else:
            raise ValueError(gen)
        return out

    sectors, grades = {}, {}
    # Exact coupling transform per grade, indexed by uncoupled row (tm, tn):
    # a list of (tS, tM, core, num), the coefficient over cg_den[tj].
    transforms, cg_den = {}, {}
    for tj in range(tj_cap + 1):
        for tS in range(abs(tj - ts), tj + ts + 1, 2):
            for tM in range(-tS, tS + 1, 2):
                sectors[(tj, tS, tM)] = 1
                grades[(tj, tS, tM)] = tj
        rows = {}
        for tm in range(-tj, tj + 1, 2):
            for tn in range(-ts, ts + 1, 2):
                tM = tm + tn
                rows[(tm, tn)] = [
                    (tS, tM, core, num, d)
                    for tS in range(max(abs(tj - ts), abs(tM)), tj + ts + 1, 2)
                    for core, num, d in radical_terms(clebsch_gordan_twice(ts, tn, tj, tm, tS, tM))
                ]
        common = math.lcm(*(d for row in rows.values() for *_, d in row))
        transforms[tj] = {
            key: [(tS, tM, core, num * (common // d)) for tS, tM, core, num, d in row]
            for key, row in rows.items()
        }
        cg_den[tj] = common

    grade_shift = {"C11": 0, "C22": 0, "C33": 0, "C23": 0, "C32": 0,
                   "C12": -1, "C13": -1, "C21": 1, "C31": 1}
    gcd = math.gcd
    blocks: dict[str, dict] = {name: {} for name in GENERATOR_NAMES}
    for gen in GENERATOR_NAMES:
        for tj in range(tj_cap + 1):
            tjp = tj + grade_shift[gen]
            if not 0 <= tjp <= tj_cap:
                continue
            t_out = transforms[tjp]
            # gamma_coupled[(S'M'), (SM)] = sum T_out . Gamma_unc . T_in, per core
            acc: dict[tuple, int] = {}
            for (tm, tn), cg_in in transforms[tj].items():
                for target, a_num, a_core in act_uncoupled(gen, tj, tm, tn):
                    cg_out = t_out.get(target)
                    if not cg_out:
                        continue
                    for tS, tM, c_in, n_in in cg_in:
                        g = gcd(c_in, a_core)
                        c1, n1 = (c_in // g) * (a_core // g), n_in * a_num * g
                        for tSp, tMp, c_out, n_out in cg_out:
                            g = gcd(c1, c_out)
                            key = (tSp, tMp, tS, tM, (c1 // g) * (c_out // g))
                            acc[key] = acc.get(key, 0) + n1 * n_out * g
            scale = (cg_den[tjp] * den * cg_den[tj]) ** 2
            gen_blocks = blocks[gen]
            for (tSp, tMp, tS, tM, core), num in acc.items():
                if not num:
                    continue
                key = ((tjp, tSp, tMp), (tj, tS, tM))
                if key in gen_blocks:
                    raise ValueError(f"{gen} block {key} spans more than one square class")
                gen_blocks[key] = [[Radical(1 if num > 0 else -1, Fraction(num * num * core, scale))]]

    adjoints = {"C11": "C11", "C22": "C22", "C33": "C33",
                "C12": "C21", "C21": "C12", "C13": "C31", "C31": "C13",
                "C23": "C32", "C32": "C23"}
    return GammaRep(sectors=sectors, grades=grades, blocks=blocks, adjoints=adjoints, exact=True)
