"""Lowest-weight discrete-series irreps of su(1,1).

A unitary lowest-weight irrep is labelled by its lowest weight ``lam > 0``
(the eigenvalue of ``2 S0`` on the state annihilated by ``S-``).  The
orthonormal-basis matrix elements follow from the norm-factor recursion
``|K(n+1)/K(n)|**2 = (lam + n)/(n + 1)`` with ``K(0) = 1``, which is solved in
product form so non-integer weights work too:

    S0 |n>  = (lam/2 + n) |n>
    S+ |n>  = sqrt((lam + n)(n + 1)) |n+1>
    S- |n+1>= sqrt((lam + n)(n + 1)) |n>

The irrep is infinite dimensional; matrices are truncated at ``n_max`` and the
Lie-algebra identities hold exactly on rows/columns ``0 .. n_max - 1`` (the
defect is confined to the truncation boundary).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kmatrix import GammaRep
from .opmatrix import OperatorMatrix
from .radical import Radical

# The reproducing kernel (1 - x y*)**(-lam) underlying these irreps converges
# for |z| < 1; recorded as metadata only, nothing here evaluates the kernel.
KERNEL_CONVERGENCE_RADIUS = 1.0


@dataclass(frozen=True)
class Su11Irrep:
    """Lowest-weight label ``lam`` (any positive rational) and truncation order."""

    lam: Fraction
    n_max: int

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        if self.lam <= 0:
            raise ValueError("lowest weight must be positive for a unitary irrep")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")

    @property
    def dim(self) -> int:
        return self.n_max + 1


def k_factor(irrep: Su11Irrep, n: int) -> Radical:
    """Norm factor ``K(lam, n) = sqrt(prod_{i<n} (lam+i)/(i+1))``; ``K(lam, 0) = 1``."""
    if not 0 <= n <= irrep.n_max:
        raise ValueError(f"n={n} outside truncation 0..{irrep.n_max}")
    prod = Fraction(1)
    for i in range(n):
        prod *= Fraction(irrep.lam + i, i + 1)
    return Radical.sqrt_of(prod)


def s_kernel_coefficients(irrep: Su11Irrep, order: int) -> list[Fraction]:
    """Taylor coefficients of ``(1 - x y*)**(-lam)`` in powers of ``x y*``.

    Coefficient ``nu`` equals ``K(lam, nu)**2``; these are the diagonal
    S-matrix entries the K-matrix engine must reproduce for this irrep.
    """
    if order > irrep.n_max:
        raise ValueError("order exceeds truncation")
    coeffs = [Fraction(1)]
    for nu in range(order):
        coeffs.append(coeffs[-1] * Fraction(irrep.lam + nu, nu + 1))
    return coeffs


def generator_matrices(irrep: Su11Irrep) -> dict[str, OperatorMatrix]:
    """Truncated matrices of ``S0``, ``S+``, ``S-`` in the orthonormal basis.

    With ``lam = p/q``, ``S0[n, n] = (p + 2nq)/(2q)`` and the amplitude
    ``sqrt((p + nq)(n + 1)/q)``, one ``Radical`` that ``S+`` and ``S-`` share.
    """
    basis = tuple(range(irrep.dim))
    p, q = irrep.lam.numerator, irrep.lam.denominator
    amps = [Radical(1, Fraction((p + n * q) * (n + 1), q)) for n in range(irrep.n_max)]
    return {
        "S0": OperatorMatrix("S0", basis, {(n, n): Fraction(p + 2 * n * q, 2 * q) for n in range(irrep.dim)}),
        "S+": OperatorMatrix("S+", basis, {(n + 1, n): amp for n, amp in enumerate(amps)}),
        "S-": OperatorMatrix("S-", basis, {(n, n + 1): amp for n, amp in enumerate(amps)}),
    }


def casimir_eigenvalue(irrep: Su11Irrep) -> Fraction:
    """Scalar value of the Casimir on the irrep: ``lam**2/4 - lam/2``."""
    return Fraction(irrep.lam, 2) ** 2 - Fraction(irrep.lam, 2)


def holomorphic_gamma_rep(irrep: Su11Irrep) -> GammaRep:
    """Non-unitary differential-operator realization on plain monomials ``z**n``.

    ``S- = d/dz``, ``S0 = lam/2 + z d/dz``, ``S+ = z (lam + z d/dz)``.  Each
    monomial degree is its own one-dimensional sector; with this basis the
    solved S-matrix diagonal reproduces the kernel Taylor coefficients.
    Every block is rational, ``lam/2 + n``, ``lam + n`` or ``n + 1``, so it is
    kept a ``Fraction``: the K-matrix engine reads its square class as
    ``(1, num, den)`` with nothing to factor.  With ``lam = p/q`` they are
    built from integers, ``(p + 2nq)/(2q)`` and ``(p + nq)/q``.
    """
    sectors = {(n,): 1 for n in range(irrep.dim)}
    grades = {(n,): n for n in range(irrep.dim)}
    blocks = {"S0": {}, "S+": {}, "S-": {}}
    p, q = irrep.lam.numerator, irrep.lam.denominator
    for n in range(irrep.dim):
        blocks["S0"][(n,), (n,)] = [[Fraction(p + 2 * n * q, 2 * q)]]
    for n in range(irrep.dim - 1):
        blocks["S+"][(n + 1,), (n,)] = [[Fraction(p + n * q, q)]]
        blocks["S-"][(n,), (n + 1,)] = [[Fraction(n + 1)]]
    return GammaRep(
        sectors=sectors,
        grades=grades,
        blocks=blocks,
        adjoints={"S0": "S0", "S+": "S-", "S-": "S+"},
        exact=True,
    )
