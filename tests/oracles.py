"""Dense and exact reference computations that only the tests use.

Nothing in ``vcs_irreps`` calls these; the tests compare the library's
constructions and checks with them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from vcs_irreps import angmom, repcheck, su3_so3, u3
from vcs_irreps.opmatrix import OperatorMatrix
from vcs_irreps.radical import Radical, RadicalSum
from vcs_irreps.su11 import Su11Irrep, generator_matrices


def spectrum_multiset(matrix, hermitian_tol: float = 1e-9) -> list[float]:
    """Sorted eigenvalue list (uses the symmetric solver when applicable)."""
    m = matrix.to_dense() if isinstance(matrix, (OperatorMatrix, repcheck.SparseMatrix)) else np.asarray(matrix)
    if np.abs(m - m.conj().T).max() <= hermitian_tol * (1.0 + np.abs(m).max()):
        ev = np.linalg.eigvalsh(m)
    else:
        ev = np.sort_complex(np.linalg.eigvals(m))
        if np.abs(ev.imag).max() < 1e-9:
            ev = ev.real
    return [float(x) for x in np.sort(ev.real)]


def casimir_matrix(spec: repcheck.AlgebraSpec, matrices: dict) -> np.ndarray:
    """The spec's quadratic Casimir ``sum c X Y`` (at least one term) as a dense array, from the float tiles."""
    forms = repcheck.TiledMatrix.tile(spec, {g: repcheck.SparseMatrix.of(matrices[g]) for g in spec.generators})
    dim = forms[spec.generators[0]].dim
    return tile_sum_dense(repcheck.TiledMatrix.sum(dim, [(c, forms[x], forms[y]) for c, x, y in spec.casimir]))


def tile_sum_dense(total: repcheck.TileSum) -> np.ndarray:
    """A tile sum as a dense array: each block put back in its places of the basis."""
    out = np.zeros((total.dim, total.dim), np.result_type(float, *total.blocks.values()))
    for (i, j), block in total.blocks.items():
        out[np.ix_(total.index[i], total.index[j])] = block
    return out


def clebsch_gordan_twice_float(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> float:
    """``float(angmom.clebsch_gordan_twice(...))``, bit for bit, from Racah's series without a ``Radical``.

    Both round the same exact quotient ``num / den`` once and take its square
    root.  The reference that ``angmom.rank2_cg_parts`` is compared with.
    """
    if not angmom._in_range(tj1, tm1, tj2, tm2, tJ, tM):
        return 0.0
    sign, num, den = angmom._cg_parts(tj1, tm1, tj2, tm2, tJ, tM)
    return sign * math.sqrt(num / den)


def su11_casimir_matrix(irrep: Su11Irrep) -> OperatorMatrix:
    """``S0**2 - (S+ S- + S- S+)/2``, exactly."""
    g = generator_matrices(irrep)
    s0, sp, sm = g["S0"], g["S+"], g["S-"]
    out = (s0 @ s0) - ((sp @ sm) + (sm @ sp)).scale(Fraction(1, 2))
    out.name = "Casimir"
    return out


def x_eigenbasis(lm: su3_so3.Su3Label, L: int) -> tuple[np.ndarray, list[float]]:
    """Orthogonal U diagonalizing ``M[L,L]`` and its eigenvalues, ascending.

    Columns are sign-fixed (largest-magnitude component positive); ``alpha``
    indexes the eigenvalue order.
    """
    con = su3_so3._construction(lm)
    if L not in con.unitaries:
        raise ValueError(f"L={L} carries no states in ({lm.lam},{lm.mu})")
    return con.unitaries[L].copy(), [float(v) for v in con.eigenvalues[L]]


def m_block_reference(lm: su3_so3.Su3Label, Lp: int, L: int) -> tuple[list[int], list[int], dict]:
    """``su3_so3.m_matrix(lm, Lp, L)`` with each non-zero entry a ``RadicalSum``, from Racah's series.

    Each entry is its closed-form amplitude times ``angmom.clebsch_gordan`` in
    ``Radical`` and ``RadicalSum`` arithmetic, independent of
    ``angmom.rank2_cg_parts`` and of the library's integer square classes.
    """
    rows, cols = su3_so3.raw_k_candidates(lm, Lp), su3_so3.raw_k_candidates(lm, L)
    bracket = Fraction(2 * lm.lam + lm.mu + 3) - Fraction(Lp * (Lp + 1), 2) + Fraction(L * (L + 1), 2)
    out = {}
    for c, K in enumerate(cols):
        for r, Kp in enumerate(rows):
            value = RadicalSum()
            if Kp == K:
                value = RadicalSum.from_value(angmom.clebsch_gordan(L, K, 2, 0, Lp, K)) * bracket
                if K == 1:
                    phase = -1 if (lm.lam + L + 1) % 2 else 1
                    cg = Radical.sqrt_of(Fraction(3, 2)) * angmom.clebsch_gordan(L, -1, 2, 2, Lp, 1)
                    value = value + RadicalSum.from_value(cg) * (phase * (lm.mu + 1))
            elif abs(Kp - K) == 2:
                low, high = min(K, Kp), max(K, Kp)
                amp_sq = Fraction(3, 2) * (lm.mu - low) * (lm.mu + high) * (2 if low == 0 else 1)
                value = RadicalSum.from_value(Radical.sqrt_of(amp_sq) * angmom.clebsch_gordan(L, K, 2, Kp - K, Lp, Kp))
            if value:
                out[(r, c)] = value
    return rows, cols, out


def quadrupole_dense(generators: dict[str, OperatorMatrix]) -> dict[int, np.ndarray]:
    """Dense complex quadrupole components ``Q(-2) .. Q(2)`` from the u(3) generators."""
    c = {name: generators[name].to_dense() for name in u3.GENERATOR_NAMES}
    h1 = c["C11"] - c["C22"]
    h2 = c["C22"] - c["C33"]
    root32 = np.sqrt(1.5)
    return {
        0: (2 * h1 + h2).astype(complex),
        1: -root32 * ((c["C12"] + c["C21"]) + 1j * (c["C13"] + c["C31"])),
        -1: root32 * ((c["C12"] + c["C21"]) - 1j * (c["C13"] + c["C31"])),
        2: root32 * (h2 + 1j * (c["C23"] + c["C32"])),
        -2: root32 * (h2 - 1j * (c["C23"] + c["C32"])),
    }
