"""Dense and exact reference computations that only the tests use.

Nothing in ``vcs_irreps`` calls these; the tests compare the library's
constructions and checks with them.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from vcs_irreps import repcheck, su3_so3, u3
from vcs_irreps.opmatrix import OperatorMatrix
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
    """The spec's quadratic Casimir ``sum c X Y`` (at least one term) as a dense array, from the float kernel."""
    forms = repcheck._forms(spec, matrices, repcheck.SparseMatrix)
    dim = forms[spec.generators[0]].dim
    total = repcheck.SparseMatrix.sum(dim, [(c, forms[x], forms[y]) for c, x, y in spec.casimir])
    return np.concatenate([block for _, block in total.blocks()])


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
