"""Generic K-matrix machinery: solve S = K K' blocks, orthonormalize, unitarize.

A non-unitary representation ``Gamma`` on a graded raw basis is described by a
:class:`GammaRep`: sectors labelled by good quantum numbers, a grade per
sector, per-generator blocks between sectors, and the abstract adjoint pairing
of the generators.  The Hermitian blocks ``S = K K'`` then satisfy

    S(a) . Gamma(X)[b,a]^dagger = Gamma(Xdag)[a,b] . S(b)

for every generator ``X`` and sector pair ``(a, b)``.  Solving these
sector-by-sector in grade order from the identity on the lowest-grade,
intrinsic sectors, diagonalising each block, and rescaling by the square
roots of its eigenvalues produces the matrices ``gamma(X)`` of the unitary
irrep on the positive-norm states; zero eigenvalues mark raw states outside
the irreducible space.

Two arithmetic modes.  Exact mode takes one-dimensional sectors only, which
the :class:`GammaRep` checks when it is built: every block is ``[[g]]`` with
one exact scalar ``g = q sqrt(core)`` (a ``Radical``, ``Fraction`` or
``int``), every S-block is ``[[s]]`` with one rational ``s``, kept a
``Fraction`` throughout, and every check is exact.  Float mode (numpy) takes
sectors of any dimension, solves by least squares and checks to a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .opmatrix import OperatorMatrix
from .radical import Radical, radical_terms
from .repcheck import DEFAULT_TOL


class KMatrixError(Exception):
    """Inconsistent or unsolvable S-matrix data (signals a representation bug)."""


@dataclass
class SBlock:
    """Hermitian positive semi-definite S-block attached to one sector."""

    sector: tuple
    matrix: object  # [[Fraction]] in exact mode, np.ndarray in float mode

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=float)


@dataclass
class GammaRep:
    """Sector-blocked matrices of a (generally non-unitary) representation."""

    sectors: dict[tuple, int]
    grades: dict[tuple, int]
    blocks: dict[str, dict[tuple[tuple, tuple], object]]
    adjoints: dict[str, str]
    exact: bool = False

    def __post_init__(self):
        for gen, adj in self.adjoints.items():
            if self.adjoints.get(adj) != gen:
                raise ValueError(f"adjoint pairing is not an involution at {gen}")
        for gen in self.blocks:
            if gen not in self.adjoints:
                raise ValueError(f"generator {gen} has no adjoint partner")
        if self.exact:
            for sec, dim in self.sectors.items():
                if dim != 1:
                    raise ValueError(f"exact mode needs one-dimensional sectors; {sec} has dimension {dim}")

    def block(self, gen: str, row: tuple, col: tuple):
        return self.blocks.get(gen, {}).get((row, col))

    def raw_dimension(self) -> int:
        return sum(self.sectors.values())


def solve_s_recursion(rep: GammaRep, tol: float = DEFAULT_TOL) -> dict[tuple, SBlock]:
    """Solve ``S(a) Gamma(X)[b,a]^dag = Gamma(Xdag)[a,b] S(b)`` in grade order.

    The lowest-grade (intrinsic) sectors are seeded with the identity.
    """
    g0 = min(rep.grades.values())
    solved = {
        sec: SBlock(sec, [[Fraction(1)]] if rep.exact else np.eye(dim))
        for sec, dim in rep.sectors.items()
        if rep.grades[sec] == g0
    }
    incoming: dict[tuple, list] = {}  # col -> [(gen, row, block)], rows of lower grade only
    for gen, blocks in rep.blocks.items():
        for (row, col), block in blocks.items():
            if rep.grades[row] < rep.grades[col]:
                incoming.setdefault(col, []).append((gen, row, block))
    for sec in sorted(rep.sectors, key=lambda s: (rep.grades[s], s)):
        if sec in solved:
            continue
        # S(sec) A = B for each block Gamma(X)[row, sec]: A is its adjoint,
        # B = Gamma(Xdag)[sec, row] S(row); lower grades are solved already.
        constraints = [
            (block, rep.block(rep.adjoints[gen], sec, row), solved[row].matrix)
            for gen, row, block in incoming.get(sec, ())
        ]
        if not constraints:
            raise KMatrixError(f"sector {sec} is not reachable from the lowest grade")
        if rep.exact:
            solved[sec] = SBlock(sec, [[_solve_exact(sec, constraints)]])
        else:
            solved[sec] = SBlock(sec, _solve_float(sec, constraints, tol))
    _check_consistency(rep, solved, tol)
    return solved


def _square_class(value) -> tuple[int, Fraction]:
    """An exact scalar ``q * sqrt(core)``, ``core`` square-free, as ``(core, q)``; zero is ``(1, 0)``."""
    terms = radical_terms(value)
    if len(terms) > 1:
        raise KMatrixError(f"{value!r} spans more than one square class")
    core, num, den = terms[0] if terms else (1, 0, 1)
    return core, Fraction(num, den)


def _entry(block):
    """The scalar of a 1x1 exact block; an absent block is zero."""
    return 0 if block is None else block[0][0]


def _solve_exact(sec, constraints) -> Fraction:
    """The rational S value of a one-dimensional sector.

    A block ``g = q_g sqrt(c_g)`` and its partner ``p = q_p sqrt(c_p)`` give
    ``S g = p S(low)``, so ``S = S(low) q_p / q_g``, rational only when
    ``c_p == c_g``.  The (possibly very long) S values are only multiplied and
    divided by the short coefficients ``q``, never squared or factored.
    """
    value = None
    for block, partner, s_low in constraints:
        core_g, q_g = _square_class(block[0][0])
        core_p, q_p = _square_class(_entry(partner))
        rhs = q_p * s_low[0][0]
        if not q_g:
            if rhs:
                raise KMatrixError(f"inconsistent constraints at sector {sec}")
            continue
        if rhs and core_p != core_g:
            raise KMatrixError(f"irrational S value at sector {sec}")
        s = rhs / q_g
        if value is None:
            value = s
        elif value != s:
            raise KMatrixError(f"inconsistent constraints at sector {sec}")
    if value is None:
        raise KMatrixError(f"sector {sec} is undetermined by the recursion")
    if value < 0:
        raise KMatrixError(f"negative norm at sector {sec} (not positive semi-definite)")
    return value


def _solve_float(sec, constraints, tol) -> np.ndarray:
    """S from all ``S A = B`` side by side: one least-squares solve with d right-hand sides, symmetrized."""
    a_parts, b_parts = [], []
    for block, partner, s_low in constraints:
        a = np.asarray(block, dtype=float).T
        a_parts.append(a)
        b_parts.append(np.zeros_like(a) if partner is None else np.asarray(partner, dtype=float) @ s_low)
    a, b = np.hstack(a_parts), np.hstack(b_parts)
    s_t, *_ = np.linalg.lstsq(a.T, b.T, rcond=None)
    s = (s_t + s_t.T) / 2
    scale = 1.0 + float(np.abs(a).max()) * float(np.abs(s).max())
    residual = float(np.abs(s @ a - b).max()) / scale
    if residual > tol:
        raise KMatrixError(f"S-recursion residual {residual:.2e} at sector {sec}")
    ev = np.linalg.eigvalsh(s)
    if ev.min() < -tol * max(1.0, ev.max()):
        raise KMatrixError(f"S-block at {sec} is not positive semi-definite")
    return s


def _check_consistency(rep, solved, tol):
    """Verify S(col).Gamma(X)[row,col]^dag = Gamma(Xdag)[col,row].S(row) for all blocks.

    Exact mode compares ``S(col) q_g == q_p S(row)`` and the square classes
    of ``g`` and ``p`` exactly; float mode to ``tol``, relative.
    """
    worst = 0.0
    for gen, blocks in rep.blocks.items():
        adj = rep.adjoints[gen]
        for (row, col), block in blocks.items():
            partner = rep.block(adj, col, row)
            s_col, s_row = solved[col].matrix, solved[row].matrix
            if rep.exact:
                core_g, q_g = _square_class(block[0][0])
                core_p, q_p = _square_class(_entry(partner))
                lhs, rhs = s_col[0][0] * q_g, q_p * s_row[0][0]
                if lhs != rhs or (lhs and core_g != core_p):
                    raise KMatrixError(f"S-matrix equations violated exactly at {gen} {(row, col)}")
                continue
            lhs = s_col @ np.asarray(block, dtype=float).T
            rhs = np.zeros_like(lhs) if partner is None else np.asarray(partner, dtype=float) @ s_row
            num = float(np.abs(lhs - rhs).max())
            den = 1.0 + float(np.abs(lhs).max()) + float(np.abs(rhs).max())
            worst = max(worst, num / den)
    if worst > tol:
        raise KMatrixError(f"S-matrix equations violated, residual {worst:.2e}")


@dataclass
class OrthoSector:
    """Diagonalized S-block: unitary, norm factors k (descending), zero-norm count."""

    sector: tuple
    unitary: object
    k_values: list
    n_positive: int

    @property
    def zero_norm(self) -> int:
        return len(self.k_values) - self.n_positive


def orthonormalize(
    sblocks: dict[tuple, SBlock], tol: float = DEFAULT_TOL, exact: bool = False
) -> dict[tuple, OrthoSector]:
    """Diagonalize each S-block; ``k = sqrt(eigenvalue)``, small ones are zero-norm.

    ``exact=True`` is for the S-blocks of an exact :class:`GammaRep`: each is a
    rational ``[[s]]``, and ``k = sqrt(s)`` is a :class:`Radical`.
    """
    out = {}
    for sec, sb in sorted(sblocks.items()):
        out[sec] = _ortho_exact(sec, sb) if exact else _ortho_float(sec, sb, tol)
    return out


def _ortho_exact(sec, sb) -> OrthoSector:
    ((s,),) = sb.matrix
    if s < 0:
        raise KMatrixError(f"negative S eigenvalue at {sec}")
    k = Radical.sqrt_of(s)
    return OrthoSector(sec, [[Fraction(1)]], [k], 0 if k.is_zero() else 1)


def _ortho_float(sec, sb, tol) -> OrthoSector:
    s = sb.to_dense()
    s = (s + s.T) / 2
    if s.shape[0] == 1 or np.count_nonzero(s - np.diag(np.diag(s))) == 0:
        diag = np.diag(s).copy()
        order = np.argsort(-diag, kind="stable")
        u = np.eye(s.shape[0])[:, order]
        ev = diag[order]
    else:
        ev, u = np.linalg.eigh(s)
        ev, u = ev[::-1], u[:, ::-1]
        for col in range(u.shape[1]):
            lead = np.argmax(np.abs(u[:, col]))
            if u[lead, col] < 0:
                u[:, col] = -u[:, col]
    top = max(ev.max(initial=0.0), 0.0)
    cut = tol * top if top > 0 else tol
    if ev.min(initial=0.0) < -max(cut, tol):
        raise KMatrixError(f"negative S eigenvalue {ev.min():.2e} at {sec}")
    ks = [float(np.sqrt(e)) if e > cut else 0.0 for e in ev]
    n_pos = sum(1 for k in ks if k > 0)
    return OrthoSector(sec, u, ks, n_pos)


def zero_norm_count(ortho: dict[tuple, OrthoSector]) -> int:
    return sum(o.zero_norm for o in ortho.values())


def unitarize(
    rep: GammaRep,
    ortho: dict[tuple, OrthoSector],
    tol: float = DEFAULT_TOL,
) -> tuple[list[tuple], dict[str, OperatorMatrix]]:
    """Matrices ``gamma(X)`` of the unitary irrep on the positive-norm basis.

    Returns the ordered basis (sector, multiplicity-index) and one
    OperatorMatrix per generator with
    ``gamma[b,a] = (1/k_b) [U' Gamma U]_{ba} k_a``.
    """
    basis = []
    for sec in sorted(ortho, key=lambda s: (rep.grades[s], s)):
        for alpha in range(ortho[sec].n_positive):
            basis.append((sec, alpha))
    index = {lbl: i for i, lbl in enumerate(basis)}

    gammas = {}
    for gen, blocks in rep.blocks.items():
        mat = OperatorMatrix(gen, basis)
        for (row, col), block in blocks.items():
            o_r, o_c = ortho[row], ortho[col]
            if o_r.n_positive == 0 or o_c.n_positive == 0:
                continue
            if rep.exact:  # one-dimensional sectors: both unitaries are [[1]]
                core, q = _square_class(block[0][0])
                if q:
                    g = Radical(1 if q > 0 else -1, q * q * core)
                    mat[index[(row, 0)], index[(col, 0)]] = g * o_c.k_values[0] / o_r.k_values[0]
                continue
            u_r = np.asarray(o_r.unitary, dtype=float)
            u_c = np.asarray(o_c.unitary, dtype=float)
            core = u_r.T @ np.asarray(block, dtype=float) @ u_c
            for b in range(o_r.n_positive):
                for a in range(o_c.n_positive):
                    v = core[b, a] * o_c.k_values[a] / o_r.k_values[b]
                    if v != 0.0:
                        mat[index[(row, b)], index[(col, a)]] = float(v)
        gammas[gen] = mat

    for gen, adj in rep.adjoints.items():
        if gen in gammas and adj in gammas:
            diff = gammas[gen].dagger().max_abs_diff(gammas[adj])
            scale = 1.0 + gammas[gen].frobenius()
            if diff / scale > tol:
                raise KMatrixError(
                    f"unitarized gamma({gen}) is not the adjoint of gamma({adj})"
                )
    return basis, gammas


def gamma_rep_from_json(doc: dict) -> GammaRep:
    """Build a float GammaRep from its JSON description.

    Expected layout::

        {"sectors": [{"key": [...], "dim": int, "grade": int}, ...],
         "generators": {name: {"adjoint": name,
                               "blocks": [{"row": [...], "col": [...],
                                           "entries": [[i, j, value], ...]}]}}}
    """
    sectors, grades = {}, {}
    for s in doc["sectors"]:
        key = tuple(s["key"])
        sectors[key] = int(s["dim"])
        grades[key] = int(s["grade"])
    blocks = {}
    adjoints = {}
    for gen, info in doc["generators"].items():
        adjoints[gen] = info["adjoint"]
        gen_blocks = {}
        for blk in info.get("blocks", []):
            row, col = tuple(blk["row"]), tuple(blk["col"])
            name = f"{gen} block {row} -> {col}"
            if (row, col) in gen_blocks:
                raise ValueError(f"{name}: given twice")
            gen_blocks[(row, col)] = _block_from_json(name, row, col, blk["entries"], sectors)
        blocks[gen] = gen_blocks
    return GammaRep(sectors=sectors, grades=grades, blocks=blocks, adjoints=adjoints, exact=False)


def _block_from_json(name, row, col, entries, sectors) -> np.ndarray:
    """A block's ``[i, j, value]`` entries as a dense array; a bad sector or entry raises ``ValueError``."""
    for key in (row, col):
        if key not in sectors:
            raise ValueError(f"{name}: unknown sector {key}")
    m = np.zeros((sectors[row], sectors[col]))
    seen = set()
    for i, j, v in entries:
        i, j = int(i), int(j)
        if not (0 <= i < m.shape[0] and 0 <= j < m.shape[1]):
            raise ValueError(f"{name}: entry ({i}, {j}) outside {m.shape[0]}x{m.shape[1]}")
        if (i, j) in seen:
            raise ValueError(f"{name}: duplicate entry ({i}, {j})")
        seen.add((i, j))
        m[i, j] = float(v)
    return m
