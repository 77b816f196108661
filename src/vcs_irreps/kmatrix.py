"""Generic K-matrix machinery: solve S = K K' blocks, orthonormalize, unitarize.

A non-unitary representation ``Gamma`` on a graded raw basis is described by a
:class:`GammaRep`: sectors labelled by good quantum numbers, a grade per
sector, per-generator blocks between sectors, and the abstract adjoint pairing
of the generators.  The Hermitian blocks ``S = K K'`` then satisfy

    S(a) . Gamma(X)[b,a]^dagger = Gamma(Xdag)[a,b] . S(b)

for every generator ``X`` and sector pair ``(a, b)``.  Solving these
sector-by-sector in grade order from a seed (identity on the lowest-grade,
intrinsic sectors), diagonalising each block, and rescaling by the square
roots of its eigenvalues produces the matrices ``gamma(X)`` of the unitary
irrep on the positive-norm states; zero eigenvalues mark raw states outside
the irreducible space.

Two arithmetic modes: exact (Radical/Fraction entries, one-dimensional
sectors) and float (numpy, least-squares solves, tolerance-based checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .opmatrix import OperatorMatrix
from .radical import Radical, RadicalSum, as_float
from .repcheck import DEFAULT_TOL

_RATIONALS = (int, Fraction)
_EXACT_SCALARS = (*_RATIONALS, Radical, RadicalSum)


class KMatrixError(Exception):
    """Inconsistent or unsolvable S-matrix data (signals a representation bug)."""


@dataclass
class SBlock:
    """Hermitian positive semi-definite S-block attached to one sector."""

    sector: tuple
    matrix: object  # list-of-lists of exact scalars, or np.ndarray

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def to_dense(self) -> np.ndarray:
        if isinstance(self.matrix, np.ndarray):
            return self.matrix
        return np.array([[as_float(v) for v in row] for row in self.matrix])


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

    def block(self, gen: str, row: tuple, col: tuple):
        return self.blocks.get(gen, {}).get((row, col))

    def raw_dimension(self) -> int:
        return sum(self.sectors.values())


def _dagger_block(block):
    if isinstance(block, np.ndarray):
        return block.T.copy()
    rows, cols = len(block), len(block[0])
    return [[block[r][c] for r in range(rows)] for c in range(cols)]


def _matmul_exact(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[RadicalSum() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for t in range(k):
            av = a[i][t]
            if isinstance(av, (int, Fraction)) and av == 0:
                continue
            av = RadicalSum.from_value(av)
            for j in range(m):
                bv = b[t][j]
                if isinstance(bv, (int, Fraction)) and bv == 0:
                    continue
                out[i][j] = out[i][j] + av * RadicalSum.from_value(bv)
    return out


def identity_seed(rep: GammaRep) -> dict[tuple, SBlock]:
    """Identity S-blocks on every lowest-grade sector (the intrinsic space)."""
    g0 = min(rep.grades.values())
    seed = {}
    for sec, dim in rep.sectors.items():
        if rep.grades[sec] == g0:
            if rep.exact:
                mat = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
            else:
                mat = np.eye(dim)
            seed[sec] = SBlock(sec, mat)
    return seed


def solve_s_recursion(
    rep: GammaRep, seed: dict[tuple, SBlock] | None = None, tol: float = DEFAULT_TOL
) -> dict[tuple, SBlock]:
    """Solve ``S(a) Gamma(X)[b,a]^dag = Gamma(Xdag)[a,b] S(b)`` in grade order."""
    solved = dict(seed) if seed is not None else identity_seed(rep)
    order = sorted(rep.sectors, key=lambda s: (rep.grades[s], s))
    incoming: dict[tuple, list] = {}  # col -> [(gen, row, block)], off-diagonal blocks only
    for gen, blocks in rep.blocks.items():
        for (row, col), block in blocks.items():
            if row != col:
                incoming.setdefault(col, []).append((gen, row, block))
    for sec in order:
        if sec in solved:
            continue
        constraints = _incoming_constraints(rep, sec, solved, incoming.get(sec, ()))
        if not constraints:
            raise KMatrixError(f"sector {sec} is not reachable from the seed")
        if rep.exact:
            solved[sec] = _solve_exact(rep, sec, constraints)
        else:
            solved[sec] = _solve_float(rep, sec, constraints, tol)
    _check_consistency(rep, solved, tol)
    return solved


def _incoming_constraints(rep, sec, solved, incoming):
    """Pairs (A, B) with the unknown satisfying ``S(sec) @ A = B``, from the blocks entering ``sec``."""
    out = []
    for gen, row, block in incoming:
        if rep.grades[row] >= rep.grades[sec] or row not in solved:
            continue
        a = _dagger_block(block)  # Gamma(X)[low, sec]^dag
        partner = rep.block(rep.adjoints[gen], sec, row)
        s_low = solved[row].matrix
        if partner is None:
            d = rep.sectors[sec]
            if rep.exact:
                b = [[Fraction(0)] * rep.sectors[row] for _ in range(d)]
            else:
                b = np.zeros((d, rep.sectors[row]))
        elif rep.exact:
            b = _matmul_exact(partner, s_low)
        else:
            b = np.asarray(partner) @ np.asarray(s_low)
        out.append((a, b))
    return out


def _solve_exact(rep, sec, constraints) -> SBlock:
    """The rational S value of a one-dimensional sector, from ``S a = b`` entry by entry.

    Each quotient ``b / a`` is formed as a :class:`RadicalSum` over the single
    radical ``a``, so the (possibly very long) rational S values are never
    squared or factored.
    """
    if rep.sectors[sec] != 1:
        raise KMatrixError("exact mode requires one-dimensional sectors")
    value = None
    for a, b in constraints:
        for av, bv in zip(a[0], b[0]):
            av = RadicalSum.from_value(av)
            bv = RadicalSum.from_value(bv)
            if av.is_zero():
                if not bv.is_zero():
                    raise KMatrixError(f"inconsistent constraints at sector {sec}")
                continue
            x = bv / av.to_radical()
            if value is None:
                value = x
            elif value != x:
                raise KMatrixError(f"inconsistent constraints at sector {sec}")
    if value is None:
        raise KMatrixError(f"sector {sec} is undetermined by the recursion")
    if set(value.terms) - {1}:
        raise KMatrixError(f"irrational S value at sector {sec}")
    s = value.terms.get(1, Fraction(0))
    if s < 0:
        raise KMatrixError(f"negative norm at sector {sec} (not positive semi-definite)")
    return SBlock(sec, [[s]])


def _solve_float(rep, sec, constraints, tol) -> SBlock:
    d = rep.sectors[sec]
    rows, rhs = [], []
    for a, b in constraints:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        dl = a.shape[1]
        for i in range(d):
            for j in range(dl):
                row = np.zeros(d * d)
                row[i * d : (i + 1) * d] = a[:, j]
                rows.append(row)
                rhs.append(b[i, j])
    # Hermiticity (real-symmetric) constraints close the system.
    for i in range(d):
        for j in range(i + 1, d):
            row = np.zeros(d * d)
            row[i * d + j] = 1.0
            row[j * d + i] = -1.0
            rows.append(row)
            rhs.append(0.0)
    m = np.array(rows)
    r = np.array(rhs)
    sol, *_ = np.linalg.lstsq(m, r, rcond=None)
    s = sol.reshape(d, d)
    s = (s + s.T) / 2
    scale = 1.0 + float(np.abs(m).max()) * float(np.abs(s).max())
    residual = float(np.abs(m @ s.reshape(-1) - r).max()) / scale
    if residual > tol:
        raise KMatrixError(f"S-recursion residual {residual:.2e} at sector {sec}")
    ev = np.linalg.eigvalsh(s)
    if ev.min() < -tol * max(1.0, ev.max()):
        raise KMatrixError(f"S-block at {sec} is not positive semi-definite")
    return SBlock(sec, s)


def _check_consistency(rep, solved, tol):
    """Verify S(col).Gamma(X)[row,col]^dag = Gamma(Xdag)[col,row].S(row) for all blocks.

    Rational 1x1 S-blocks (exact mode) are compared exactly; any other to
    ``tol``, relative, in floats.
    """
    worst = 0.0
    for gen, blocks in rep.blocks.items():
        adj = rep.adjoints[gen]
        for (row, col), block in blocks.items():
            partner = rep.block(adj, col, row)
            s_col, s_row = solved[col].matrix, solved[row].matrix
            if rep.exact and _is_rational_scalar(s_col) and _is_rational_scalar(s_row):
                if not _exact_relation_holds(s_col[0][0], block[0][0], partner, s_row[0][0]):
                    raise KMatrixError(f"S-matrix equations violated exactly at {gen} {(row, col)}")
                continue
            lhs = solved[col].to_dense() @ np.asarray(_dagger_to_dense(block))
            pb = _block_to_dense(partner, (rep.sectors[col], rep.sectors[row]))
            rhs = pb @ solved[row].to_dense()
            num = float(np.abs(lhs - rhs).max())
            den = 1.0 + float(np.abs(lhs).max()) + float(np.abs(rhs).max())
            worst = max(worst, num / den)
    if worst > tol:
        raise KMatrixError(f"S-matrix equations violated, residual {worst:.2e}")


def _is_rational_scalar(matrix) -> bool:
    """Whether an S-block is a 1x1 rational, as every sector exact mode solves is."""
    return not isinstance(matrix, np.ndarray) and len(matrix) == 1 and isinstance(matrix[0][0], _RATIONALS)


def _exact_relation_holds(s_col, g, partner, s_row) -> bool:
    """Whether ``s_col * g == p * s_row`` exactly, for a 1x1 ``partner`` block ``[[p]]`` or None (zero).

    The comparison is by sign and by cross-multiplied squares in plain
    integers, so the long rational S values are multiplied but never reduced
    or factored.
    """
    g = _as_radical(g)
    p = Radical.zero() if partner is None else _as_radical(partner[0][0])
    if ((s_col > 0) - (s_col < 0)) * g.sign != ((s_row > 0) - (s_row < 0)) * p.sign:
        return False
    # (a/b)^2 g == (c/d)^2 p  <=>  (a d)^2 g_num p_den == (c b)^2 p_num g_den
    x, y = s_col.numerator * s_row.denominator, s_row.numerator * s_col.denominator
    gr, pr = g.radicand, p.radicand
    return x * x * gr.numerator * pr.denominator == y * y * pr.numerator * gr.denominator


def _as_exact_real(value):
    """An exact scalar as a ``Fraction`` or a single :class:`Radical`, never squaring a rational."""
    if isinstance(value, RadicalSum):
        return value.to_radical()
    return value if isinstance(value, Radical) else Fraction(value)


def _as_radical(value) -> Radical:
    value = _as_exact_real(value)
    return value if isinstance(value, Radical) else Radical.from_rational(value)


def _dagger_to_dense(block):
    if isinstance(block, np.ndarray):
        return block.T
    return np.array([[as_float(v) for v in row] for row in block]).T


def _block_to_dense(block, shape):
    if block is None:
        return np.zeros(shape)
    if isinstance(block, np.ndarray):
        return block
    return np.array([[as_float(v) for v in row] for row in block])


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
    """Diagonalize each S-block; ``k = sqrt(eigenvalue)``, small ones are zero-norm."""
    out = {}
    for sec, sb in sorted(sblocks.items()):
        if exact or _is_exact_block(sb.matrix):
            out[sec] = _ortho_exact(sec, sb)
        else:
            out[sec] = _ortho_float(sec, sb, tol)
    return out


def _is_exact_block(matrix) -> bool:
    if isinstance(matrix, np.ndarray):
        return False
    return all(isinstance(v, _EXACT_SCALARS) for row in matrix for v in row)


def _ortho_exact(sec, sb) -> OrthoSector:
    d = sb.dim
    for i in range(d):
        for j in range(d):
            if i != j and not RadicalSum.from_value(sb.matrix[i][j]).is_zero():
                raise KMatrixError(
                    f"exact orthonormalization needs a diagonal S-block at {sec}"
                )
    # A rational S value stays a Fraction: its square root is Radical.sqrt_of(v).
    diag = [_as_exact_real(sb.matrix[i][i]) for i in range(d)]
    order = sorted(range(d), key=lambda i: diag[i], reverse=True)
    ks = []
    for i in order:
        v = diag[i]
        if v < 0:
            raise KMatrixError(f"negative S eigenvalue at {sec}")
        ks.append(v.sqrt() if isinstance(v, Radical) else Radical.sqrt_of(v))
    unitary = [[Fraction(int(i == order[a])) for a in range(d)] for i in range(d)]
    n_pos = sum(1 for k in ks if not k.is_zero())
    return OrthoSector(sec, unitary, ks, n_pos)


def _ortho_float(sec, sb, tol) -> OrthoSector:
    s = np.asarray(sb.to_dense(), dtype=float)
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
            if rep.exact and not isinstance(block, np.ndarray):
                if len(block) == 1 and len(block[0]) == 1:
                    core = block  # one-dimensional sectors: both unitaries are [[1]]
                else:
                    core = _matmul_exact(
                        _matmul_exact(_dagger_block(o_r.unitary), block), o_c.unitary
                    )
                for b in range(o_r.n_positive):
                    for a in range(o_c.n_positive):
                        val = _as_radical(core[b][a])
                        if val.is_zero():
                            continue
                        entry = val * o_c.k_values[a] / o_r.k_values[b]
                        mat[index[(row, b)], index[(col, a)]] = entry
            else:
                u_r = _block_to_dense(o_r.unitary, None)
                u_c = _block_to_dense(o_c.unitary, None)
                core = u_r.T @ _block_to_dense(block, None) @ u_c
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
            m = np.zeros((sectors[row], sectors[col]))
            for i, j, v in blk["entries"]:
                m[int(i), int(j)] = float(v)
            gen_blocks[(row, col)] = m
        blocks[gen] = gen_blocks
    return GammaRep(sectors=sectors, grades=grades, blocks=blocks, adjoints=adjoints, exact=False)
