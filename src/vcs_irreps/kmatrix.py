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

Each stage solves first and checks afterwards.  The recursion derives each
sector's S from one equation, and then one walk over the adjoint pairs,
:func:`_pairs`, checks every S equation once, since the equation of
``X[row, col]`` is that of its partner ``Xdag[col, row]``.

Two arithmetic modes.  Exact mode takes one-dimensional sectors only, which
the :class:`GammaRep` checks when it is built: every block is ``[[g]]`` with
one exact scalar ``g = q sqrt(core)`` (a ``Radical``, ``Fraction`` or
``int``), and every S-block is ``[[s]]`` with one rational ``s``, kept a
``Fraction`` throughout.  Each block's square class is read as the plain
integers ``(core, num, den)`` with ``q = num/den``, once per stage:
``solve_s_recursion`` and ``unitarize`` each build one table of them per
call, and every check runs on it.  An S equation ``S(col) q_g == q_p S(row)``
is checked by scaling ``S(row)`` by the short ratio ``q_p / q_g`` with
long-by-short gcds only, so no two long S values are ever multiplied, and
the cores of ``g`` and ``p`` are compared.  The unitary entry is then
``sign(q_g) sqrt(q_g q_p core)``, from the short ``q`` alone; each
generator's entries are collected in one dict and handed to
``OperatorMatrix`` whole, and the closing adjoint check compares entries
exactly.  Float mode (numpy) takes sectors of any dimension, solves by least
squares, checks to a tolerance relative to each sector's scale and returns
one ``SparseMatrix`` per generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .opmatrix import OperatorMatrix, json_entries, json_finite, json_integer
from .radical import Radical, radical_terms
from .repcheck import DEFAULT_TOL, SparseMatrix, positive_leads

_ZERO_CLASS = (1, 0, 1)  # the square class of an absent or zero exact block


class KMatrixError(Exception):
    """Inconsistent or unsolvable S-matrix data (signals a representation bug)."""


@dataclass
class SBlock:
    """Hermitian positive semi-definite S-block of one sector."""

    matrix: object  # [[Fraction]] in exact mode, np.ndarray in float mode
    # float mode: the size the sector's constraints give S, the largest
    # |partner| |S(low)| / |block|; an S of rounding noise lies far below it
    scale: float = 0.0


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

    def square_classes(self, sectors=None) -> dict[str, dict[tuple[tuple, tuple], tuple[int, int, int]]]:
        """One stage's table: each exact block ``[[q sqrt(core)]]`` as the integers ``(core, num, den)``, ``q = num/den``.

        Keyed by generator and ``(row, col)`` as in ``blocks``; with
        ``sectors`` given, only the blocks between two of them.  ``core`` is
        square-free and a zero block is ``(1, 0, 1)``.  A ``Fraction`` or
        ``int`` block is ``(1, num, den)`` with no factoring; a ``Radical`` is
        factored by the memoized ``squarefree_decompose``.  Built anew on
        every call and never kept, so a block changed in place between two
        stages is seen.
        """
        table = {}
        for gen, blocks in self.blocks.items():
            table[gen] = classes = {}
            for key, block in blocks.items():
                if sectors is None or (key[0] in sectors and key[1] in sectors):
                    terms = radical_terms(block[0][0])
                    if len(terms) > 1:
                        raise KMatrixError(f"{block[0][0]!r} spans more than one square class")
                    classes[key] = terms[0] if terms else _ZERO_CLASS
        return table

    def raw_dimension(self) -> int:
        return sum(self.sectors.values())


def solve_s_recursion(rep: GammaRep) -> dict[tuple, SBlock]:
    """Solve ``S(a) Gamma(X)[b,a]^dag = Gamma(Xdag)[a,b] S(b)`` in grade order, then check every equation.

    The lowest-grade (intrinsic) sectors are seeded with the identity.
    """
    g0 = min(rep.grades.values())
    lowest = [(sec, dim) for sec, dim in rep.sectors.items() if rep.grades[sec] == g0]
    solved = {sec: SBlock([[Fraction(1)]] if rep.exact else np.eye(dim)) for sec, dim in lowest}
    # exact mode reads each block's square class from the stage's table, float mode the block itself
    tables, absent = (rep.square_classes(), _ZERO_CLASS) if rep.exact else (rep.blocks, None)
    incoming: dict[tuple, list] = {}  # col -> [(gen, row)], rows of lower grade only
    for gen, blocks in rep.blocks.items():
        for row, col in blocks:
            if rep.grades[row] < rep.grades[col]:
                incoming.setdefault(col, []).append((gen, row))
    order = sorted(rep.sectors, key=lambda s: (rep.grades[s], s))
    for sec in order:
        if sec in solved:
            continue
        # S(sec) A = B for each block Gamma(X)[row, sec]: A is its adjoint,
        # B = Gamma(Xdag)[sec, row] S(row); lower grades are solved already.
        constraints = [
            (tables[gen][row, sec], tables.get(rep.adjoints[gen], {}).get((sec, row), absent), solved[row].matrix)
            for gen, row in incoming.get(sec, ())
        ]
        if not constraints:
            raise KMatrixError(f"sector {sec} is not reachable from the lowest grade")
        solved[sec] = SBlock([[_solve_exact(sec, constraints)]]) if rep.exact else _solve_float(sec, constraints)
    if rep.exact:
        norms = {sec: sb.matrix[0][0] for sec, sb in solved.items()}
        _check_pairs(rep.adjoints, tables, norms, "S-matrix equations violated exactly")
        for sec in order:
            if norms[sec] < 0:
                raise KMatrixError(f"negative norm at sector {sec} (not positive semi-definite)")
    else:
        _check_consistency(rep, solved)
    return solved


def _short_ratio(g, p) -> tuple[int, int]:
    """``q_p / q_g`` in lowest terms as ``(num, den)``, ``den > 0``, for square classes ``g`` (``q_g != 0``) and ``p``.

    Both coefficients are short, so this is one short gcd.
    """
    _, num_g, den_g = g
    _, num_p, den_p = p
    num, den = num_p * den_g, den_p * num_g
    k = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // k, den // k


def _balanced(s_col, g, p, s_row) -> bool:
    """Whether ``S(col) q_g == q_p S(row)`` and, unless both sides are zero, the cores of ``g`` and ``p`` agree.

    ``g`` and ``p`` are square classes and the S values are rationals in
    lowest terms.  A self-adjoint diagonal block, one class and one S value
    on both sides, holds identically.  Otherwise ``S(row)`` is scaled by the
    short ratio ``q_p / q_g`` as ``Fraction._mul`` does: each long part of
    ``S(row)`` shares a gcd only with the opposite short part of the ratio, so
    the result is in lowest terms, and its numerator and denominator are
    compared with those of ``S(col)``.  No two long values are multiplied.
    """
    if g is p and s_col is s_row:
        return True
    if not g[1]:  # S(col) q_g is 0
        return not (p[1] and s_row)
    num, den = _short_ratio(g, p)
    s_num, s_den = s_row.numerator, s_row.denominator
    g1, g2 = math.gcd(s_num, den), math.gcd(num, s_den)
    return (
        (s_num // g1) * (num // g2) == s_col.numerator
        and (s_den // g2) * (den // g1) == s_col.denominator
        and (not s_col or g[0] == p[0])
    )


def _solve_exact(sec, constraints) -> Fraction:
    """The rational S value of a one-dimensional sector, from its first constraint with a non-zero block.

    Each constraint holds a block's square class, its partner's and the
    lower S-block.  A block ``g = q_g sqrt(c_g)`` and its partner
    ``p = q_p sqrt(c_p)`` give ``S g = p S(low)``, so
    ``S = S(low) q_p / q_g``.  Nothing is checked here: the pair check that
    follows the recursion checks every constraint, this one included, and
    so refuses a partner in another square class (an irrational S), and the
    sign is checked after it.  The (possibly very long) S values are only
    multiplied by the short ratio of :func:`_short_ratio`, never squared or
    factored.
    """
    for g, p, s_low in constraints:
        if g[1]:
            return s_low[0][0] * Fraction(*_short_ratio(g, p))
    raise KMatrixError(f"sector {sec} is undetermined by the recursion")


def _solve_float(sec, constraints) -> SBlock:
    """S from all ``S A = B`` side by side: one least-squares solve with d right-hand sides, symmetrized.

    The residual is measured against ``1 + |A| (|S| + scale)`` and a negative
    eigenvalue against ``max(1, |S|, scale)``, so an S of rounding noise is
    judged by the size its constraints give it (the ``SBlock.scale``).
    """
    a_parts, b_parts, sizes = [], [], [0.0]
    for block, partner, s_low in constraints:
        a = np.asarray(block, dtype=float).T
        a_parts.append(a)
        if partner is None:
            b_parts.append(np.zeros_like(a))
            continue
        partner = np.asarray(partner, dtype=float)
        b_parts.append(partner @ s_low)
        size_a = float(np.abs(a).max(initial=0.0))
        if size_a > 0:
            size_b = float(np.abs(partner).max(initial=0.0)) * float(np.abs(s_low).max(initial=0.0))
            sizes.append(size_b / size_a)
    a, b = np.hstack(a_parts), np.hstack(b_parts)
    s_t, *_ = np.linalg.lstsq(a.T, b.T, rcond=None)
    s = (s_t + s_t.T) / 2
    size = max(sizes)
    residual = float(np.abs(s @ a - b).max()) / (1.0 + float(np.abs(a).max()) * (float(np.abs(s).max()) + size))
    if residual > DEFAULT_TOL:
        raise KMatrixError(f"S-recursion residual {residual:.2e} at sector {sec}")
    ev = np.linalg.eigvalsh(s)
    if ev.min() < -DEFAULT_TOL * max(1.0, ev.max(), size):
        raise KMatrixError(f"S-block at {sec} is not positive semi-definite")
    return SBlock(s, size)


def _pairs(adjoints, tables):
    """Each adjoint pair once, as ``(gen, row, col, block, partner)`` from one stage's ``tables``.

    ``tables`` maps each generator to its blocks (or their square classes)
    by ``(row, col)``.  The equation of a block and that of its partner
    ``Xdag[col, row]`` are the same, so the partner's side is skipped once
    the pair is yielded.  A self-adjoint diagonal block is its own pair, and
    a block whose partner is absent comes with ``partner`` None.
    """
    done = {gen: set() for gen in adjoints}  # per generator, the (row, col) of each partner already yielded
    for gen, table in tables.items():
        adj = adjoints[gen]
        partners = tables.get(adj, {})
        for (row, col), block in table.items():
            if (row, col) not in done[gen]:
                done[adj].add((col, row))
                yield gen, row, col, block, partners.get((col, row))


def _check_pairs(adjoints, classes, norms, message):
    """Check ``S(col) q_g == q_p S(row)`` and the square classes once per adjoint pair.

    ``classes`` is one stage's square-class table and ``norms`` maps each
    sector to its rational S value; an absent partner is checked as zero.
    """
    for gen, row, col, g, p in _pairs(adjoints, classes):
        if not _balanced(norms[col], g, p or _ZERO_CLASS, norms[row]):
            raise KMatrixError(f"{message} at {gen} {(row, col)}")


def _check_consistency(rep, solved):
    """Verify S(col).Gamma(X)[row,col]^dag = Gamma(Xdag)[col,row].S(row) in float mode, once per adjoint pair.

    The residual is taken to ``DEFAULT_TOL``, relative to ``1 + |lhs| + |rhs|``
    plus the sizes the sectors' scales give the two sides,
    ``scale(col) |block|`` and ``|partner| scale(row)``.  The partner's side
    of a pair has the transposed ``lhs`` and ``rhs`` and the same terms, so
    the worst residual does not depend on which side comes first.
    """
    worst = 0.0
    for _, row, col, block, partner in _pairs(rep.adjoints, rep.blocks):
        s_col, s_row = solved[col], solved[row]
        block = np.asarray(block, dtype=float)
        partner = np.zeros(block.T.shape) if partner is None else np.asarray(partner, dtype=float)
        lhs, rhs = (block @ s_col.matrix).T, partner @ s_row.matrix  # S(col) is symmetric
        size = s_col.scale * np.abs(block).max() + np.abs(partner).max() * s_row.scale
        worst = max(worst, float(np.abs(lhs - rhs).max() / (1.0 + (np.abs(lhs).max() + np.abs(rhs).max()) + size)))
    if worst > DEFAULT_TOL:
        raise KMatrixError(f"S-matrix equations violated, residual {worst:.2e}")


@dataclass
class OrthoSector:
    """Diagonalized S-block: unitary, norm factors k (descending), zero-norm count."""

    unitary: object
    k_values: list
    n_positive: int

    @property
    def zero_norm(self) -> int:
        return len(self.k_values) - self.n_positive


def orthonormalize(sblocks: dict[tuple, SBlock], exact: bool = False) -> dict[tuple, OrthoSector]:
    """Diagonalize each S-block; ``k = sqrt(eigenvalue)``, small ones are zero-norm.

    ``exact=True`` is for the S-blocks of an exact :class:`GammaRep`: each is a
    rational ``[[s]]``, and ``k = sqrt(s)`` is a :class:`Radical`.  In float
    mode an eigenvalue is zero-norm when it is at most ``DEFAULT_TOL`` times
    the larger of the sector's largest eigenvalue and its ``scale``, so a
    sector whose S is all rounding noise is cut; the scale moves with the
    sector's S, so a graded input keeps its small genuine norms.  A negative
    eigenvalue is refused beyond ``DEFAULT_TOL`` of that same size (or of 1).
    """
    ortho = _ortho_exact if exact else _ortho_float
    return {sec: ortho(sec, sb) for sec, sb in sorted(sblocks.items())}


def _ortho_exact(sec, sb) -> OrthoSector:
    ((s,),) = sb.matrix
    if s < 0:
        raise KMatrixError(f"negative S eigenvalue at {sec}")
    k = Radical.sqrt_of(s)
    return OrthoSector([[Fraction(1)]], [k], 0 if k.is_zero() else 1)


def _ortho_float(sec, sb) -> OrthoSector:
    s = np.asarray(sb.matrix, dtype=float)
    s = (s + s.T) / 2
    if s.shape[0] == 1 or np.count_nonzero(s - np.diag(np.diag(s))) == 0:
        diag = np.diag(s).copy()
        order = np.argsort(-diag, kind="stable")
        u = np.eye(s.shape[0])[:, order]
        ev = diag[order]
    else:
        ev, u = np.linalg.eigh(s)
        ev, u = ev[::-1], positive_leads(u[:, ::-1])
    top = max(ev.max(initial=0.0), 0.0, sb.scale)
    if ev.min(initial=0.0) < -DEFAULT_TOL * max(top, 1.0):
        raise KMatrixError(f"negative S eigenvalue {ev.min():.2e} at {sec}")
    cut = DEFAULT_TOL * top if top > 0 else DEFAULT_TOL
    ks = [float(np.sqrt(e)) if e > cut else 0.0 for e in ev]
    n_pos = sum(1 for k in ks if k > 0)
    return OrthoSector(u, ks, n_pos)


def zero_norm_count(ortho: dict[tuple, OrthoSector]) -> int:
    return sum(o.zero_norm for o in ortho.values())


def unitarize(
    rep: GammaRep, ortho: dict[tuple, OrthoSector]
) -> tuple[list[tuple], dict[str, OperatorMatrix | SparseMatrix]]:
    """Matrices ``gamma(X)`` of the unitary irrep on the positive-norm basis.

    Returns the ordered basis (sector, multiplicity-index) and per generator
    ``gamma[b,a] = (1/k_b) [U' Gamma U]_{ba} k_a``: an OperatorMatrix in exact
    mode, in float mode a SparseMatrix of each block's arrays.  In exact mode
    each block ``g`` and its partner ``p`` first pass
    ``k_col**2 q_g == q_p k_row**2`` (the S equation on the given norms, once
    per pair, by :func:`_balanced`), so ``k_col / k_row`` is
    ``sqrt(q_p / q_g)`` and ``gamma = sign(q_g) sqrt(q_g q_p core)``, built
    from the short integers alone into one entry dict per generator; the
    adjoint pairs are then compared exactly, in float mode as the largest
    entry of
    ``|gamma(X)' - gamma(Xdag)|`` over ``1 + |gamma(X)|``.
    """
    order = sorted(ortho, key=lambda s: (rep.grades[s], s))
    basis = [(sec, alpha) for sec in order for alpha in range(ortho[sec].n_positive)]
    index = {lbl: i for i, lbl in enumerate(basis)}

    if rep.exact:  # one-dimensional sectors: both unitaries are [[1]]
        kept = {sec for sec, o in ortho.items() if o.n_positive}
        classes = rep.square_classes(kept)
        norms = {sec: ortho[sec].k_values[0].squared for sec in kept}
        _check_pairs(rep.adjoints, classes, norms, "norm factors do not solve the S equation")
        gammas = {}
        for gen, table in classes.items():  # each entry from its own block's class
            partners = classes.get(rep.adjoints[gen], {})
            entries = {}
            for (row, col), (core, num_g, den_g) in table.items():
                if num_g:
                    _, num_p, den_p = partners.get((col, row), _ZERO_CLASS)
                    entries[index[row, 0], index[col, 0]] = Radical(
                        1 if num_g > 0 else -1, Fraction(num_g * num_p * core, den_g * den_p)
                    )
            gammas[gen] = OperatorMatrix(gen, basis, entries)
    else:
        gammas = {}
        for gen, blocks in rep.blocks.items():
            parts = [(np.empty(0, int), np.empty(0, int), np.empty(0))]  # each block's rows, columns, values
            for (row, col), block in blocks.items():
                o_r, o_c = ortho[row], ortho[col]
                if o_r.n_positive == 0 or o_c.n_positive == 0:
                    continue
                u_r, u_c = np.asarray(o_r.unitary, dtype=float), np.asarray(o_c.unitary, dtype=float)
                k_r, k_c = np.asarray(o_r.k_values[:o_r.n_positive]), o_c.k_values[:o_c.n_positive]
                core = (u_r.T @ np.asarray(block, dtype=float) @ u_c)[:len(k_r), :len(k_c)] * k_c / k_r[:, None]
                rows, cols = np.indices(core.shape)
                parts.append(((rows + index[(row, 0)]).ravel(), (cols + index[(col, 0)]).ravel(), core.ravel()))
            gammas[gen] = SparseMatrix(len(basis), *map(np.concatenate, zip(*parts)))

    for gen, adj in rep.adjoints.items():
        if gen in gammas and adj in gammas:
            a, b = gammas[gen], gammas[adj]
            if rep.exact:
                adjoint = {(c, r): v for (r, c), v in a.entries.items()} == b.entries
            else:  # the largest entry of |A' - B|, over the union of both matrices' entries
                flat = np.concatenate([a.cols * a.dim + a.rows, b.rows * b.dim + b.cols])
                keys, at = np.unique(flat, return_inverse=True)
                gap = np.abs(np.bincount(at, np.concatenate([a.vals, -b.vals]), len(keys))).max(initial=0.0)
                adjoint = gap / (1.0 + a.norm) <= DEFAULT_TOL
            if not adjoint:
                raise KMatrixError(f"unitarized gamma({gen}) is not the adjoint of gamma({adj})")
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
        sectors[key] = json_integer(s, "dim", f"sector {key}")
        if sectors[key] < 1:
            raise ValueError(f"sector {key} has dim {sectors[key]}, not a positive integer")
        grades[key] = json_integer(s, "grade", f"sector {key}")
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
    for i, j, v in zip(*json_entries(name, entries)):
        if not (0 <= i < m.shape[0] and 0 <= j < m.shape[1]):
            raise ValueError(f"{name}: entry ({i}, {j}) outside {m.shape[0]}x{m.shape[1]}")
        if (i, j) in seen:
            raise ValueError(f"{name}: duplicate entry ({i}, {j})")
        seen.add((i, j))
        m[i, j] = json_finite(name, v)
    return m
