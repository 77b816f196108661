"""su(3) irreps ``(lam, mu)`` in the SO(3)-coupled (rotor) basis.

The basis starts from symmetrized rotor functions labelled by an intrinsic
projection ``K`` and angular momentum ``L``:

    K in {mu, mu-2, ..., 1 or 0};  K <= L <= K + lam  for K > 0;
    L in {lam, lam-2, ..., 1 or 0} for K = 0.

The quadrupole action on these functions is encoded by blocks ``M[L', L]``
over ``(K', K)``.  Each entry is an exact value ``num/den * sqrt(core)``, held
as the plain integers ``(core, num, den)`` of one square class, from rank-2
Clebsch-Gordan coefficients ``(L M, 2 nu | L' M+nu)`` times closed-form
amplitudes.  Both the blocks and the float generator matrices take these
coefficients from :func:`~vcs_irreps.angmom.rank2_cg_parts`, one call per
block pair, and never sum Racah's series.  Diagonalizing the symmetric
``sqrt(2L+1) M[L, L]`` defines the multiplicity label ``alpha`` (the
eigenbasis of the scalar L.Q.L invariant), one ``eigh`` call per L.  One
best-first walk over the quadrupole couplings between eigenstates, from the
lowest-L state and along the strongest edge first, finds the in-irrep states
and fixes each one's norm factor ``k`` from the ratio across the edge that
reached it.  The squared norm ratio ``(-1)**(L-L') curlyM[L,L'][alpha,beta] /
curlyM[L',L][beta,alpha]`` must be positive on every in-irrep edge: the walk
checks its sign on every edge it weighs, and reduced Hermiticity of the
elements below covers the weaker ones.  Edge weights and listed elements are
computed once per block pair.  The norm factors unitarize the representation,
and each reduced quadrupole matrix element comes from them once,

    <beta L'||Q||alpha L> = (2L'+1) curlyM[L',L][beta,alpha] k_alpha / k_beta,

a value that the generator matrices and a ``gen`` document's table share.

The L content is cross-checked against the canonical-basis irrep
``{lam+mu, mu, 0}`` by :func:`weight_multiplicities`, which builds no matrix.
In the fundamental irrep ``L0 = -i(C23 - C32)`` is twice the y-component of
the 2-3 u(2) spin, so it is conjugate to ``C22 - C33`` and both have spectrum
{1, 0, -1}.  The conjugacy carries over to every irrep, so the ``L0``
spectrum is the multiset of doubled projections ``tM`` over the
Gelfand-Tsetlin basis, and ``mult(L) = #(tM = L) - #(tM = L+1)``.  The count
uses neither the rotor (K, L) rule nor any built matrix.
:func:`branching_oracle`, which diagonalizes L^2 on the built canonical
irrep, is kept as the dense reference that the tests compare it with.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# ``clebsch_gordan`` stays a module attribute: bench/spans.py wraps it by name.
from .angmom import clebsch_gordan, rank2_cg_parts  # noqa: F401
from .radical import squarefree_decompose
from .repcheck import DEFAULT_TOL, SparseMatrix, positive_leads

DEGENERACY_TOL = 1e-9
_EDGE_TOL = 1e-8
_K_RANGE = (np.finfo(float).tiny, np.finfo(float).max)  # the finite, normal floats a norm factor may take


class So3ConsistencyError(RuntimeError):
    """Norm-ratio or connectivity failure for labels inside the irrep."""


@dataclass(frozen=True)
class Su3Label:
    """su(3) highest weight ``(lam, mu)``; intrinsic projections run over the mu ladder."""

    lam: int
    mu: int

    def __post_init__(self):
        if self.lam < 0 or self.mu < 0:
            raise ValueError("lam and mu must be non-negative integers")

    def dimension(self) -> int:
        return (self.lam + 1) * (self.mu + 1) * (self.lam + self.mu + 2) // 2


@dataclass(frozen=True, order=True)
class RotorLabel:
    """State label: angular momentum L, multiplicity index alpha, projection M.

    ``alpha`` indexes the ascending eigenvalues of the scalar invariant.
    """

    L: int
    alpha: int
    M: int

    def __str__(self):
        return f"L={self.L},alpha={self.alpha},M={self.M}"


def k_ladder(mu: int) -> list[int]:
    """Intrinsic projections ``mu, mu-2, ..., 1 or 0`` in ascending order."""
    return list(range(mu % 2, mu + 1, 2))


def raw_k_candidates(lm: Su3Label, L: int) -> list[int]:
    """All rotor-function candidates at L: ladder K <= L, parity rule at K = 0.

    This set has no upper cap in L; candidates beyond the irrep content are
    the zero-norm states, which the diagonalization separates out.
    """
    return [K for K in k_ladder(lm.mu) if K <= L and (K or (lm.lam + L) % 2 == 0)]


def k_candidates(lm: Su3Label, L: int) -> list[int]:
    """In-irrep K values at angular momentum L, ascending: the raw candidates with ``L <= K + lam``.

    Closed-form content: ``K <= L <= K + lam`` for K > 0, and for K = 0 the
    reflection parity keeps only ``L in {lam, lam-2, ..., 1 or 0}``.
    """
    return [K for K in raw_k_candidates(lm, L) if L <= K + lm.lam]


def l_values(lm: Su3Label) -> list[int]:
    """All L with at least one in-irrep state."""
    return [L for L in range(lm.lam + lm.mu + 1) if k_candidates(lm, L)]


def m_matrix(lm: Su3Label, Lp: int, L: int) -> tuple[list[int], list[int], dict]:
    """Exact quadrupole block ``M[Lp, L]``: raw ``K'`` rows, raw ``K`` columns and the non-zero entries.

    Entry ``(i, j)`` is the square class ``(core, num, den)`` of the value
    ``num/den * sqrt(core)``, ``core`` square-free, as in
    :func:`~vcs_irreps.radical.radical_terms`.  The reflection-symmetrized
    K = 0 states carry an extra sqrt(2); it enters symmetrically on whichever
    side of a K <-> K+-2 step is at K = 0 (this is what makes ``sqrt(2L+1)
    M[L, L]`` exactly symmetric, and the assembled matrices close the algebra).
    """
    if abs(Lp - L) > 2:
        raise ValueError("quadrupole blocks need |Lp - L| <= 2")
    rows, cols = raw_k_candidates(lm, Lp), raw_k_candidates(lm, L)
    ridx = {K: i for i, K in enumerate(rows)}
    bracket = 2 * (2 * lm.lam + lm.mu + 3) - Lp * (Lp + 1) + L * (L + 1)  # twice the diagonal amplitude
    # (L M, 2 nu | Lp M+nu) = s sqrt(a / b) at every (M, nu) used below, from one kernel call.
    n = len(cols)
    M, nu = [*cols, *cols, *cols, -1], [0] * n + [2] * n + [-2] * n + [2]
    cg = dict(zip(zip(M, nu), zip(*(x.tolist() for x in rank2_cg_parts(L, Lp, M, nu)))))

    def times_cg(coeff: int, square: int, m: int, v: int) -> tuple[int, int, int]:
        """``coeff/2 sqrt(square/2) (L m, 2 v | Lp m+v)`` as ``(core, num, den)``; ``num`` is 0 for a zero."""
        s, a, b = cg[(m, v)]
        if not (coeff and square and a):
            return 1, 0, 1
        root, core = squarefree_decompose(2 * square * a * b)  # sqrt(square a / 2b) = root sqrt(core) / 2b
        return core, s * coeff * root, 4 * b

    # Column K meets row K through the diagonal term and rows K +- 2 through one step each.
    entries = {}
    for c, K in enumerate(cols):
        if K in ridx:
            core, num, den = times_cg(bracket, 2, K, 0)
            if K == 1:  # a second diagonal term, in the same square class
                core2, num2, den2 = times_cg(2 * (lm.mu + 1) * (-1) ** (lm.lam + L + 1), 3, -1, 2)
                if num and num2 and core2 != core:
                    raise So3ConsistencyError(f"M[{Lp},{L}] at K = 1 adds square classes {core} and {core2}")
                core, num, den = core if num else core2, num * den2 + num2 * den, den * den2
            entries[(ridx[K], c)] = core, num, den
        for step in (+2, -2):
            if K + step in ridx:
                amp = (lm.mu - K) * (lm.mu + K + 2) if step > 0 else (lm.mu + K) * (lm.mu - K + 2)
                entries[(ridx[K + step], c)] = times_cg(2, 3 * amp * (2 if 0 in (K, K + step) else 1), K, step)
    return rows, cols, {rc: term for rc, term in entries.items() if term[1]}


def _float_block(rows: list[int], cols: list[int], entries: dict) -> np.ndarray:
    """An :func:`m_matrix` block in floats, each entry ``float()`` of its exact value.

    ``num / den`` is Python's correctly rounded int division, as in ``float(Fraction(num, den))``.
    """
    block = np.zeros((len(rows), len(cols)))
    for (i, j), (core, num, den) in entries.items():
        block[i, j] = num / den * math.sqrt(core)
    return block


@dataclass
class _Construction:
    lm: Su3Label
    levels: list[int]
    candidates: dict[int, list[int]]  # in-irrep K content per L
    raw_candidates: dict[int, list[int]]
    unitaries: dict[int, np.ndarray]  # over raw candidates
    eigenvalues: dict[int, np.ndarray]  # curlyM[L,L] diagonal over raw, ascending
    curly: dict[tuple[int, int], np.ndarray]  # raw-index curlyM blocks
    positive: dict[int, list[int]]  # L -> raw eigen-indices of in-irrep states
    k_norm: dict[tuple[int, int], float]  # (L, raw index) -> norm factor
    # (Lp, L) -> sqrt(2Lp+1) curlyM[Lp,L][beta,alpha] k_alpha / k_beta over in-irrep indices
    factors: dict[tuple[int, int], np.ndarray]
    # (Lp, L) -> sqrt(2Lp+1) factors where a reduced table lists the element (see _listed), else 0
    reduced: dict[tuple[int, int], np.ndarray]


@lru_cache(maxsize=None)
def _construction(lm: Su3Label) -> _Construction:
    levels = l_values(lm)
    candidates = {L: k_candidates(lm, L) for L in levels}
    raw_candidates = {L: raw_k_candidates(lm, L) for L in levels}
    blocks = {(Lp, L): m_matrix(lm, Lp, L) for Lp in levels for L in levels if abs(Lp - L) <= 2}
    dense = {pair: _float_block(*block) for pair, block in blocks.items() if block[0] and block[1]}
    unitaries, eigenvalues = {}, {}
    for L in levels:
        # Equal cores and fractions make sqrt(2L+1) M[L, L] exactly, and so bitwise, symmetric.
        entries = blocks[(L, L)][2]
        for (i, j), (core, num, den) in entries.items():
            core2, num2, den2 = entries.get((j, i), (core, 0, 1))
            if core2 != core or num * den2 != num2 * den:
                raise So3ConsistencyError(f"sqrt(2L+1) M[{L},{L}] is not symmetric at ({min(i, j)},{max(i, j)})")
        evs, u = np.linalg.eigh(dense[(L, L)])  # a 1x1 block comes back unchanged, with u = [[1.0]]
        if (np.diff(evs) < DEGENERACY_TOL * max(1.0, float(np.abs(evs).max()))).any():
            raise So3ConsistencyError(f"degenerate invariant eigenvalues at L={L}")
        unitaries[L] = positive_leads(u)
        # curlyM carries a 1/sqrt(2L+1) relative to the raw quadrupole block;
        # with that normalization the reduced-ME and norm-ratio formulas close
        # the algebra (checked against the canonical-basis construction).
        eigenvalues[L] = evs / np.sqrt(2 * L + 1)

    curly = {
        (Lp, L): unitaries[Lp].T @ block @ unitaries[L] / np.sqrt(2 * Lp + 1)
        for (Lp, L), block in dense.items()
    }

    positive, k_norm = _best_first_walk(levels, candidates, raw_candidates, curly)
    factors = _factors(curly, positive, k_norm)
    listed = {pair: _listed(block) for pair, block in curly.items()}
    reduced = {
        (Lp, L): np.where(
            (listed[(Lp, L)] | listed[(L, Lp)].T)[np.ix_(positive[Lp], positive[L])], np.sqrt(2 * Lp + 1) * t, 0.0
        )
        for (Lp, L), t in factors.items()
    }
    return _Construction(
        lm, levels, candidates, raw_candidates, unitaries, eigenvalues, curly, positive, k_norm, factors, reduced
    )


def _factors(curly, positive, k_norm):
    """Factors ``T[(L', L)] = sqrt(2L'+1) curlyM[L',L][beta,alpha] k_alpha / k_beta`` over in-irrep indices.

    Each entry must meet reduced Hermiticity, ``T[(L', L)] = (-1)**(L-L') sqrt((2L+1)/(2L'+1)) T[(L, L')].T``,
    to ``DEFAULT_TOL`` of the largest factor: a wrong norm breaks it, as does a pair too weak for the walk.
    """
    norms = {L: np.array([k_norm[(L, a)] for a in indices]) for L, indices in positive.items()}
    factors = {
        (Lp, L): np.sqrt(2 * Lp + 1) * block[np.ix_(positive[Lp], positive[L])] * norms[L] / norms[Lp][:, None]
        for (Lp, L), block in curly.items()
    }
    bound = DEFAULT_TOL * max(float(np.abs(t).max()) for t in factors.values())
    for (Lp, L), t in factors.items():
        defect = float(np.abs(t - (-1.0) ** (L - Lp) * np.sqrt((2 * L + 1) / (2 * Lp + 1)) * factors[(L, Lp)].T).max())
        if not defect <= bound:  # a NaN defect fails too
            raise So3ConsistencyError(
                f"factors T[{Lp},{L}] and T[{L},{Lp}] break reduced Hermiticity by {defect:.3e} (bound {bound:.3e})"
            )
    return factors


def _listed(block: np.ndarray) -> np.ndarray:
    """Entries of a curlyM block above ``DEFAULT_TOL`` of its own scale.

    A table lists an element when its entry or its mirror's passes; :func:`_construction` reads it once per block.
    """
    return np.abs(block) > DEFAULT_TOL * max(1.0, float(np.abs(block).max()))


def _edge_weights(fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
    """``min(|fwd[b, a]|, |bwd[a, b]|)`` over the block pair's scale, indexed ``[b, a]``."""
    scale = max(1.0, float(np.abs(fwd).max()), float(np.abs(bwd).max()))
    return np.minimum(np.abs(fwd), np.abs(bwd.T)) / scale


def _best_first_walk(levels, candidates, raw_candidates, curly):
    """In-irrep eigen-indices per level and their norm factors, from one walk.

    Quadrupole moves never leak from the irrep into the zero-norm candidates,
    so an eigenstate is inside the irrep exactly when it is connected to the
    (unique, never zero-norm) lowest-L state by entries nonzero in both
    directions.  A heap keyed on the smaller of the two entries, relative to
    the block pair's scale, always takes the strongest pending edge, so each
    norm comes from a ratio of large entries instead of inheriting the
    rounding of a weak one.  Ties break on the state labels.  The closed-form
    per-L counts then serve as a cross-check, and the norm ratio
    ``(-1)**(L-L') curlyM[L,L'][a,b] / curlyM[L',L][b,a]`` must be strictly
    positive on every in-irrep pair the walk weighs above ``_EDGE_TOL``, not
    only on the edges the walk took.  A weaker pair's partner entry can be
    rounding noise of either sign, so its ratio is left to the reduced
    Hermiticity identity that :func:`_factors` checks.  The walk and the
    sign check read one edge-weight table per block pair.  A norm factor that
    is not a finite, normal float (the product of ratios along a long chain
    can underflow) is refused as it is found, before any factor divides by it.
    """
    weights = {(Lp, L): _edge_weights(fwd, curly[(L, Lp)]) for (Lp, L), fwd in curly.items()}
    root = (levels[0], 0)
    k_norm = {root: 1.0}
    heap = []

    def push(L, a):
        for Lp in range(L - 2, L + 3):
            if (Lp, L) not in weights:
                continue
            for b, weight in enumerate(weights[(Lp, L)][:, a].tolist()):
                if weight > _EDGE_TOL and (Lp, b) not in k_norm:
                    heapq.heappush(heap, (-weight, Lp, b, L, a))

    push(*root)
    while heap:
        _, Lp, beta, L, alpha = heapq.heappop(heap)
        if (Lp, beta) in k_norm:
            continue
        fwd, bwd = curly[(Lp, L)][beta, alpha], curly[(L, Lp)][alpha, beta]
        ratio_sq = abs((2 * L + 1) / (2 * Lp + 1) * bwd / fwd)  # its sign is checked below
        k = k_norm[(L, alpha)] / np.sqrt(ratio_sq)
        if not _K_RANGE[0] <= k <= _K_RANGE[1]:  # so no factor divides by 0, a subnormal or a NaN
            raise So3ConsistencyError(
                f"norm factor k = {k:.3e} at (L={Lp},a={beta}) is outside the normal float range "
                f"[{_K_RANGE[0]:.3e}, {_K_RANGE[1]:.3e}]"
            )
        k_norm[(Lp, beta)] = k
        push(Lp, beta)

    positive = {L: sorted(b for (l, b) in k_norm if l == L) for L in levels}
    for L in levels:
        if len(positive[L]) != len(candidates[L]):
            raise So3ConsistencyError(
                f"found {len(positive[L])} positive-norm states at L={L}, "
                f"expected {len(candidates[L])} (raw candidates {raw_candidates[L]})"
            )
    for (Lp, L), weight in weights.items():
        ratio = np.ones(weight.shape)  # [b, a]; 1 on pairs weighed at or below _EDGE_TOL
        np.divide((-1.0) ** (L - Lp) * curly[(L, Lp)].T, curly[(Lp, L)], out=ratio, where=weight > _EDGE_TOL)
        for i, j in np.argwhere(ratio[np.ix_(positive[Lp], positive[L])] <= 0)[:1]:  # the first, b before a
            b, a = positive[Lp][i], positive[L][j]
            raise So3ConsistencyError(
                f"non-positive norm ratio {ratio[b, a]:.3e} between (L={L},a={a}) and (L={Lp},a={b})"
            )
    return positive, k_norm


def reduced_q(lm: Su3Label, beta: int, Lp: int, alpha: int, L: int) -> float:
    """Reduced quadrupole matrix element ``<(lam,mu) beta Lp || Q || (lam,mu) alpha L>``.

    ``alpha`` and ``beta`` index the in-irrep states at their L in ascending
    invariant-eigenvalue order.  The value is ``sqrt(2Lp+1)`` times the factor
    that :func:`assemble_so3_generators` expands, so a table and the matrices
    agree.  Queries outside the irrep, negative indices included, return 0,
    and so do elements whose curlyM entry and whose mirror's both lie within
    ``DEFAULT_TOL`` of their own block's scale: the two blocks have different
    scales, and an element is listed exactly when its mirror is.
    """
    con = _construction(lm)
    if (Lp, L) not in con.reduced or not (0 <= beta < len(con.positive[Lp]) and 0 <= alpha < len(con.positive[L])):
        return 0.0
    return float(con.reduced[(Lp, L)][beta, alpha])


def reduced_elements(lm: Su3Label):
    """Every non-zero :func:`reduced_q` as ``(Lp, beta, L, alpha, value)``, in the order L, Lp, alpha, beta."""
    con = _construction(lm)
    for Lp, L in sorted(con.reduced, key=lambda pair: pair[::-1]):
        values = con.reduced[(Lp, L)]
        for alpha, beta in np.argwhere(values.T).tolist():
            yield Lp, beta, L, alpha, float(values[beta, alpha])


def basis_labels(lm: Su3Label) -> list[RotorLabel]:
    """Eigenbasis labels ordered by (L, alpha, M)."""
    con = _construction(lm)
    out = []
    for L in con.levels:
        for alpha in range(len(con.candidates[L])):
            for M in range(-L, L + 1):
                out.append(RotorLabel(L, alpha, M))
    return out


def assemble_so3_generators(lm: Su3Label) -> dict[str, SparseMatrix]:
    """Matrices of ``L0, L+, L-`` and ``Q(-2..2)`` on the orthonormal eigenbasis, as coordinate arrays.

    State ``(L, alpha, M)`` sits at ``off[L] + alpha (2L+1) + (M+L)``, the
    index of its label in :func:`basis_labels`.  Each block pair ``(L', L)``
    contributes the outer product of its non-zero factors and its
    Clebsch-Gordan vector ``(L M, 2 nu | L' M+nu)``, which one
    :func:`~vcs_irreps.angmom.rank2_cg_parts` call gives over every ``(M,
    nu)``, as coordinate arrays per ``nu``.  Each generator is one :class:`~vcs_irreps.repcheck.SparseMatrix`
    of its concatenated arrays, which sorts them and drops exact zeros; no
    entry ever becomes a Python object.
    """
    con = _construction(lm)
    sizes = [len(con.candidates[L]) * (2 * L + 1) for L in con.levels]
    off = dict(zip(con.levels, np.cumsum([0] + sizes).tolist()))
    names = ("L0", "L+", "L-", "Q-2", "Q-1", "Q0", "Q1", "Q2")
    parts: dict[str, list[tuple[np.ndarray, ...]]] = {name: [] for name in names}

    for L, size in zip(con.levels, sizes):
        i = off[L] + np.arange(size)
        M = np.arange(size) % (2 * L + 1) - L
        up = M < L
        amp = np.sqrt((L - M[up]) * (L + M[up] + 1))
        parts["L0"].append((i, i, M.astype(float)))
        parts["L+"].append((i[up] + 1, i[up], amp))
        parts["L-"].append((i[up], i[up] + 1, amp))

    for (Lp, L), factors in con.factors.items():
        # (L M, 2 nu | Lp M+nu) at every (M, nu) pair in order, from one kernel call.
        M, nu = np.repeat(np.arange(-L, L + 1), 5), np.tile(np.arange(-2, 3), 2 * L + 1)
        keep = np.abs(M + nu) <= Lp
        M, nu = M[keep], nu[keep]
        sign, num, den = rank2_cg_parts(L, Lp, M, nu)
        cg = sign * np.sqrt(num / den)
        beta, alpha = np.nonzero(factors)
        rows = off[Lp] + beta[:, None] * (2 * Lp + 1) + (M + nu + Lp)
        cols = off[L] + alpha[:, None] * (2 * L + 1) + (M + L)
        vals = factors[beta, alpha][:, None] * cg
        for n in range(-2, 3):
            at = nu == n
            parts[f"Q{n}"].append((rows[:, at].ravel(), cols[:, at].ravel(), vals[:, at].ravel()))

    return {name: SparseMatrix(sum(sizes), *(np.concatenate(a) for a in zip(*parts[name]))) for name in names}


def rotor_multiplicities(lm: Su3Label) -> dict[int, int]:
    """L -> number of rotor states, from the closed-form (K, L) enumeration."""
    return {L: len(k_candidates(lm, L)) for L in l_values(lm)}


def weight_multiplicities(lm: Su3Label) -> dict[int, int]:
    """L -> multiplicity counted from the ``L0`` spectrum of ``{lam+mu, mu, 0}``.

    ``L0`` is conjugate to the doubled 2-3 spin projection, so its eigenvalues
    are the ``tM`` of the Gelfand-Tsetlin basis and the number of multiplets
    at ``L`` is ``#(tM = L) - #(tM = L+1)``.  The spectrum must be symmetric,
    every count non-negative and the multiplets must fill the Weyl dimension.
    """
    from . import u3

    hw = u3.U3HighestWeight(lm.lam + lm.mu, lm.mu, 0)
    counts = Counter(lbl.tM for lbl in u3.basis_enumeration(hw))
    mults = {L: counts[L] - counts[L + 1] for L in range(max(counts) + 1)}
    if (
        any(counts[t] != counts[-t] for t in counts)
        or min(mults.values()) < 0
        or sum((2 * L + 1) * m for L, m in mults.items()) != lm.dimension()
    ):
        raise So3ConsistencyError(f"L0 spectrum of ({lm.lam},{lm.mu}) is not a sum of so(3) multiplets")
    return {L: m for L, m in mults.items() if m}


def branching_oracle(lm: Su3Label) -> dict[int, int]:
    """L -> multiplicity from diagonalizing L^2 in the canonical basis of the
    corresponding U(3) weight ``{lam+mu, mu, 0}``."""
    from . import u3

    hw = u3.U3HighestWeight(lm.lam + lm.mu, lm.mu, 0)
    gens = u3.assemble_generators(hw)
    l0, lp, lmn = u3.angular_momentum_dense(gens)
    l_sq = l0 @ l0 + (lp @ lmn + lmn @ lp) / 2
    ev = np.linalg.eigvalsh(l_sq)
    out: dict[int, int] = {}
    for x in ev:
        L = int(round((-1 + np.sqrt(1 + 4 * max(x, 0.0))) / 2))
        if abs(x - L * (L + 1)) > 1e-6:
            raise So3ConsistencyError(f"L^2 eigenvalue {x} is not of the form L(L+1)")
        out[L] = out.get(L, 0) + 1
    mults = {}
    for L, count in sorted(out.items()):
        if count % (2 * L + 1):
            raise So3ConsistencyError(f"L={L} eigenspace size {count} not divisible by 2L+1")
        mults[L] = count // (2 * L + 1)
    return mults
