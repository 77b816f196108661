"""su(3) irreps ``(lam, mu)`` in the SO(3)-coupled (rotor) basis.

The basis starts from symmetrized rotor functions labelled by an intrinsic
projection ``K`` and angular momentum ``L``:

    K in {mu, mu-2, ..., 1 or 0};  K <= L <= K + lam  for K > 0;
    L in {lam, lam-2, ..., 1 or 0} for K = 0.

The quadrupole action on these functions is encoded by blocks ``M[L', L]``
over ``(K', K)`` built in exact radical arithmetic from rank-2 Clebsch-Gordan
coefficients ``(L M, 2 nu | L' M+nu)``.  Both the blocks and the float
generator matrices take these from the closed forms in
:func:`~vcs_irreps.angmom.rank2_cg_parts`, one call per block pair, and never
sum Racah's series.  Diagonalizing the symmetric ``sqrt(2L+1) M[L, L]``
defines the multiplicity label ``alpha`` (the eigenbasis of the scalar L.Q.L
invariant).  One best-first walk over the quadrupole couplings between
eigenstates, from the lowest-L state and along the strongest edge first, finds
the in-irrep states and fixes each one's norm factor ``k`` from the ratio
across the edge that reached it.  The squared norm ratio ``(-1)**(L-L')
curlyM[L,L'][alpha,beta] / curlyM[L',L][beta,alpha]`` must be positive on
every in-irrep edge, and the walk checks its sign on all of them, not only on
the edges it took.  The norm factors unitarize the representation, and each
reduced quadrupole matrix element comes from them once,

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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

# ``clebsch_gordan`` stays a module attribute: bench/spans.py wraps it by name.
from .angmom import clebsch_gordan, rank2_cg_parts  # noqa: F401
from .radical import Radical, RadicalSum, as_float
from .repcheck import DEFAULT_TOL, SparseMatrix

DEGENERACY_TOL = 1e-9
_EDGE_TOL = 1e-8


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


def k_candidates(lm: Su3Label, L: int) -> list[int]:
    """In-irrep K values at angular momentum L, ascending.

    Closed-form content: ``K <= L <= K + lam`` for K > 0, and for K = 0 the
    reflection parity keeps only ``L in {lam, lam-2, ..., 1 or 0}``.
    """
    out = []
    for K in k_ladder(lm.mu):
        if K == 0:
            if L <= lm.lam and (lm.lam + L) % 2 == 0:
                out.append(K)
        elif K <= L <= K + lm.lam:
            out.append(K)
    return out


def raw_k_candidates(lm: Su3Label, L: int) -> list[int]:
    """All rotor-function candidates at L: ladder K <= L, parity rule at K = 0.

    This set has no upper cap in L; candidates beyond the irrep content are
    the zero-norm states, which the diagonalization separates out.
    """
    out = []
    for K in k_ladder(lm.mu):
        if K > L:
            continue
        if K == 0 and (lm.lam + L) % 2:
            continue
        out.append(K)
    return out


def l_values(lm: Su3Label) -> list[int]:
    """All L with at least one in-irrep state."""
    return [L for L in range(lm.lam + lm.mu + 1) if k_candidates(lm, L)]


@dataclass
class MBlock:
    """Quadrupole coupling block between rotor candidates at ``L`` and ``Lp``."""

    Lp: int
    L: int
    rows: list[int]  # K' values at Lp
    cols: list[int]  # K values at L
    entries: list[list[object]]  # exact Radical/RadicalSum values

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    def to_dense(self) -> np.ndarray:
        return np.array([[as_float(v) for v in row] for row in self.entries])

    def is_empty(self) -> bool:
        return not self.rows or not self.cols


def m_matrix(lm: Su3Label, Lp: int, L: int) -> MBlock:
    """Exact quadrupole block ``M[Lp, L]`` over raw ``(K', K)`` candidate pairs.

    The reflection-symmetrized K = 0 states carry an extra sqrt(2); it enters
    symmetrically on whichever side of a K <-> K+-2 step is at K = 0 (this is
    what makes ``sqrt(2L+1) M[L, L]`` exactly symmetric, and the assembled
    matrices close the algebra).
    """
    if abs(Lp - L) > 2:
        raise ValueError("quadrupole blocks need |Lp - L| <= 2")
    rows = raw_k_candidates(lm, Lp)
    cols = raw_k_candidates(lm, L)
    block = MBlock(Lp, L, rows, cols, [[RadicalSum() for _ in cols] for _ in rows])
    if block.is_empty():
        return block
    ridx = {K: i for i, K in enumerate(rows)}
    bracket = Fraction(2 * lm.lam + lm.mu + 3) - Fraction(Lp * (Lp + 1), 2) + Fraction(L * (L + 1), 2)
    # (L M, 2 nu | Lp M+nu) = s sqrt(a / b) at every (M, nu) used below, from one kernel call.
    n = len(cols)
    M, nu = [*cols, *cols, *cols, -1], [0] * n + [2] * n + [-2] * n + [2]
    cg = dict(zip(zip(M, nu), zip(*(x.tolist() for x in rank2_cg_parts(L, Lp, M, nu)))))

    def times_cg(square: Fraction, m: int, v: int) -> RadicalSum:
        """``sqrt(square) (L m, 2 v | Lp m+v)``, exactly, for ``square >= 0``."""
        s, a, b = cg[(m, v)]
        radicand = square * Fraction(a, b)
        return RadicalSum.from_value(Radical(s if radicand else 0, radicand))

    # Each entry takes one term: column K meets row K through the diagonal
    # term and rows K +- 2 through one step each.
    for c, K in enumerate(cols):
        if K in ridx:
            term = times_cg(Fraction(1), K, 0) * bracket
            if K == 1:
                phase = -1 if (lm.lam + L + 1) % 2 else 1
                term = term + times_cg(Fraction(3, 2), -1, 2) * (phase * (lm.mu + 1))
            block.entries[ridx[K]][c] = term
        for step in (+2, -2):
            Kp = K + step
            if Kp < 0 or Kp not in ridx:
                continue
            if step > 0:
                amp_sq = Fraction(3, 2) * (lm.mu - K) * (lm.mu + K + 2)
            else:
                amp_sq = Fraction(3, 2) * (lm.mu + K) * (lm.mu - K + 2)
            if K == 0 or Kp == 0:
                amp_sq *= 2
            block.entries[ridx[Kp]][c] = times_cg(amp_sq, K, step)
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


@lru_cache(maxsize=None)
def _construction(lm: Su3Label) -> _Construction:
    levels = l_values(lm)
    candidates = {L: k_candidates(lm, L) for L in levels}
    raw_candidates = {L: raw_k_candidates(lm, L) for L in levels}
    blocks = {(Lp, L): m_matrix(lm, Lp, L) for Lp in levels for L in levels if abs(Lp - L) <= 2}
    dense = {pair: block.to_dense() for pair, block in blocks.items() if not block.is_empty()}
    unitaries, eigenvalues = {}, {}
    for L in levels:
        # sqrt(2L+1) M[L, L] is symmetric exactly when M[L, L] is.
        entries = blocks[(L, L)].entries
        n = len(entries)
        for i in range(n):
            for j in range(i + 1, n):
                if entries[i][j] != entries[j][i]:
                    raise So3ConsistencyError(
                        f"sqrt(2L+1) M[{L},{L}] is not symmetric at ({i},{j})"
                    )
        block = dense[(L, L)]
        if n == 1:
            u = np.eye(1)
            ev = block.diagonal().copy()
        else:
            evs, u = np.linalg.eigh((block + block.T) / 2)
            scale = max(1.0, float(np.abs(evs).max()))
            if np.diff(evs).min() < DEGENERACY_TOL * scale:
                raise So3ConsistencyError(f"degenerate invariant eigenvalues at L={L}")
            for col in range(n):
                lead = int(np.argmax(np.abs(u[:, col])))
                if u[lead, col] < 0:
                    u[:, col] = -u[:, col]
            ev = evs
        unitaries[L] = u
        # curlyM carries a 1/sqrt(2L+1) relative to the raw quadrupole block;
        # with that normalization the reduced-ME and norm-ratio formulas close
        # the algebra (checked against the canonical-basis construction).
        eigenvalues[L] = ev / np.sqrt(2 * L + 1)

    curly = {
        (Lp, L): unitaries[Lp].T @ block @ unitaries[L] / np.sqrt(2 * Lp + 1)
        for (Lp, L), block in dense.items()
    }

    positive, k_norm = _best_first_walk(levels, candidates, raw_candidates, curly)
    norms = {L: np.array([k_norm[(L, a)] for a in positive[L]]) for L in levels}
    factors = {
        (Lp, L): np.sqrt(2 * Lp + 1) * block[np.ix_(positive[Lp], positive[L])] * norms[L] / norms[Lp][:, None]
        for (Lp, L), block in curly.items()
    }
    return _Construction(
        lm, levels, candidates, raw_candidates, unitaries, eigenvalues, curly, positive, k_norm, factors
    )


def _listed(block: np.ndarray) -> np.ndarray:
    """Entries of a curlyM block above ``DEFAULT_TOL`` of its scale: the elements a table lists."""
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
    positive on every in-irrep pair the walk weighs above ``_EDGE_TOL`` or a
    reduced table lists, not only on the edges the walk took.
    """
    root = (levels[0], 0)
    k_norm = {root: 1.0}
    heap = []

    def push(L, a):
        for Lp in range(L - 2, L + 3):
            if (Lp, L) not in curly:
                continue
            for b, weight in enumerate(_edge_weights(curly[(Lp, L)], curly[(L, Lp)])[:, a]):
                if weight > _EDGE_TOL and (Lp, b) not in k_norm:
                    heapq.heappush(heap, (-weight, Lp, b, L, a))

    push(*root)
    while heap:
        _, Lp, beta, L, alpha = heapq.heappop(heap)
        if (Lp, beta) in k_norm:
            continue
        fwd, bwd = curly[(Lp, L)][beta, alpha], curly[(L, Lp)][alpha, beta]
        ratio_sq = abs((2 * L + 1) / (2 * Lp + 1) * bwd / fwd)  # its sign is checked below
        k_norm[(Lp, beta)] = k_norm[(L, alpha)] / np.sqrt(ratio_sq)
        push(Lp, beta)

    positive = {L: sorted(b for (l, b) in k_norm if l == L) for L in levels}
    for L in levels:
        if len(positive[L]) != len(candidates[L]):
            raise So3ConsistencyError(
                f"found {len(positive[L])} positive-norm states at L={L}, "
                f"expected {len(candidates[L])} (raw candidates {raw_candidates[L]})"
            )
    for (Lp, L), fwd in curly.items():
        bwd = curly[(L, Lp)]
        checked = (_edge_weights(fwd, bwd) > _EDGE_TOL) | _listed(fwd)
        for b in positive[Lp]:
            for a in positive[L]:
                ratio = (-1.0) ** (L - Lp) * bwd[a, b] / fwd[b, a] if checked[b, a] else 1.0
                if ratio <= 0:
                    raise So3ConsistencyError(
                        f"non-positive norm ratio {ratio:.3e} between (L={L},a={a}) and (L={Lp},a={b})"
                    )
    return positive, k_norm


def reduced_q(lm: Su3Label, beta: int, Lp: int, alpha: int, L: int) -> float:
    """Reduced quadrupole matrix element ``<(lam,mu) beta Lp || Q || (lam,mu) alpha L>``.

    ``alpha`` and ``beta`` index the in-irrep states at their L in ascending
    invariant-eigenvalue order.  The value is ``sqrt(2Lp+1)`` times the factor
    that :func:`assemble_so3_generators` expands, so a table and the matrices
    agree.  Queries outside the irrep, and elements whose curlyM entry lies
    within ``DEFAULT_TOL`` of its block's scale, return 0.
    """
    con = _construction(lm)
    if (Lp, L) not in con.factors or beta >= len(con.positive[Lp]) or alpha >= len(con.positive[L]):
        return 0.0
    if not _listed(con.curly[(Lp, L)])[con.positive[Lp][beta], con.positive[L][alpha]]:
        return 0.0
    return float(np.sqrt(2 * Lp + 1) * con.factors[(Lp, L)][beta, alpha])


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
