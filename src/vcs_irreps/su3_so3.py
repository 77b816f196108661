"""su(3) irreps ``(lam, mu)`` in the SO(3)-coupled (rotor) basis.

The basis starts from symmetrized rotor functions labelled by an intrinsic
projection ``K`` and angular momentum ``L``:

    K in {mu, mu-2, ..., 1 or 0};  K <= L <= K + lam  for K > 0;
    L in {lam, lam-2, ..., 1 or 0} for K = 0.

The quadrupole action on these functions is encoded by blocks ``M[L', L]``
over ``(K', K)`` built from SU(2) Clebsch-Gordan coefficients (exact radical
arithmetic).  Diagonalizing the symmetric ``sqrt(2L+1) M[L, L]`` defines the
multiplicity label ``alpha`` (the eigenbasis of the scalar L.Q.L invariant).
One best-first walk over the quadrupole couplings between eigenstates, from
the lowest-L state and along the strongest edge first, finds the in-irrep
states and fixes each one's norm factor from the ratio across the edge that
reached it; these factors unitarize the representation, and the reduced
quadrupole matrix elements come out as

    <beta L'||Q||alpha L> / sqrt((2L+1)(2L'+1))
        = curlyM[L',L][beta,alpha] * sqrt((-1)**(L-L') curlyM[L,L'][alpha,beta]
                                          / curlyM[L',L][beta,alpha]).

A cross-check against the canonical-basis construction of the same irrep
(``{lam+mu, mu, 0}``) is provided by :func:`branching_oracle`, which counts
angular-momentum multiplets by diagonalizing L^2 there.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .angmom import clebsch_gordan
from .opmatrix import OperatorMatrix
from .radical import Radical, RadicalSum, as_float
from .repcheck import DEFAULT_TOL

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
    for c, K in enumerate(cols):
        if K in ridx:
            term = RadicalSum.from_value(clebsch_gordan(L, K, 2, 0, Lp, K)) * bracket
            if K == 1:
                phase = -1 if (lm.lam + L + 1) % 2 else 1
                refl = (
                    RadicalSum.from_value(clebsch_gordan(L, -1, 2, 2, Lp, 1))
                    * Radical.sqrt_of(Fraction(3, 2))
                    * (phase * (lm.mu + 1))
                )
                term = term + refl
            block.entries[ridx[K]][c] = block.entries[ridx[K]][c] + term
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
            amp = Radical.sqrt_of(amp_sq) * clebsch_gordan(L, K, 2, step, Lp, Kp)
            block.entries[ridx[Kp]][c] = block.entries[ridx[Kp]][c] + amp
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


@lru_cache(maxsize=None)
def _construction(lm: Su3Label) -> _Construction:
    levels = l_values(lm)
    candidates = {L: k_candidates(lm, L) for L in levels}
    raw_candidates = {L: raw_k_candidates(lm, L) for L in levels}
    unitaries, eigenvalues = {}, {}
    for L in levels:
        block = m_matrix(lm, L, L)
        sym = [
            [RadicalSum.from_value(v) * Radical.sqrt_of(2 * L + 1) for v in row]
            for row in block.entries
        ]
        n = len(block.rows)
        for i in range(n):
            for j in range(n):
                if not (sym[i][j] - sym[j][i]).is_zero():
                    raise So3ConsistencyError(
                        f"sqrt(2L+1) M[{L},{L}] is not symmetric at ({i},{j})"
                    )
        dense = block.to_dense()
        if n == 1:
            u = np.eye(1)
            ev = dense.diagonal().copy()
        else:
            evs, u = np.linalg.eigh((dense + dense.T) / 2)
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

    curly: dict[tuple[int, int], np.ndarray] = {}
    for Lp in levels:
        for L in levels:
            if abs(Lp - L) > 2:
                continue
            block = m_matrix(lm, Lp, L)
            if block.is_empty():
                continue
            curly[(Lp, L)] = (
                unitaries[Lp].T @ block.to_dense() @ unitaries[L] / np.sqrt(2 * Lp + 1)
            )

    positive, k_norm = _best_first_walk(levels, candidates, raw_candidates, curly)
    return _Construction(
        lm, levels, candidates, raw_candidates, unitaries, eigenvalues, curly, positive, k_norm
    )


def _best_first_walk(levels, candidates, raw_candidates, curly):
    """In-irrep eigen-indices per level and their norm factors, from one walk.

    Quadrupole moves never leak from the irrep into the zero-norm candidates,
    so an eigenstate is inside the irrep exactly when it is connected to the
    (unique, never zero-norm) lowest-L state by entries nonzero in both
    directions.  A heap keyed on the smaller of the two entries, relative to
    the block pair's scale, always takes the strongest pending edge, so each
    norm comes from a ratio of large entries instead of inheriting the
    rounding of a weak one.  Ties break on the state labels.  The closed-form
    per-L counts then serve as a cross-check.
    """
    root = (levels[0], 0)
    k_norm = {root: 1.0}
    heap = []

    def push(L, a):
        for Lp in range(L - 2, L + 3):
            if (Lp, L) not in curly:
                continue
            fwd, bwd = curly[(Lp, L)], curly[(L, Lp)]
            scale = max(1.0, float(np.abs(fwd).max()), float(np.abs(bwd).max()))
            for b in range(fwd.shape[0]):
                weight = min(abs(fwd[b, a]), abs(bwd[a, b])) / scale
                if weight > _EDGE_TOL and (Lp, b) not in k_norm:
                    heapq.heappush(heap, (-weight, Lp, b, L, a))

    push(*root)
    while heap:
        _, Lp, beta, L, alpha = heapq.heappop(heap)
        if (Lp, beta) in k_norm:
            continue
        fwd, bwd = curly[(Lp, L)][beta, alpha], curly[(L, Lp)][alpha, beta]
        ratio_sq = (-1.0) ** (L - Lp) * (2 * L + 1) / (2 * Lp + 1) * bwd / fwd
        if ratio_sq <= 0:
            raise So3ConsistencyError(
                f"non-positive norm ratio {ratio_sq:.3e} between "
                f"(L={L},a={alpha}) and (L={Lp},a={beta})"
            )
        k_norm[(Lp, beta)] = k_norm[(L, alpha)] / np.sqrt(ratio_sq)
        push(Lp, beta)

    positive = {L: sorted(b for (l, b) in k_norm if l == L) for L in levels}
    for L in levels:
        if len(positive[L]) != len(candidates[L]):
            raise So3ConsistencyError(
                f"found {len(positive[L])} positive-norm states at L={L}, "
                f"expected {len(candidates[L])} (raw candidates {raw_candidates[L]})"
            )
    return positive, k_norm


def x_eigenbasis(lm: Su3Label, L: int) -> tuple[np.ndarray, list[float]]:
    """Orthogonal U diagonalizing ``M[L,L]`` and its eigenvalues, ascending.

    Columns are sign-fixed (largest-magnitude component positive); ``alpha``
    indexes the eigenvalue order.
    """
    con = _construction(lm)
    if L not in con.unitaries:
        raise ValueError(f"L={L} carries no states in ({lm.lam},{lm.mu})")
    return con.unitaries[L].copy(), [float(v) for v in con.eigenvalues[L]]


def reduced_q(lm: Su3Label, beta: int, Lp: int, alpha: int, L: int) -> float:
    """Reduced quadrupole matrix element ``<(lam,mu) beta Lp || Q || (lam,mu) alpha L>``.

    ``alpha`` and ``beta`` index the in-irrep states at their L in ascending
    invariant-eigenvalue order; queries outside the irrep return 0.
    """
    con = _construction(lm)
    if (Lp, L) not in con.curly:
        return 0.0
    if Lp not in con.positive or L not in con.positive:
        return 0.0
    if beta >= len(con.positive[Lp]) or alpha >= len(con.positive[L]):
        return 0.0
    b_raw = con.positive[Lp][beta]
    a_raw = con.positive[L][alpha]
    fwd = con.curly[(Lp, L)][b_raw, a_raw]
    scale = max(1.0, float(np.abs(con.curly[(Lp, L)]).max()))
    if abs(fwd) <= DEFAULT_TOL * scale:
        return 0.0
    bwd = con.curly[(L, Lp)][a_raw, b_raw]
    radicand = (-1.0) ** (L - Lp) * bwd / fwd
    if radicand < 0:
        if radicand > -(DEFAULT_TOL * scale) ** 0.5:
            return 0.0
        raise So3ConsistencyError(
            f"negative norm-ratio radicand {radicand:.3e} for in-irrep labels"
        )
    return float(np.sqrt((2 * L + 1) * (2 * Lp + 1)) * fwd * np.sqrt(radicand))


def basis_labels(lm: Su3Label) -> list[RotorLabel]:
    """Eigenbasis labels ordered by (L, alpha, M)."""
    con = _construction(lm)
    out = []
    for L in con.levels:
        for alpha in range(len(con.candidates[L])):
            for M in range(-L, L + 1):
                out.append(RotorLabel(L, alpha, M))
    return out


def assemble_so3_generators(lm: Su3Label) -> dict[str, OperatorMatrix]:
    """Matrices of ``L0, L+, L-`` and ``Q(-2..2)`` on the orthonormal eigenbasis."""
    con = _construction(lm)
    basis = basis_labels(lm)
    index = {(b.L, b.alpha, b.M): i for i, b in enumerate(basis)}
    mats = {name: OperatorMatrix(name, basis) for name in
            ("L0", "L+", "L-", "Q-2", "Q-1", "Q0", "Q1", "Q2")}

    for b in basis:
        i = index[(b.L, b.alpha, b.M)]
        if b.M:
            mats["L0"][i, i] = float(b.M)
        if b.M + 1 <= b.L:
            amp = float(np.sqrt((b.L - b.M) * (b.L + b.M + 1)))
            mats["L+"][index[(b.L, b.alpha, b.M + 1)], i] = amp
            mats["L-"][i, index[(b.L, b.alpha, b.M + 1)]] = amp

    for (Lp, L), fwd in con.curly.items():
        for alpha, a_raw in enumerate(con.positive[L]):
            for beta, b_raw in enumerate(con.positive[Lp]):
                if fwd[b_raw, a_raw] == 0.0:
                    continue
                factor = float(
                    np.sqrt(2 * Lp + 1)
                    * fwd[b_raw, a_raw]
                    * con.k_norm[(L, a_raw)]
                    / con.k_norm[(Lp, b_raw)]
                )
                for M in range(-L, L + 1):
                    for nu in range(-2, 3):
                        Mp = M + nu
                        if abs(Mp) > Lp:
                            continue
                        cgc = float(clebsch_gordan(L, M, 2, nu, Lp, Mp))
                        if cgc == 0.0:
                            continue
                        row = index[(Lp, beta, Mp)]
                        col = index[(L, alpha, M)]
                        mats[f"Q{nu}"][row, col] = cgc * factor
    return mats


def rotor_multiplicities(lm: Su3Label) -> dict[int, int]:
    """L -> number of rotor states, from the closed-form (K, L) enumeration."""
    return {L: len(k_candidates(lm, L)) for L in l_values(lm)}


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
