"""su(3) rotor-basis construction: M blocks, eigenbasis, reduced Q, assembly."""

from __future__ import annotations

import json
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcs_irreps import cli, repcheck, su3_so3, u3
from vcs_irreps.angmom import clebsch_gordan, clebsch_gordan_twice
from vcs_irreps.radical import Radical, RadicalSum

import oracles

WEIGHTS = [(2, 0), (0, 2), (1, 1), (2, 2), (4, 2)]


def test_label_validation():
    with pytest.raises(ValueError):
        su3_so3.Su3Label(-1, 0)
    assert su3_so3.Su3Label(2, 2).dimension() == 27


def test_k_ladder_and_candidates():
    assert su3_so3.k_ladder(4) == [0, 2, 4]
    assert su3_so3.k_ladder(3) == [1, 3]
    lm = su3_so3.Su3Label(2, 2)
    assert su3_so3.k_candidates(lm, 0) == [0]
    assert su3_so3.k_candidates(lm, 2) == [0, 2]
    assert su3_so3.k_candidates(lm, 4) == [2]
    # K = 0 exists only when lam + L is even
    assert su3_so3.k_candidates(lm, 3) == [2]
    # raw candidates keep the zero-norm state at L = 4
    assert su3_so3.raw_k_candidates(lm, 4) == [0, 2]


def test_k_candidates_are_the_closed_form():
    # K > 0: K <= L <= K + lam;  K = 0: L <= lam and lam + L even
    for lam in range(13):
        for mu in range(13):
            lm = su3_so3.Su3Label(lam, mu)
            for L in range(lam + mu + 1):
                ladder = range(mu % 2, mu + 1, 2)
                want = [K for K in ladder if (K <= L <= K + lam if K else L <= lam and (lam + L) % 2 == 0)]
                assert su3_so3.k_candidates(lm, L) == want


def _exact(entries):
    """An ``m_matrix`` block's ``(core, num, den)`` entries as ``RadicalSum`` values."""
    return {rc: RadicalSum({core: Fraction(num, den)}) for rc, (core, num, den) in entries.items()}


def test_m_matrix_mu_zero_is_scalar_bracket():
    lm = su3_so3.Su3Label(2, 0)
    rows, cols, entries = su3_so3.m_matrix(lm, 2, 0)
    assert (len(rows), len(cols)) == (1, 1)
    bracket = Fraction(2 * 2 + 0 + 3) - Fraction(2 * 3, 2) + 0
    expected = RadicalSum.from_value(clebsch_gordan(0, 0, 2, 0, 2, 0)) * bracket
    assert _exact(entries) == {(0, 0): expected}


def test_m_matrix_20_diagonal_value():
    # (2,0), L = L' = 2: single K = 0 entry, bracket is 2*lam + mu + 3 = 7
    lm = su3_so3.Su3Label(2, 0)
    _, _, entries = su3_so3.m_matrix(lm, 2, 2)
    expected = RadicalSum.from_value(clebsch_gordan(2, 0, 2, 0, 2, 0)) * 7
    assert _exact(entries) == {(0, 0): expected}


def test_m_matrix_02_block_and_invariant_eigenvalue():
    # (0,2), L = L' = 2 runs over raw candidates K in {0, 2}; the direct
    # quadrupole action gives the (2,2) entry as 5*(2 2, 2 0 | 2 2), and the
    # positive-norm eigenvalue of the block comes out at sqrt(14)
    lm = su3_so3.Su3Label(0, 2)
    rows, cols, entries = su3_so3.m_matrix(lm, 2, 2)
    assert (rows, cols) == ([0, 2], [0, 2])
    expected = RadicalSum.from_value(clebsch_gordan(2, 2, 2, 0, 2, 2)) * 5
    assert _exact(entries)[(1, 1)] == expected
    _, eigenvalues = oracles.x_eigenbasis(lm, 2)
    raw = np.array(eigenvalues) * np.sqrt(5.0)
    assert np.sqrt(14.0) == pytest.approx(raw.max(), abs=1e-10)


def test_m_matrix_rejects_distant_l():
    with pytest.raises(ValueError):
        su3_so3.m_matrix(su3_so3.Su3Label(2, 0), 5, 0)


def test_m_matrix_empty_block():
    lm = su3_so3.Su3Label(2, 0)
    rows, cols, entries = su3_so3.m_matrix(lm, 1, 0)  # lam + L odd at K = 0: no candidates
    assert (rows, cols, entries) == ([], [0], {})


def test_m_matrix_is_the_racah_series_reference_exactly():
    # Every block of every (lam, mu) with lam, mu <= 12: the integer square
    # classes equal the RadicalSum reference built from clebsch_gordan, and
    # the float block is float() of that reference, bit for bit.
    for lam in range(13):
        for mu in range(13):
            lm = su3_so3.Su3Label(lam, mu)
            levels = su3_so3.l_values(lm)
            for Lp, L in ((Lp, L) for Lp in levels for L in levels if abs(Lp - L) <= 2):
                rows, cols, entries = su3_so3.m_matrix(lm, Lp, L)
                want_rows, want_cols, want = oracles.m_block_reference(lm, Lp, L)
                assert (rows, cols) == (want_rows, want_cols)
                assert _exact(entries) == want, (lam, mu, Lp, L)
                floats = np.array([[float(want.get((i, j), RadicalSum())) for j in range(len(cols))] for i in range(len(rows))])
                assert su3_so3._float_block(rows, cols, entries).tobytes() == floats.tobytes(), (lam, mu, Lp, L)


def test_m_blocks_and_m_matrix_are_the_blocks_built_one_pair_at_a_time():
    # every pair with |Lp - L| <= 2 and Lp, L <= lam + mu + 2, those outside
    # l_values included, for lam, mu <= 6: from one kernel call over all pairs
    # and from m_matrix alone, equal to each block built alone
    for lam in range(7):
        for mu in range(7):
            lm = su3_so3.Su3Label(lam, mu)
            top = lam + mu + 2
            pairs = [(Lp, L) for L in range(top + 1) for Lp in range(max(0, L - 2), min(top, L + 2) + 1)]
            blocks = su3_so3.m_blocks(lm, pairs)
            assert list(blocks) == pairs
            for pair in pairs:
                assert blocks[pair] == su3_so3.m_matrix(lm, *pair) == oracles.m_matrix_reference(lm, *pair), (lm, pair)


@pytest.mark.parametrize("lam,mu", WEIGHTS + [(3, 3), (2, 3)])
def test_sqrt_weighted_diagonal_blocks_symmetric_exactly(lam, mu):
    lm = su3_so3.Su3Label(lam, mu)
    for L in su3_so3.l_values(lm):
        rows, _, entries = su3_so3.m_matrix(lm, L, L)
        exact = _exact(entries)
        weight = Radical.sqrt_of(2 * L + 1)
        for i in range(len(rows)):
            for j in range(len(rows)):
                lhs = exact.get((i, j), RadicalSum()) * weight
                rhs = exact.get((j, i), RadicalSum()) * weight
                assert (lhs - rhs).is_zero()


def test_construction_refuses_a_diagonal_block_that_is_not_exactly_symmetric(monkeypatch):
    # far below a float's resolution of the entry, so only the exact test sees
    # it: 10**-30 sqrt(core) added to the zero entry (0,2) of M[4,4], and to
    # the non-zero entry (0,1)
    real = su3_so3.m_blocks
    for j in (2, 1):

        def skewed(lm, pairs):
            blocks = real(lm, pairs)
            entries = blocks[(4, 4)][2]
            core, num, den = entries.get((0, j), (1, 0, 1))
            entries[(0, j)] = core, num * 10**30 + den, den * 10**30
            return blocks

        monkeypatch.setattr(su3_so3, "m_blocks", skewed)
        with pytest.raises(su3_so3.So3ConsistencyError, match=rf"M\[4,4\] is not symmetric at \(0,{j}\)"):
            su3_so3._construction.__wrapped__(su3_so3.Su3Label(4, 4))


def test_x_eigenbasis_single_candidate_is_identity():
    u, ev = oracles.x_eigenbasis(su3_so3.Su3Label(2, 0), 2)
    assert np.array_equal(u, np.eye(1))
    assert len(ev) == 1


def test_x_eigenbasis_two_by_two_distinct():
    u, ev = oracles.x_eigenbasis(su3_so3.Su3Label(2, 2), 2)
    assert u.shape == (2, 2)
    assert ev[0] < ev[1] - 1e-9
    assert np.abs(u.T @ u - np.eye(2)).max() < 1e-12


def test_x_eigenvalues_invariant_under_input_permutation():
    # similarity invariance: eigenvalues do not depend on K ordering
    lm = su3_so3.Su3Label(2, 2)
    block = su3_so3._float_block(*su3_so3.m_matrix(lm, 2, 2))
    perm = block[::-1, ::-1]
    _, ev = oracles.x_eigenbasis(lm, 2)
    flipped = np.sort(np.linalg.eigvalsh((perm + perm.T) / 2)) / np.sqrt(5.0)
    assert np.allclose(sorted(ev), flipped, atol=1e-10)


def test_reduced_q_diagonal_case():
    # L = L', beta = alpha: reduced ME is (2L+1) * curlyM[L,L][alpha,alpha]
    lm = su3_so3.Su3Label(2, 2)
    _, ev = oracles.x_eigenbasis(lm, 2)
    for alpha in (0, 1):
        assert su3_so3.reduced_q(lm, alpha, 2, alpha, 2) == pytest.approx(5 * ev[alpha], abs=1e-10)


def test_reduced_q_out_of_irrep_queries_return_zero():
    lm = su3_so3.Su3Label(2, 0)
    # (K=0, lam+L odd) candidates are absent from the basis entirely
    assert su3_so3.reduced_q(lm, 0, 1, 0, 0) == 0.0
    assert su3_so3.reduced_q(lm, 5, 2, 0, 0) == 0.0
    assert su3_so3.reduced_q(lm, 0, 8, 0, 6) == 0.0
    # a negative index is outside too, not the last state's element counted from the end
    lm = su3_so3.Su3Label(4, 2)
    assert su3_so3.reduced_q(lm, 0, 2, 0, 2) != 0.0
    assert su3_so3.reduced_q(lm, -2, 2, 0, 2) == su3_so3.reduced_q(lm, 0, 2, -2, 2) == 0.0


def test_reduced_table_lists_every_element_with_its_mirror():
    # At (16,14) the mirrors of 13 of the 2,789 elements whose own curlyM
    # entry passes lie within DEFAULT_TOL of their own block's scale; the
    # table lists each such pair all the same.
    listed = {(bra, ket) for bra, ket, _ in cli._su3_so3_reduced(su3_so3.Su3Label(16, 14), {})}
    assert all((ket, bra) in listed for bra, ket in listed)
    assert len(listed) == 2789 + 13


@pytest.mark.parametrize("lam,mu", [(4, 2), (8, 6)])
def test_reduced_elements_are_the_non_zero_reduced_q(lam, mu):
    lm = su3_so3.Su3Label(lam, mu)
    mults = su3_so3.rotor_multiplicities(lm)
    want = [
        (Lp, beta, L, alpha, su3_so3.reduced_q(lm, beta, Lp, alpha, L))
        for L in sorted(mults) for Lp in sorted(mults) if abs(Lp - L) <= 2
        for alpha in range(mults[L]) for beta in range(mults[Lp])
    ]
    assert list(su3_so3.reduced_elements(lm)) == [w for w in want if w[-1] != 0.0]


def canonical_reduced_q(weight):
    """Reduced quadrupole MEs of the canonical-basis construction, by L-block."""
    hw = u3.U3HighestWeight(*weight)
    gens = u3.assemble_generators(hw)
    l0, lp, lmn = u3.angular_momentum_dense(gens)
    q = oracles.quadrupole_dense(gens)
    lsq = l0 @ l0 + (lp @ lmn + lmn @ lp) / 2
    ev, vec = np.linalg.eigh(lsq)
    blocks: dict[int, list[np.ndarray]] = {}
    labels = np.round((-1 + np.sqrt(1 + 4 * np.maximum(ev, 0))) / 2).astype(int)
    states = {}
    for L in sorted(set(labels)):
        cols = vec[:, labels == L]
        z = cols.conj().T @ l0 @ cols
        evz, w = np.linalg.eigh(z)
        adapted = cols @ w
        for idx, m in enumerate(np.round(evz).astype(int)):
            states.setdefault((L, m), []).append(adapted[:, idx])
    return hw, q, states


def test_reduced_q_magnitudes_match_canonical_20():
    """(2,0) reproduces the canonical {2,0,0} reduced-ME magnitudes."""
    lm = su3_so3.Su3Label(2, 0)
    hw, q, states = canonical_reduced_q((2, 0, 0))
    # multiplicity-free L blocks, so magnitudes are basis-phase independent
    for (Lp, L) in [(0, 2), (2, 0), (2, 2)]:
        (bra,) = states[(Lp, Lp)]
        found = None
        for M in range(-L, L + 1):
            nu = Lp - M
            if abs(nu) > 2:
                continue
            c = float(clebsch_gordan(L, M, 2, nu, Lp, Lp))
            if abs(c) < 1e-8:
                continue
            (ket,) = states[(L, M)]
            found = abs(complex(bra.conj() @ q[nu] @ ket)) * np.sqrt(2 * Lp + 1) / abs(c)
            break
        assert found is not None
        assert abs(su3_so3.reduced_q(lm, 0, Lp, 0, L)) == pytest.approx(found, abs=1e-10)


def test_conjugate_irreps_flip_diagonal_quadrupole_sign():
    # (2,0) and (0,2) are conjugate: the L = 2 diagonal reduced ME has the
    # same magnitude sqrt(70) and opposite sign
    prolate = su3_so3.reduced_q(su3_so3.Su3Label(2, 0), 0, 2, 0, 2)
    oblate = su3_so3.reduced_q(su3_so3.Su3Label(0, 2), 0, 2, 0, 2)
    assert prolate == pytest.approx(-np.sqrt(70.0), abs=1e-10)
    assert oblate == pytest.approx(np.sqrt(70.0), abs=1e-10)


def test_assemble_trivial_irrep():
    gens = su3_so3.assemble_so3_generators(su3_so3.Su3Label(0, 0))
    for mat in gens.values():
        assert mat.dim == 1 and mat.vals.size == 0


@pytest.mark.parametrize("lam,mu", WEIGHTS)
def test_q2_qm2_commutator_is_6_l0(lam, mu):
    gens = su3_so3.assemble_so3_generators(su3_so3.Su3Label(lam, mu))
    q2, qm2, l0 = (gens[k].to_dense() for k in ("Q2", "Q-2", "L0"))
    assert np.abs(q2 @ qm2 - qm2 @ q2 - 6 * l0).max() < 1e-10 * (1 + np.abs(q2).max() ** 2)


def test_full_algebra_and_hermiticity_family_sweep():
    # every (lam, mu) with lam + 2 mu <= 8
    spec = repcheck.su3_so3_spec()
    for mu in range(5):
        for lam in range(9 - 2 * mu):
            lm = su3_so3.Su3Label(lam, mu)
            gens = su3_so3.assemble_so3_generators(lm)
            assert repcheck.commutator_residual(spec, gens) < 1e-10, (lam, mu)
            assert repcheck.hermiticity_residual(spec, gens) < 1e-10, (lam, mu)


def _assemble_entry_by_entry(lm):
    """The basis, and each generator as a ``{(row, col): value}`` dict filled entry by entry from the labels and factors."""
    con = su3_so3._construction(lm)
    basis = su3_so3.basis_labels(lm)
    index = {(b.L, b.alpha, b.M): i for i, b in enumerate(basis)}
    mats = {name: {} for name in ("L0", "L+", "L-", "Q-2", "Q-1", "Q0", "Q1", "Q2")}
    for b in basis:
        i = index[(b.L, b.alpha, b.M)]
        if b.M:
            mats["L0"][i, i] = float(b.M)
        if b.M + 1 <= b.L:
            amp = float(np.sqrt((b.L - b.M) * (b.L + b.M + 1)))
            mats["L+"][index[(b.L, b.alpha, b.M + 1)], i] = amp
            mats["L-"][i, index[(b.L, b.alpha, b.M + 1)]] = amp
    for (Lp, L), factors in con.factors.items():
        for beta, alpha in np.argwhere(factors).tolist():
            factor = float(factors[beta, alpha])
            for M in range(-L, L + 1):
                for nu in range(max(-2, -Lp - M), min(2, Lp - M) + 1):
                    cgc = float(clebsch_gordan_twice(2 * L, 2 * M, 4, 2 * nu, 2 * Lp, 2 * (M + nu)))
                    if cgc != 0.0:
                        mats[f"Q{nu}"][index[(Lp, beta, M + nu)], index[(L, alpha, M)]] = cgc * factor
    return basis, mats


@pytest.mark.parametrize("lam,mu", [(2, 1), (4, 2), (8, 6), (10, 8)])
def test_array_assembly_matches_the_entry_by_entry_fill(lam, mu):
    lm = su3_so3.Su3Label(lam, mu)
    got, (basis, want) = su3_so3.assemble_so3_generators(lm), _assemble_entry_by_entry(lm)
    assert list(got) == list(want)
    for name, mat in got.items():
        assert mat.dim == len(basis)
        keys, vals = zip(*sorted(want[name].items()))
        assert mat.rows.tolist() == [r for r, _ in keys], name
        assert mat.cols.tolist() == [c for _, c in keys], name
        assert mat.vals.dtype == np.float64 and mat.vals.tobytes() == np.array(vals).tobytes(), name
        assert np.all(mat.vals != 0.0), name


@pytest.mark.parametrize(
    "lam,mu", [(lam, total - lam) for total in range(9) for lam in range(total + 1)] + [(10, 8), (12, 10), (24, 22)]
)
def test_assembly_is_the_per_pair_reference_bit_for_bit(lam, mu):
    lm = su3_so3.Su3Label(lam, mu)
    got, want = su3_so3.assemble_so3_generators(lm), oracles.so3_generators_reference(lm)
    assert list(got) == list(want)
    for name, mat in got.items():
        assert mat.dim == want[name].dim, name
        for array in ("rows", "cols", "vals"):
            mine, theirs = getattr(mat, array), getattr(want[name], array)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), (name, array)
        assert mat.norm.hex() == want[name].norm.hex(), name


@pytest.mark.parametrize("lam,mu", [(0, 0), (2, 1), (8, 6)])
def test_gen_writes_the_arrays_as_the_entry_dicts_were_written(tmp_path, lam, mu):
    # The reference is the dict and list writer: each generator filled entry
    # by entry, each entry a [row, col, repr] list in sorted(entries.items())
    # order, the whole document written by json.dumps.
    for fmt in ("json", "csv"):
        assert cli.main(["gen", "su3-so3", "--lm", f"{lam},{mu}", "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
    lm = su3_so3.Su3Label(lam, mu)
    basis, old = _assemble_entry_by_entry(lm)
    doc = cli._document(cli.SU3_SO3, lm, "exact")
    assert doc["mode"] == ("exact" if (lam, mu) == (0, 0) else "float")
    assert doc["basis"] == [str(b) for b in basis]
    listed = {
        name: {"dim": len(basis), "entries": [[r, c, repr(v)] for (r, c), v in sorted(m.items())]}
        for name, m in old.items()
    }
    assert (tmp_path / "json").read_bytes() == json.dumps(dict(doc, generators=listed), indent=1).encode()
    assert (tmp_path / "csv").read_bytes() == cli._doc_to_csv(doc, f"{lam},{mu}").encode()


def test_construction_builds_each_quadrupole_block_once(monkeypatch):
    # one m_blocks call over the 82 block pairs, which is one rank-2 kernel call;
    # assembly makes one more per nu
    pairs, kernel = [], Counter()
    real_blocks, real_kernel = su3_so3.m_blocks, su3_so3.rank2_cg_parts
    monkeypatch.setattr(su3_so3, "m_blocks", lambda lm, todo: pairs.append(todo) or real_blocks(lm, todo))
    monkeypatch.setattr(su3_so3, "rank2_cg_parts", lambda *args: kernel.update(["calls"]) or real_kernel(*args))
    lm = su3_so3.Su3Label(10, 8)
    su3_so3._construction.__wrapped__(lm)
    assert [len(todo) for todo in pairs] == [82] and len(set(pairs[0])) == 82 and kernel["calls"] == 1
    su3_so3._construction(lm)
    kernel.clear()
    su3_so3.assemble_so3_generators(lm)
    assert kernel["calls"] == 5


def test_construction_weighs_and_lists_each_block_once(monkeypatch):
    calls = Counter()
    for name in ("_edge_weights", "_listed"):
        real = getattr(su3_so3, name)
        monkeypatch.setattr(su3_so3, name, lambda *blocks, name=name, real=real: calls.update([name]) or real(*blocks))
    con = su3_so3._construction.__wrapped__(su3_so3.Su3Label(10, 8))
    assert calls == {"_edge_weights": len(con.curly), "_listed": len(con.curly)} and len(con.curly) == 82


def test_every_level_is_diagonalized_by_one_eigh_call(monkeypatch):
    sizes = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda block: sizes.append(len(block)) or real(block))
    lm = su3_so3.Su3Label(4, 2)
    con = su3_so3._construction.__wrapped__(lm)
    assert sizes == [len(con.raw_candidates[L]) for L in con.levels] and sizes.count(1) == 3
    for L, n in zip(con.levels, sizes):
        if n == 1:  # returned unchanged by LAPACK
            rows, cols, entries = su3_so3.m_matrix(lm, L, L)
            assert con.unitaries[L].tolist() == [[1.0]]
            assert con.eigenvalues[L].tolist() == [su3_so3._float_block(rows, cols, entries)[0, 0] / np.sqrt(2 * L + 1)]


def test_reduced_table_lists_exactly_the_elements_reduced_q_returns():
    lm = su3_so3.Su3Label(8, 6)
    con = su3_so3._construction(lm)
    for (Lp, L), table in con.reduced.items():
        mask = (su3_so3._listed(con.curly[(Lp, L)]) | su3_so3._listed(con.curly[(L, Lp)]).T)[
            np.ix_(con.positive[Lp], con.positive[L])
        ]
        expected = np.where(mask, np.sqrt(2 * Lp + 1) * con.factors[(Lp, L)], 0.0)
        assert table.tobytes() == expected.tobytes()
        assert [su3_so3.reduced_q(lm, b, Lp, a, L) for b, a in np.ndindex(table.shape)] == table.ravel().tolist()


def test_bulk_fill_drops_zeros_and_rejects_entries_outside():
    mat = repcheck.SparseMatrix(3, [2, 1, 0], [0, 1, 2], np.array([-2.0, 0.0, 1.5]))
    assert (mat.rows.tolist(), mat.cols.tolist(), mat.vals.tolist()) == ([0, 2], [2, 0], [1.5, -2.0])
    for rows, cols in (([0, 3], [0, 0]), ([0, 0], [-1, 0])):
        with pytest.raises(IndexError):
            repcheck.SparseMatrix(3, rows, cols, [1.0, 1.0])
    with pytest.raises(ValueError, match="given twice"):
        repcheck.SparseMatrix(3, [1, 0, 1], [2, 0, 2], [1.0, 1.0, 0.0])
    # The build drops the zeros of L0 at M = 0: (2,1) has one state there per L multiplet.
    lm = su3_so3.Su3Label(2, 1)
    l0 = su3_so3.assemble_so3_generators(lm)["L0"]
    assert l0.vals.size == lm.dimension() - sum(su3_so3.rotor_multiplicities(lm).values())
    assert np.all(l0.vals != 0.0)


def test_hermiticity_keeps_float_precision_at_8_6():
    # a norm fixed across a weak edge (1e-7 of its block's scale) carries
    # eps/1e-7 relative error; taking the strongest edge first keeps ~eps
    gens = su3_so3.assemble_so3_generators(su3_so3.Su3Label(8, 6))
    assert repcheck.hermiticity_residual(repcheck.su3_so3_spec(), gens) <= 1e-15


def _walk(corrupt, lm=su3_so3.Su3Label(2, 2), factors=False):
    """Run the walk (then ``_factors``, with ``factors``) on a copy of the curlyM blocks of ``lm`` edited by ``corrupt``."""
    con = su3_so3._construction(lm)
    curly = {key: block.copy() for key, block in con.curly.items()}
    corrupt(con, curly)
    positive, k_norm = su3_so3._best_first_walk(con.levels, con.candidates, con.raw_candidates, curly)
    return su3_so3._factors(curly, positive, k_norm) if factors else (positive, k_norm)


def test_walk_on_intact_blocks_reproduces_the_construction():
    con = su3_so3._construction(su3_so3.Su3Label(2, 2))
    assert _walk(lambda con, curly: None) == (con.positive, con.k_norm)


def test_walk_counts_a_state_cut_off_from_the_irrep():
    def cut_l4(con, curly):
        # an edge a -> b needs both curlyM[Lb,La][b,a] and curlyM[La,Lb][a,b]
        (b,) = con.positive[4]
        for (_, L), block in curly.items():
            if L == 4:
                block[:, b] = 0.0

    with pytest.raises(su3_so3.So3ConsistencyError, match="found 0 positive-norm states at L=4, expected 1"):
        _walk(cut_l4)


def test_walk_rejects_a_non_positive_norm_ratio():
    def flip_first_edge(con, curly):
        # the root (L=0) couples only to L=2; its strongest edge is taken first
        fwd, bwd = curly[(2, 0)], curly[(0, 2)]
        b = int(np.argmax(np.minimum(np.abs(fwd[:, 0]), np.abs(bwd[0, :]))))
        bwd[0, b] = -bwd[0, b]

    with pytest.raises(su3_so3.So3ConsistencyError, match="non-positive norm ratio"):
        _walk(flip_first_edge)


def _in_irrep_edges(con):
    """Ordered pairs of distinct in-irrep states that the walk weighs above its edge tolerance."""
    for (Lp, L), fwd in con.curly.items():
        bwd = con.curly[(L, Lp)]
        scale = max(1.0, np.abs(fwd).max(), np.abs(bwd).max())
        for a in con.positive[L]:
            for b in con.positive[Lp]:
                if (L, a) != (Lp, b) and min(abs(fwd[b, a]), abs(bwd[a, b])) / scale > su3_so3._EDGE_TOL:
                    yield L, a, Lp, b


def test_walk_rejects_each_flipped_in_irrep_edge():
    lm = su3_so3.Su3Label(4, 2)
    edges = list(_in_irrep_edges(su3_so3._construction(lm)))
    assert len(edges) == 32
    for L, a, Lp, b in edges:
        def flip(con, curly):
            curly[(L, Lp)][a, b] = -curly[(L, Lp)][a, b]

        with pytest.raises(su3_so3.So3ConsistencyError, match="non-positive norm ratio"):
            _walk(flip, lm)


def _first_non_positive_ratio(con, curly):
    """The sign check as a loop over pairs, then b, then a: the message of its first offending in-irrep pair."""
    for (Lp, L), fwd in curly.items():
        bwd = curly[(L, Lp)]
        scale = max(1.0, np.abs(fwd).max(), np.abs(bwd).max())
        for b in con.positive[Lp]:
            for a in con.positive[L]:
                if min(abs(fwd[b, a]), abs(bwd[a, b])) / scale > su3_so3._EDGE_TOL:
                    ratio = (-1.0) ** (L - Lp) * bwd[a, b] / fwd[b, a]
                    if ratio <= 0:
                        return f"non-positive norm ratio {ratio:.3e} between (L={L},a={a}) and (L={Lp},a={b})"


@pytest.mark.parametrize("seed", range(4))
def test_walk_reports_the_first_flipped_pair_in_loop_order(seed):
    lm = su3_so3.Su3Label(8, 6)
    con = su3_so3._construction(lm)
    rng = np.random.default_rng(seed)
    flips = {pair: rng.random(con.curly[pair].shape) < 0.3 for pair in [(6, 8), (8, 6), (7, 7)]}

    def flip_some(con, curly):
        # negating entries leaves every edge weight and so the walk as it was
        for pair, mask in flips.items():
            curly[pair][mask] *= -1

    curly = {key: block.copy() for key, block in con.curly.items()}
    flip_some(con, curly)
    expected = _first_non_positive_ratio(con, curly)
    assert expected is not None
    with pytest.raises(su3_so3.So3ConsistencyError) as exc:
        _walk(flip_some, lm)
    assert str(exc.value) == expected


def test_walk_rejects_a_flipped_pair_that_only_the_table_lists():
    # at (12,10), L=12 a=0 <- L=10 b=5 weighs 4.9e-10 of its blocks' scale,
    # below the edge tolerance, but its curlyM entry is listed in the table:
    # the walk leaves its sign alone, and reduced Hermiticity refuses the flip
    lm = su3_so3.Su3Label(12, 10)
    con = su3_so3._construction(lm)
    a, b = con.positive[12][0], con.positive[10][5]
    assert (12, a, 10, b) not in set(_in_irrep_edges(con))
    assert su3_so3.reduced_q(lm, 0, 12, 5, 10) != 0.0

    def flip(con, curly):
        curly[(12, 10)][a, b] = -curly[(12, 10)][a, b]

    assert _walk(flip, lm) == (con.positive, con.k_norm)
    with pytest.raises(su3_so3.So3ConsistencyError, match=r"T\[10,12\] and T\[12,10\] break reduced Hermiticity"):
        _walk(flip, lm, factors=True)


def _hermiticity_defect(factors):
    """Largest ``|T[L',L] - (-1)**(L-L') sqrt((2L+1)/(2L'+1)) T[L,L'].T|`` over the largest ``|T|``."""
    defect = max(
        np.abs(t - (-1.0) ** (L - Lp) * np.sqrt((2 * L + 1) / (2 * Lp + 1)) * factors[(L, Lp)].T).max()
        for (Lp, L), t in factors.items()
    )
    return defect / max(np.abs(t).max() for t in factors.values())


@pytest.mark.parametrize("lam,mu", [(38, 36), (40, 38)])
def test_large_irreps_build_and_a_scaled_norm_is_refused(lam, mu):
    # some weak pairs here have a partner entry of rounding noise, of either sign
    lm = su3_so3.Su3Label(lam, mu)
    assert len(su3_so3.basis_labels(lm)) == lm.dimension()
    con = su3_so3._construction(lm)
    assert _hermiticity_defect(con.factors) < 1e-12
    k_norm = dict(con.k_norm)
    L = con.levels[len(con.levels) // 2]
    k_norm[(L, con.positive[L][0])] *= 1 + 1e-6
    with pytest.raises(su3_so3.So3ConsistencyError, match="break reduced Hermiticity"):
        su3_so3._factors(con.curly, con.positive, k_norm)


def test_norm_factors_past_the_float_floor_are_refused_before_any_division():
    # at mu = 0 the walk multiplies k along one chain of L: the smallest k of
    # (2060,0) is 3.5e-308 and builds; (2100,0) reaches subnormal factors and
    # (2500,0) exact zeros, which gave inf and NaN reduced elements that the
    # Hermiticity guard passed.  The construction alone, with no M-expanded build.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (2100, 2500):
            with pytest.raises(
                su3_so3.So3ConsistencyError, match=r"norm factor k = .* at \(L=\d+,a=0\) is outside the normal float range"
            ):
                su3_so3._construction(su3_so3.Su3Label(lam, 0))
        lm = su3_so3.Su3Label(2060, 0)
        values = [row[4] for row in su3_so3.reduced_elements(lm)]
    assert len(values) == 3090 and np.isfinite(values).all()
    assert 0 < min(su3_so3._construction(lm).k_norm.values()) < 1e-307


def test_a_nan_norm_factor_fails_the_hermiticity_guard():
    con = su3_so3._construction(su3_so3.Su3Label(4, 2))
    k_norm = dict(con.k_norm)
    k_norm[(con.levels[1], con.positive[con.levels[1]][0])] = float("nan")
    with np.errstate(invalid="ignore"), pytest.raises(su3_so3.So3ConsistencyError, match="break reduced Hermiticity by nan"):
        su3_so3._factors(con.curly, con.positive, k_norm)


def _table_gap(lm):
    """Largest relative gap between the reduced table of a ``gen`` document and its matrices.

    Each row ``<beta Lp||Q||alpha L>`` fixes every matrix element
    ``<Lp beta Mp|Q(nu)|L alpha M> = (L M, 2 nu | Lp Mp) value / sqrt(2Lp+1)``.
    """
    gens = cli.SU3_SO3.build(lm)
    entries = {name: dict(zip(zip(m.rows.tolist(), m.cols.tolist()), m.vals.tolist())) for name, m in gens.items()}
    index = {(b.L, b.alpha, b.M): i for i, b in enumerate(su3_so3.basis_labels(lm))}
    worst = 0.0
    for bra, ket, value in cli.SU3_SO3.reduced(lm, gens):
        (Lp, beta), (L, alpha) = (tuple(int(kv.split("=")[1]) for kv in label.split(",")) for label in (bra, ket))
        for M in range(-L, L + 1):
            for nu in range(-2, 3):
                cgc = float(clebsch_gordan(L, M, 2, nu, Lp, M + nu))
                if cgc:
                    entry = entries[f"Q{nu}"].get((index[(Lp, beta, M + nu)], index[(L, alpha, M)]), 0.0)
                    want = cgc * value / np.sqrt(2 * Lp + 1)
                    worst = max(worst, abs(entry - want) / abs(want))
    return worst


@pytest.mark.parametrize("lam,mu", [(8, 6), (12, 10)])
def test_reduced_table_carries_the_matrix_values(lam, mu):
    assert _table_gap(su3_so3.Su3Label(lam, mu)) <= 1e-15


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(0, 8).flatmap(lambda lam: st.tuples(st.just(lam), st.integers(0, 8 - lam))))
def test_random_irreps_close_branch_and_match_their_table(lm):
    lm = su3_so3.Su3Label(*lm)
    gens = su3_so3.assemble_so3_generators(lm)
    checks = repcheck.standard_checks(repcheck.su3_so3_spec(), gens, repcheck.DEFAULT_TOL)
    assert all(passed for _, _, passed in checks), checks
    assert su3_so3.rotor_multiplicities(lm) == su3_so3.branching_oracle(lm)
    assert _table_gap(lm) <= 1e-15


@pytest.mark.parametrize("lam,mu", WEIGHTS)
def test_dimension_matches_weyl_formula(lam, mu):
    lm = su3_so3.Su3Label(lam, mu)
    basis = su3_so3.basis_labels(lm)
    assert len(basis) == lm.dimension()
    gens = su3_so3.assemble_so3_generators(lm)
    assert gens["Q0"].dim == lm.dimension()


@pytest.mark.parametrize(
    "lam,mu,expected",
    [
        ((2), 0, {0: 1, 2: 1}),
        (0, 0, {0: 1}),
        (1, 1, {1: 1, 2: 1}),
        (2, 2, {0: 1, 2: 2, 3: 1, 4: 1}),
    ],
)
def test_branching_oracle_examples(lam, mu, expected):
    lm = su3_so3.Su3Label(lam, mu)
    assert su3_so3.branching_oracle(lm) == expected
    assert su3_so3.rotor_multiplicities(lm) == expected


def test_branching_11_weighted_count():
    mult = su3_so3.branching_oracle(su3_so3.Su3Label(1, 1))
    assert sum((2 * L + 1) * m for L, m in mult.items()) == 8


@pytest.mark.parametrize("lam,mu", WEIGHTS + [(3, 3), (2, 3), (1, 4)])
def test_branching_matches_rotor_enumeration(lam, mu):
    lm = su3_so3.Su3Label(lam, mu)
    assert su3_so3.branching_oracle(lm) == su3_so3.rotor_multiplicities(lm)


@pytest.mark.parametrize("lam", range(13))
def test_weight_count_matches_rotor_enumeration(lam):
    for mu in range(13):
        lm = su3_so3.Su3Label(lam, mu)
        assert su3_so3.weight_multiplicities(lm) == su3_so3.rotor_multiplicities(lm), (lam, mu)


@pytest.mark.parametrize("lam,mu", WEIGHTS + [(8, 6)])
def test_weight_count_matches_the_l_squared_oracle(lam, mu):
    lm = su3_so3.Su3Label(lam, mu)
    assert su3_so3.weight_multiplicities(lm) == su3_so3.branching_oracle(lm)


def test_weight_count_rejects_each_dropped_state(monkeypatch):
    lm = su3_so3.Su3Label(2, 1)
    full = u3.basis_enumeration(u3.U3HighestWeight(3, 1, 0))
    for i in range(len(full)):
        monkeypatch.setattr(u3, "basis_enumeration", lambda hw: full[:i] + full[i + 1:])
        with pytest.raises(su3_so3.So3ConsistencyError, match="not a sum of so"):
            su3_so3.weight_multiplicities(lm)


def test_casimir_schur_constancy():
    lm = su3_so3.Su3Label(4, 2)
    gens = su3_so3.assemble_so3_generators(lm)
    d = {k: v.to_dense() for k, v in gens.items()}
    qq = sum(
        ((-1.0) ** nu * d[f"Q{nu}"] @ d[f"Q{-nu}"] for nu in range(-2, 3)),
        np.zeros_like(d["L0"]),
    )
    ll = d["L0"] @ d["L0"] + (d["L+"] @ d["L-"] + d["L-"] @ d["L+"]) / 2
    mean, dev = repcheck.schur_constancy(qq + 3 * ll)
    assert dev < 1e-10
    lam, mu = 4, 2
    assert mean == pytest.approx(4 * (lam**2 + mu**2 + lam * mu + 3 * lam + 3 * mu))
