"""K-matrix engine: recursion, orthonormalization, unitarization, JSON path."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from vcs_irreps import kmatrix, su11, u3
from vcs_irreps.kmatrix import KMatrixError
from vcs_irreps.radical import Radical


def su11_pipeline(lam, nmax):
    irrep = su11.Su11Irrep(lam, nmax)
    rep = su11.holomorphic_gamma_rep(irrep)
    sblocks = kmatrix.solve_s_recursion(rep)
    ortho = kmatrix.orthonormalize(sblocks, exact=True)
    return irrep, rep, sblocks, ortho


@pytest.mark.parametrize("lam", [1, 2, 3, Fraction(7, 2)])
def test_su11_s_diagonal_equals_kernel_coefficients(lam, nmax=12):
    irrep, rep, sblocks, _ = su11_pipeline(lam, nmax)
    coeffs = su11.s_kernel_coefficients(irrep, nmax)
    for n in range(nmax + 1):
        assert sblocks[(n,)].matrix[0][0] == coeffs[n]


def test_one_dimensional_irrep_sblocks_are_unit():
    # a single-sector rep with identity seed keeps S = [1]
    rep = su11.holomorphic_gamma_rep(su11.Su11Irrep(5, 1))
    sblocks = kmatrix.solve_s_recursion(rep)
    assert sblocks[(0,)].matrix[0][0] == 1


@pytest.mark.parametrize("lam", [2, Fraction(7, 2)])
def test_su11_orthonormalize_matches_k_factor(lam):
    irrep, rep, sblocks, ortho = su11_pipeline(lam, 10)
    for n in range(11):
        sec = ortho[(n,)]
        assert sec.k_values[0] == su11.k_factor(irrep, n)
        assert sec.n_positive == 1


def test_su11_unitarize_matches_generator_matrices():
    irrep, rep, sblocks, ortho = su11_pipeline(3, 10)
    basis, gammas = kmatrix.unitarize(rep, ortho)
    gens = su11.generator_matrices(irrep)
    for n in range(10):
        assert gammas["S+"][n + 1, n] == gens["S+"][n + 1, n]
        assert gammas["S+"][n + 1, n] == Radical.sqrt_of((3 + n) * (n + 1))
    assert gammas["S0"].max_abs_diff(gens["S0"]) == 0.0
    assert gammas["S-"].max_abs_diff(gens["S-"]) == 0.0


def test_gamma_already_unitary_passes_through():
    # feeding the unitary su(1,1) matrices back in leaves them unchanged
    irrep = su11.Su11Irrep(2, 8)
    gens = su11.generator_matrices(irrep)
    sectors = {(n,): 1 for n in range(irrep.dim)}
    grades = {(n,): n for n in range(irrep.dim)}
    blocks = {name: {} for name in ("S0", "S+", "S-")}
    for (r, c), v in gens["S0"].entries.items():
        blocks["S0"][(r,), (c,)] = [[v]]
    for (r, c), v in gens["S+"].entries.items():
        blocks["S+"][(r,), (c,)] = [[v]]
    for (r, c), v in gens["S-"].entries.items():
        blocks["S-"][(r,), (c,)] = [[v]]
    rep = kmatrix.GammaRep(sectors, grades, blocks, {"S0": "S0", "S+": "S-", "S-": "S+"}, exact=True)
    sblocks = kmatrix.solve_s_recursion(rep)
    ortho = kmatrix.orthonormalize(sblocks, exact=True)
    assert all(o.k_values[0] == Radical.one() for o in ortho.values())
    _, gammas = kmatrix.unitarize(rep, ortho)
    for name in ("S0", "S+", "S-"):
        assert gammas[name].max_abs_diff(gens[name]) == 0.0


def test_u3_sblocks_are_products_of_norm_ratios():
    hw = u3.U3HighestWeight(2, 0, 0)
    rep = u3.holomorphic_gamma_rep(hw, extra_grades=1)
    sblocks = kmatrix.solve_s_recursion(rep)
    # s = 0 chain: S = j, k**2 telescopes the norm-ratio products
    expected = {0: Fraction(1)}
    for tj in range(2):
        expected[tj + 1] = expected[tj] * u3.k_ratio_sq(hw, tj, tj, tj + 1)
    for (tj, tS, tM), _ in rep.sectors.items():
        value = sblocks[(tj, tS, tM)].matrix[0][0]
        if tS == tj and tj <= 2:
            assert value == expected[tj]
        if tj == 3:
            assert value == 0


def test_u3_unitarize_reproduces_canonical_generators():
    hw = u3.U3HighestWeight(2, 1, 0)
    rep = u3.holomorphic_gamma_rep(hw, extra_grades=1)
    sblocks = kmatrix.solve_s_recursion(rep)
    ortho = kmatrix.orthonormalize(sblocks, exact=True)
    assert kmatrix.zero_norm_count(ortho) == rep.raw_dimension() - hw.dimension()
    basis, gammas = kmatrix.unitarize(rep, ortho)
    labels = u3.basis_enumeration(hw)
    perm = [labels.index(u3.CanonicalLabel(*sec)) for sec, _ in basis]
    gens = u3.assemble_generators(hw)
    for name in u3.GENERATOR_NAMES:
        dense = np.zeros((len(basis), len(basis)))
        for (r, c), v in gammas[name].entries.items():
            dense[perm[r], perm[c]] = float(v)
        assert np.abs(dense - gens[name].to_dense()).max() <= 1e-12


def test_u3_engine_intrinsic_spin_one_weight():
    # {4,2,0} has intrinsic spin 1, so sectors carry genuine S-multiplets
    hw = u3.U3HighestWeight(4, 2, 0)
    rep = u3.holomorphic_gamma_rep(hw, extra_grades=1)
    sblocks = kmatrix.solve_s_recursion(rep)
    ortho = kmatrix.orthonormalize(sblocks, exact=True)
    assert kmatrix.zero_norm_count(ortho) == rep.raw_dimension() - hw.dimension()
    basis, gammas = kmatrix.unitarize(rep, ortho)
    labels = u3.basis_enumeration(hw)
    perm = [labels.index(u3.CanonicalLabel(*sec)) for sec, _ in basis]
    gens = u3.assemble_generators(hw)
    for name in u3.GENERATOR_NAMES:
        dense = np.zeros((27, 27))
        for (r, c), v in gammas[name].entries.items():
            dense[perm[r], perm[c]] = float(v)
        assert np.abs(dense - gens[name].to_dense()).max() == 0.0


def test_u3_engine_handles_common_rational_shift():
    # weights with a non-integer common shift go through the same exact path
    hw = u3.U3HighestWeight(Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))
    rep = u3.holomorphic_gamma_rep(hw, extra_grades=1)
    sblocks = kmatrix.solve_s_recursion(rep)
    ortho = kmatrix.orthonormalize(sblocks, exact=True)
    basis, gammas = kmatrix.unitarize(rep, ortho)
    assert len(basis) == hw.dimension()
    labels = u3.basis_enumeration(hw)
    perm = [labels.index(u3.CanonicalLabel(*sec)) for sec, _ in basis]
    gens = u3.assemble_generators(hw)
    for name in ("C11", "C21", "C13"):
        dense = np.zeros((len(basis), len(basis)))
        for (r, c), v in gammas[name].entries.items():
            dense[perm[r], perm[c]] = float(v)
        assert np.abs(dense - gens[name].to_dense()).max() <= 1e-12


def _shuffled(rep, seed):
    """The same GammaRep with its generators and blocks in a random dict order."""
    rng = random.Random(seed)
    blocks = {}
    for gen in rng.sample(list(rep.blocks), len(rep.blocks)):
        items = list(rep.blocks[gen].items())
        rng.shuffle(items)
        blocks[gen] = dict(items)
    sectors = list(rep.sectors.items())
    rng.shuffle(sectors)
    return kmatrix.GammaRep(dict(sectors), rep.grades, blocks, rep.adjoints, exact=rep.exact)


@pytest.mark.parametrize("seed", range(3))
def test_s_recursion_does_not_depend_on_block_order(seed):
    reps = [
        u3.holomorphic_gamma_rep(u3.U3HighestWeight(4, 2, 0), extra_grades=1),
        u3.holomorphic_gamma_rep(u3.U3HighestWeight(Fraction(7, 3), Fraction(4, 3), Fraction(1, 3)), extra_grades=2),
        su11.holomorphic_gamma_rep(su11.Su11Irrep(Fraction(7, 2), 40)),
    ]
    for rep in reps:
        want = kmatrix.solve_s_recursion(rep)
        got = kmatrix.solve_s_recursion(_shuffled(rep, seed))
        assert got.keys() == want.keys()
        for sec, sb in want.items():
            assert got[sec].matrix == sb.matrix
            assert all(type(v) is Fraction for v in got[sec].matrix[0])


def test_exact_consistency_check_sees_what_floats_cannot():
    # C23 joins sectors of one grade, so only the final consistency check
    # reads it: scaling one block by 1 + 1e-30 leaves every float unchanged
    rep = u3.holomorphic_gamma_rep(u3.U3HighestWeight(2, 1, 0), extra_grades=0)
    key, block = next(iter(rep.blocks["C23"].items()))
    assert rep.grades[key[0]] == rep.grades[key[1]] and key[0] != key[1]
    bumped = block[0][0] * Radical.from_rational(1 + Fraction(1, 10**30))
    assert float(bumped) == float(block[0][0])
    rep.blocks["C23"][key] = [[bumped]]
    with pytest.raises(KMatrixError, match="exactly"):
        kmatrix.solve_s_recursion(rep)


def test_orthonormalize_rank_deficient_block():
    sb = {("x",): kmatrix.SBlock(("x",), np.array([[1.0, 1.0], [1.0, 1.0]]))}
    ortho = kmatrix.orthonormalize(sb)
    sec = ortho[("x",)]
    assert sec.k_values[0] == pytest.approx(np.sqrt(2.0))
    assert sec.k_values[1] == 0.0
    assert sec.zero_norm == 1


def test_orthonormalize_diagonal_input_is_identity():
    sb = {("d",): kmatrix.SBlock(("d",), np.diag([4.0, 1.0]))}
    sec = kmatrix.orthonormalize(sb)[("d",)]
    # descending eigenvalues, unitary a permutation of the identity
    assert sec.k_values == [2.0, 1.0]
    assert np.abs(np.asarray(sec.unitary, dtype=float) - np.eye(2)).max() == 0.0


def test_orthonormalize_rejects_negative_eigenvalue():
    sb = {("n",): kmatrix.SBlock(("n",), np.array([[-1.0]]))}
    with pytest.raises(KMatrixError):
        kmatrix.orthonormalize(sb)


def test_float_path_with_multidimensional_sectors():
    # group the {2,0,0} raw basis by grade only, so sectors are genuinely
    # multi-dimensional, and solve in float mode
    hw = u3.U3HighestWeight(2, 0, 0)
    fine = u3.holomorphic_gamma_rep(hw, extra_grades=0)
    grades = sorted({tj for (tj, _, _) in fine.sectors})
    members = {g: sorted(s for s in fine.sectors if s[0] == g) for g in grades}
    sectors = {(g,): len(members[g]) for g in grades}
    grade_map = {(g,): g for g in grades}
    blocks = {}
    for gen, bl in fine.blocks.items():
        coarse = {}
        for (row, col), m in bl.items():
            key = ((row[0],), (col[0],))
            block = coarse.setdefault(key, np.zeros((sectors[key[0]], sectors[key[1]])))
            block[members[row[0]].index(row), members[col[0]].index(col)] = float(m[0][0])
        blocks[gen] = coarse
    rep = kmatrix.GammaRep(sectors, grade_map, blocks, dict(fine.adjoints), exact=False)
    sblocks = kmatrix.solve_s_recursion(rep)
    # the true S is diagonal with the norm-ratio products on the diagonal
    expected = {0: 1.0}
    for tj in range(2):
        expected[tj + 1] = expected[tj] * float(u3.k_ratio_sq(hw, tj, tj, tj + 1))
    for g in grades:
        s = np.asarray(sblocks[(g,)].matrix)
        diag_target = [expected[g] if sec[1] == g else 0.0 for sec in members[g]]
        assert np.abs(s - np.diag(diag_target)).max() < 1e-10


def test_inconsistent_gamma_raises():
    # u(3) sectors are constrained by two raising generators at once, so a
    # corrupted block makes the recursion over-determined and inconsistent
    rep = u3.holomorphic_gamma_rep(u3.U3HighestWeight(2, 1, 0), extra_grades=0)
    key, block = next(iter(rep.blocks["C21"].items()))
    rep.blocks["C21"][key] = [[block[0][0] * Radical.from_rational(7)]]
    with pytest.raises(KMatrixError):
        kmatrix.solve_s_recursion(rep)


def test_negative_norm_detected():
    # flipping the sign of one raising block drives an S value negative
    irrep = su11.Su11Irrep(2, 6)
    rep = su11.holomorphic_gamma_rep(irrep)
    rep.blocks["S+"][(3,), (2,)] = [[Radical.from_rational(-1)]]
    with pytest.raises(KMatrixError):
        kmatrix.solve_s_recursion(rep)


def test_unreachable_sector_raises():
    sectors = {("a",): 1, ("b",): 1}
    grades = {("a",): 0, ("b",): 5}
    rep = kmatrix.GammaRep(sectors, grades, {"X": {}}, {"X": "X"}, exact=True)
    with pytest.raises(KMatrixError):
        kmatrix.solve_s_recursion(rep)


def test_json_ingestion_round_trip():
    doc = {
        "sectors": [
            {"key": [0], "dim": 1, "grade": 0},
            {"key": [1], "dim": 1, "grade": 1},
        ],
        "generators": {
            "up": {"adjoint": "down", "blocks": [{"row": [1], "col": [0], "entries": [[0, 0, 2.0]]}]},
            "down": {"adjoint": "up", "blocks": [{"row": [0], "col": [1], "entries": [[0, 0, 1.0]]}]},
        },
    }
    rep = kmatrix.gamma_rep_from_json(doc)
    sblocks = kmatrix.solve_s_recursion(rep)
    # S(1) * down(0,1)^dag = up(1,0) * S(0)  ->  S(1) = 2
    assert np.asarray(sblocks[(1,)].matrix)[0, 0] == pytest.approx(2.0)
    ortho = kmatrix.orthonormalize(sblocks)
    _, gammas = kmatrix.unitarize(rep, ortho)
    assert gammas["up"][1, 0] == pytest.approx(np.sqrt(2.0))
    assert gammas["down"][0, 1] == pytest.approx(np.sqrt(2.0))


def test_adjoint_pairing_validation():
    with pytest.raises(ValueError):
        kmatrix.GammaRep({("a",): 1}, {("a",): 0}, {"X": {}}, {"X": "Y"})
