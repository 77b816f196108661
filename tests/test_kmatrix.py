"""K-matrix engine: recursion, orthonormalization, unitarization, JSON path."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from vcs_irreps import kmatrix, repcheck, su11, u3
from vcs_irreps.kmatrix import KMatrixError
from vcs_irreps.radical import Radical, radical_terms

import oracles


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
    assert gammas["S0"].entries == gens["S0"].entries
    assert gammas["S-"].entries == gens["S-"].entries


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
        assert gammas[name].entries == gens[name].entries


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


def _other_class(value):
    """A radical with the coefficient of ``value`` but another square class."""
    ((core, num, den),) = radical_terms(value)
    return Radical(1 if num > 0 else -1, Fraction(num, den) ** 2 * (3 if core == 2 else 2))


def test_exact_rep_needs_one_dimensional_sectors():
    with pytest.raises(ValueError, match="one-dimensional"):
        kmatrix.GammaRep({("a",): 1, ("b",): 2}, {("a",): 0, ("b",): 1}, {"X": {}}, {"X": "X"}, exact=True)


def test_partner_in_another_square_class_is_irrational():
    # S(3) = S(2) q_p / q_g needs the partner S-(2,3) in the class of S+(3,2):
    # the recursion derives S(3) from the pair, and the pair check refuses it
    rep = su11.holomorphic_gamma_rep(su11.Su11Irrep(2, 6))
    rep.blocks["S-"][(2,), (3,)] = [[_other_class(rep.blocks["S-"][(2,), (3,)][0][0])]]
    with pytest.raises(KMatrixError, match=r"S-matrix equations violated exactly at S\+ \(\(3,\), \(2,\)\)"):
        kmatrix.solve_s_recursion(rep)


def test_exact_consistency_check_compares_square_classes():
    # a same-grade C23 block moved to another square class with its
    # coefficient kept: S(col) q_g == q_p S(row) still holds, the cores differ
    rep = u3.holomorphic_gamma_rep(u3.U3HighestWeight(2, 1, 0), extra_grades=0)
    key, block = next(iter(rep.blocks["C23"].items()))
    assert rep.grades[key[0]] == rep.grades[key[1]] and key[0] != key[1]
    rep.blocks["C23"][key] = [[_other_class(block[0][0])]]
    with pytest.raises(KMatrixError, match="exactly"):
        kmatrix.solve_s_recursion(rep)


def test_su11_induction_is_exactly_the_closed_form():
    # the size of the benchmark's induce-su11: 1001 S values, numerators and denominators of up to 608 digits
    irrep, rep, sblocks, ortho = su11_pipeline(Fraction(7, 2), 1000)
    assert [sblocks[(n,)].matrix[0][0] for n in range(irrep.dim)] == su11.s_kernel_coefficients(irrep, 1000)
    basis, gammas = kmatrix.unitarize(rep, ortho)
    assert basis == [((n,), 0) for n in range(irrep.dim)]
    for name, matrix in su11.generator_matrices(irrep).items():
        assert gammas[name].entries == matrix.entries


def test_su11_induction_at_a_long_lambda_is_exactly_the_closed_form():
    # lam = (10**21 + 1)/7 is a 21-digit integer: each pair's ratio q_p / q_g = (n + 1)/(lam + n) is long
    irrep, rep, sblocks, ortho = su11_pipeline(Fraction(10**21 + 1, 7), 300)
    assert [sblocks[(n,)].matrix[0][0] for n in range(irrep.dim)] == su11.s_kernel_coefficients(irrep, 300)
    basis, gammas = kmatrix.unitarize(rep, ortho)
    assert basis == [((n,), 0) for n in range(irrep.dim)]
    for name, matrix in su11.generator_matrices(irrep).items():
        assert gammas[name].entries == matrix.entries


def _u3_k_squared(hw, tj, tS):
    """``K(j, S)**2`` from the telescoped norm ratios; 0 outside the irrep."""
    if not u3.is_admissible(hw, tj, tS):
        return 0
    if tj == 0:
        return 1
    low = tS - 1 if u3.is_admissible(hw, tj - 1, tS - 1) else tS + 1
    return _u3_k_squared(hw, tj - 1, low) * u3.k_ratio_sq(hw, tj - 1, low, tS)


@pytest.mark.parametrize(
    "weight, extra_grades",
    [((8, 4, 0), 1), ((Fraction(7, 3), Fraction(4, 3), Fraction(1, 3)), 2)],
    ids=["8,4,0", "7/3,4/3,1/3"],
)
def test_u3_induction_is_exactly_the_canonical_irrep(weight, extra_grades):
    # {8,4,0} is the benchmark's induce-u3; S is K**2 on every raw sector
    hw = u3.U3HighestWeight(*weight)
    rep = u3.holomorphic_gamma_rep(hw, extra_grades=extra_grades)
    sblocks = kmatrix.solve_s_recursion(rep)
    for (tj, tS, _), sb in sblocks.items():
        assert sb.matrix[0][0] == _u3_k_squared(hw, tj, tS)
    ortho = kmatrix.orthonormalize(sblocks, exact=True)
    basis, gammas = kmatrix.unitarize(rep, ortho)
    labels = u3.basis_enumeration(hw)
    perm = [labels.index(u3.CanonicalLabel(*sec)) for sec, _ in basis]
    assert sorted(perm) == list(range(hw.dimension()))
    assert kmatrix.zero_norm_count(ortho) == rep.raw_dimension() - hw.dimension()
    for name, matrix in u3.assemble_generators(hw).items():
        assert {(perm[r], perm[c]): v for (r, c), v in gammas[name].entries.items()} == oracles.exact_entries(matrix)


def test_unitarize_rejects_a_norm_factor_that_does_not_solve_the_s_equations():
    irrep, rep, sblocks, ortho = su11_pipeline(Fraction(7, 2), 8)
    ortho[(4,)].k_values[0] = 2 * ortho[(4,)].k_values[0]
    with pytest.raises(KMatrixError, match=r"norm factors do not solve the S equation"):
        kmatrix.unitarize(rep, ortho)


@pytest.mark.parametrize("in_place", [False, True], ids=["replaced", "in-place"])
def test_unitarize_rejects_a_partner_moved_to_another_square_class(in_place):
    # S(3) was solved with S-(2,3) in the class of S+(3,2); moved to another
    # class after the solve, by a new block or by a new value in the old
    # block, the pair no longer balances
    irrep, rep, sblocks, ortho = su11_pipeline(Fraction(7, 2), 8)
    block = rep.blocks["S-"][(2,), (3,)]
    if in_place:
        block[0][0] = _other_class(block[0][0])
    else:
        rep.blocks["S-"][(2,), (3,)] = [[_other_class(block[0][0])]]
    with pytest.raises(KMatrixError, match=r"norm factors do not solve the S equation"):
        kmatrix.unitarize(rep, ortho)


def test_exact_adjoint_check_compares_the_unitary_entries_exactly(monkeypatch):
    # the closing check on its own: with the per-block S check switched off,
    # a partner in another square class gives gamma(S-)[2,3] the core of
    # S-(2,3) and gamma(S+)[3,2] the core of S+(3,2)
    irrep, rep, sblocks, ortho = su11_pipeline(Fraction(7, 2), 8)
    rep.blocks["S-"][(2,), (3,)] = [[_other_class(rep.blocks["S-"][(2,), (3,)][0][0])]]
    monkeypatch.setattr(kmatrix, "_balanced", lambda *args: True)
    with pytest.raises(KMatrixError, match=r"gamma\(S\+\) is not the adjoint of gamma\(S-\)"):
        kmatrix.unitarize(rep, ortho)


def _same_grade_pair(rep, gen):
    """The first ``gen`` block between two sectors of one grade, and its partner's key."""
    row, col = next(key for key in rep.blocks[gen] if rep.grades[key[0]] == rep.grades[key[1]] and key[0] != key[1])
    return (gen, row, col), (rep.adjoints[gen], col, row)


def _adjoint_pair(algebra):
    """A fresh exact rep and the two block keys of one adjoint pair between positive-norm sectors.

    su(1,1)'s ``S+[3,2]``/``S-[2,3]`` sets S(3) in the recursion; u(3)'s
    ``C23``/``C32`` joins two sectors of one grade, so only the consistency
    check reads it.
    """
    if algebra == "su11":
        return su11.holomorphic_gamma_rep(su11.Su11Irrep(Fraction(7, 2), 8)), ("S+", (3,), (2,)), ("S-", (2,), (3,))
    rep = u3.holomorphic_gamma_rep(u3.U3HighestWeight(2, 1, 0), extra_grades=0)
    return (rep, *_same_grade_pair(rep, "C23"))


def _move(rep, key):
    gen, row, col = key
    rep.blocks[gen][row, col] = [[_other_class(rep.blocks[gen][row, col][0][0])]]


@pytest.mark.parametrize("side", [0, 1], ids=["block", "partner"])
@pytest.mark.parametrize("algebra", ["su11", "u3"])
def test_either_side_of_a_pair_moved_to_another_class_is_caught_in_the_recursion(algebra, side):
    rep, *pair = _adjoint_pair(algebra)
    _move(rep, pair[side])
    with pytest.raises(KMatrixError, match="S-matrix equations violated exactly"):
        kmatrix.solve_s_recursion(rep)


@pytest.mark.parametrize("side", [0, 1], ids=["block", "partner"])
@pytest.mark.parametrize("algebra", ["su11", "u3"])
def test_either_side_of_a_pair_moved_to_another_class_is_caught_in_unitarize(algebra, side):
    rep, *pair = _adjoint_pair(algebra)
    ortho = kmatrix.orthonormalize(kmatrix.solve_s_recursion(rep), exact=True)
    _, row, col = pair[0]
    assert ortho[row].n_positive and ortho[col].n_positive
    _move(rep, pair[side])
    with pytest.raises(KMatrixError, match="norm factors do not solve the S equation"):
        kmatrix.unitarize(rep, ortho)


def test_a_self_adjoint_diagonal_block_is_checked_once_in_each_stage(monkeypatch):
    # S0[4,4] is its own partner, so its equation S q == q S holds whatever
    # its value: moved to another class it must still reach the pair check,
    # once in the recursion and once in unitarize, with its new class
    irrep, rep, sblocks, ortho = su11_pipeline(Fraction(7, 2), 8)
    _move(rep, ("S0", (4,), (4,)))
    moved = rep.square_classes()["S0"][(4,), (4,)]
    assert moved[0] != 1
    seen = []
    balanced = kmatrix._balanced

    def spy(s_col, g, p, s_row):
        seen.append((g, p))
        return balanced(s_col, g, p, s_row)

    monkeypatch.setattr(kmatrix, "_balanced", spy)
    kmatrix.solve_s_recursion(rep)
    assert seen.count((moved, moved)) == 1
    assert len(seen) == len(rep.blocks["S0"]) + len(rep.blocks["S+"])  # one check per pair
    seen.clear()
    kmatrix.unitarize(rep, ortho)
    assert seen.count((moved, moved)) == 1
    assert len(seen) == len(rep.blocks["S0"]) + len(rep.blocks["S+"])
    monkeypatch.setattr(kmatrix, "_balanced", lambda s_col, g, p, s_row: g != moved and balanced(s_col, g, p, s_row))
    with pytest.raises(KMatrixError, match=r"exactly at S0 \(\(4,\), \(4,\)\)"):
        kmatrix.solve_s_recursion(rep)
    with pytest.raises(KMatrixError, match=r"norm factors do not solve the S equation at S0 \(\(4,\), \(4,\)\)"):
        kmatrix.unitarize(rep, ortho)


@pytest.mark.parametrize("stage", ["recursion", "unitarize"])
def test_a_block_whose_partner_is_absent_is_checked_against_zero(stage):
    # with C32[col, row] gone, C23[row, col] must be zero: S(col) q_g == 0 S(row)
    rep = u3.holomorphic_gamma_rep(u3.U3HighestWeight(2, 1, 0), extra_grades=0)
    (gen, row, col), (adj, *partner) = _same_grade_pair(rep, "C23")
    if stage == "recursion":
        del rep.blocks[adj][tuple(partner)]
        with pytest.raises(KMatrixError, match=rf"violated exactly at {gen}"):
            kmatrix.solve_s_recursion(rep)
    else:
        ortho = kmatrix.orthonormalize(kmatrix.solve_s_recursion(rep), exact=True)
        del rep.blocks[adj][tuple(partner)]
        with pytest.raises(KMatrixError, match=rf"norm factors do not solve the S equation at {gen}"):
            kmatrix.unitarize(rep, ortho)


@pytest.mark.parametrize(
    "build, in_recursion, in_unitarize",
    [
        (lambda: u3.holomorphic_gamma_rep(u3.U3HighestWeight(8, 4, 0)), 1805, 820),
        (lambda: su11.holomorphic_gamma_rep(su11.Su11Irrep(Fraction(7, 2), 1000)), 2001, 2001),
    ],
    ids=["u3-8,4,0", "su11-7/2-1000"],
)
def test_each_s_equation_is_checked_once_per_stage(monkeypatch, build, in_recursion, in_unitarize):
    # the recursion derives each S value unchecked, so each stage makes one
    # check per adjoint pair: pairs between every sector, then between the kept ones
    rep = build()
    calls = []
    balanced = kmatrix._balanced
    monkeypatch.setattr(kmatrix, "_balanced", lambda *args: calls.append(args) or balanced(*args))
    ortho = kmatrix.orthonormalize(kmatrix.solve_s_recursion(rep), exact=True)
    assert len(calls) == len(list(kmatrix._pairs(rep.adjoints, rep.blocks))) == in_recursion
    calls.clear()
    kmatrix.unitarize(rep, ortho)
    kept = {sec for sec, o in ortho.items() if o.n_positive}
    assert len(calls) == len(list(kmatrix._pairs(rep.adjoints, rep.square_classes(kept)))) == in_unitarize


def _float_same_grade_pair():
    """The grade-coarsened float {2,1,0} and its non-zero same-grade ``C23`` block, which only the closing check reads."""
    rep, _ = _by_grade(u3.holomorphic_gamma_rep(u3.U3HighestWeight(2, 1, 0), extra_grades=0))
    row, col = next(key for key, block in rep.blocks["C23"].items() if np.abs(block).max() > 0)
    assert row == col
    return rep, row


@pytest.mark.parametrize("change", ["block", "partner", "absent-partner"])
def test_float_pair_check_catches_either_side_whichever_comes_first(change):
    # C23[g, g] and its partner C32[g, g] are one equation, checked once: a
    # change to either side, or a missing partner, is caught, with the same
    # worst residual whether C23 or C32 comes first in blocks
    rep, _ = _float_same_grade_pair()
    assert set(kmatrix.solve_s_recursion(rep)) == set(rep.sectors)  # unchanged, it passes
    messages = []
    for first in ("C23", "C32"):
        rep, sec = _float_same_grade_pair()
        if change == "absent-partner":
            del rep.blocks["C32"][sec, sec]
        else:
            gen = "C23" if change == "block" else "C32"
            rep.blocks[gen][sec, sec] = rep.blocks[gen][sec, sec] * (1 + 1e-6)
        rep = kmatrix.GammaRep(rep.sectors, rep.grades, {first: rep.blocks[first], **rep.blocks}, rep.adjoints)
        assert next(iter(rep.blocks)) == first
        with pytest.raises(KMatrixError, match="S-matrix equations violated, residual") as err:
            kmatrix.solve_s_recursion(rep)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def _with_blocks(rep, convert):
    blocks = {gen: {key: [[convert(b[0][0])]] for key, b in bs.items()} for gen, bs in rep.blocks.items()}
    return kmatrix.GammaRep(rep.sectors, rep.grades, blocks, rep.adjoints, exact=True)


@pytest.mark.parametrize("lam, nmax", [(Fraction(7, 2), 40), (Fraction(1, 3), 40)])
def test_exact_induction_is_the_same_for_fraction_int_and_radical_blocks(lam, nmax):
    rep = su11.holomorphic_gamma_rep(su11.Su11Irrep(lam, nmax))
    assert all(type(b[0][0]) is Fraction for bs in rep.blocks.values() for b in bs.values())
    forms = [
        rep,
        _with_blocks(rep, lambda v: v.numerator if v.denominator == 1 else v),
        _with_blocks(rep, Radical.from_rational),
    ]
    assert any(type(b[0][0]) is int for bs in forms[1].blocks.values() for b in bs.values())
    results = []
    for form in forms:
        sblocks = kmatrix.solve_s_recursion(form)
        ortho = kmatrix.orthonormalize(sblocks, exact=True)
        basis, gammas = kmatrix.unitarize(form, ortho)
        results.append((
            {sec: sb.matrix for sec, sb in sblocks.items()},
            {sec: o.k_values for sec, o in ortho.items()},
            basis,
            {gen: m.entries for gen, m in gammas.items()},
        ))
    assert results[1] == results[0]
    assert results[2] == results[0]


def test_orthonormalize_rank_deficient_block():
    sb = {("x",): kmatrix.SBlock(np.array([[1.0, 1.0], [1.0, 1.0]]))}
    ortho = kmatrix.orthonormalize(sb)
    sec = ortho[("x",)]
    assert sec.k_values[0] == pytest.approx(np.sqrt(2.0))
    assert sec.k_values[1] == 0.0
    assert sec.zero_norm == 1


def test_orthonormalize_diagonal_input_is_identity():
    sb = {("d",): kmatrix.SBlock(np.diag([4.0, 1.0]))}
    sec = kmatrix.orthonormalize(sb)[("d",)]
    # descending eigenvalues, unitary a permutation of the identity
    assert sec.k_values == [2.0, 1.0]
    assert np.abs(np.asarray(sec.unitary, dtype=float) - np.eye(2)).max() == 0.0


def test_orthonormalize_rejects_negative_eigenvalue():
    sb = {("n",): kmatrix.SBlock(np.array([[-1.0]]))}
    with pytest.raises(KMatrixError):
        kmatrix.orthonormalize(sb)


def _by_grade(fine):
    """The exact one-dimensional-sector rep as a float rep with one sector per grade."""
    members = {}
    for sec in sorted(fine.sectors):
        members.setdefault(fine.grades[sec], []).append(sec)
    sectors = {(g,): len(secs) for g, secs in members.items()}
    blocks = {}
    for gen, bl in fine.blocks.items():
        coarse = {}
        for (row, col), m in bl.items():
            key = ((fine.grades[row],), (fine.grades[col],))
            block = coarse.setdefault(key, np.zeros((sectors[key[0]], sectors[key[1]])))
            block[members[key[0][0]].index(row), members[key[1][0]].index(col)] = float(m[0][0])
        blocks[gen] = coarse
    rep = kmatrix.GammaRep(sectors, {(g,): g for g in members}, blocks, dict(fine.adjoints), exact=False)
    return rep, members


def test_float_path_with_multidimensional_sectors():
    # group the {2,0,0} raw basis by grade only, so sectors are genuinely
    # multi-dimensional, and solve in float mode
    hw = u3.U3HighestWeight(2, 0, 0)
    rep, members = _by_grade(u3.holomorphic_gamma_rep(hw, extra_grades=0))
    sblocks = kmatrix.solve_s_recursion(rep)
    # the true S is diagonal with the norm-ratio products on the diagonal
    expected = {0: 1.0}
    for tj in range(2):
        expected[tj + 1] = expected[tj] * float(u3.k_ratio_sq(hw, tj, tj, tj + 1))
    for g, secs in members.items():
        s = np.asarray(sblocks[(g,)].matrix)
        diag_target = [expected[g] if sec[1] == g else 0.0 for sec in secs]
        assert np.abs(s - np.diag(diag_target)).max() < 1e-10


def test_float_solve_matches_exact_s_values():
    # the float solve on the grade-coarsened {4,2,0} (sectors up to dimension
    # 8, three of them at the lowest grade) reproduces the exact S values
    fine = u3.holomorphic_gamma_rep(u3.U3HighestWeight(4, 2, 0), extra_grades=0)
    exact = kmatrix.solve_s_recursion(fine)
    rep, members = _by_grade(fine)
    assert max(rep.sectors.values()) > 1
    sblocks = kmatrix.solve_s_recursion(rep)
    top = max(float(sb.matrix[0][0]) for sb in exact.values())
    for g, secs in members.items():
        want = np.diag([float(exact[sec].matrix[0][0]) for sec in secs])
        assert np.abs(sblocks[(g,)].matrix - want).max() <= 1e-10 * top


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
    with pytest.raises(KMatrixError, match=r"negative norm at sector \(3,\)"):
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
    assert all(isinstance(m, repcheck.SparseMatrix) for m in gammas.values())
    assert gammas["up"].to_dense()[1, 0] == pytest.approx(np.sqrt(2.0))
    assert gammas["down"].to_dense()[0, 1] == pytest.approx(np.sqrt(2.0))


def _grade_document(fine, c=1.0):
    """An exact rep as a user's JSON GammaRep, one sector per grade, each block times ``c**(grade(row) - grade(col))``.

    The factor is the similarity by ``c**grade``, which leaves the algebra and
    the unitary irrep unchanged but rescales S by ``c**(2 grade)``.
    """
    members = {}
    for sec in sorted(fine.sectors):
        members.setdefault(fine.grades[sec], []).append(sec)
    position = {sec: i for secs in members.values() for i, sec in enumerate(secs)}
    generators = {}
    for gen, blocks in fine.blocks.items():
        coarse = {}
        for (row, col), block in blocks.items():
            r, k = fine.grades[row], fine.grades[col]
            coarse.setdefault((r, k), []).append([position[row], position[col], float(block[0][0]) * c ** (r - k)])
        generators[gen] = {
            "adjoint": fine.adjoints[gen],
            "blocks": [{"row": [r], "col": [k], "entries": e} for (r, k), e in sorted(coarse.items())],
        }
    sectors = [{"key": [g], "dim": len(secs), "grade": g} for g, secs in sorted(members.items())]
    return {"sectors": sectors, "generators": generators}


@pytest.mark.parametrize("c", [8.0, 4.0, 2.0, 1.5, 1.0, 0.5, 0.25, 0.05, 0.01])
def test_float_ingestion_cuts_a_top_grade_of_rounding_noise(c):
    # u(3) {6,3,0} with one grade past the irrep: the top grade is wholly
    # zero-norm, and its solved S is rounding noise far below the scale its
    # constraints give but not below its own largest eigenvalue.  Scaling
    # the grades by c moves S by c**(2 grade), so at small c a genuine norm
    # of a high grade lies far below grade 0's: the cut must follow each
    # sector's own scale, not one shared by all.
    hw = u3.U3HighestWeight(6, 3, 0)
    doc = json.loads(json.dumps(_grade_document(u3.holomorphic_gamma_rep(hw, extra_grades=1), c)))
    rep = kmatrix.gamma_rep_from_json(doc)
    ortho = kmatrix.orthonormalize(kmatrix.solve_s_recursion(rep))
    basis, gammas = kmatrix.unitarize(rep, ortho)
    assert len(basis) == hw.dimension() == 64
    assert kmatrix.zero_norm_count(ortho) == rep.raw_dimension() - 64
    spec = repcheck.u3_spec()
    dense = {name: gammas[name].to_dense() for name in u3.GENERATOR_NAMES}
    assert repcheck.commutator_residual(spec, dense) <= 1e-10
    assert repcheck.hermiticity_residual(spec, dense) <= 1e-10
    # the grade blocks are rotated by a float eigenbasis: compare spectra
    reference = u3.assemble_generators(hw)
    for name in ("C11", "C22", "C33"):
        got = np.sort(np.linalg.eigvalsh(dense[name]))
        want = np.sort(np.diag(reference[name].to_dense()))
        assert np.abs(got - want).max() <= 1e-10


@pytest.mark.parametrize("c", [1.0, 4.0])
@pytest.mark.parametrize("block", [0, 3], ids=["grade-1", "grade-4"])
def test_float_ingestion_refuses_one_entry_changed_by_1e_8(c, block):
    # the sector scales that let a graded input pass do not let a wrong
    # entry through: C21 between grades block and block + 1, off by 1e-8
    hw = u3.U3HighestWeight(6, 3, 0)
    doc = _grade_document(u3.holomorphic_gamma_rep(hw, extra_grades=1), c)
    doc["generators"]["C21"]["blocks"][block]["entries"][0][2] *= 1 + 1e-8
    rep = kmatrix.gamma_rep_from_json(doc)
    with pytest.raises(KMatrixError):
        kmatrix.unitarize(rep, kmatrix.orthonormalize(kmatrix.solve_s_recursion(rep)))


def _two_sector_doc(entries, row=(1,)):
    return {
        "sectors": [{"key": [0], "dim": 1, "grade": 0}, {"key": [1], "dim": 1, "grade": 1}],
        "generators": {
            "up": {"adjoint": "down", "blocks": [{"row": list(row), "col": [0], "entries": entries}]},
            "down": {"adjoint": "up", "blocks": [{"row": [0], "col": [1], "entries": [[0, 0, 1.0]]}]},
        },
    }


def _doubled_block(doc):
    blocks = doc["generators"]["up"]["blocks"]
    blocks.append(dict(blocks[0]))
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (_two_sector_doc([[-1, 0, 2.0]]), r"entry \(-1, 0\) outside 1x1"),
        (_two_sector_doc([[1, 0, 2.0]]), r"entry \(1, 0\) outside 1x1"),
        (_two_sector_doc([[0, 0, 2.0], [0, 0, 3.0]]), r"duplicate entry \(0, 0\)"),
        (_two_sector_doc([[0, 0, 2.0]], row=(7,)), r"unknown sector \(7,\)"),
        (_doubled_block(_two_sector_doc([[0, 0, 2.0]])), "given twice"),
    ],
    ids=["negative-index", "out-of-range", "duplicate-entry", "unknown-sector", "duplicate-block"],
)
def test_json_ingestion_rejects_bad_blocks(doc, message):
    with pytest.raises(ValueError, match=r"up block \(\d,\) -> \(0,\): " + message):
        kmatrix.gamma_rep_from_json(doc)


def _sector_field(key, value):
    doc = _two_sector_doc([[0, 0, 2.0]])
    doc["sectors"][1][key] = value
    return doc


_NOT_AN_INDEX = r"up block \(1,\) -> \(0,\) has an entry index that is not an integer"
_NOT_FINITE = r"up block \(1,\) -> \(0,\) has the value .*, which is not a finite number"


@pytest.mark.parametrize(
    "doc, message",
    [
        (_two_sector_doc([[0.9, 0, 2.0]]), _NOT_AN_INDEX),
        (_two_sector_doc([["0", 0, 2.0]]), _NOT_AN_INDEX),
        (_sector_field("dim", 1.7), r"sector \(1,\) field 'dim' is 1.7, not an integer"),
        (_sector_field("dim", True), r"sector \(1,\) field 'dim' is True, not an integer"),
        (_sector_field("dim", 0), r"sector \(1,\) has dim 0, not a positive integer"),
        (_sector_field("dim", -1), r"sector \(1,\) has dim -1, not a positive integer"),
        (_sector_field("grade", 1.5), r"sector \(1,\) field 'grade' is 1.5, not an integer"),
        (_sector_field("grade", "1"), r"sector \(1,\) field 'grade' is '1', not an integer"),
        (_two_sector_doc([[0, 0, float("nan")]]), _NOT_FINITE),
        (_two_sector_doc([[0, 0, float("inf")]]), _NOT_FINITE),
        (_two_sector_doc([[0, 0, True]]), _NOT_FINITE),
        (_two_sector_doc([[0, 0, {"sign": 1, "radicand": "4"}]]), _NOT_FINITE),
    ],
    ids=[
        "fractional-index", "string-index", "fractional-dim", "bool-dim", "zero-dim", "negative-dim",
        "fractional-grade", "string-grade", "nan-value", "inf-value", "bool-value", "exact-value",
    ],
)
def test_json_ingestion_refuses_what_a_replay_refuses(doc, message):
    # each of these used to be truncated, coerced or kept, or raised TypeError
    with pytest.raises(ValueError, match=message):
        kmatrix.gamma_rep_from_json(doc)


def test_adjoint_pairing_validation():
    with pytest.raises(ValueError):
        kmatrix.GammaRep({("a",): 1}, {("a",): 0}, {"X": {}}, {"X": "Y"})
