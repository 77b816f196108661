"""Verification suite: structure-constant tables and residual functions."""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcs_irreps import repcheck, su3_so3, su11, u3
from vcs_irreps.opmatrix import OperatorMatrix
from vcs_irreps.radical import Radical, RadicalSum

import oracles


def defining_u3_matrices():
    out = {}
    for i in (1, 2, 3):
        for k in (1, 2, 3):
            m = np.zeros((3, 3))
            m[i - 1, k - 1] = 1.0
            out[f"C{i}{k}"] = m
    return out


def test_shipped_specs_validate():
    # construction runs antisymmetry + Jacobi, exactly
    assert len(repcheck.su11_spec().generators) == 3
    assert len(repcheck.u3_spec().brackets) == 81
    assert len(repcheck.su3_so3_spec().generators) == 8
    assert len(repcheck.su3_so3_spec().casimir) == 8


def test_jacobi_rejects_corrupt_table():
    with pytest.raises(ValueError):
        repcheck.AlgebraSpec(
            name="broken",
            generators=("S0", "S+", "S-"),
            brackets={
                ("S0", "S+"): ((1, "S+"),),
                ("S0", "S-"): ((1, "S-"),),  # flipped sign breaks Jacobi
                ("S-", "S+"): ((2, "S0"),),
            },
            hermiticity_pairs=(),
        )


def test_antisymmetry_rejects_a_reversed_bracket_of_the_wrong_sign():
    # su(3)'s [Q-1, Q0] = (3/2) sqrt(6) L-, listed again as [Q0, Q-1] with the
    # same sign: a radical coefficient that the exact sum must not cancel.
    spec = repcheck.su3_so3_spec()
    c32 = Radical.sqrt_of(6) * Fraction(3, 2)
    fields = dict(name="mutated", generators=spec.generators, hermiticity_pairs=spec.hermiticity_pairs)
    assert repcheck.AlgebraSpec(brackets={**spec.brackets, ("Q0", "Q-1"): ((-c32, "L-"),)}, **fields)
    with pytest.raises(ValueError, match=r"brackets for \((Q-1,Q0|Q0,Q-1)\) are not antisymmetric"):
        repcheck.AlgebraSpec(brackets={**spec.brackets, ("Q0", "Q-1"): ((c32, "L-"),)}, **fields)
    # nor does one in another square class: equal to it in floats, or with the same rational factor
    near = -Radical.sqrt_of(Fraction(27, 2) + Fraction(1, 10**20))
    assert float(near) == float(-c32)
    for other in (near, -Radical.sqrt_of(5) * Fraction(3, 2)):
        with pytest.raises(ValueError, match="not antisymmetric"):
            repcheck.AlgebraSpec(brackets={**spec.brackets, ("Q0", "Q-1"): ((other, "L-"),)}, **fields)


def test_antisymmetry_rejects_self_bracket():
    with pytest.raises(ValueError):
        repcheck.AlgebraSpec(
            name="broken",
            generators=("X",),
            brackets={("X", "X"): ((1, "X"),)},
            hermiticity_pairs=(),
        )


def test_commutator_residual_defining_matrices_is_zero():
    assert repcheck.commutator_residual(repcheck.u3_spec(), defining_u3_matrices()) == 0.0


def test_commutator_residual_detects_corruption():
    mats = defining_u3_matrices()
    mats["C12"] = mats["C12"].copy()
    mats["C12"][2, 0] = 0.3
    assert repcheck.commutator_residual(repcheck.u3_spec(), mats) > 1e-6


def test_commutator_residual_exact_path():
    gens = u3.assemble_generators(u3.U3HighestWeight(4, 2, 0))
    assert repcheck.commutator_residual(repcheck.u3_spec(), gens) == 0.0


def test_commutator_residual_skips_the_self_pairs(monkeypatch):
    pairs = []
    terms = repcheck._commutator_terms

    def counted(spec, forms, x, y):
        pairs.append((x, y))
        return terms(spec, forms, x, y)

    monkeypatch.setattr(repcheck, "_commutator_terms", counted)
    spec = repcheck.su3_so3_spec()
    gens = su3_so3.assemble_so3_generators(su3_so3.Su3Label(2, 1))
    assert repcheck.commutator_residual(spec, gens) < 1e-12
    assert len(pairs) == len(set(pairs)) == 28
    assert all(x != y for x, y in pairs)


def test_commutator_residual_requires_all_generators():
    with pytest.raises(ValueError):
        repcheck.commutator_residual(repcheck.su11_spec(), {"S0": np.eye(2)})


def test_residual_invariant_under_basis_permutation():
    gens = u3.assemble_generators(u3.U3HighestWeight(2, 1, 0))
    dense = {k: v.to_dense() for k, v in gens.items()}
    rng = np.random.default_rng(11)
    perm = rng.permutation(8)
    p = np.eye(8)[perm]
    permuted = {k: p @ v @ p.T for k, v in dense.items()}
    spec = repcheck.u3_spec()
    assert repcheck.commutator_residual(spec, permuted) == pytest.approx(
        repcheck.commutator_residual(spec, dense), abs=1e-14
    )
    assert repcheck.hermiticity_residual(spec, permuted) == pytest.approx(
        repcheck.hermiticity_residual(spec, dense), abs=1e-14
    )


def test_schur_constancy_reads_every_matrix_form_through_its_dense_array():
    gens = u3.assemble_generators(u3.U3HighestWeight(2, 1, 0))
    c11 = gens["C11"]
    want = repcheck.schur_constancy(c11.to_dense())
    as_operator = OperatorMatrix("C11", range(c11.dim), oracles.exact_entries(c11))
    for form in (c11, as_operator, repcheck.SparseMatrix.of(c11)):
        assert repcheck.schur_constancy(form) == want


def test_schur_constancy_examples():
    mean, dev = repcheck.schur_constancy(np.eye(4))
    assert (mean, dev) == (1.0, 0.0)
    irrep = su11.Su11Irrep(3, 8)
    cas = oracles.su11_casimir_matrix(irrep).to_dense()[:8, :8]
    mean, dev = repcheck.schur_constancy(cas)
    assert mean == pytest.approx(0.75)
    assert dev <= 1e-12
    rng = np.random.default_rng(3)
    noisy = rng.normal(size=(5, 5))
    _, dev = repcheck.schur_constancy(noisy)
    assert dev > 0.1


def test_spectrum_multiset_examples():
    assert oracles.spectrum_multiset(np.diag([2.0, 1.0, 2.0])) == [1.0, 2.0, 2.0]
    assert oracles.spectrum_multiset(np.zeros((3, 3))) == [0.0, 0.0, 0.0]
    # L^2 on {2,0,0} has eigenvalues 0 (x1) and 6 (x5), i.e. L in {0, 2}
    gens = u3.assemble_generators(u3.U3HighestWeight(2, 0, 0))
    l0, lp, lm = u3.angular_momentum_dense(gens)
    lsq = l0 @ l0 + (lp @ lm + lm @ lp) / 2
    spec = oracles.spectrum_multiset(lsq)
    assert spec == pytest.approx([0.0] + [6.0] * 5, abs=1e-9)


def test_hermiticity_residual_detects_flip():
    gens = {k: v.to_dense() for k, v in su11.generator_matrices(su11.Su11Irrep(2, 5)).items()}
    assert repcheck.hermiticity_residual(repcheck.su11_spec(), gens) == 0.0
    gens["S-"] = -gens["S-"]
    assert repcheck.hermiticity_residual(repcheck.su11_spec(), gens) > 0.1


def test_exact_residual_on_operator_matrices_with_radical_coeffs():
    # the su3-so3 table has sqrt(6) coefficients; exercise the exact path
    basis = (0, 1)
    zero = OperatorMatrix("z", basis)
    mats = {name: zero.copy(name) for name in repcheck.su3_so3_spec().generators}
    assert repcheck.commutator_residual(repcheck.su3_so3_spec(), mats) == 0.0


def _su11_case():
    irrep = su11.Su11Irrep(Fraction(7, 2), 12)
    lam = irrep.lam
    return repcheck.su11_spec(), su11.generator_matrices(irrep), lam**2 / 4 - lam / 2, irrep.n_max


def _u3_case():
    w = (Fraction(7, 2), Fraction(3, 2), Fraction(1, 2))
    expected = sum(wi * wi for wi in w) + sum(w[i] - w[j] for i in range(3) for j in range(i + 1, 3))
    return repcheck.u3_spec(), u3.assemble_generators(u3.U3HighestWeight(*w)), expected, None


def _su3_so3_case():
    lam, mu = 3, 2
    expected = 4 * (lam**2 + mu**2 + lam * mu + 3 * lam + 3 * mu)
    return repcheck.su3_so3_spec(), su3_so3.assemble_so3_generators(su3_so3.Su3Label(lam, mu)), expected, None


@pytest.mark.parametrize("case", [_su11_case, _u3_case, _su3_so3_case], ids=["su11", "u3", "su3-so3"])
def test_spec_casimir_gives_closed_form_eigenvalue(case):
    spec, gens, expected, interior = case()
    cas = oracles.casimir_matrix(spec, gens)[:interior, :interior]
    assert np.abs(cas - float(expected) * np.eye(cas.shape[0])).max() <= 1e-10 * (1 + abs(expected))


def test_standard_checks_on_su11_interior():
    irrep = su11.Su11Irrep(Fraction(7, 2), 10)
    gens = su11.generator_matrices(irrep)
    spec = repcheck.su11_spec()
    # the truncation boundary breaks [S-, S+] = 2 S0 in the last row/column only
    assert repcheck.commutator_residual(spec, gens) > 1e-3
    assert repcheck.commutator_residual(spec, gens, interior=irrep.n_max) == 0.0
    dense = {k: v.to_dense() for k, v in gens.items()}
    checks = repcheck.standard_checks(spec, dense, 1e-10, interior=irrep.n_max)
    assert [name for name, _, _ in checks] == [
        "commutators (interior)", "hermiticity", "casimir constancy (interior)",
    ]
    assert all(passed for _, _, passed in checks)
    names = [name for name, _, _ in repcheck.standard_checks(spec, dense, 1e-10)]
    assert names == ["commutators", "hermiticity", "casimir constancy"]


# -- the sparse float kernel against a naive dense reference ---------------------


def _dense_commutator_residual(spec, dense, interior=None):
    worst = 0.0
    for i, x in enumerate(spec.generators):
        for y in spec.generators[i:]:
            a, b = dense[x], dense[y]
            defect = a @ b - b @ a
            for c, z in spec.bracket(x, y):
                defect = defect - float(c) * dense[z]
            num = np.linalg.norm(defect[:interior, :interior])
            worst = max(worst, num / (1.0 + np.linalg.norm(a) * np.linalg.norm(b)))
    return worst


def _dense_hermiticity_residual(spec, dense):
    return max(
        np.linalg.norm(dense[a].conj().T - phase * dense[b]) / (1.0 + np.linalg.norm(dense[a]))
        for a, b, phase in spec.hermiticity_pairs
    )


def _dense_casimir(spec, dense):
    return sum(float(c) * (dense[x] @ dense[y]) for c, x, y in spec.casimir)


def _random_sparse(rng, spec, dim, complex_entries, zero_generator=False):
    out = {}
    for g in spec.generators:
        m = rng.normal(size=(dim, dim))
        if complex_entries:
            m = m + 1j * rng.normal(size=(dim, dim))
        out[g] = np.where(rng.random((dim, dim)) < 0.3, m, 0)
    if zero_generator:
        out[spec.generators[1]] = np.zeros((dim, dim))
    return out


def _assert_close(got, want):
    assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("spec", [repcheck.su11_spec(), repcheck.su3_so3_spec()], ids=["su11", "su3-so3"])
@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("zero_generator", [False, True], ids=["random", "zero-generator"])
@pytest.mark.parametrize("dim,interior", [(1, None), (1, 0), (6, None), (6, 4), (23, None), (23, 17)])
def test_sparse_kernel_matches_dense_reference(spec, complex_entries, zero_generator, dim, interior):
    rng = np.random.default_rng([dim, complex_entries, len(spec.generators)])
    dense = _random_sparse(rng, spec, dim, complex_entries, zero_generator)
    _assert_close(
        repcheck.commutator_residual(spec, dense, interior), _dense_commutator_residual(spec, dense, interior)
    )
    _assert_close(repcheck.hermiticity_residual(spec, dense), _dense_hermiticity_residual(spec, dense))
    cas, want = oracles.casimir_matrix(spec, dense), _dense_casimir(spec, dense)
    assert cas.shape == (dim, dim)
    assert np.linalg.norm(cas - want) <= 1e-14 * np.linalg.norm(want)


def test_float_operator_matrix_matches_its_dense_form():
    spec = repcheck.su3_so3_spec()
    rng = np.random.default_rng(5)
    dense = _random_sparse(rng, spec, 9, complex_entries=False, zero_generator=True)
    # a float generator is the SparseMatrix of its entries; an OperatorMatrix holds exact values only
    mats = {g: repcheck.SparseMatrix(9, *np.nonzero(m), m[np.nonzero(m)]) for g, m in dense.items()}
    assert not any(isinstance(m, OperatorMatrix) for m in mats.values())  # so the float path runs
    as_dense = {g: m.to_dense() for g, m in mats.items()}
    for interior in (None, 5):
        _assert_close(
            repcheck.commutator_residual(spec, mats, interior),
            repcheck.commutator_residual(spec, as_dense, interior),
        )
    _assert_close(repcheck.hermiticity_residual(spec, mats), repcheck.hermiticity_residual(spec, as_dense))
    want = oracles.casimir_matrix(spec, as_dense)
    assert np.linalg.norm(oracles.casimir_matrix(spec, mats) - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("value", [0.5, np.float64(0.5), 0.0], ids=["float", "np.float64", "float-zero"])
def test_operator_matrix_refuses_a_float(value):
    with pytest.raises(TypeError, match=r"X entry \(0, 1\) is a (float|float64), not an exact value"):
        OperatorMatrix("X", range(2), {(0, 1): value})
    mat = OperatorMatrix("X", range(2), {(0, 1): Radical.sqrt_of(2)})
    with pytest.raises(TypeError):
        mat[0, 1] = value
    assert mat.entries == {(0, 1): Radical.sqrt_of(2)}


def test_operator_matrix_refuses_an_entry_dict_as_setitem_does():
    # the whole dict is checked at once, and the first bad entry names itself
    entries = {(0, 1): Fraction(1, 2), (2, 0): Radical.sqrt_of(3), (0, 5): 1, (7, 7): 1}
    with pytest.raises(IndexError, match=r"^entry \(2, 0\) outside 2x2 matrix$"):
        OperatorMatrix("X", range(2), entries)
    entries = {(0, 1): 1, (1, 0): 0.25, (1, 1): "1"}
    with pytest.raises(TypeError, match=r"^X entry \(1, 0\) is a float, not an exact value$"):
        OperatorMatrix("X", range(2), entries)
    zeros = {(0, 0): 0, (0, 1): Fraction(0), (1, 0): Radical.zero(), (1, 1): Radical.sqrt_of(2)}
    mat = OperatorMatrix("X", range(2), zeros)
    assert mat.entries == {(1, 1): Radical.sqrt_of(2)}
    assert len(zeros) == 4  # the caller's dict is left as it was
    assert OperatorMatrix("X", range(2), {(0, 1): True}).entries == {(0, 1): True}  # an int subclass, as __setitem__ takes it


# -- the Hermiticity measure on sorted coordinates against the dense reference ----


def _u3_float(weight, phased):
    """The u(3) generators as ``gen u3 --mode float`` writes them (``float`` of each exact entry).

    ``phased`` conjugates them by a diagonal unitary, ``P^dag C P``: still a
    Hermitian-paired set, with complex entries whose pairs agree only to rounding.
    """
    mats = {g: repcheck.SparseMatrix.of(m) for g, m in u3.assemble_generators(u3.U3HighestWeight(*weight)).items()}
    if not phased:
        return mats
    dim = next(iter(mats.values())).dim
    p = np.exp(1j * np.random.default_rng(7).uniform(0, 2 * np.pi, dim))
    return {g: repcheck.SparseMatrix(dim, m.rows, m.cols, m.vals * p[m.rows].conj() * p[m.cols]) for g, m in mats.items()}


@pytest.mark.parametrize("weight", [(4, 2, 0), (Fraction(7, 3), Fraction(4, 3), Fraction(1, 3))], ids=["4-2-0", "7/3-4/3-1/3"])
@pytest.mark.parametrize("phased", [False, True], ids=["real", "complex"])
def test_hermiticity_on_u3_float_matrices_matches_the_dense_reference(weight, phased):
    spec, mats = repcheck.u3_spec(), _u3_float(weight, phased)
    assert all(np.iscomplexobj(m.vals) == phased for m in mats.values())
    got = repcheck.hermiticity_residual(spec, mats)
    want = _dense_hermiticity_residual(spec, {g: m.to_dense() for g, m in mats.items()})
    if phased:
        assert 0 < want < 1e-14
        _assert_close(got, want)
    else:
        assert got == want == 0.0  # float() of an exact pair is one value on both sides


def _su3_so3_dense(lam, mu):
    return {g: m.to_dense() for g, m in su3_so3.assemble_so3_generators(su3_so3.Su3Label(lam, mu)).items()}


def _one_sided(dense):
    # an entry of Q2 whose partner in Q-2 (and its own place) is empty
    r, c = np.argwhere((dense["Q2"] == 0) & (dense["Q-2"].T == 0))[0]
    dense["Q2"][r, c] = 0.25


def _flipped_sign(dense):
    # one entry of a phase -1 pair, Q1^dag = -Q-1
    r, c = np.argwhere(dense["Q1"])[3]
    dense["Q1"][r, c] *= -1


def _wrong_phase(dense):
    # Q-1 replaced by Q1^dag: the pair holds with phase +1, not the declared -1
    dense["Q-1"] = -dense["Q-1"]


@pytest.mark.parametrize("mutate", [_one_sided, _flipped_sign, _wrong_phase], ids=["one-sided", "flipped-sign", "wrong-phase"])
def test_hermiticity_mutations_match_the_dense_reference(mutate):
    spec, dense = repcheck.su3_so3_spec(), _su3_so3_dense(3, 2)
    before = repcheck.hermiticity_residual(spec, dense)
    _assert_close(before, _dense_hermiticity_residual(spec, dense))
    mutate(dense)
    got = repcheck.hermiticity_residual(spec, dense)
    _assert_close(got, _dense_hermiticity_residual(spec, dense))
    assert got > 1e-3 > 1e6 * before


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_exactly_hermitian_pairs_read_exactly_zero(complex_entries):
    # A^dag is A's entries conjugated and transposed, exactly, and -x is exact,
    # so every declared pair of su3-so3, phase -1 included, holds bit for bit.
    rng = np.random.default_rng(9)
    dim = 14
    a = _random_sparse(rng, repcheck.su3_so3_spec(), dim, complex_entries)
    h = a["L0"] + a["L0"].conj().T  # x + conj(y) == conj(y) + x, exactly
    mats = {"L0": h, "L+": a["L+"], "L-": a["L+"].conj().T, "Q0": a["Q0"] + a["Q0"].conj().T}
    for n in (1, 2):
        mats[f"Q{n}"] = a[f"Q{n}"]
        mats[f"Q{-n}"] = (-1) ** n * a[f"Q{n}"].conj().T
    spec = repcheck.su3_so3_spec()
    assert repcheck.hermiticity_residual(spec, mats) == 0.0
    assert _dense_hermiticity_residual(spec, mats) == 0.0
    r, c = np.argwhere(mats["Q-1"])[0]
    mats["Q-1"][r, c] *= 1 + 2**-52
    assert 0 < repcheck.hermiticity_residual(spec, mats) < 1e-15


def _su11_tiles(a, b, diagonal):
    """The su(1,1) forms with ``S+ = a``, ``S- = b`` and ``S0`` the sum with ``diagonal`` set, and that ``S0``.

    ``S0`` is a weight generator that is not diagonal, so only its diagonal
    groups the states into tiles.
    """
    s0 = a + b
    np.fill_diagonal(s0, diagonal)
    forms = repcheck._forms(repcheck.su11_spec(), {"S0": s0, "S+": a, "S-": b})
    assert all(isinstance(f, repcheck.TiledMatrix) for f in forms.values())
    return forms, s0


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    dim=st.integers(0, 12),
    cut=st.integers(0, 13),
    density=st.sampled_from((0.0, 0.1, 0.5, 1.0)),
    complex_entries=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_linear_sum_norm_matches_the_dense_sum(dim, cut, density, complex_entries, seed):
    # All terms linear, as in Hermiticity's ``A^dag - phase B``, on tiles of distinct diagonal values.
    rng = np.random.default_rng(seed)
    dense = []
    for _ in range(2):
        m = rng.normal(size=(dim, dim)) + (1j * rng.normal(size=(dim, dim)) if complex_entries else 0)
        dense.append(np.where(rng.random((dim, dim)) < density, m, 0))
    forms, _ = _su11_tiles(*dense, rng.permutation(dim))
    a, b = forms["S+"], forms["S-"]
    terms = [(1, a.adjoint(), None), (-1, b, None), (Fraction(1, 3), a, None)]
    full = dense[0].conj().T - dense[1] + dense[0] / 3
    interior = None if cut > dim else cut
    want = np.linalg.norm(full[:interior, :interior])
    got = repcheck.TiledMatrix.sum(dim, terms).norm(interior)
    assert abs(got - want) <= 1e-14 * want


def _dense_deviation(m):
    """Largest deviation of a dense square matrix from its mean diagonal value times I."""
    if not len(m):
        return 0.0
    return float(np.abs(m - float(np.trace(m).real) / len(m) * np.eye(len(m))).max())


@pytest.mark.parametrize("rows", [1, 3], ids=["1-row blocks", "3-row blocks"])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 12),
    cut=st.integers(0, 12),
    classes=st.integers(1, 12),
    density=st.sampled_from((0.0, 0.05, 0.2, 0.5)),
    complex_entries=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(dim=10, cut=7, classes=10, density=0.2, complex_entries=True, seed=1)
@example(dim=10, cut=0, classes=3, density=0.2, complex_entries=False, seed=2)
def test_row_blocks_match_the_dense_sum(rows, dim, cut, classes, density, complex_entries, seed):
    # A tile of k states holds k rows of the sum.  The diagonal drawn from
    # ``classes`` values partitions the states in any way, and a tile takes
    # at most ``rows`` states unless one class is larger; ``cut`` > ``dim``
    # measures the whole sum.
    rng = np.random.default_rng(seed)
    dense = []
    for _ in range(2):
        m = rng.normal(size=(dim, dim))
        if complex_entries:
            m = m + 1j * rng.normal(size=(dim, dim))
        dense.append(np.where(rng.random((dim, dim)) < density, m, 0))
    diagonal = rng.integers(0, classes, dim)
    with mock.patch.object(repcheck, "_TILE_STATES", rows):
        forms, s0 = _su11_tiles(*dense, diagonal)
    a, b, c = forms["S+"], forms["S-"], forms["S0"]
    index = [t.tolist() for t in a.index]
    assert sorted(sum(index, [])) == list(range(dim))
    assert all(len(t) <= rows or len(set(diagonal[t])) == 1 for t in index)
    terms = [(1.5, a, b), (-2, b, a), (Fraction(1, 3), c, None), (1, a.adjoint(), None)]
    full = 1.5 * dense[0] @ dense[1] - 2 * dense[1] @ dense[0] + s0 / 3 + dense[0].conj().T
    interior = None if cut > dim else cut
    want = full[:interior, :interior]
    total = repcheck.TiledMatrix.sum(dim, terms)
    size = max(1.0, np.abs(full).max(initial=0.0))
    assert np.abs(oracles.tile_sum_dense(total) - full).max(initial=0.0) <= 1e-12 * size
    assert abs(total.norm(interior) - np.linalg.norm(want)) <= 1e-12 * np.linalg.norm(want)
    assert abs(total.deviation(interior) - _dense_deviation(want)) <= 1e-12 * _dense_deviation(want)


# -- the exact kernel against sympy and against OperatorMatrix arithmetic --------

# Radicands with square factors (8, 12, 18, 50), so the kernel has to reduce them.
_RADICANDS = (1, 2, 3, 5, 8, 12, 18, 50)


def _random_entry(rng):
    """A random exact value (``int``, ``Fraction``, ``Radical`` or ``RadicalSum``) and its ``(q, k)`` terms."""

    def q():
        return Fraction(rng.choice((-7, -2, -1, 1, 3, 4)), rng.choice((1, 2, 3, 4, 9, 10)))

    kind = rng.choice(("int", "fraction", "radical", "sum"))
    if kind == "int":
        n = rng.choice((-3, -1, 1, 2, 5))
        return n, [(Fraction(n), 1)]
    if kind == "fraction":
        f = q()
        return f, [(f, 1)]
    terms = [(q(), rng.choice(_RADICANDS)) for _ in range(1 if kind == "radical" else 2)]
    values = [Radical.sqrt_of(k) * c for c, k in terms]
    return values[0] if kind == "radical" else RadicalSum.from_value(values[0]) + values[1], terms


def _random_exact(rng, spec, dim, zero_generator=True):
    """Random exact matrices, generator 1 all zero if asked, and each entry's ``(q, k)`` terms."""
    mats, terms = {}, {}
    for n, g in enumerate(spec.generators):
        drawn = {}
        if not (zero_generator and n == 1):
            drawn = {(r, c): _random_entry(rng) for r in range(dim) for c in range(dim) if rng.random() < 0.5}
        mats[g] = OperatorMatrix(g, range(dim), {key: value for key, (value, _) in drawn.items()})
        terms[g] = {key: t for key, (_, t) in drawn.items()}
    return mats, terms


def _sympy_value(value):
    if isinstance(value, Radical):
        return value.sign * sympy.sqrt(sympy.Rational(value.radicand.numerator, value.radicand.denominator))
    return sympy.Rational(Fraction(value).numerator, Fraction(value).denominator)


def _sympy_matrix(parts, dim):
    m = sympy.zeros(dim, dim)
    for (r, c), pairs in parts.items():
        m[r, c] = sum(sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(sympy.Rational(k)) for q, k in pairs)
    return m


def _sympy_classes(expr) -> dict[int, Fraction]:
    """An expanded ``sum q sqrt(k)`` as ``{square-free k: q}``."""
    out = {}
    for root, q in sympy.expand(expr).as_coefficients_dict().items():
        if q:
            out[int(root**2)] = Fraction(int(sympy.numer(q)), int(sympy.denom(q)))
    return out


def _kernel_classes(total, dim) -> dict[tuple[int, int], dict[int, Fraction]]:
    out: dict = {}
    for flat, core, num in zip(total.flat.tolist(), total.cores.tolist(), total.nums.tolist()):
        if num:
            out.setdefault(divmod(flat, dim), {})[core] = Fraction(num, total.den)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_exact_form_keeps_each_entry_float_and_the_norm_bits(seed):
    # Entries of one and of two square classes: the dense and sparse floats and
    # the norm are the OperatorMatrix's, bit for bit.
    mats, _ = _random_exact(random.Random(seed), repcheck.su11_spec(), 7, zero_generator=False)
    for m in mats.values():
        exact = repcheck.ExactMatrix.of(m)
        assert exact.norm.hex() == oracles.frobenius(m).hex()
        assert exact.to_dense().tobytes() == m.to_dense().tobytes()
        mine, theirs = repcheck.SparseMatrix.of(exact), repcheck.SparseMatrix.of(m)
        assert (mine.rows.tolist(), mine.cols.tolist()) == (theirs.rows.tolist(), theirs.cols.tolist())
        assert mine.vals.tobytes() == theirs.vals.tobytes()
        assert exact.adjoint().to_dense().tobytes() == m.to_dense().T.tobytes()


def test_exact_form_of_an_entry_too_large_for_a_float():
    m = OperatorMatrix("X", range(2), {(0, 0): Fraction(10**400), (1, 0): Radical.sqrt_of(2)})
    exact = repcheck.ExactMatrix.of(m)
    assert exact.vals is None and exact.norm == math.inf
    for convert in (exact.to_dense, lambda: repcheck.SparseMatrix.of(exact), m.to_dense):
        with pytest.raises(OverflowError):
            convert()


@pytest.mark.parametrize("spec,dim", [(repcheck.su11_spec(), 6), (repcheck.su3_so3_spec(), 5)], ids=["su11", "su3-so3"])
@pytest.mark.parametrize("seed", [0, 1])
def test_exact_kernel_defect_matches_sympy(spec, dim, seed):
    mats, parts = _random_exact(random.Random(seed), spec, dim)
    forms = {g: repcheck.ExactMatrix.of(m) for g, m in mats.items()}
    sym = {g: _sympy_matrix(parts[g], dim) for g in spec.generators}
    for i, x in enumerate(spec.generators):
        for y in spec.generators[i:]:
            want = sym[x] * sym[y] - sym[y] * sym[x]
            for c, z in spec.bracket(x, y):
                want -= _sympy_value(c) * sym[z]
            defect = repcheck.ExactMatrix.sum(dim, repcheck._commutator_terms(spec, forms, x, y))
            got = _kernel_classes(defect, dim)
            for r in range(dim):
                for col in range(dim):
                    assert got.get((r, col), {}) == _sympy_classes(want[r, col]), (x, y, r, col)


def _reference_checks(spec, mats, interior):
    """Commutator and Casimir residuals, and per-pair Hermiticity residuals, from OperatorMatrix arithmetic."""

    def norm(m, block=None):
        kept = {k: v for k, v in m.entries.items() if block is None or max(k) < block}
        return oracles.frobenius(OperatorMatrix("d", m.basis, kept))

    comm = 0.0
    for i, x in enumerate(spec.generators):
        for y in spec.generators[i:]:
            defect = (mats[x] @ mats[y]) - (mats[y] @ mats[x])
            for c, z in spec.bracket(x, y):
                defect = defect - mats[z].scale(c)
            comm = max(comm, norm(defect, interior) / (1.0 + norm(mats[x]) * norm(mats[y])))
    herm = [
        norm(mats[a].dagger() - mats[b].scale(phase)) / (1.0 + norm(mats[a]))
        for a, b, phase in spec.hermiticity_pairs
    ]
    casimir = OperatorMatrix("cas", next(iter(mats.values())).basis)
    for c, x, y in spec.casimir:
        casimir = casimir + (mats[x] @ mats[y]).scale(c)
    dev = _dense_deviation(casimir.to_dense()[:interior, :interior])
    scale = 1.0 + sum(abs(float(c)) * norm(mats[x]) * norm(mats[y]) for c, x, y in spec.casimir)
    return comm, herm, dev / scale


def _assert_rel(got, want, rel=1e-14):
    assert want > 0
    assert abs(got - want) <= rel * want


@pytest.mark.parametrize("spec", [repcheck.u3_spec(), repcheck.su3_so3_spec()], ids=["u3", "su3-so3"])
@pytest.mark.parametrize("dim,interior", [(4, None), (6, None), (6, 4)])
def test_exact_kernel_matches_operator_matrix_reference(spec, dim, interior):
    mats, _ = _random_exact(random.Random(dim), spec, dim, zero_generator=False)
    assert all(isinstance(m, OperatorMatrix) for m in mats.values())  # so the exact kernel runs
    comm, herm, dev = _reference_checks(spec, mats, interior)
    checks = repcheck.standard_checks(spec, mats, 1e-10, interior)
    for (_, got, _), want in zip(checks, (comm, max(herm), dev)):
        _assert_rel(got, want)
    _assert_rel(repcheck.commutator_residual(spec, mats, interior), comm)
    for pair, want in zip(spec.hermiticity_pairs, herm):
        _assert_rel(repcheck.hermiticity_residual(dataclasses.replace(spec, hermiticity_pairs=(pair,)), mats), want)


def test_exact_checks_see_a_perturbation_floats_cannot():
    spec = repcheck.u3_spec()
    gens = u3.assemble_generators(u3.U3HighestWeight(4, 2, 0))
    assert [r for _, r, _ in repcheck.standard_checks(spec, gens, 1e-10)] == [0.0, 0.0, 0.0]
    c21 = OperatorMatrix("C21", range(gens["C21"].dim), oracles.exact_entries(gens["C21"]))
    key = min(c21.entries)
    bent = dict(gens, C21=c21.copy())
    bent["C21"][key] = c21[key] * (1 + Fraction(1, 10**30))
    assert bent["C21"].to_dense().tolist() == gens["C21"].to_dense().tolist()
    residual = repcheck.commutator_residual(spec, bent)
    assert 0.0 < residual < 1e-25


def test_exact_checks_report_a_defect_that_cancels_across_square_classes():
    # sqrt(10/3 (1 + 1e-30)) and sqrt(10/3) lie in different square classes,
    # so each defect entry is a sum over classes that cancels to about 1e-30;
    # summed in floats it reads 0.0 or rounding noise.
    spec = repcheck.u3_spec()
    gens = u3.assemble_generators(u3.U3HighestWeight(4, 2, 0))
    c21 = OperatorMatrix("C21", range(gens["C21"].dim), oracles.exact_entries(gens["C21"]))
    assert c21[3, 0] == -Radical.sqrt_of(Fraction(10, 3))
    bent = dict(gens, C21=c21.copy())
    bent["C21"][3, 0] = Radical(-1, Fraction(10, 3) * (1 + Fraction(1, 10**30)))
    checks = repcheck.standard_checks(spec, bent, 0.0)
    assert [name for name, _, _ in checks] == ["commutators", "hermiticity", "casimir constancy"]
    assert all(residual > 0.0 and not passed for _, residual, passed in checks)
    # The worst Hermiticity pair differs in that one entry only.
    defect = sympy.sqrt(sympy.Rational(10, 3)) * (sympy.sqrt(1 + sympy.Rational(1, 10**30)) - 1)
    want = float(defect.evalf(40)) / (1.0 + gens["C12"].norm)
    assert checks[1][1] == pytest.approx(want, rel=1e-12)


# -- the array kernel against the loop kernel it replaced -----------------------

# Square-free cores: products of distinct primes, small, or from 14 to 20 of
# these (about 1.3e16 to 5.6e26, so on both sides of 2**63).
_CORE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
_BIG_CORE = math.prod(_CORE_PRIMES)
_core = st.one_of(
    st.sampled_from((1, 2, 3, 5, 6, 10, 15, 30)),
    st.lists(st.sampled_from(_CORE_PRIMES), min_size=14, unique=True).map(math.prod),
)
_num = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)).filter(bool)
_KERNEL_DIM = 4
_triples = st.lists(
    st.tuples(*(st.integers(0, _KERNEL_DIM - 1),) * 2, _core, _num, st.sampled_from((1, 2, 3, 7))), max_size=12
)
# The coefficients of su(3)'s bracket and Casimir tables, radicals among them.
_SU3_COEFFS = tuple(
    [c for terms in repcheck.su3_so3_spec().brackets.values() for c, _ in terms]
    + [c for c, _, _ in repcheck.su3_so3_spec().casimir]
)
# Inputs that fit int64 but whose product does not: 2**40 * 2**41 * gcd(6, 10).
_OVERFLOWING = ([(0, 1, 6, 2**40, 1)], [(1, 2, 10, 2**41, 1), (1, 0, 3, -(2**41), 1)])


def _exact_from(triples) -> repcheck.ExactMatrix:
    """The exact form of ``sum num/den sqrt(core)`` at each ``(row, col)`` of the ``(row, col, core, num, den)`` triples."""
    entries: dict = {}
    for r, c, core, num, den in triples:
        classes = entries.setdefault((r, c), {})
        classes[core] = classes.get(core, 0) + Fraction(num, den)
    values = {key: RadicalSum(classes) for key, classes in entries.items()}
    return repcheck.ExactMatrix.of(OperatorMatrix("m", range(_KERNEL_DIM), values))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(a=_triples, b=_triples, coeffs=st.lists(st.sampled_from(_SU3_COEFFS), min_size=4, max_size=4))
@example(a=[(0, 1, 2, 3, 1), (1, 1, 6, -1, 2)], b=[(1, 0, 3, 1, 1), (0, 0, 1, 5, 7)], coeffs=[1, -1, 3, 2])
@example(a=_OVERFLOWING[0], b=_OVERFLOWING[1], coeffs=[1, -1, Fraction(3, 2), 1])
@example(a=[(0, 0, _BIG_CORE, 2**70, 3)], b=[(0, 0, _BIG_CORE // 2, -(2**64), 1)], coeffs=[1, -1, 1, -1])
def test_array_kernel_matches_the_loop_kernel(a, b, coeffs):
    a, b = _exact_from(a), _exact_from(b)
    terms = [(coeffs[0], a, b), (coeffs[1], b, a), (coeffs[2], a, None), (coeffs[3], b.adjoint(), None)]
    total = repcheck.ExactMatrix.sum(_KERNEL_DIM, terms)
    den, acc = oracles.exact_sum_reference(_KERNEL_DIM, terms)
    got = {
        (flat, core): Fraction(num, total.den)
        for flat, core, num in zip(total.flat.tolist(), total.cores.tolist(), total.nums.tolist())
    }
    assert len(got) == total.flat.size and all(got.values())  # each (entry, core) once, never a zero
    assert got == {key: Fraction(num, den) for key, num in acc.items() if num}


def test_array_kernel_leaves_int64_where_the_bound_says_so():
    small = _exact_from([(0, 1, 6, 3, 1)])
    assert repcheck.ExactMatrix.sum(_KERNEL_DIM, [(1, small, small.adjoint())]).nums.dtype == np.int64
    a, b = (_exact_from(t) for t in _OVERFLOWING)
    assert a.nums.dtype == b.nums.dtype == np.int64
    total = repcheck.ExactMatrix.sum(_KERNEL_DIM, [(1, a, b)])
    assert total.nums.dtype == object
    assert sorted(zip(total.flat.tolist(), total.cores.tolist(), total.nums.tolist())) == [
        (0, 2, -(2**81) * 3),  # sqrt(6) sqrt(3) = 3 sqrt(2)
        (2, 15, 2**81 * 2),  # sqrt(6) sqrt(10) = 2 sqrt(15)
    ]


def test_exact_entry_with_a_core_not_square_free_evaluates_to_zero():
    # 10007 and 10009 are primes above the trial-division bound.
    # squarefree_decompose splits 10007**2 * 10009, but an entry built by hand
    # can still hold it as a core: this one is
    # 10007 sqrt(10009) - 10007 sqrt(10009) = 0 in two "classes".
    assert repcheck._value({10009: -10007, 10007**2 * 10009: 1}, 3) == 0.0


@pytest.mark.parametrize("lam,nmax", [(Fraction(1, 3), 40), (Fraction(2, 7), 10)])
def test_exact_su11_checks_are_exactly_zero_on_the_interior(lam, nmax):
    # At (2/7, 10) a float Schur test of even the exactly summed Casimir reads
    # about 1e-17 (its mean is a float trace over n), so only an exact
    # constancy test on the interior gives 0.
    irrep = su11.Su11Irrep(lam, nmax)
    checks = repcheck.standard_checks(repcheck.su11_spec(), su11.generator_matrices(irrep), 0.0, irrep.n_max)
    assert checks == [
        ("commutators (interior)", 0.0, True),
        ("hermiticity", 0.0, True),
        ("casimir constancy (interior)", 0.0, True),
    ]


# -- weight tiles against the dense references ------------------------------------


def test_weight_generators_of_the_shipped_specs():
    assert repcheck._weight_generators(repcheck.su11_spec()) == ("S0",)
    assert repcheck._weight_generators(repcheck.u3_spec()) == ("C11", "C22", "C33")
    assert repcheck._weight_generators(repcheck.su3_so3_spec()) == ("L0",)


def _shifts(spec):
    """Each generator's weight shift: ``[H, X] = shift_H X`` for every weight generator ``H``."""
    weights = repcheck._weight_generators(spec)
    return {
        x: np.array([sum(float(c) for c, _ in spec.bracket(h, x)) for h in weights]) for x in spec.generators
    }


def _graded(rng, spec, dim, complex_entries, density=0.6):
    """Random matrices on states of repeated integer weights: each generator moves them by its shift.

    The weight generators are the diagonal matrices of the weights, and every
    other generator has random entries only where the weights differ by its shift.
    """
    names = repcheck._weight_generators(spec)
    weights = rng.integers(-2, 3, size=(dim, len(names)))
    diffs = weights[:, None, :] - weights[None, :, :]
    out = {}
    for g, shift in _shifts(spec).items():
        if g in names:
            out[g] = np.diag(weights[:, names.index(g)].astype(float))
            continue
        m = rng.normal(size=(dim, dim))
        if complex_entries:
            m = m + 1j * rng.normal(size=(dim, dim))
        out[g] = np.where((diffs == shift).all(axis=2) & (rng.random((dim, dim)) < density), m, 0)
    return out, weights


def _assert_matches_dense(spec, dense, interior):
    forms = repcheck._forms(spec, dense)
    comm = repcheck.commutator_residual(spec, forms, interior)
    _assert_close(comm, _dense_commutator_residual(spec, dense, interior))
    _assert_close(repcheck.hermiticity_residual(spec, forms), _dense_hermiticity_residual(spec, dense))
    scale = 1.0 + sum(abs(float(c)) * np.linalg.norm(dense[x]) * np.linalg.norm(dense[y]) for c, x, y in spec.casimir)
    want = _dense_deviation(_dense_casimir(spec, dense)[:interior, :interior]) / scale
    assert abs(repcheck.casimir_residual(spec, forms, interior) - want) <= 1e-12 * want
    return forms


_SPECS = [repcheck.su11_spec(), repcheck.u3_spec(), repcheck.su3_so3_spec()]


@pytest.mark.parametrize("spec", _SPECS, ids=["su11", "u3", "su3-so3"])
@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dim,interior", [(1, None), (9, None), (9, 5), (47, None), (47, 30)])
def test_weight_tiles_match_the_dense_reference(spec, complex_entries, dim, interior):
    rng = np.random.default_rng([dim, complex_entries, len(spec.generators)])
    dense, _ = _graded(rng, spec, dim, complex_entries)
    forms = _assert_matches_dense(spec, dense, interior)
    assert all(isinstance(f, repcheck.TiledMatrix) for f in forms.values())


@pytest.mark.parametrize("bound", [1, 3, 32])
def test_weight_tiles_hold_whole_classes_within_the_bound(bound):
    spec = repcheck.su3_so3_spec()
    dense, weights = _graded(np.random.default_rng(bound), spec, 60, complex_entries=True)
    with mock.patch.object(repcheck, "_TILE_STATES", bound):
        forms = _assert_matches_dense(spec, dense, 41)
    index = forms["L0"].index
    assert sorted(np.concatenate(index).tolist()) == list(range(60))
    seen = [weights[t, 0].tolist() for t in index]
    order = [w for tile in seen for w in tile]
    assert order == sorted(order)  # tiles run through the weights in sorted order
    for tile, nxt in zip(seen, seen[1:]):
        assert tile[-1] != nxt[0]  # no class is split between tiles
        assert len(tile) + nxt.count(nxt[0]) > bound  # the next class did not fit
    assert all(len(tile) <= bound or len(set(tile)) == 1 for tile in seen)


def test_an_off_grade_entry_is_measured_on_tiles():
    spec = repcheck.su3_so3_spec()
    dense, weights = _graded(np.random.default_rng(4), spec, 30, complex_entries=False)
    before = repcheck.commutator_residual(spec, dense)
    r, c = np.argwhere(weights[:, None, 0] - weights[None, :, 0] == 1)[0]
    assert dense["Q2"][r, c] == 0
    dense["Q2"][r, c] = 0.5  # Q2 moves the weight by 2, not 1
    forms = _assert_matches_dense(spec, dense, None)
    assert isinstance(forms["Q2"], repcheck.TiledMatrix)
    assert repcheck.commutator_residual(spec, forms) != before


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_exactly_hermitian_pairs_read_exactly_zero_on_tiles(complex_entries):
    spec = repcheck.su3_so3_spec()
    a, _ = _graded(np.random.default_rng(9), spec, 40, complex_entries)
    mats = {"L0": a["L0"], "L+": a["L+"], "L-": a["L+"].conj().T, "Q0": a["Q0"] + a["Q0"].conj().T}
    for n in (1, 2):
        mats[f"Q{n}"] = a[f"Q{n}"]
        mats[f"Q{-n}"] = (-1) ** n * a[f"Q{n}"].conj().T
    assert isinstance(repcheck._forms(spec, mats)["Q1"], repcheck.TiledMatrix)
    assert repcheck.hermiticity_residual(spec, mats) == 0.0
    assert _dense_hermiticity_residual(spec, mats) == 0.0
    r, c = np.argwhere(mats["Q-1"])[0]
    mats["Q-1"][r, c] *= 1 + 2**-52
    assert 0 < repcheck.hermiticity_residual(spec, mats) < 1e-15


def test_a_non_diagonal_weight_generator_is_measured_on_tiles_of_its_diagonal():
    spec = repcheck.su3_so3_spec()
    dense, _ = _graded(np.random.default_rng(6), spec, 30, complex_entries=True)
    tiles = [t.tolist() for t in repcheck._forms(spec, dense)["L0"].index]
    dense["L0"][3, 7] = 1e-3
    forms = _assert_matches_dense(spec, dense, 20)
    assert all(isinstance(f, repcheck.TiledMatrix) for f in forms.values())
    assert [t.tolist() for t in forms["L0"].index] == tiles


def test_tiled_su3_so3_generators_keep_their_residuals():
    spec = repcheck.su3_so3_spec()
    gens = su3_so3.assemble_so3_generators(su3_so3.Su3Label(4, 3))
    forms = repcheck._forms(spec, gens)
    assert all(isinstance(f, repcheck.TiledMatrix) for f in forms.values())
    assert 1 < len(forms["L0"].index) and max(len(t) for t in forms["L0"].index) <= repcheck._TILE_STATES
    assert all(residual < 1e-14 for _, residual, _ in repcheck.standard_checks(spec, forms, 0.0))


def _pairwise_rotation(dim, angle):
    """Consecutive state pairs (0, 1), (2, 3), ... each rotated by ``angle``."""
    q = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    for k in range(0, dim - 1, 2):
        q[k:k + 2, k:k + 2] = [[c, -s], [s, c]]
    return q


@pytest.mark.parametrize("rotation", ["random", "pairwise"])
def test_a_rotated_su3_irrep_passes_on_tiles(rotation):
    # No weight generator is diagonal in the rotated basis, so the tiles group
    # states by the rotated L0's diagonal; a correct irrep still passes.
    spec = repcheck.su3_so3_spec()
    gens = su3_so3.assemble_so3_generators(su3_so3.Su3Label(4, 2))
    dim = gens["L0"].dim
    if rotation == "random":
        q, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(dim, dim)))
    else:
        q = _pairwise_rotation(dim, 0.3)
    rotated = {g: q.T @ m.to_dense() @ q for g, m in gens.items()}
    assert np.abs(rotated["L0"] - np.diag(np.diagonal(rotated["L0"]))).max() > 0.1
    forms = repcheck._forms(spec, rotated)
    assert all(isinstance(f, repcheck.TiledMatrix) for f in forms.values())
    checks = repcheck.standard_checks(spec, forms, 1e-13)
    assert [name for name, _, _ in checks] == ["commutators", "hermiticity", "casimir constancy"]
    assert all(passed for _, _, passed in checks), checks


def _so3_spec():
    """so(3) as ``[X,Y] = Z``, ``[Y,Z] = X``, ``[Z,X] = Y``: no generator is a weight generator."""
    return repcheck.AlgebraSpec(
        name="so3",
        generators=("X", "Y", "Z"),
        brackets={("X", "Y"): ((1, "Z"),), ("Y", "Z"): ((1, "X"),), ("Z", "X"): ((1, "Y"),)},
        hermiticity_pairs=(("X", "X", -1), ("Y", "Y", -1), ("Z", "Z", -1)),
        casimir=((1, "X", "X"), (1, "Y", "Y"), (1, "Z", "Z")),
    )


def _spin(two_j):
    """``-i J_x``, ``-i J_y``, ``-i J_z`` of spin ``two_j / 2``: they close as :func:`_so3_spec` says."""
    m = np.arange(two_j, -two_j - 1, -2) / 2
    j = two_j / 2
    up = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1)  # J+ raises m by one
    jx, jy, jz = (up + up.T) / 2, (up - up.T) / 2j, np.diag(m)
    return {"X": -1j * jx, "Y": -1j * jy, "Z": -1j * jz}


@pytest.mark.parametrize("interior", [None, 4])
def test_a_spec_without_weight_generators_tiles_the_basis_in_order(interior):
    spec = _so3_spec()
    assert repcheck._weight_generators(spec) == ()
    dense = _random_sparse(np.random.default_rng(3), spec, 40, complex_entries=True)
    forms = _assert_matches_dense(spec, dense, interior)
    assert all(isinstance(f, repcheck.TiledMatrix) for f in forms.values())
    assert [t.tolist() for t in forms["X"].index] == [list(range(40))]
    checks = repcheck.standard_checks(spec, _spin(5), 1e-13)
    assert all(passed for _, _, passed in checks), checks
    assert max(residual for _, residual, _ in repcheck.standard_checks(spec, dense, 1e-13)) > 0.1


# -- scales that overflow -----------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [2e154, 1e200, Radical.from_rational(2 * 10**154), Radical.from_rational(10**400)],
    ids=["float-square-overflows", "float-1e200", "exact-square-overflows", "exact-1e400"],
)
def test_an_overflowing_norm_raises_instead_of_reading_zero(value):
    spec = repcheck.su11_spec()
    if isinstance(value, float):  # a float generator is a SparseMatrix
        mats = {g: repcheck.SparseMatrix(2, [0], [0], [value]) for g in spec.generators}
    else:
        mats = {g: OperatorMatrix(g, range(2), {(0, 0): value}) for g in spec.generators}
    for check in (repcheck.commutator_residual, repcheck.hermiticity_residual, repcheck.casimir_residual):
        with pytest.raises(OverflowError, match="the norm of S0 overflows a float"):
            check(spec, mats)


def test_an_overflowing_casimir_scale_raises_instead_of_reading_zero():
    # Each norm and each |X| |Y| is below the largest float, their Casimir sum is not.
    spec = repcheck.su3_so3_spec()
    mats = {g: np.array([[1e154]]) for g in spec.generators}
    assert all(np.isfinite(f.norm * f.norm) for f in repcheck._forms(spec, mats).values())
    with pytest.raises(OverflowError, match="the Casimir scale overflows a float"):
        repcheck.casimir_residual(spec, mats)


@pytest.mark.parametrize("value", [1e150, 1e154])
def test_a_finite_defect_whose_squares_overflow_stays_finite(value):
    # At 1e154 the defect's squared entries overflow, its norm (about 6e154) does not.
    spec = repcheck.su3_so3_spec()
    got = repcheck.commutator_residual(spec, {g: np.array([[value]]) for g in spec.generators})
    assert got == pytest.approx(6 / value, rel=1e-12)


@pytest.mark.parametrize("linear", [False, True], ids=["products-tiles", "linear-tiles"])
def test_sum_norms_rescale_when_the_squares_overflow(linear):
    # Every term is linear in S+, so scaling S+ by 1e160 scales the norm alike.
    spec, dim = repcheck.su11_spec(), 7
    up, down = np.random.default_rng(5).normal(size=(2, dim - 1))
    norms = []
    for scale in (1.0, 1e160):
        mats = {"S0": np.diag(np.arange(dim, dtype=float)), "S+": scale * np.diag(up, -1), "S-": np.diag(down, 1)}
        forms = repcheck.TiledMatrix.tile(spec, {g: repcheck.SparseMatrix.of(m) for g, m in mats.items()})
        p, m = forms["S+"], forms["S-"]
        terms = [(1, p.adjoint(), None), (-3, p, None)] if linear else [(1, p, m), (-1, m, p), (2, p, None)]
        norms.append(type(p).sum(dim, terms).norm())
    assert 0 < norms[0] and np.isfinite(norms[1])
    assert norms[1] == pytest.approx(1e160 * norms[0], rel=1e-14)


@pytest.mark.parametrize(
    "diagonal,bound,tiles",
    [
        # classes 0 | 1 | 2 2 | 3 | 4 4 4 | 5 | 6 | 7: a tile may fill up to the bound exactly
        ([3, 1, 2, 2, 4, 4, 4, 0, 5, 6, 7], 3, [[7, 1], [2, 3, 0], [4, 5, 6], [8, 9, 10]]),
        ([3, 1, 2, 2, 4, 4, 4, 0, 5, 6, 7], 1, [[7], [1], [2, 3], [0], [4, 5, 6], [8], [9], [10]]),
        # complex weights are sorted by real part, then imaginary part
        ([1, 1j, 1, 1j, 0], 1, [[4], [1, 3], [0, 2]]),
        ([1, 1j, 1, 1j, 0], 32, [[4, 1, 3, 0, 2]]),
    ],
)
def test_weight_tiles_merge_consecutive_classes_up_to_the_bound(diagonal, bound, tiles):
    spec, dim = repcheck.su11_spec(), len(diagonal)
    mats = {"S0": np.diag(diagonal), "S+": np.eye(dim, k=-1), "S-": np.eye(dim, k=1)}
    with mock.patch.object(repcheck, "_TILE_STATES", bound):
        forms = repcheck._forms(spec, mats)
    assert [t.tolist() for t in forms["S0"].index] == tiles
    assert all(f.index is forms["S0"].index for f in forms.values())
