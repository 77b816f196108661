"""Lowest-weight su(1,1) irreps: closed forms, kernel, truncation contract."""

from __future__ import annotations

from fractions import Fraction

import pytest

from vcs_irreps import su11
from vcs_irreps.opmatrix import commutator
from vcs_irreps.radical import Radical

import oracles


def test_irrep_validation():
    with pytest.raises(ValueError):
        su11.Su11Irrep(0, 5)
    with pytest.raises(ValueError):
        su11.Su11Irrep(Fraction(-1, 2), 5)
    with pytest.raises(ValueError):
        su11.Su11Irrep(1, 0)


def test_k_factor_base_and_range():
    irrep = su11.Su11Irrep(Fraction(7, 2), 6)
    assert su11.k_factor(irrep, 0) == Radical.one()
    with pytest.raises(ValueError):
        su11.k_factor(irrep, 7)
    with pytest.raises(ValueError):
        su11.k_factor(irrep, -1)


def test_k_factor_examples():
    # lam = 1 telescopes to 1 for every n
    irrep = su11.Su11Irrep(1, 8)
    assert all(su11.k_factor(irrep, n) == Radical.one() for n in range(9))
    # lam = 3, n = 2: product (3/1)(4/2) = 6
    assert su11.k_factor(su11.Su11Irrep(3, 4), 2) == Radical.sqrt_of(6)


@pytest.mark.parametrize("lam", [1, 2, 3, Fraction(7, 2), Fraction(5, 3)])
def test_k_factor_recursion_oracle(lam):
    irrep = su11.Su11Irrep(lam, 12)
    for n in range(irrep.n_max):
        lhs = su11.k_factor(irrep, n + 1).squared
        rhs = su11.k_factor(irrep, n).squared * Fraction(irrep.lam + n, n + 1)
        assert lhs == rhs


def test_kernel_coefficients_match_k_factors():
    irrep = su11.Su11Irrep(Fraction(7, 2), 10)
    coeffs = su11.s_kernel_coefficients(irrep, 10)
    for n, c in enumerate(coeffs):
        assert su11.k_factor(irrep, n).squared == c
    with pytest.raises(ValueError):
        su11.s_kernel_coefficients(irrep, 11)


def test_kernel_binomial_oracle_lambda_two():
    # (1 - t)**(-2) expanded by convolving two geometric series
    irrep = su11.Su11Irrep(2, 9)
    order = 9
    geo = [Fraction(1)] * (order + 1)
    conv = [sum((geo[i] * geo[n - i] for i in range(n + 1)), Fraction(0)) for n in range(order + 1)]
    assert su11.s_kernel_coefficients(irrep, order) == conv
    assert conv[4] == 5  # coefficient nu is nu + 1


def test_kernel_constant_term_and_lambda_one():
    assert su11.s_kernel_coefficients(su11.Su11Irrep(Fraction(9, 4), 3), 0) == [1]
    assert su11.s_kernel_coefficients(su11.Su11Irrep(1, 5), 5) == [1] * 6


def test_generator_matrix_elements():
    irrep = su11.Su11Irrep(2, 6)
    g = su11.generator_matrices(irrep)
    assert g["S0"][0, 0] == 1  # lam/2 at n = 0
    assert g["S+"][1, 0] == Radical.sqrt_of(2)
    g3 = su11.generator_matrices(su11.Su11Irrep(3, 6))
    assert g3["S+"][1, 0] == Radical.sqrt_of(3)
    # lowest weight annihilation: column n = 0 of S- is empty
    assert all(c != 0 for (r, c) in g3["S-"].entries)


def test_hermiticity_exact():
    g = su11.generator_matrices(su11.Su11Irrep(Fraction(7, 2), 10))
    dag = g["S+"].dagger()
    assert dag.entries == g["S-"].entries


@pytest.mark.parametrize("lam", [1, 2, Fraction(7, 2)])
def test_commutators_exact_on_interior(lam):
    irrep = su11.Su11Irrep(lam, 9)
    g = su11.generator_matrices(irrep)
    n = irrep.n_max
    lowering_raising = commutator(g["S-"], g["S+"]) - g["S0"].scale(2)
    cartan_raising = commutator(g["S0"], g["S+"]) - g["S+"]
    cartan_lowering = commutator(g["S0"], g["S-"]) + g["S-"]
    for defect in (lowering_raising, cartan_raising, cartan_lowering):
        inside = [(r, c) for (r, c) in defect.entries if r < n and c < n]
        assert inside == []
    # the defect is confined to the last row/column
    assert any(r == n or c == n for (r, c) in lowering_raising.entries)


def test_casimir_schur_on_interior():
    irrep = su11.Su11Irrep(3, 8)
    cas = oracles.su11_casimir_matrix(irrep)
    expected = su11.casimir_eigenvalue(irrep)
    assert expected == Fraction(3, 4)
    for i in range(irrep.n_max):
        assert cas[i, i] == expected
    offdiag = [(r, c) for (r, c) in cas.entries if r != c]
    assert offdiag == []


@pytest.mark.parametrize("lam", [1, 2, Fraction(7, 2), Fraction(1, 3), Fraction(10**21 + 1, 7), Fraction(10**22 + 1, 7)])
def test_generator_matrices_are_the_closed_forms_in_lam(lam):
    irrep = su11.Su11Irrep(lam, 12)
    gens = su11.generator_matrices(irrep)
    assert gens["S0"].entries == {(n, n): Fraction(irrep.lam, 2) + n for n in range(13)}
    assert all(type(v) is Fraction for v in gens["S0"].entries.values())
    amps = {n: Radical.sqrt_of((irrep.lam + n) * (n + 1)) for n in range(12)}
    assert gens["S+"].entries == {(n + 1, n): amp for n, amp in amps.items()}
    assert gens["S-"].entries == {(n, n + 1): amp for n, amp in amps.items()}
    assert all(gens["S+"][n + 1, n] is gens["S-"][n, n + 1] for n in range(12))  # one Radical per amplitude


@pytest.mark.parametrize("lam", [Fraction(7, 2), Fraction(1, 3), Fraction(2), Fraction(10**21 + 1, 7)])
def test_holomorphic_blocks_are_the_sums_in_lam(lam):
    # The blocks built from lam = p/q's integers are lam/2 + n, lam + n and
    # n + 1, value for value and type for type, in the same order.
    irrep = su11.Su11Irrep(lam, 40)
    rep = su11.holomorphic_gamma_rep(irrep)
    want = {
        "S0": {((n,), (n,)): Fraction(lam, 2) + n for n in range(irrep.dim)},
        "S+": {((n + 1,), (n,)): lam + n for n in range(irrep.n_max)},
        "S-": {((n,), (n + 1,)): Fraction(n + 1) for n in range(irrep.n_max)},
    }
    assert list(rep.blocks) == list(want)
    for name, blocks in rep.blocks.items():
        assert list(blocks) == list(want[name])
        for key, block in blocks.items():
            assert block == [[want[name][key]]] and type(block[0][0]) is type(want[name][key]), (name, key)
