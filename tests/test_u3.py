"""u(3) canonical-basis construction: enumeration, closed forms, generators."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from vcs_irreps import repcheck, u3
from vcs_irreps.angmom import clebsch_gordan
from vcs_irreps.radical import Radical, RadicalSum

HALF = Fraction(1, 2)


def test_weight_validation():
    with pytest.raises(ValueError):
        u3.U3HighestWeight(1, 2, 0)
    with pytest.raises(ValueError):
        u3.U3HighestWeight(2, Fraction(1, 2), 0)
    hw = u3.U3HighestWeight(Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))
    assert hw.twice_s == 1 and (hw.su3_lam, hw.su3_mu) == (1, 1)


def gelfand_patterns(w1, w2, w3):
    """Betweenness enumeration oracle: (m12, m22, m11) integer-shift patterns."""
    n12, n22 = int(w1 - w2), int(w2 - w3)
    count = 0
    for a in range(n12 + 1):
        m12 = w2 + a
        for b in range(n22 + 1):
            m22 = w3 + b
            count += int(m12 - m22) + 1  # choices of m11
    return count


@pytest.mark.parametrize(
    "weight,dim",
    [((2, 1, 0), 8), ((2, 0, 0), 6), ((1, 0, 0), 3), ((4, 2, 0), 27), ((3, 3, 3), 1)],
)
def test_basis_count_against_betweenness_oracle(weight, dim):
    hw = u3.U3HighestWeight(*weight)
    labels = u3.basis_enumeration(hw)
    assert len(labels) == dim == gelfand_patterns(*weight)


def test_one_dimensional_determinant_irrep():
    labels = u3.basis_enumeration(u3.U3HighestWeight(3, 3, 3))
    assert labels == [u3.CanonicalLabel(0, 0, 0)]


def test_200_content_by_hand():
    # {2,0,0}: betweenness gives S in {0, 1/2, 1} with j = S
    labels = u3.basis_enumeration(u3.U3HighestWeight(2, 0, 0))
    js = {(lbl.tj, lbl.tS) for lbl in labels}
    assert js == {(0, 0), (1, 1), (2, 2)}
    assert len(labels) == 6


def test_ordering_lexicographic():
    labels = u3.basis_enumeration(u3.U3HighestWeight(2, 1, 0))
    assert labels == sorted(labels)


def test_omega_values():
    hw = u3.U3HighestWeight(4, 2, 0)
    # (j=0, S=s) makes every term vanish
    assert u3.omega(hw, 0, hw.twice_s) == 0
    assert u3.omega(u3.U3HighestWeight(2, 0, 0), 1, 1) == 2
    assert u3.omega(hw, 2, 4) == 3


def test_k_ratio_sq_examples():
    hw = u3.U3HighestWeight(2, 0, 0)
    assert u3.k_ratio_sq(hw, 0, 0, 1) == 2
    # the omega difference summed by hand, on every step out of every multiplet
    for hw2 in (u3.U3HighestWeight(4, 2, 0), u3.U3HighestWeight(Fraction(7, 3), Fraction(4, 3), Fraction(1, 3))):
        for lbl in u3.basis_enumeration(hw2):
            for tSp in (lbl.tS - 1, lbl.tS + 1):
                Sp = Fraction(tSp, 2)
                closed = (
                    (2 * hw2.w1 - hw2.w2 - hw2.w3) / 2 + lbl.S * (lbl.S + 1) - Sp * (Sp + 1) - lbl.j + Fraction(3, 4)
                )
                assert u3.k_ratio_sq(hw2, lbl.tj, lbl.tS, tSp) == closed
    with pytest.raises(ValueError):
        u3.k_ratio_sq(hw, 0, 0, 2)


def test_k_ratio_positivity_boundary_scan():
    # walking the {4,2,0} stretched chain: positive inside, <= 0 at the first
    # step past the boundary
    hw = u3.U3HighestWeight(4, 2, 0)
    tj, tS = 0, hw.twice_s
    while u3.is_admissible(hw, tj + 1, tS + 1):
        assert u3.k_ratio_sq(hw, tj, tS, tS + 1) > 0
        tj, tS = tj + 1, tS + 1
    assert u3.k_ratio_sq(hw, tj, tS, tS + 1) <= 0


def test_reduced_me_zero_spin_intrinsic():
    # s = 0 forces S = j and the Racah factor is 1
    hw = u3.U3HighestWeight(2, 0, 0)
    val = u3.reduced_me(hw, 0, 0, 1, "f")
    assert val == Radical.sqrt_of(2) * Radical.sqrt_of(2)
    assert val == Radical.from_rational(2)
    ratio = u3.k_ratio_sq(hw, 1, 1, 2)
    expect = Radical.sqrt_of(Fraction(2 * 3)) * Radical.sqrt_of(ratio)
    assert u3.reduced_me(hw, 1, 1, 2, "f") == expect


def test_reduced_me_one_dimensional_irrep_vanishes():
    hw = u3.U3HighestWeight(3, 3, 3)
    for which in ("e", "f"):
        assert u3.reduced_me(hw, 0, 0, 1, which).is_zero()


def test_reduced_me_hermiticity_pairing():
    hw = u3.U3HighestWeight(4, 2, 0)
    for lbl in u3.basis_enumeration(hw):
        for tSp in (lbl.tS - 1, lbl.tS + 1):
            f = u3.reduced_me(hw, lbl.tj, lbl.tS, tSp, "f")
            e = u3.reduced_me(hw, lbl.tj, lbl.tS, tSp, "e")
            sign = -1 if ((tSp - lbl.tS + 1) // 2) % 2 else 1
            assert f == e * sign


def test_reduced_me_against_assembled_matrix():
    # Wigner-Eckart inversion of the assembled C13 reproduces the e-tensor
    # reduced matrix elements (C13 = e(+1/2))
    hw = u3.U3HighestWeight(2, 1, 0)
    gens = u3.assemble_generators(hw)
    labels = u3.basis_enumeration(hw)
    index = {lbl: i for i, lbl in enumerate(labels)}
    for bra in labels:
        for ket in labels:
            if ket.tj != bra.tj + 1 or ket.tM != bra.tM + 1:
                continue
            entry = gens["C13"][index[bra], index[ket]]
            cgc = clebsch_gordan(
                Fraction(ket.tS, 2), Fraction(ket.tM, 2), HALF, HALF,
                Fraction(bra.tS, 2), Fraction(bra.tM, 2),
            )
            red = u3.reduced_me(hw, bra.tj, bra.tS, ket.tS, "e")
            expected = cgc * red / Radical.sqrt_of(bra.tS + 1)
            got = entry if isinstance(entry, Radical) else Radical.from_rational(Fraction(entry))
            assert got == expected


def test_reduced_elements_are_each_evaluated_once(monkeypatch):
    calls = []
    reduced_me = u3.reduced_me
    monkeypatch.setattr(u3, "reduced_me", lambda *args: calls.append(args) or reduced_me(*args))
    hw = u3.U3HighestWeight(18, 8, 0)
    u3.assemble_generators(hw)
    assert len({(lbl.tj, lbl.tS) for lbl in u3.basis_enumeration(hw)}) == 99
    assert len(calls) <= 198
    assert len(set(calls)) == len(calls)


def test_c11_diagonal_example():
    hw = u3.U3HighestWeight(4, 2, 0)
    gens = u3.assemble_generators(hw)
    labels = u3.basis_enumeration(hw)
    for i, lbl in enumerate(labels):
        assert gens["C11"][i, i] == hw.w1 - lbl.tj
        if lbl.tj == 2:
            assert gens["C11"][i, i] == 2


def test_c11_spectrum():
    hw = u3.U3HighestWeight(2, 1, 0)
    gens = u3.assemble_generators(hw)
    spec = repcheck.spectrum_multiset(gens["C11"])
    expected = sorted(float(hw.w1 - lbl.tj) for lbl in u3.basis_enumeration(hw))
    assert spec == pytest.approx(expected)


def test_one_dim_irrep_generators():
    gens = u3.assemble_generators(u3.U3HighestWeight(2, 2, 2))
    assert gens["C12"].is_zero()
    assert gens["C11"][0, 0] == 2


WEIGHTS = [(1, 0, 0), (2, 0, 0), (2, 1, 0), (4, 2, 0), (3, 3, 0),
           (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))]


@pytest.mark.parametrize("weight", WEIGHTS)
def test_all_81_commutators_exact(weight):
    hw = u3.U3HighestWeight(*weight)
    gens = u3.assemble_generators(hw)
    spec = repcheck.u3_spec()
    assert repcheck.commutator_residual(spec, gens) == 0.0


@pytest.mark.parametrize("weight", WEIGHTS)
def test_hermiticity_pairs_exact(weight):
    gens = u3.assemble_generators(u3.U3HighestWeight(*weight))
    for i, k in itertools.product((1, 2, 3), repeat=2):
        assert gens[f"C{i}{k}"].dagger().entries == gens[f"C{k}{i}"].entries


@pytest.mark.parametrize("weight", WEIGHTS)
def test_casimir_is_scalar(weight):
    hw = u3.U3HighestWeight(*weight)
    gens = u3.assemble_generators(hw)
    cas = None
    for i, k in itertools.product((1, 2, 3), repeat=2):
        term = gens[f"C{i}{k}"] @ gens[f"C{k}{i}"]
        cas = term if cas is None else cas + term
    mean, dev = repcheck.schur_constancy(cas)
    assert dev == 0.0
    # u(3) quadratic Casimir: sum w_i**2 + sum_{i<j} (w_i - w_j)
    w = (hw.w1, hw.w2, hw.w3)
    expected = sum(wi * wi for wi in w) + sum(
        w[i] - w[j] for i in range(3) for j in range(i + 1, 3)
    )
    assert mean == pytest.approx(float(expected))


def test_fundamental_matches_defining_matrices():
    """{1,0,0} is unitarily equivalent to the defining 3x3 matrices."""
    hw = u3.U3HighestWeight(1, 0, 0)
    gens = u3.assemble_generators(hw)
    mine = {(i, k): gens[f"C{i}{k}"].to_dense() for i in (1, 2, 3) for k in (1, 2, 3)}
    defining = {}
    for i, k in itertools.product((1, 2, 3), repeat=2):
        m = np.zeros((3, 3))
        m[i - 1, k - 1] = 1.0
        defining[(i, k)] = m
    # stack the intertwiner conditions C_def W - W C_mine = 0 and solve
    rows = []
    for key in mine:
        rows.append(np.kron(np.eye(3), defining[key]) - np.kron(mine[key].T, np.eye(3)))
    stack = np.vstack(rows)
    _, s, vt = np.linalg.svd(stack)
    assert s[-1] < 1e-12 and s[-2] > 1e-8  # one-dimensional intertwiner space
    w = vt[-1].reshape(3, 3, order="F")
    gram = w.T @ w
    w = w / np.sqrt(gram[0, 0])
    assert np.abs(w.T @ w - np.eye(3)).max() < 1e-12
    for key in mine:
        assert np.abs(defining[key] @ w - w @ mine[key]).max() < 1e-12


def test_angular_momentum_dense_closes_su2():
    hw = u3.U3HighestWeight(2, 1, 0)
    gens = u3.assemble_generators(hw)
    l0, lp, lm = u3.angular_momentum_dense(gens)
    assert np.abs(l0 @ lp - lp @ l0 - lp).max() < 1e-12
    assert np.abs(lp @ lm - lm @ lp - 2 * l0).max() < 1e-12


def test_holomorphic_rep_blocks_are_scalar_radicals():
    rep = u3.holomorphic_gamma_rep(u3.U3HighestWeight(2, 0, 0), extra_grades=1)
    assert all(dim == 1 for dim in rep.sectors.values())
    for gen, blocks in rep.blocks.items():
        for (row, col), m in blocks.items():
            assert isinstance(m[0][0], Radical)
            assert abs(rep.grades[row] - rep.grades[col]) <= 1


def _reference_holomorphic_blocks(hw, extra_grades):
    """The holomorphic realization's blocks, summed term by term in RadicalSum.

    An independent, deliberately plain construction: every coupled pair of
    the right projection is visited, and every amplitude is a Radical built
    from ``Fraction`` labels.
    """
    ts = hw.twice_s
    tj_cap = int(hw.w1 - hw.w3) + extra_grades
    s = Fraction(ts, 2)
    lam_sum = hw.w2 + hw.w3

    def uncoupled(tj):
        return [(tm, tn) for tm in range(-tj, tj + 1, 2) for tn in range(-ts, ts + 1, 2)]

    def coupled(tj):
        return [(tS, tM) for tS in range(abs(tj - ts), tj + ts + 1, 2) for tM in range(-tS, tS + 1, 2)]

    def act(gen, tj, tm, tn):
        j, m, nu = Fraction(tj, 2), Fraction(tm, 2), Fraction(tn, 2)
        rat, root = Radical.from_rational, Radical.sqrt_of
        out = {
            "C11": [((tj, tm, tn), rat(hw.w1 - tj))],
            "C22": [((tj, tm, tn), rat(lam_sum / 2 + nu + j + m))],
            "C33": [((tj, tm, tn), rat(lam_sum / 2 - nu + j - m))],
            "C23": [((tj, tm, tn + 2), root((s - nu) * (s + nu + 1))), ((tj, tm + 2, tn), root((j - m) * (j + m + 1)))],
            "C32": [((tj, tm, tn - 2), root((s + nu) * (s - nu + 1))), ((tj, tm - 2, tn), root((j + m) * (j - m + 1)))],
            "C12": [((tj - 1, tm - 1, tn), root(j + m))],
            "C13": [((tj - 1, tm + 1, tn), root(j - m))],
            "C21": [
                ((tj + 1, tm + 1, tn), rat(hw.w1 - lam_sum / 2 - nu - tj) * root(j + m + 1)),
                ((tj + 1, tm - 1, tn + 2), -root((s - nu) * (s + nu + 1) * (j - m + 1))),
            ],
            "C31": [
                ((tj + 1, tm - 1, tn), rat(hw.w1 - lam_sum / 2 + nu - tj) * root(j - m + 1)),
                ((tj + 1, tm + 1, tn - 2), -root((s + nu) * (s - nu + 1) * (j + m + 1))),
            ],
        }[gen]
        return [(k, v) for k, v in out if not v.is_zero() and abs(k[1]) <= k[0] and abs(k[2]) <= ts]

    def cg(tj, tm, tn, tS, tM):
        return clebsch_gordan(s, Fraction(tn, 2), Fraction(tj, 2), Fraction(tm, 2), Fraction(tS, 2), Fraction(tM, 2))

    blocks = {name: {} for name in u3.GENERATOR_NAMES}
    for gen in u3.GENERATOR_NAMES:
        for tj in range(tj_cap + 1):
            acc = {}
            for tm, tn in uncoupled(tj):
                for (tjp, tmp, tnp), amp in act(gen, tj, tm, tn):
                    if not 0 <= tjp <= tj_cap:
                        continue
                    # Clebsch-Gordan coefficients vanish unless M = m + nu.
                    for tS, tM in (c for c in coupled(tj) if c[1] == tm + tn):
                        for tSp, tMp in (c for c in coupled(tjp) if c[1] == tmp + tnp):
                            term = RadicalSum.from_value(cg(tjp, tmp, tnp, tSp, tMp))
                            term = term * RadicalSum.from_value(amp) * RadicalSum.from_value(cg(tj, tm, tn, tS, tM))
                            key = ((tjp, tSp, tMp), (tj, tS, tM))
                            acc[key] = acc.get(key, RadicalSum()) + term
            for key, val in acc.items():
                if not val.is_zero():
                    blocks[gen][key] = val.to_radical()
    return blocks


@pytest.mark.parametrize("extra_grades", [0, 1, 2])
@pytest.mark.parametrize(
    "weight",
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0), (2, 2, 0),
     (Fraction(7, 3), Fraction(4, 3), Fraction(1, 3)), (Fraction(5, 2), Fraction(1, 2), Fraction(-1, 2))],
)
def test_holomorphic_rep_matches_radical_sum_reference(weight, extra_grades):
    hw = u3.U3HighestWeight(*weight)
    rep = u3.holomorphic_gamma_rep(hw, extra_grades)
    want = _reference_holomorphic_blocks(hw, extra_grades)
    tj_cap = int(hw.w1 - hw.w3) + extra_grades
    sectors = {
        (tj, tS, tM)
        for tj in range(tj_cap + 1)
        for tS in range(abs(tj - hw.twice_s), tj + hw.twice_s + 1, 2)
        for tM in range(-tS, tS + 1, 2)
    }
    assert set(rep.sectors) == sectors and set(rep.sectors.values()) == {1}
    assert rep.grades == {sec: sec[0] for sec in sectors}
    for gen in u3.GENERATOR_NAMES:
        got = rep.blocks[gen]
        assert set(got) == set(want[gen]), gen
        for key, block in got.items():
            value = block[0][0]
            assert isinstance(value, Radical) and len(block) == len(block[0]) == 1
            assert (value.sign, value.radicand) == (want[gen][key].sign, want[gen][key].radicand)
