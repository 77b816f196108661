"""u(3) canonical-basis construction: enumeration, closed forms, generators."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from vcs_irreps import cli, repcheck, u3
from vcs_irreps.angmom import clebsch_gordan
from vcs_irreps.opmatrix import OperatorMatrix
from vcs_irreps.radical import Radical, RadicalSum

import oracles

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


def test_label_text_is_the_fraction_text():
    # (2j, 2S, 2M) printed from the doubled integers, as str(Fraction) prints the halves
    r = range(-12, 13)
    for tj, tS, tM in itertools.product(r, r, r):
        want = f"(j={Fraction(tj, 2)}, S={Fraction(tS, 2)}, M={Fraction(tM, 2)})"
        assert str(u3.CanonicalLabel(tj, tS, tM)) == want


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
    assert oracles.u3_omega(hw, 0, hw.twice_s) == 0
    assert oracles.u3_omega(u3.U3HighestWeight(2, 0, 0), 1, 1) == 2
    assert oracles.u3_omega(hw, 2, 4) == 3


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
                assert closed == oracles.u3_omega(hw2, lbl.tj + 1, tSp) - oracles.u3_omega(hw2, lbl.tj, lbl.tS)
    with pytest.raises(ValueError):
        u3.k_ratio_sq(hw, 0, 0, 2)


def test_step_table_reads_integers_as_the_fraction_reference():
    # every weight with w1 - w3 <= 8, at shifts 0, 1/3 and 2/3, the irrep's
    # steps and one grade past it: the same tuples, value and type
    for shift in (Fraction(0), Fraction(1, 3), Fraction(2, 3)):
        for w1 in range(9):
            for w2 in range(w1 + 1):
                hw = u3.U3HighestWeight(w1 + shift, w2 + shift, shift)
                for tj_cap, irrep in ((w1, True), (w1 + 1, False)):
                    got, want = list(u3._steps(hw, tj_cap, irrep)), list(oracles.u3_steps_reference(hw, tj_cap, irrep))
                    assert got == want, (hw, irrep)
                    assert [tuple(map(type, step)) for step in got] == [tuple(map(type, step)) for step in want]


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
    elements = {e[:3]: e[3] for e in u3.reduced_elements(hw)}
    assert list(elements) == [(0, 0, 1), (1, 1, 2)]
    val = elements[0, 0, 1]
    assert val == Radical.sqrt_of(2) * Radical.sqrt_of(2)
    assert val == Radical.from_rational(2)
    ratio = u3.k_ratio_sq(hw, 1, 1, 2)
    expect = Radical.sqrt_of(Fraction(2 * 3)) * Radical.sqrt_of(ratio)
    assert elements[1, 1, 2] == expect


def test_reduced_me_one_dimensional_irrep_vanishes():
    hw = u3.U3HighestWeight(3, 3, 3)
    assert u3.reduced_elements(hw) == ()
    assert not any(oracles.exact_entries(u3.assemble_generators(hw)[name]) for name in ("C12", "C13", "C21", "C31"))


def _e_tensor(hw):
    """Each ``(bra, ket, nu, entry)`` of ``e(1/2) = C13`` and ``e(-1/2) = -C12`` in the assembled matrices.

    Every bra at grade ``j`` with every ket at grade ``j+1/2`` and ``M' + nu = M``, zero entries included.
    """
    gens = {name: oracles.exact_entries(m) for name, m in u3.assemble_generators(hw).items()}
    labels = u3.basis_enumeration(hw)
    for (b, bra), (k, ket) in itertools.product(enumerate(labels), repeat=2):
        for t_nu, name in ((1, "C13"), (-1, "C12")):
            if ket.tj == bra.tj + 1 and ket.tM + t_nu == bra.tM:
                entry = gens[name].get((b, k), 0)
                yield bra, ket, t_nu, entry if t_nu > 0 else -entry


def _e_phase(tS, tSp):
    """``(-1)**(S'-S+1/2)``, the phase of ``<j S || e || (j+1/2) S'>`` against ``<(j+1/2) S' || f || j S>``."""
    return -1 if ((tSp - tS + 1) // 2) % 2 else 1


def test_reduced_me_hermiticity_pairing():
    # Wigner-Eckart inversion of every non-zero C12, C13 entry gives one e-tensor
    # reduced element per (j, S, S'), the phase times the f-tensor element.
    hw = u3.U3HighestWeight(4, 2, 0)
    e_red = {}
    for bra, ket, t_nu, entry in _e_tensor(hw):
        if entry != 0:
            cgc = clebsch_gordan(Fraction(ket.tS, 2), Fraction(ket.tM, 2), HALF, Fraction(t_nu, 2), bra.S, bra.M)
            red = entry * Radical.sqrt_of(bra.tS + 1) / cgc
            assert e_red.setdefault((bra.tj, bra.tS, ket.tS), red) == red, (bra, ket)
    f_red = {e[:3]: e[3] for e in u3.reduced_elements(hw)}
    assert sorted(e_red) == list(f_red)
    for (tj, tS, tSp), f in f_red.items():
        assert e_red[tj, tS, tSp] == f * _e_phase(tS, tSp)


def test_reduced_me_against_assembled_matrix():
    # Every C13 = e(1/2) and C12 = -e(-1/2) entry, zero or not, is the
    # Wigner-Eckart value (S' M', 1/2 nu | S M) <j S || e || (j+1/2) S'> / sqrt(2S+1).
    hw = u3.U3HighestWeight(2, 1, 0)
    f_red = {e[:3]: e[3] for e in u3.reduced_elements(hw)}
    seen = 0
    for bra, ket, t_nu, entry in _e_tensor(hw):
        cgc = clebsch_gordan(Fraction(ket.tS, 2), Fraction(ket.tM, 2), HALF, Fraction(t_nu, 2), bra.S, bra.M)
        red = f_red.get((bra.tj, bra.tS, ket.tS), Radical.zero()) * _e_phase(bra.tS, ket.tS)
        assert entry == cgc * red / Radical.sqrt_of(bra.tS + 1), (bra, ket, t_nu)
        seen += entry != 0
    assert seen == sum(len(oracles.exact_entries(u3.assemble_generators(hw)[name])) for name in ("C12", "C13")) > 0


def test_reduced_elements_are_each_evaluated_once(monkeypatch):
    calls = []
    u_parts = u3.spin_half_u_parts
    monkeypatch.setattr(u3, "spin_half_u_parts", lambda *args: calls.append(args) or u_parts(*args))
    hw = u3.U3HighestWeight(18, 8, 0)
    u3.reduced_elements.cache_clear()
    u3.assemble_generators(hw)
    assert len({(lbl.tj, lbl.tS) for lbl in u3.basis_enumeration(hw)}) == 99
    assert len(calls) <= 198
    assert len(set(calls)) == len(calls)
    # A whole ``gen`` document, matrices and table, evaluates them no more often.
    u3.reduced_elements.cache_clear()
    calls.clear()
    cli._document(cli.U3, hw, "exact")
    assert 0 < len(calls) <= 198


def test_c11_diagonal_example():
    hw = u3.U3HighestWeight(4, 2, 0)
    c11 = oracles.exact_entries(u3.assemble_generators(hw)["C11"])
    labels = u3.basis_enumeration(hw)
    for i, lbl in enumerate(labels):
        assert c11.get((i, i), 0) == hw.w1 - lbl.tj
        if lbl.tj == 2:
            assert c11.get((i, i), 0) == 2


def test_c11_spectrum():
    hw = u3.U3HighestWeight(2, 1, 0)
    gens = u3.assemble_generators(hw)
    spec = oracles.spectrum_multiset(gens["C11"])
    expected = sorted(float(hw.w1 - lbl.tj) for lbl in u3.basis_enumeration(hw))
    assert spec == pytest.approx(expected)


def test_one_dim_irrep_generators():
    gens = {name: oracles.exact_entries(m) for name, m in u3.assemble_generators(u3.U3HighestWeight(2, 2, 2)).items()}
    assert not gens["C12"]
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
    gens = {name: oracles.exact_entries(m) for name, m in u3.assemble_generators(u3.U3HighestWeight(*weight)).items()}
    for i, k in itertools.product((1, 2, 3), repeat=2):
        assert {(c, r): v for (r, c), v in gens[f"C{i}{k}"].items()} == gens[f"C{k}{i}"]


@pytest.mark.parametrize("weight", WEIGHTS)
def test_casimir_is_scalar(weight):
    hw = u3.U3HighestWeight(*weight)
    gens = {name: OperatorMatrix(name, range(m.dim), oracles.exact_entries(m)) for name, m in u3.assemble_generators(hw).items()}
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


def _exact_form(value):
    """An entry as its type, sign and radicand, so that equal values of different types differ."""
    return type(value), (value.sign, value.radicand) if isinstance(value, Radical) else value


def _assert_exact_form_of(got: repcheck.ExactMatrix, ref: OperatorMatrix) -> None:
    """``got`` is ``ExactMatrix.of(ref)``: its arrays, and the bits of its norm, floats and sparse form."""
    want = repcheck.ExactMatrix.of(ref)
    assert (got.dim, got.den, got.bits, got.longest) == (want.dim, want.den, want.bits, want.longest)
    for array in ("rows", "cols", "cores", "nums", "start", "count"):
        mine, theirs = getattr(got, array), getattr(want, array)
        assert mine.dtype == theirs.dtype and mine.tolist() == theirs.tolist(), array
    assert got.norm.hex() == want.norm.hex() == oracles.frobenius(ref).hex()
    assert got.vals.tobytes() == want.vals.tobytes()
    assert got.to_dense().tobytes() == ref.to_dense().tobytes()
    mine, theirs = repcheck.SparseMatrix.of(got), repcheck.SparseMatrix.of(ref)
    assert (mine.rows.tolist(), mine.cols.tolist()) == (theirs.rows.tolist(), theirs.cols.tolist())
    assert mine.vals.tobytes() == theirs.vals.tobytes() and mine.norm.hex() == theirs.norm.hex()


@pytest.mark.parametrize("shift", [Fraction(0), Fraction(1, 3), Fraction(2, 3)])
def test_closed_form_builder_is_the_racah_series_builder(shift):
    # Every weight with w1 - w3 <= 8: the same reduced elements, of the same
    # types and in the same order, as the builder that takes its coefficients
    # from Racah's series, and generators that are the exact form of its
    # matrices, floats rounded from the same types.
    for w1, w2 in ((a, b) for a in range(9) for b in range(a + 1)):
        hw = u3.U3HighestWeight(w1 + shift, w2 + shift, shift)
        got, want = u3.reduced_elements(hw), oracles.u3_reduced_elements_reference(hw)
        assert [(*e[:3], _exact_form(e[3])) for e in got] == [(*e[:3], _exact_form(e[3])) for e in want], hw
        gens, ref = u3.assemble_generators(hw), oracles.u3_generators_reference(hw)
        assert list(gens) == list(ref)
        for name, mat in gens.items():
            _assert_exact_form_of(mat, ref[name])


@pytest.mark.parametrize(
    "weight",
    [(0, 0, 0), (3, 3, 3), (10**20 + 2, 10**20 + 1, 10**20), (10**80 + 2, 10**80 + 1, 10**80)],
    ids=["0,0,0", "3,3,3", "1e20", "1e80"],
)
def test_generators_are_the_exact_form_of_the_racah_series_builder_at_edge_weights(weight):
    # Empty grade-changing matrices; numerators past 2**63 (Python-int arrays);
    # diagonal values whose squares pass 512 bits.
    hw = u3.U3HighestWeight(*weight)
    gens, ref = u3.assemble_generators(hw), oracles.u3_generators_reference(hw)
    for name, mat in gens.items():
        _assert_exact_form_of(mat, ref[name])
    assert (gens["C11"].nums.dtype == object) == (weight[0] > 2**63)


def test_generators_are_built_with_no_radical_or_operator_matrix_per_entry(monkeypatch):
    hw = u3.U3HighestWeight(8, 4, 0)
    u3.reduced_elements(hw)  # the step table's Radicals, one per step, are made here

    def refuse(*args, **kwargs):
        raise AssertionError("an entry object was built")

    monkeypatch.setattr(Radical, "__init__", refuse)
    monkeypatch.setattr(OperatorMatrix, "__init__", refuse)
    # an ExactMatrix is its own exact form; anything else would be converted
    monkeypatch.setattr(repcheck.ExactMatrix, "of", classmethod(lambda cls, m: m if isinstance(m, cls) else refuse()))
    gens = u3.assemble_generators(hw)
    spec = repcheck.u3_spec()
    assert [r for _, r, _ in repcheck.standard_checks(spec, gens, 0.0)] == [0.0, 0.0, 0.0]
    assert all(repcheck._forms(spec, gens)[name] is gens[name] for name in u3.GENERATOR_NAMES)


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
    # the diagonal C11, C22 and C33 blocks are rational, and kept Fractions
    rep = u3.holomorphic_gamma_rep(u3.U3HighestWeight(2, 0, 0), extra_grades=1)
    assert all(dim == 1 for dim in rep.sectors.values())
    for gen, blocks in rep.blocks.items():
        for (row, col), m in blocks.items():
            assert isinstance(m[0][0], Fraction if gen in ("C11", "C22", "C33") else Radical)
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
            assert isinstance(value, (Radical, Fraction)) and len(block) == len(block[0]) == 1
            assert value == want[gen][key]


@pytest.mark.parametrize("extra_grades", [0, 1, 2])
@pytest.mark.parametrize(
    "weight",
    [(8, 4, 0), (12, 6, 0), (Fraction(7, 3), Fraction(4, 3), Fraction(1, 3)), (Fraction(5, 2), Fraction(1, 2), Fraction(-1, 2))],
    ids=["8,4,0", "12,6,0", "7/3,4/3,1/3", "5/2,1/2,-1/2"],
)
def test_holomorphic_rep_is_the_clebsch_gordan_transform_of_the_uncoupled_actions(weight, extra_grades):
    # the closed-form spin-1/2 blocks, against the uncoupled actions conjugated by exact CG transforms
    hw = u3.U3HighestWeight(*weight)
    rep = u3.holomorphic_gamma_rep(hw, extra_grades)
    want = oracles.holomorphic_gamma_rep_by_transforms(hw, extra_grades)
    assert (rep.sectors, rep.grades, rep.adjoints, rep.exact) == (want.sectors, want.grades, want.adjoints, want.exact)
    for gen in u3.GENERATOR_NAMES:
        assert rep.blocks[gen] == want.blocks[gen], gen


@pytest.mark.parametrize("extra_grades", [-1, -3, 0.5, True, False])
def test_holomorphic_rep_refuses_a_negative_or_fractional_boundary(extra_grades):
    # -1 would induce 6 of the 8 states of {2,1,0}; -3 would leave no raw grade at all;
    # a bool is refused, as the JSON readers refuse it, though it is an int
    with pytest.raises(ValueError, match="extra_grades"):
        u3.holomorphic_gamma_rep(u3.U3HighestWeight(2, 1, 0), extra_grades=extra_grades)
