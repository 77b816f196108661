"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from vcs_irreps import kmatrix, repcheck, su11, su3_so3, u3
from vcs_irreps.angmom import clebsch_gordan, racah_u
from vcs_irreps.opmatrix import commutator
from vcs_irreps.radical import Radical, RadicalSum

import oracles

SU11_WEIGHTS = [Fraction(1), Fraction(2), Fraction(3), Fraction(7, 2)]
U3_WEIGHTS = [(1, 0, 0), (2, 0, 0), (2, 1, 0), (4, 2, 0), (3, 3, 0)]
SU3_WEIGHTS = [(2, 0), (0, 2), (1, 1), (2, 2), (4, 2)]


def report(n: int, text: str):
    print(f"ACCEPTANCE {n}: {text} PASS")


def test_criterion_1_su11_closed_form_exact():
    """k-factor recursion and K-matrix S-diagonal agree exactly, n <= 20."""
    for lam in SU11_WEIGHTS:
        irrep = su11.Su11Irrep(lam, 20)
        # recursion |K(n+1)/K(n)|^2 = (lam+n)/(n+1), exactly
        for n in range(20):
            lhs = su11.k_factor(irrep, n + 1).squared
            rhs = su11.k_factor(irrep, n).squared * Fraction(lam + n, n + 1)
            assert lhs == rhs
        # engine S-diagonal equals the kernel Taylor coefficients equals K**2
        rep = su11.holomorphic_gamma_rep(irrep)
        sblocks = kmatrix.solve_s_recursion(rep)
        coeffs = su11.s_kernel_coefficients(irrep, 20)
        for n in range(21):
            s_val = sblocks[(n,)].matrix[0][0]
            assert s_val == coeffs[n]
            assert su11.k_factor(irrep, n) == Radical.sqrt_of(s_val)
    report(1, "su(1,1) closed form vs recursion and K-matrix S-diagonal, exact,")


def test_criterion_2_su11_algebra_exact_interior():
    """Truncated su(1,1) matrices: exact commutators and Casimir on the interior."""
    for lam in SU11_WEIGHTS:
        irrep = su11.Su11Irrep(lam, 12)
        g = su11.generator_matrices(irrep)
        n = irrep.n_max
        defects = [
            commutator(g["S-"], g["S+"]) - g["S0"].scale(2),
            commutator(g["S0"], g["S+"]) - g["S+"],
            commutator(g["S0"], g["S-"]) + g["S-"],
        ]
        for defect in defects:
            assert all(r >= n or c >= n for (r, c) in defect.entries)
        cas = oracles.su11_casimir_matrix(irrep)
        expected = su11.casimir_eigenvalue(irrep)
        for i in range(n):
            assert cas[i, i] == expected
        assert all(r == c for (r, c) in cas.entries)
    report(2, "su(1,1) interior commutators and Casimir constancy, exact,")


def test_criterion_3_u3_algebra():
    """All 81 commutators and Hermiticity pairs for the five u(3) weights."""
    spec = repcheck.u3_spec()
    for weight in U3_WEIGHTS:
        hw = u3.U3HighestWeight(*weight)
        gens = u3.assemble_generators(hw)
        w1, w2, w3 = (int(w) for w in weight)
        expected_dim = (w1 - w2 + 1) * (w2 - w3 + 1) * (w1 - w3 + 2) // 2
        assert gens["C11"].dim == expected_dim
        # exact mode
        assert repcheck.commutator_residual(spec, gens) == 0.0
        entries = {name: oracles.exact_entries(m) for name, m in gens.items()}
        for i, k in itertools.product((1, 2, 3), repeat=2):
            assert {(c, r): v for (r, c), v in entries[f"C{i}{k}"].items()} == entries[f"C{k}{i}"]
        # float mode
        dense = {k: v.to_dense() for k, v in gens.items()}
        assert repcheck.commutator_residual(spec, dense) <= 1e-12
        assert repcheck.hermiticity_residual(spec, dense) <= 1e-12
        cas = sum(
            (dense[f"C{i}{k}"] @ dense[f"C{k}{i}"] for i in (1, 2, 3) for k in (1, 2, 3)),
            np.zeros_like(dense["C11"]),
        )
        _, dev = repcheck.schur_constancy(cas)
        assert dev <= 1e-12
    report(3, "u(3) commutators, Hermiticity, dimensions, Casimir for 5 weights,")


def test_criterion_4_fundamental_equivalence():
    """{1,0,0} is unitarily equivalent to the defining 3x3 matrices."""
    gens = u3.assemble_generators(u3.U3HighestWeight(1, 0, 0))
    mine = {f"C{i}{k}": gens[f"C{i}{k}"].to_dense() for i in (1, 2, 3) for k in (1, 2, 3)}
    defining = {}
    for i, k in itertools.product((1, 2, 3), repeat=2):
        m = np.zeros((3, 3))
        m[i - 1, k - 1] = 1.0
        defining[f"C{i}{k}"] = m
    rows = [
        np.kron(np.eye(3), defining[key]) - np.kron(mine[key].T, np.eye(3))
        for key in mine
    ]
    _, s, vt = np.linalg.svd(np.vstack(rows))
    assert s[-1] < 1e-12 and s[-2] > 1e-8
    w = vt[-1].reshape(3, 3, order="F")
    w = w / np.sqrt((w.T @ w)[0, 0])
    assert np.abs(w.T @ w - np.eye(3)).max() <= 1e-12
    for key in mine:
        assert np.abs(defining[key] @ w - w @ mine[key]).max() <= 1e-12
    report(4, "u(3) fundamental unitarily equivalent to defining matrices (1e-12),")


def test_criterion_5_su3_so3_algebra():
    """Assembled L, Q matrices satisfy the full su(3) relations to 1e-10."""
    spec = repcheck.su3_so3_spec()
    for lam, mu in SU3_WEIGHTS:
        lm = su3_so3.Su3Label(lam, mu)
        gens = su3_so3.assemble_so3_generators(lm)
        assert repcheck.commutator_residual(spec, gens) <= 1e-10
        assert repcheck.hermiticity_residual(spec, gens) <= 1e-10
        d = {k: v.to_dense() for k, v in gens.items()}
        assert np.abs(d["Q2"] @ d["Q-2"] - d["Q-2"] @ d["Q2"] - 6 * d["L0"]).max() <= 1e-10 * (
            1 + np.abs(d["Q2"]).max() ** 2
        )
        for nu in (2, -2):
            lhs = d["L0"] @ d[f"Q{nu}"] - d[f"Q{nu}"] @ d["L0"] - nu * d[f"Q{nu}"]
            assert np.abs(lhs).max() <= 1e-10 * (1 + np.abs(d[f"Q{nu}"]).max())
        qq = sum(
            ((-1.0) ** nu * d[f"Q{nu}"] @ d[f"Q{-nu}"] for nu in range(-2, 3)),
            np.zeros_like(d["L0"]),
        )
        ll = d["L0"] @ d["L0"] + (d["L+"] @ d["L-"] + d["L-"] @ d["L+"]) / 2
        _, dev = repcheck.schur_constancy(qq + 3 * ll)
        assert dev <= 1e-10
    report(5, "su(3) SO(3)-basis algebra, Hermiticity, Casimir for 5 weights (1e-10),")


def test_criterion_6_cross_basis_consistency():
    """Rotor L-content equals the canonical L^2 oracle; Casimirs agree."""
    for lam, mu in SU3_WEIGHTS:
        lm = su3_so3.Su3Label(lam, mu)
        assert su3_so3.rotor_multiplicities(lm) == su3_so3.branching_oracle(lm)
        # same invariant evaluated in both constructions
        gens = su3_so3.assemble_so3_generators(lm)
        d = {k: v.to_dense() for k, v in gens.items()}
        qq = sum(
            ((-1.0) ** nu * d[f"Q{nu}"] @ d[f"Q{-nu}"] for nu in range(-2, 3)),
            np.zeros_like(d["L0"]),
        )
        ll = d["L0"] @ d["L0"] + (d["L+"] @ d["L-"] + d["L-"] @ d["L+"]) / 2
        so3_mean, so3_dev = repcheck.schur_constancy(qq + 3 * ll)

        hw = u3.U3HighestWeight(lam + mu, mu, 0)
        cgens = u3.assemble_generators(hw)
        l0, lp, lmn = u3.angular_momentum_dense(cgens)
        q = oracles.quadrupole_dense(cgens)
        qqc = sum(
            ((-1.0) ** nu * q[nu] @ q[-nu] for nu in range(-2, 3)),
            np.zeros_like(l0),
        )
        llc = l0 @ l0 + (lp @ lmn + lmn @ lp) / 2
        can_mean, can_dev = repcheck.schur_constancy(qqc + 3 * llc)
        assert so3_dev <= 1e-10 and can_dev <= 1e-10
        assert abs(so3_mean - can_mean) <= 1e-10 * (1 + abs(can_mean))
    report(6, "cross-basis L-multiplicities exact and Casimir agreement (1e-10),")


def test_criterion_7_kmatrix_engine_equivalence():
    """Holomorphic u(3) {2,1,0} through the engine reproduces the canonical matrices."""
    hw = u3.U3HighestWeight(2, 1, 0)
    rep = u3.holomorphic_gamma_rep(hw, extra_grades=1)
    sblocks = kmatrix.solve_s_recursion(rep)
    ortho = kmatrix.orthonormalize(sblocks, exact=True)
    assert kmatrix.zero_norm_count(ortho) == rep.raw_dimension() - hw.dimension()
    basis, gammas = kmatrix.unitarize(rep, ortho)
    assert len(basis) == hw.dimension()
    labels = u3.basis_enumeration(hw)
    perm = [labels.index(u3.CanonicalLabel(*sec)) for sec, _ in basis]
    gens = u3.assemble_generators(hw)
    for name in u3.GENERATOR_NAMES:
        dense = np.zeros((len(basis), len(basis)))
        for (r, c), v in gammas[name].entries.items():
            dense[perm[r], perm[c]] = float(v)
        assert np.abs(dense - gens[name].to_dense()).max() <= 1e-12
    report(7, "K-matrix engine reproduces u(3) {2,1,0} entrywise (1e-12), zero-norm count,")


def _coupled_range(t1, t2):
    return range(abs(t1 - t2), t1 + t2 + 1, 2)


def test_criterion_8_am_kernel_exhaustive():
    """CG orthogonality/completeness and Racah unitarity, exact, spins <= 4."""
    half = Fraction(1, 2)
    # column orthonormality
    for tj1, tj2 in itertools.product(range(9), repeat=2):
        j1, j2 = tj1 * half, tj2 * half
        for tJ in _coupled_range(tj1, tj2):
            for tM in range(-tJ, tJ + 1, 2):
                total = Fraction(0)
                for tm1 in range(-tj1, tj1 + 1, 2):
                    tm2 = tM - tm1
                    if abs(tm2) > tj2:
                        continue
                    total += clebsch_gordan(
                        j1, tm1 * half, j2, tm2 * half, tJ * half, tM * half
                    ).squared
                assert total == 1
    # completeness
    for tj1, tj2 in itertools.product(range(9), repeat=2):
        j1, j2 = tj1 * half, tj2 * half
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                tM = tm1 + tm2
                for tm1p in range(-tj1, tj1 + 1, 2):
                    tm2p = tM - tm1p
                    if abs(tm2p) > tj2:
                        continue
                    acc = RadicalSum()
                    for tJ in _coupled_range(tj1, tj2):
                        if abs(tM) > tJ:
                            continue
                        c1 = clebsch_gordan(j1, tm1 * half, j2, tm2 * half, tJ * half, tM * half)
                        c2 = clebsch_gordan(j1, tm1p * half, j2, tm2p * half, tJ * half, tM * half)
                        if c1.is_zero() or c2.is_zero():
                            continue
                        acc = acc + c1 * c2
                    assert acc == RadicalSum.from_value(Fraction(1 if tm1 == tm1p else 0))
    # Racah U unitarity
    for ta, tb, tc, td in itertools.product(range(9), repeat=4):
        a, b, c, d = (t * half for t in (ta, tb, tc, td))
        fs = [tf * half for tf in _coupled_range(tb, td)]
        es = [te * half for te in _coupled_range(ta, tb)]
        rows = {e: [racah_u(a, b, c, d, e, f) for f in fs] for e in es}
        for i, e in enumerate(es):
            if all(v.is_zero() for v in rows[e]):
                continue
            assert sum((v.squared for v in rows[e]), Fraction(0)) == 1
            for ep in es[i + 1 :]:
                acc = RadicalSum()
                for v1, v2 in zip(rows[e], rows[ep]):
                    if v1.is_zero() or v2.is_zero():
                        continue
                    acc = acc + v1 * v2
                assert acc.is_zero()
    report(8, "CG orthogonality/completeness and Racah unitarity exact, spins <= 4,")
