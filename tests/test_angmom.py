"""Coupling coefficients against independent oracles and exact sweeps."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import clebsch_gordan_twice_float
from vcs_irreps.angmom import (
    RANK2_MAX_L,
    Spin,
    SpinError,
    _cg_parts,
    _twice,
    clebsch_gordan,
    clebsch_gordan_twice,
    racah_u,
    rank2_cg_parts,
    wigner_6j,
)
from vcs_irreps.radical import Radical, RadicalSum

HALF = Fraction(1, 2)


def spins_up_to(jmax):
    return [Fraction(t, 2) for t in range(0, int(2 * jmax) + 1)]


def coupled_range(j1, j2):
    """J values allowed by the triangle rule for j1 x j2."""
    t1, t2 = int(2 * Fraction(j1)), int(2 * Fraction(j2))
    return [Fraction(t, 2) for t in range(abs(t1 - t2), t1 + t2 + 1, 2)]


def projections(j):
    t = int(2 * j)
    return [Fraction(m, 2) for m in range(-t, t + 1, 2)]


# -- independent oracles -----------------------------------------------------


def su2_matrices(j):
    """Dense (jz, j+, j-) for one spin."""
    dim = int(2 * j) + 1
    ms = [float(j) - k for k in range(dim)]
    jz = np.diag(ms)
    jp = np.zeros((dim, dim))
    for k in range(1, dim):
        m = ms[k]
        jp[k - 1, k] = np.sqrt((float(j) - m) * (float(j) + m + 1))
    return jz, jp, jp.T


def brute_force_cg_table(j1, j2):
    """Diagonalize total J^2 on the product space, Condon-Shortley phases.

    Phase convention: within each J block the |J M=J> eigenvector has a
    positive coefficient on the m1 = min(j1, J + j2... ) highest-m1 basis
    state, and lower M states follow by applying the total lowering operator.
    """
    z1, p1, m1_ = su2_matrices(j1)
    z2, p2, m2_ = su2_matrices(j2)
    d1, d2 = z1.shape[0], z2.shape[0]
    eye1, eye2 = np.eye(d1), np.eye(d2)
    jz = np.kron(z1, eye2) + np.kron(eye1, z2)
    jp = np.kron(p1, eye2) + np.kron(eye1, p2)
    jm = jp.T
    jsq = jm @ jp + jz @ jz + jz
    # kron ordering matches su2_matrices, whose rows run m = j, j-1, ..., -j
    basis = [
        (m1, m2)
        for m1 in reversed(projections(j1))
        for m2 in reversed(projections(j2))
    ]

    table = {}
    for J in coupled_range(j1, j2):
        # top state: common null vector of (J^2 - J(J+1)) and (Jz - J)
        a = np.vstack([jsq - float(J * (J + 1)) * np.eye(len(basis)), jz - float(J) * np.eye(len(basis))])
        _, s, vt = np.linalg.svd(a)
        assert s[-1] < 1e-8 < s[-2], "top state should exist and be unique"
        v = vt[-1]
        # Condon-Shortley: coefficient of the highest-m1 component positive
        lead = max(
            (i for i in range(len(basis)) if abs(v[i]) > 1e-10),
            key=lambda i: basis[i][0],
        )
        if v[lead] < 0:
            v = -v
        M = J
        table[(J, M)] = v
        while M > -J:
            w = jm @ v
            norm = np.sqrt(float((J + M) * (J - M + 1)))
            v = w / norm
            M -= 1
            table[(J, M)] = v
    return basis, table


@pytest.mark.parametrize("j1,j2", [(HALF, HALF), (1, HALF), (1, 1), (Fraction(3, 2), 1), (2, 2)])
def test_cg_matches_brute_force_diagonalization(j1, j2):
    basis, table = brute_force_cg_table(Fraction(j1), Fraction(j2))
    for (J, M), vec in table.items():
        for (m1, m2), coeff in zip(basis, vec):
            got = float(clebsch_gordan(j1, m1, j2, m2, J, M))
            assert got == pytest.approx(coeff, abs=1e-10)


def test_frozen_examples():
    # coupling with zero
    assert clebsch_gordan(2, 1, 0, 0, 2, 1) == Radical.one()
    # triangle violation
    assert clebsch_gordan(1, 0, 1, 0, 3, 0) == Radical.zero()
    # singlet from two spin halves, value from the brute-force oracle
    assert clebsch_gordan(HALF, HALF, HALF, -HALF, 0, 0) == Radical.sqrt_of(HALF)
    assert clebsch_gordan(HALF, -HALF, HALF, HALF, 0, 0) == -Radical.sqrt_of(HALF)


def test_projection_rules():
    # M != m1 + m2 gives zero, as does an out-of-range projection
    assert clebsch_gordan(1, 1, 1, 1, 2, 1) == Radical.zero()
    assert clebsch_gordan(1, 2, 1, 0, 2, 2) == Radical.zero()
    # parity mismatch between spin and projection is an input error
    with pytest.raises(SpinError):
        clebsch_gordan(HALF, 0, HALF, HALF, 1, HALF)
    with pytest.raises(SpinError):
        clebsch_gordan(1, HALF, HALF, 0, Fraction(3, 2), HALF)


def test_spin_type():
    s = Spin(HALF)
    assert s.twice == 1
    assert s.projections() == [-HALF, HALF]
    with pytest.raises(SpinError):
        Spin(Fraction(1, 3))
    with pytest.raises(SpinError):
        Spin(-1)


def test_twice_fraction_fast_path():
    assert _twice(Fraction(-3, 2)) == -3
    assert _twice(Fraction(4, 2)) == 4
    assert _twice(Fraction(0)) == 0
    with pytest.raises(SpinError):
        _twice(Fraction(1, 3))
    with pytest.raises(SpinError):
        _twice(True)


def test_cg_column_orthonormality_exact():
    for j1, j2 in itertools.product(spins_up_to(2), repeat=2):
        for J in coupled_range(j1, j2):
            for M in projections(J):
                total = Fraction(0)
                any_nonzero = False
                for m1 in projections(j1):
                    m2 = M - m1
                    if abs(m2) > j2:
                        continue
                    c = clebsch_gordan(j1, m1, j2, m2, J, M)
                    any_nonzero = any_nonzero or not c.is_zero()
                    total += c.squared
                assert any_nonzero and total == 1


def test_cg_completeness_exact():
    j1, j2 = Fraction(3, 2), 1
    for m1 in projections(j1):
        for m2 in projections(j2):
            for m1p in projections(j1):
                m2p = m1 + m2 - m1p
                if abs(m2p) > j2:
                    continue
                acc = RadicalSum()
                for J in coupled_range(j1, j2):
                    if abs(m1 + m2) > J:
                        continue
                    prod = clebsch_gordan(j1, m1, j2, m2, J, m1 + m2) * clebsch_gordan(
                        j1, m1p, j2, m2p, J, m1 + m2
                    )
                    acc = acc + prod
                expected = 1 if (m1, m2) == (m1p, m2p) else 0
                assert acc == RadicalSum.from_value(Fraction(expected))


def test_cg_exchange_symmetry_exact():
    for j1, j2 in itertools.product(spins_up_to(Fraction(3, 2)), repeat=2):
        for J in coupled_range(j1, j2):
            phase = (-1) ** int(j1 + j2 - J)
            for m1 in projections(j1):
                for m2 in projections(j2):
                    M = m1 + m2
                    if abs(M) > J:
                        continue
                    lhs = clebsch_gordan(j1, m1, j2, m2, J, M)
                    rhs = clebsch_gordan(j2, m2, j1, m1, J, M) * phase
                    assert lhs == rhs


# -- Racah U ----------------------------------------------------------------


def u_by_cg_contraction(a, b, c, d, e, f) -> float:
    """Defining double sum over magnetic quantum numbers (oracle)."""
    gamma = Fraction(c)
    total = 0.0
    for beta in projections(b):
        for delta in projections(d):
            alpha = gamma - beta - delta
            ta, talpha = int(2 * Fraction(a)), int(2 * alpha)
            if abs(talpha) > ta or (ta + talpha) % 2:
                continue
            total += (
                float(clebsch_gordan(a, alpha, b, beta, e, alpha + beta))
                * float(clebsch_gordan(e, alpha + beta, d, delta, c, gamma))
                * float(clebsch_gordan(b, beta, d, delta, f, beta + delta))
                * float(clebsch_gordan(a, alpha, f, beta + delta, c, gamma))
            )
    return total


def test_racah_u_against_contraction_oracle():
    vals = spins_up_to(Fraction(3, 2))
    for a, b, c, d in itertools.product(vals, repeat=4):
        for e in coupled_range(a, b):
            for f in coupled_range(b, d):
                assert float(racah_u(a, b, c, d, e, f)) == pytest.approx(
                    u_by_cg_contraction(a, b, c, d, e, f), abs=1e-12
                )


def test_racah_u_frozen_examples():
    # recoupling with a zero spin
    assert racah_u(2, 0, Fraction(3, 2), Fraction(3, 2), 2, Fraction(3, 2)) == Radical.one()
    assert racah_u(Fraction(5, 2), 0, 2, Fraction(3, 2), Fraction(5, 2), Fraction(3, 2)) == Radical.one()
    # value fixed by the contraction oracle
    assert racah_u(HALF, HALF, HALF, HALF, 0, 1) == Radical.sqrt_of(Fraction(3, 4))
    assert racah_u(HALF, HALF, HALF, HALF, 0, 0) == Radical.from_rational(Fraction(-1, 2))
    # unsatisfiable triangles return zero
    assert racah_u(2, 0, 1, Fraction(3, 2), 2, Fraction(3, 2)) == Radical.zero()


def test_racah_u_unitarity_exact():
    vals = spins_up_to(Fraction(3, 2))
    for a, b, c, d in itertools.product(vals, repeat=4):
        es = coupled_range(a, b)
        fs = coupled_range(b, d)
        for e in es:
            row = [racah_u(a, b, c, d, e, f) for f in fs]
            if all(u.is_zero() for u in row):
                continue
            assert sum((u.squared for u in row), Fraction(0)) == 1
            for ep in es:
                if ep <= e:
                    continue
                acc = RadicalSum()
                for f in fs:
                    acc = acc + racah_u(a, b, c, d, e, f) * racah_u(a, b, c, d, ep, f)
                assert acc.is_zero()


def test_wigner_6j_spot_values():
    # {1/2 1/2 0; 1/2 1/2 1} = 1/2 and {1 1 1; 1 1 1} = 1/6
    assert wigner_6j(HALF, HALF, 0, HALF, HALF, 1) == Radical.from_rational(HALF)
    assert wigner_6j(1, 1, 1, 1, 1, 1) == Radical.from_rational(Fraction(1, 6))


# -- the twice-integer entry point ---------------------------------------------


def test_cg_twice_matches_cg_over_the_spin_4_sweep():
    for tj1, tj2 in itertools.product(range(9), repeat=2):
        for tm1, tm2 in itertools.product(range(-tj1, tj1 + 1, 2), range(-tj2, tj2 + 1, 2)):
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tM in (tm1 + tm2, tm1 + tm2 + 2):
                    args = (tj1, tm1, tj2, tm2, tJ, tM)
                    want = clebsch_gordan(*(Fraction(t, 2) for t in args))
                    assert clebsch_gordan_twice(*args) == want


def test_cg_twice_input_rules():
    # out-of-range projections give zero, as for the spin-valued entry point
    assert clebsch_gordan_twice(2, 4, 2, 0, 4, 4) == Radical.zero()
    assert clebsch_gordan_twice(1, 1, 1, -1, 0, 0) == Radical.sqrt_of(HALF)
    assert clebsch_gordan_twice_float(2, 4, 2, 0, 4, 4) == 0.0
    assert clebsch_gordan_twice_float(1, 1, 1, -1, 0, 0) == math.sqrt(0.5)
    for bad in [(1, 0, 1, 1, 2, 1), (2, 1, 1, 0, 3, 1), (2, 0, 2, 0, 3, 0), (-2, 0, 2, 0, 2, 0)]:
        with pytest.raises(SpinError):
            clebsch_gordan_twice(*bad)
        with pytest.raises(SpinError):
            clebsch_gordan_twice_float(*bad)
    with pytest.raises(SpinError):
        clebsch_gordan(-1, 0, 1, 0, 1, 0)


def test_cg_twice_matches_sympy_up_to_spin_10():
    sympy_wigner = pytest.importorskip("sympy.physics.wigner")
    import sympy

    rng = random.Random(20121)
    checked = 0
    while checked < 100:
        tj1, tj2 = rng.randint(0, 20), rng.randint(0, 20)
        tJ = rng.randrange(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
        tm1 = rng.randrange(-tj1, tj1 + 1, 2)
        tm2 = rng.randrange(-tj2, tj2 + 1, 2)
        tM = tm1 + tm2
        if abs(tM) > tJ:
            continue
        got = clebsch_gordan_twice(tj1, tm1, tj2, tm2, tJ, tM)
        want = sympy_wigner.clebsch_gordan(*(sympy.Rational(t, 2) for t in (tj1, tj2, tJ, tm1, tm2, tM)))
        square = sympy.expand(want**2)
        assert square.is_Rational and got.squared == Fraction(int(square.p), int(square.q))
        assert got.sign == int(sympy.sign(want))
        checked += 1


def _racah_cg_in_fractions(tj1, tm1, tj2, tm2, tJ, tM):
    """The Condon-Shortley coefficient from Racah's sum accumulated in ``Fraction``s."""
    if tM != tm1 + tm2 or abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tM) > tJ:
        return Radical.zero()

    def f(t):
        return math.factorial(t // 2)

    kmin = max(0, -(tJ - tj2 + tm1) // 2, -(tJ - tj1 - tm2) // 2)
    kmax = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = (
            math.factorial(k)
            * f(tj1 + tj2 - tJ - 2 * k)
            * f(tj1 - tm1 - 2 * k)
            * f(tj2 + tm2 - 2 * k)
            * f(tJ - tj2 + tm1 + 2 * k)
            * f(tJ - tj1 - tm2 + 2 * k)
        )
        total += Fraction(-1 if k % 2 else 1, den)
    if total == 0:
        return Radical.zero()
    prefactor = (
        Fraction((tJ + 1) * f(tj1 + tj2 - tJ) * f(tj1 - tj2 + tJ) * f(-tj1 + tj2 + tJ), f(tj1 + tj2 + tJ + 2))
        * f(tJ + tM)
        * f(tJ - tM)
        * f(tj1 + tm1)
        * f(tj1 - tm1)
        * f(tj2 + tm2)
        * f(tj2 - tm2)
    )
    return Radical(1 if total > 0 else -1, prefactor * total * total)


def test_cg_integer_sum_matches_the_fraction_sum():
    # every triangle-allowed coefficient with 2 j1 <= 12 and 2 j2 <= 8,
    # out-of-range total projections included
    checked = 0
    for tj1, tj2 in itertools.product(range(13), range(9)):
        for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            for tm1, tm2 in itertools.product(range(-tj1, tj1 + 1, 2), range(-tj2, tj2 + 1, 2)):
                args = (tj1, tm1, tj2, tm2, tJ, tm1 + tm2)
                got, want = clebsch_gordan_twice(*args), _racah_cg_in_fractions(*args)
                assert (got.sign, got.radicand) == (want.sign, want.radicand), args
                assert float(got).hex() == float(want).hex(), args
                assert clebsch_gordan_twice_float(*args).hex() == float(want).hex(), args
                mirror = clebsch_gordan_twice_float(tj1, -tm1, tj2, -tm2, tJ, -tm1 - tm2)
                assert mirror == (-1) ** ((tj1 + tj2 - tJ) // 2) * float(want), args
                checked += 1
    assert checked == 23_427


def test_float_cg_is_the_float_of_the_radical_for_rank_2():
    # every (j m, 2 nu | J m+nu) with 2 j <= 80, the su(3) builder's family,
    # out-of-range total projections included; the M-mirror is an exact sign,
    # and at integer j the closed-form kernel gives the same bits
    checked = 0
    for tj in range(81):
        for tJ in range(abs(tj - 4), tj + 5, 2):
            sign = (-1) ** ((tj + 4 - tJ) // 2)
            pairs = list(itertools.product(range(-tj, tj + 1, 2), range(-4, 5, 2)))
            if tj % 2 == 0:
                m, nu = np.array(pairs).T // 2
                s, num, den = rank2_cg_parts(tj // 2, tJ // 2, m, nu)
                kernel = (s * np.sqrt(num / den)).tolist()
            for k, (tm, tnu) in enumerate(pairs):
                args = (tj, tm, 4, tnu, tJ, tm + tnu)
                got = clebsch_gordan_twice_float(*args)
                assert got.hex() == float(clebsch_gordan_twice(*args)).hex(), args
                assert clebsch_gordan_twice_float(tj, -tm, 4, -tnu, tJ, -tm - tnu) == sign * got, args
                if tj % 2 == 0:
                    assert kernel[k].hex() == got.hex(), args
                checked += 1
    assert checked == 82_925


def _assert_rank2_kernel_is_the_series(L, Lp, M, nu):
    sign, num, den = (a.tolist() for a in rank2_cg_parts(L, Lp, M, nu))
    for m, n, s, a, b in zip(M.tolist(), nu.tolist(), sign, num, den):
        if abs(m) > L or abs(n) > 2 or abs(m + n) > Lp:
            want = (0, 0, 1)
        else:
            want = _cg_parts(2 * L, 2 * m, 4, 2 * n, 2 * Lp, 2 * (m + n))
        assert s == want[0] and a * want[2] == want[1] * b, (L, Lp, m, n)
        assert max(a, b) < 6 * (2 * L + 4) ** 4  # the bound behind RANK2_MAX_L
    return len(M)


def test_rank2_kernel_is_the_racah_series_exactly():
    # every L <= 60 with every L', M and nu around the allowed ones, so failed
    # triangles and out-of-range projections too; above that up to L = 130,
    # the extreme M at each end and a sample between
    checked = 0
    for L in range(61):
        M, nu = np.repeat(np.arange(-L - 1, L + 2), 7), np.tile(np.arange(-3, 4), 2 * L + 3)
        for Lp in range(max(0, L - 3), L + 4):
            checked += _assert_rank2_kernel_is_the_series(L, Lp, M, nu)
    rng = random.Random(20121)
    for L in range(61, 131):
        ms = sorted({*range(-L, -L + 3), *range(L - 2, L + 1), *rng.sample(range(-L, L + 1), 8)})
        M, nu = np.repeat(ms, 5), np.tile(np.arange(-2, 3), len(ms))
        for Lp in range(L - 2, L + 3):
            checked += _assert_rank2_kernel_is_the_series(L, Lp, M, nu)
    assert checked == 212_150


def test_rank2_kernel_refuses_l_where_num_or_den_could_reach_2_to_the_53():
    L = RANK2_MAX_L
    assert 6 * (2 * L + 4) ** 4 < 2**53 <= 6 * (2 * L + 6) ** 4
    M = np.arange(-L, L + 1)
    for Lp in range(L - 2, L + 3):
        for nu in range(-2, 3):
            sign, num, den = rank2_cg_parts(L, Lp, M, nu)
            assert 0 < num.max() and max(num.max(), den.max()) < 2**53
    _assert_rank2_kernel_is_the_series(L, L + 1, np.array([-L, 0, 7, L - 1]), np.array([2, -1, 0, 1]))
    with pytest.raises(OverflowError, match="L=3111"):
        rank2_cg_parts(L + 1, L + 1, 0, 0)
