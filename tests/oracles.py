"""Dense and exact reference computations that only the tests use.

Nothing in ``vcs_irreps`` calls these; the tests compare the library's
constructions and checks with them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from vcs_irreps import angmom, repcheck, su3_so3, u3
from vcs_irreps.kmatrix import GammaRep
from vcs_irreps.opmatrix import OperatorMatrix, json_finite
from vcs_irreps.radical import Radical, RadicalSum, radical_terms, squarefree_decompose
from vcs_irreps.su11 import Su11Irrep, generator_matrices


def exact_entries(m: repcheck.ExactMatrix) -> dict[tuple[int, int], Radical]:
    """An ``ExactMatrix``'s non-zero entries as ``{(row, col): Radical}``, in triple order.

    Triple ``num sqrt(core) / den`` is the ``Radical`` of ``num``'s sign and the
    radicand ``num**2 core / den**2``; an entry of several triples is their sum.
    """
    out: dict[tuple[int, int], Radical] = {}
    for r, c, core, num in zip(*(a.tolist() for a in (m.rows, m.cols, m.cores, m.nums))):
        value = Radical(1 if num > 0 else -1, Fraction(num * num * core, m.den * m.den))
        out[r, c] = out[r, c] + value if (r, c) in out else value
    return out


def frobenius(m: OperatorMatrix) -> float:
    """The Frobenius norm of an exact matrix: the root of the builtin ``sum`` of each entry's ``float()`` squared.

    The reference for the bits of ``ExactMatrix.norm``.
    """
    return float(np.sqrt(sum(float(v) ** 2 for v in m.entries.values())))


def spectrum_multiset(matrix, hermitian_tol: float = 1e-9) -> list[float]:
    """Sorted eigenvalue list (uses the symmetric solver when applicable)."""
    m = matrix.to_dense() if hasattr(matrix, "to_dense") else np.asarray(matrix)
    if np.abs(m - m.conj().T).max() <= hermitian_tol * (1.0 + np.abs(m).max()):
        ev = np.linalg.eigvalsh(m)
    else:
        ev = np.sort_complex(np.linalg.eigvals(m))
        if np.abs(ev.imag).max() < 1e-9:
            ev = ev.real
    return [float(x) for x in np.sort(ev.real)]


def casimir_matrix(spec: repcheck.AlgebraSpec, matrices: dict) -> np.ndarray:
    """The spec's quadratic Casimir ``sum c X Y`` (at least one term) as a dense array, from the float tiles."""
    forms = repcheck.TiledMatrix.tile(spec, {g: repcheck.SparseMatrix.of(matrices[g]) for g in spec.generators})
    dim = forms[spec.generators[0]].dim
    return tile_sum_dense(repcheck.TiledMatrix.sum(dim, [(c, forms[x], forms[y]) for c, x, y in spec.casimir]))


def tile_sum_dense(total: repcheck.TileSum) -> np.ndarray:
    """A tile sum as a dense array: each block put back in its places of the basis."""
    out = np.zeros((total.dim, total.dim), np.result_type(float, *total.blocks.values()))
    for (i, j), block in total.blocks.items():
        out[np.ix_(total.index[i], total.index[j])] = block
    return out


def exact_sum_reference(dim: int, terms) -> tuple[int, dict[tuple[int, int], int]]:
    """``repcheck.ExactMatrix.sum`` as a loop over each row's ``(col, core, num)`` triples, in Python ints.

    The exact kernel before it became whole-array work; the reference the
    array kernel is compared with.  Returns the common denominator and the
    numerators keyed ``(flat index, core)``, zero totals included.
    """

    def by_row(m: repcheck.ExactMatrix) -> list[list[tuple[int, int, int]]]:
        rows: list[list[tuple[int, int, int]]] = [[] for _ in range(m.dim)]
        for r, c, core, num in zip(m.rows.tolist(), m.cols.tolist(), m.cores.tolist(), m.nums.tolist()):
            rows[r].append((c, core, num))
        return rows

    parts = [
        (by_row(a), None if b is None else by_row(b), core, num, den * a.den * (1 if b is None else b.den))
        for c, a, b in terms
        for core, num, den in radical_terms(c)
    ]
    common = math.lcm(*(den for *_, den in parts))
    acc: dict[tuple[int, int], int] = {}
    gcd = math.gcd
    for a_rows, b_rows, core, num, den in parts:
        scale = num * (common // den)
        for r, row in enumerate(a_rows):
            base = r * dim
            for k, ca, na in row:
                g = gcd(ca, core)  # sqrt(ca) sqrt(core) = g sqrt(ca/g core/g)
                ca, na = (ca // g) * (core // g), na * g * scale
                if b_rows is None:
                    acc[base + k, ca] = acc.get((base + k, ca), 0) + na
                    continue
                for c, cb, nb in b_rows[k]:
                    g = gcd(ca, cb)
                    key = (base + c, (ca // g) * (cb // g))
                    acc[key] = acc.get(key, 0) + na * nb * g
    return common, acc


def clebsch_gordan_twice_float(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> float:
    """``float(angmom.clebsch_gordan_twice(...))``, bit for bit, from Racah's series without a ``Radical``.

    Both round the same exact quotient ``num / den`` once and take its square
    root.  The reference that ``angmom.rank2_cg_parts`` is compared with.
    """
    if not angmom._in_range(tj1, tm1, tj2, tm2, tJ, tM):
        return 0.0
    sign, num, den = angmom._cg_parts(tj1, tm1, tj2, tm2, tJ, tM)
    return sign * math.sqrt(num / den)


def su11_casimir_matrix(irrep: Su11Irrep) -> OperatorMatrix:
    """``S0**2 - (S+ S- + S- S+)/2``, exactly."""
    g = generator_matrices(irrep)
    s0, sp, sm = g["S0"], g["S+"], g["S-"]
    out = (s0 @ s0) - ((sp @ sm) + (sm @ sp)).scale(Fraction(1, 2))
    out.name = "Casimir"
    return out


def x_eigenbasis(lm: su3_so3.Su3Label, L: int) -> tuple[np.ndarray, list[float]]:
    """Orthogonal U diagonalizing ``M[L,L]`` and its eigenvalues, ascending.

    Columns are sign-fixed (largest-magnitude component positive); ``alpha``
    indexes the eigenvalue order.
    """
    con = su3_so3._construction(lm)
    if L not in con.unitaries:
        raise ValueError(f"L={L} carries no states in ({lm.lam},{lm.mu})")
    return con.unitaries[L].copy(), [float(v) for v in con.eigenvalues[L]]


def m_block_reference(lm: su3_so3.Su3Label, Lp: int, L: int) -> tuple[list[int], list[int], dict]:
    """``su3_so3.m_matrix(lm, Lp, L)`` with each non-zero entry a ``RadicalSum``, from Racah's series.

    Each entry is its closed-form amplitude times ``angmom.clebsch_gordan`` in
    ``Radical`` and ``RadicalSum`` arithmetic, independent of
    ``angmom.rank2_cg_parts`` and of the library's integer square classes.
    """
    rows, cols = su3_so3.raw_k_candidates(lm, Lp), su3_so3.raw_k_candidates(lm, L)
    bracket = Fraction(2 * lm.lam + lm.mu + 3) - Fraction(Lp * (Lp + 1), 2) + Fraction(L * (L + 1), 2)
    out = {}
    for c, K in enumerate(cols):
        for r, Kp in enumerate(rows):
            value = RadicalSum()
            if Kp == K:
                value = RadicalSum.from_value(angmom.clebsch_gordan(L, K, 2, 0, Lp, K)) * bracket
                if K == 1:
                    phase = -1 if (lm.lam + L + 1) % 2 else 1
                    cg = Radical.sqrt_of(Fraction(3, 2)) * angmom.clebsch_gordan(L, -1, 2, 2, Lp, 1)
                    value = value + RadicalSum.from_value(cg) * (phase * (lm.mu + 1))
            elif abs(Kp - K) == 2:
                low, high = min(K, Kp), max(K, Kp)
                amp_sq = Fraction(3, 2) * (lm.mu - low) * (lm.mu + high) * (2 if low == 0 else 1)
                value = RadicalSum.from_value(Radical.sqrt_of(amp_sq) * angmom.clebsch_gordan(L, K, 2, Kp - K, Lp, Kp))
            if value:
                out[(r, c)] = value
    return rows, cols, out


def m_matrix_reference(lm: su3_so3.Su3Label, Lp: int, L: int) -> tuple[list[int], list[int], dict]:
    """``su3_so3.m_matrix(lm, Lp, L)`` as one block was built alone: one scalar-``L`` kernel call, read by ``(M, nu)``."""
    rows, cols = su3_so3.raw_k_candidates(lm, Lp), su3_so3.raw_k_candidates(lm, L)
    ridx = {K: i for i, K in enumerate(rows)}
    bracket = 2 * (2 * lm.lam + lm.mu + 3) - Lp * (Lp + 1) + L * (L + 1)
    n = len(cols)
    M, nu = [*cols, *cols, *cols, -1], [0] * n + [2] * n + [-2] * n + [2]
    cg = dict(zip(zip(M, nu), zip(*(x.tolist() for x in angmom.rank2_cg_parts(L, Lp, M, nu)))))

    def times_cg(coeff, square, m, v):
        s, a, b = cg[(m, v)]
        if not (coeff and square and a):
            return 1, 0, 1
        root, core = squarefree_decompose(2 * square * a * b)
        return core, s * coeff * root, 4 * b

    entries = {}
    for c, K in enumerate(cols):
        if K in ridx:
            core, num, den = times_cg(bracket, 2, K, 0)
            if K == 1:
                core2, num2, den2 = times_cg(2 * (lm.mu + 1) * (-1) ** (lm.lam + L + 1), 3, -1, 2)
                core, num, den = core if num else core2, num * den2 + num2 * den, den * den2
            entries[(ridx[K], c)] = core, num, den
        for step in (+2, -2):
            if K + step in ridx:
                amp = (lm.mu - K) * (lm.mu + K + 2) if step > 0 else (lm.mu + K) * (lm.mu - K + 2)
                entries[(ridx[K + step], c)] = times_cg(2, 3 * amp * (2 if 0 in (K, K + step) else 1), K, step)
    return rows, cols, {rc: term for rc, term in entries.items() if term[1]}


def so3_generators_reference(lm: su3_so3.Su3Label) -> dict[str, repcheck.SparseMatrix]:
    """``su3_so3.assemble_so3_generators(lm)`` built one level and one block pair at a time.

    Each pair's factors times its own kernel call's Clebsch-Gordan vector over
    every ``(M, nu)``, split by ``nu``; each generator one ``SparseMatrix`` of
    the concatenated parts.
    """
    con = su3_so3._construction(lm)
    sizes = [len(con.candidates[L]) * (2 * L + 1) for L in con.levels]
    off = dict(zip(con.levels, np.cumsum([0] + sizes).tolist()))
    names = ("L0", "L+", "L-", "Q-2", "Q-1", "Q0", "Q1", "Q2")
    parts: dict[str, list] = {name: [] for name in names}
    for L, size in zip(con.levels, sizes):
        i = off[L] + np.arange(size)
        M = np.arange(size) % (2 * L + 1) - L
        up = M < L
        amp = np.sqrt((L - M[up]) * (L + M[up] + 1))
        parts["L0"].append((i, i, M.astype(float)))
        parts["L+"].append((i[up] + 1, i[up], amp))
        parts["L-"].append((i[up], i[up] + 1, amp))
    for (Lp, L), factors in con.factors.items():
        M, nu = np.repeat(np.arange(-L, L + 1), 5), np.tile(np.arange(-2, 3), 2 * L + 1)
        keep = np.abs(M + nu) <= Lp
        M, nu = M[keep], nu[keep]
        sign, num, den = angmom.rank2_cg_parts(L, Lp, M, nu)
        cg = sign * np.sqrt(num / den)
        beta, alpha = np.nonzero(factors)
        rows = off[Lp] + beta[:, None] * (2 * Lp + 1) + (M + nu + Lp)
        cols = off[L] + alpha[:, None] * (2 * L + 1) + (M + L)
        vals = factors[beta, alpha][:, None] * cg
        for n in range(-2, 3):
            at = nu == n
            parts[f"Q{n}"].append((rows[:, at].ravel(), cols[:, at].ravel(), vals[:, at].ravel()))
    return {name: repcheck.SparseMatrix(sum(sizes), *(np.concatenate(a) for a in zip(*parts[name]))) for name in names}


def quadrupole_dense(generators: dict) -> dict[int, np.ndarray]:
    """Dense complex quadrupole components ``Q(-2) .. Q(2)`` from the u(3) generators."""
    c = {name: generators[name].to_dense() for name in u3.GENERATOR_NAMES}
    h1 = c["C11"] - c["C22"]
    h2 = c["C22"] - c["C33"]
    root32 = np.sqrt(1.5)
    return {
        0: (2 * h1 + h2).astype(complex),
        1: -root32 * ((c["C12"] + c["C21"]) + 1j * (c["C13"] + c["C31"])),
        -1: root32 * ((c["C12"] + c["C21"]) - 1j * (c["C13"] + c["C31"])),
        2: root32 * (h2 + 1j * (c["C23"] + c["C32"])),
        -2: root32 * (h2 - 1j * (c["C23"] + c["C32"])),
    }


def u3_omega(hw: u3.U3HighestWeight, tj: int, tS: int) -> Fraction:
    """Eigenvalue of the u(3) U(2)-scalar lowering operator on the ``(j, S)`` multiplet, whose rises are ``u3.k_ratio_sq``."""
    j, S, s = Fraction(tj, 2), Fraction(tS, 2), Fraction(hw.twice_s, 2)
    return (2 * hw.w1 - hw.w2 - hw.w3) * j - S * (S + 1) + s * (s + 1) - j * (j - 2)


def u3_reduced_me_reference(hw: u3.U3HighestWeight, tj: int, tS: int, tSp: int) -> Radical:
    """``u3.reduced_me(hw, tj, tS, tSp, "f")`` from the general Racah series, in ``Radical`` products.

    ``sqrt((2j+1)(2S'+1)) U(s j S' 1/2; S j+1/2) sqrt(k_ratio_sq)``, with
    ``U`` from ``angmom.racah_u`` and the ratio a difference of
    :func:`u3_omega` values; zero off the irrep.
    """
    if abs(tS - tSp) != 1 or not (u3.is_admissible(hw, tj, tS) and u3.is_admissible(hw, tj + 1, tSp)):
        return Radical.zero()
    ratio = u3_omega(hw, tj + 1, tSp) - u3_omega(hw, tj, tS)
    s = Fraction(hw.twice_s, 2)
    j, S, Sp = Fraction(tj, 2), Fraction(tS, 2), Fraction(tSp, 2)
    u = angmom.racah_u(s, j, Sp, Fraction(1, 2), S, j + Fraction(1, 2))
    return Radical.sqrt_of(Fraction((tj + 1) * (tSp + 1))) * u * Radical.sqrt_of(ratio)


def u3_reduced_elements_reference(hw: u3.U3HighestWeight) -> tuple[tuple[int, int, int, Radical], ...]:
    """``u3.reduced_elements(hw)`` from :func:`u3_reduced_me_reference`."""
    elements = []
    for tj, tS in sorted({(lbl.tj, lbl.tS) for lbl in u3.basis_enumeration(hw)}):
        for tSp in (tS - 1, tS + 1):
            value = u3_reduced_me_reference(hw, tj, tS, tSp)
            if not value.is_zero():
                elements.append((tj, tS, tSp, value))
    return tuple(elements)


def u3_steps_reference(hw: u3.U3HighestWeight, tj_cap: int, irrep: bool):
    """``u3._steps(hw, tj_cap, irrep)``, with admissibility and the K ratio in ``Fraction`` arithmetic on the weight."""

    def admissible(tj, tS):
        ts = hw.twice_s
        if tj < 0 or tS < 0 or (tj + tS + ts) % 2 or abs(tj - ts) > tS or tS > tj + ts:
            return False
        return tj + tS - ts <= 2 * (hw.w1 - hw.w2)

    ts = hw.twice_s
    for tj in range(tj_cap):
        for tS in range(abs(tj - ts), tj + ts + 1, 2):
            for tSp in (tS - 1, tS + 1):
                if irrep and not (admissible(tj, tS) and admissible(tj + 1, tSp)):
                    continue
                sign, num, den = angmom.spin_half_u_parts(ts, tj, tS, tSp)
                if sign:
                    rise = 2 * (hw.w1 - hw.w2) + (hw.w2 - hw.w3) - tj + (-tS if tSp > tS else tS + 2)
                    if rise <= 0 and admissible(tj, tS) and admissible(tj + 1, tSp):
                        raise u3.AdmissibilityError(f"norm ratio {rise / 2} <= 0")
                    yield tj, tS, tSp, sign, num * (tj + 1), den, Fraction(rise, 2)


def u3_generators_reference(hw: u3.U3HighestWeight) -> dict[str, OperatorMatrix]:
    """``u3.assemble_generators(hw)`` in ``Radical`` products, from Racah's series.

    The Cartan and U(2) entries come from the spins as ``Fraction``s, and each
    grade-changing entry is ``angmom.clebsch_gordan_twice`` times the
    reference reduced element over ``sqrt(2S'+1)`` (Wigner-Eckart).
    """
    basis = u3.basis_enumeration(hw)
    index = {lbl: i for i, lbl in enumerate(basis)}
    mats = {name: OperatorMatrix(name, basis) for name in u3.GENERATOR_NAMES}
    for lbl, i in index.items():
        u2_sum = Fraction(hw.w2 + hw.w3 + lbl.tj)  # eigenvalue of C22 + C33
        mats["C11"][i, i] = hw.w1 - lbl.tj
        mats["C22"][i, i] = Fraction(u2_sum, 2) + lbl.M
        mats["C33"][i, i] = Fraction(u2_sum, 2) - lbl.M
        if lbl.tM + 2 <= lbl.tS:
            up = index[u3.CanonicalLabel(lbl.tj, lbl.tS, lbl.tM + 2)]
            amp = Radical.sqrt_of((lbl.S - lbl.M) * (lbl.S + lbl.M + 1))
            mats["C23"][up, i] = amp
            mats["C32"][i, up] = amp
    for tj, tS, tSp, f_red in u3_reduced_elements_reference(hw):
        norm = Radical.sqrt_of(Fraction(tSp + 1))
        for tM in range(-tS, tS + 1, 2):
            for t_nu, name in ((1, "C21"), (-1, "C31")):
                cgc = angmom.clebsch_gordan_twice(tS, tM, 1, t_nu, tSp, tM + t_nu)
                if not cgc.is_zero():
                    target = index[u3.CanonicalLabel(tj + 1, tSp, tM + t_nu)]
                    mats[name][target, index[u3.CanonicalLabel(tj, tS, tM)]] = cgc * f_red / norm
    mats["C12"] = mats["C21"].dagger("C12")
    mats["C13"] = mats["C31"].dagger("C13")
    return mats


def holomorphic_gamma_rep_by_transforms(hw: u3.U3HighestWeight, extra_grades: int = 1) -> GammaRep:
    """``u3.holomorphic_gamma_rep`` by conjugating the uncoupled actions with exact Clebsch-Gordan transforms.

    The raw space is spanned, grade by grade, by the U(2)-coupled products of
    the normalized monomials in the two lowering variables with the intrinsic
    spin-``s`` states.  Each block is computed in the uncoupled monomial basis,
    where every action is elementary, then conjugated by the coupling
    transforms of its two grades, summed per square-free core in plain
    integers.  Independent of the closed-form spin-1/2 couplings that the
    library uses; the reference its blocks are compared with.
    """
    ts = hw.twice_s
    tj_cap = int(hw.w1 - hw.w3) + extra_grades

    # Amplitudes are ``num / den * sqrt(core)`` over one denominator ``den``:
    # twice the weights' common denominator, so every coefficient below is an
    # integer multiple of ``1 / den``.
    den = 2 * math.lcm(hw.w1.denominator, hw.w2.denominator, hw.w3.denominator)
    half = den // 2
    w1 = int(hw.w1 * den)
    half_sum = int((hw.w2 + hw.w3) * half)  # (w2 + w3) / 2, over den

    # Uncoupled single-particle actions.  States are |j m> (x) |s nu> with
    # phi(j, m) = z2**(j+m) z3**(j-m) / sqrt((j+m)! (j-m)!); every radicand
    # below is an integer, written with doubled labels (j + m = (tj + tm)/2).
    def act_uncoupled(gen, tj, tm, tn):
        """Return a list of ``((tm', tn'), num, core)``, the amplitude over ``den``."""
        out = []

        def add(target, coeff, radicand=1):
            if coeff and radicand:
                root, core = squarefree_decompose(radicand)
                out.append((target, coeff * root, core))

        s_up = (ts - tn) // 2 * ((ts + tn + 2) // 2)  # (s - nu)(s + nu + 1)
        s_down = (ts + tn) // 2 * ((ts - tn + 2) // 2)  # (s + nu)(s - nu + 1)
        if gen == "C11":
            add((tm, tn), w1 - tj * den)
        elif gen == "C22":
            add((tm, tn), half_sum + (tn + tj + tm) * half)
        elif gen == "C33":
            add((tm, tn), half_sum + (-tn + tj - tm) * half)
        elif gen == "C23":  # s+ + z2 d3
            add((tm, tn + 2), den, s_up)
            add((tm + 2, tn), den, (tj - tm) // 2 * ((tj + tm + 2) // 2))
        elif gen == "C32":  # s- + z3 d2
            add((tm, tn - 2), den, s_down)
            add((tm - 2, tn), den, (tj + tm) // 2 * ((tj - tm + 2) // 2))
        elif gen == "C12":  # d2
            add((tm - 1, tn), den, (tj + tm) // 2)
        elif gen == "C13":  # d3
            add((tm + 1, tn), den, (tj - tm) // 2)
        elif gen == "C21":
            add((tm + 1, tn), w1 - half_sum - tn * half - tj * den, (tj + tm) // 2 + 1)
            add((tm - 1, tn + 2), -den, s_up * ((tj - tm) // 2 + 1))
        elif gen == "C31":
            add((tm - 1, tn), w1 - half_sum + tn * half - tj * den, (tj - tm) // 2 + 1)
            add((tm + 1, tn - 2), -den, s_down * ((tj + tm) // 2 + 1))
        else:
            raise ValueError(gen)
        return out

    sectors, grades = {}, {}
    # Exact coupling transform per grade, indexed by uncoupled row (tm, tn):
    # a list of (tS, tM, core, num), the coefficient over cg_den[tj].
    transforms, cg_den = {}, {}
    for tj in range(tj_cap + 1):
        for tS in range(abs(tj - ts), tj + ts + 1, 2):
            for tM in range(-tS, tS + 1, 2):
                sectors[(tj, tS, tM)] = 1
                grades[(tj, tS, tM)] = tj
        rows = {}
        for tm in range(-tj, tj + 1, 2):
            for tn in range(-ts, ts + 1, 2):
                tM = tm + tn
                rows[(tm, tn)] = [
                    (tS, tM, core, num, d)
                    for tS in range(max(abs(tj - ts), abs(tM)), tj + ts + 1, 2)
                    for core, num, d in radical_terms(angmom.clebsch_gordan_twice(ts, tn, tj, tm, tS, tM))
                ]
        common = math.lcm(*(d for row in rows.values() for *_, d in row))
        transforms[tj] = {
            key: [(tS, tM, core, num * (common // d)) for tS, tM, core, num, d in row]
            for key, row in rows.items()
        }
        cg_den[tj] = common

    grade_shift = {"C11": 0, "C22": 0, "C33": 0, "C23": 0, "C32": 0,
                   "C12": -1, "C13": -1, "C21": 1, "C31": 1}
    gcd = math.gcd
    blocks: dict[str, dict] = {name: {} for name in u3.GENERATOR_NAMES}
    for gen in u3.GENERATOR_NAMES:
        for tj in range(tj_cap + 1):
            tjp = tj + grade_shift[gen]
            if not 0 <= tjp <= tj_cap:
                continue
            t_out = transforms[tjp]
            # gamma_coupled[(S'M'), (SM)] = sum T_out . Gamma_unc . T_in, per core
            acc: dict[tuple, int] = {}
            for (tm, tn), cg_in in transforms[tj].items():
                for target, a_num, a_core in act_uncoupled(gen, tj, tm, tn):
                    cg_out = t_out.get(target)
                    if not cg_out:
                        continue
                    for tS, tM, c_in, n_in in cg_in:
                        g = gcd(c_in, a_core)
                        c1, n1 = (c_in // g) * (a_core // g), n_in * a_num * g
                        for tSp, tMp, c_out, n_out in cg_out:
                            g = gcd(c1, c_out)
                            key = (tSp, tMp, tS, tM, (c1 // g) * (c_out // g))
                            acc[key] = acc.get(key, 0) + n1 * n_out * g
            scale = (cg_den[tjp] * den * cg_den[tj]) ** 2
            gen_blocks = blocks[gen]
            for (tSp, tMp, tS, tM, core), num in acc.items():
                if not num:
                    continue
                key = ((tjp, tSp, tMp), (tj, tS, tM))
                if key in gen_blocks:
                    raise ValueError(f"{gen} block {key} spans more than one square class")
                gen_blocks[key] = [[Radical(1 if num > 0 else -1, Fraction(num * num * core, scale))]]

    adjoints = {"C11": "C11", "C22": "C22", "C33": "C33",
                "C12": "C21", "C21": "C12", "C13": "C31", "C31": "C13",
                "C23": "C32", "C32": "C23"}
    return GammaRep(sectors=sectors, grades=grades, blocks=blocks, adjoints=adjoints, exact=True)


def matrix_from_json_reference(name: str, info: dict, dim: int):
    """A document's generator read through one ``Radical`` per exact entry, then put in its check form.

    The replay's reader before it parsed into arrays: ``zip(*entries)`` for the
    columns, an ``OperatorMatrix`` of ``Radical`` values converted by
    ``ExactMatrix.of`` when every value is a dict, else a ``SparseMatrix`` of
    each value's float, checked one value at a time.  The reference that
    ``cli._matrix_from_json`` is compared with.
    """
    if info["dim"] != dim:
        raise ValueError(f"{name} has dim {info['dim']!r}, but the weight gives {dim}")
    entries = info["entries"]
    if not all(isinstance(e, list) and len(e) == 3 for e in entries):
        raise ValueError(f"{name} has an entry that is not [row, col, value]")
    rows, cols, values = zip(*entries) if entries else ((), (), ())
    if not all(type(i) is int for i in rows + cols):
        raise ValueError(f"{name} has an entry index that is not an integer")
    indices = rows + cols
    if indices and not 0 <= min(indices) <= max(indices) < dim:
        raise IndexError(f"{name} has an entry outside its {dim}x{dim} matrix")
    def radical(obj: dict) -> Radical:  # Radical.from_json as it read a value before json_radical
        return Radical(int(obj["sign"]), Fraction(obj["radicand"]))

    if all(isinstance(v, dict) for v in values):
        matrix = dict(zip(zip(rows, cols), map(radical, values)))
        if len(matrix) != len(values):
            raise ValueError(f"{name} repeats an entry")
        return repcheck.ExactMatrix.of(OperatorMatrix(name, range(dim), matrix))
    floats = (float(radical(v)) if isinstance(v, dict) else json_finite(name, v) for v in values)
    try:
        floats = list(floats)
    except OverflowError as exc:
        raise OverflowError(f"an entry of {name} overflows a float") from exc
    return repcheck.SparseMatrix(dim, rows, cols, floats)


def balanced_reference(s_col, g, p, s_row) -> bool:
    """Whether ``S(col) q_g == q_p S(row)`` for square classes ``g``, ``p``, by cross-multiplying in integers.

    The K-matrix pair check before it scaled ``S(row)`` by the short ratio
    ``q_p / q_g``: both sides are brought to one denominator, so two long S
    values meet in one product.  The cores must agree unless both sides are
    zero.  The reference that ``kmatrix._balanced`` is compared with.
    """
    core_g, num_g, den_g = g
    core_p, num_p, den_p = p
    lhs = s_col.numerator * num_g * den_p * s_row.denominator
    return lhs == s_row.numerator * num_p * den_g * s_col.denominator and (not lhs or core_g == core_p)
