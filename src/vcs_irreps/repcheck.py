"""Reusable verification suite for representation matrices.

An :class:`AlgebraSpec` is a structure-constant table ``[X, Y] = sum c Z``
over named generators, validated once (antisymmetry and the Jacobi identity,
exactly) at construction, together with the quadratic Casimir as
``sum c X Y`` terms.  Residual functions measure how well a concrete set of
matrices realizes the table, how well declared Hermiticity pairs hold, and
whether the Casimir is a multiple of the identity (Schur test);
:func:`standard_checks` runs all three.  All residuals are relative, so
tolerances need no retuning with irrep size.

Whether a check runs exactly or in floats follows from the matrices alone.
When every generator is exact (``int``, ``Fraction``, ``Radical`` or
``RadicalSum`` entries), each becomes an :class:`ExactMatrix` once: integer
numerators over one denominator per matrix, times square roots of square-free
cores.  Commutators, Hermiticity and the Casimir are then summed in plain
integers, so a holding identity reports exactly 0.0; only a non-zero defect
(or a Casimir that is not exactly constant) is turned into floats, to report
its size.  Otherwise each generator becomes a :class:`SparseMatrix` once, and
products are gathered entry by entry and summed with ``np.bincount``.  Either
way a check costs the number of scalar products it forms plus ``d**2``, never
``d**3``; only the float Casimir is held densely, for the Schur test.

Shipped tables: su(1,1), u(3) (all 81 relations), and su(3) in its
SO(3)-tensor form (angular momentum plus the five quadrupole components).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .opmatrix import OperatorMatrix
from .radical import Radical, RadicalSum, as_float, radical_terms

# The package's one default tolerance: for residual checks, for the K-matrix
# engine's float solves and for su3_so3's zero test on reduced elements.
DEFAULT_TOL = 1e-10

Bracket = tuple[tuple[object, str], ...]
Casimir = tuple[tuple[object, str, str], ...]


@dataclass(frozen=True)
class AlgebraSpec:
    """Named generators, the full antisymmetric bracket table and the Casimir."""

    name: str
    generators: tuple[str, ...]
    brackets: dict[tuple[str, str], Bracket]
    hermiticity_pairs: tuple[tuple[str, str, int], ...]
    casimir: Casimir = ()  # quadratic Casimir ``sum c X Y`` as (c, X, Y) terms

    def __post_init__(self):
        self._validate_antisymmetry()
        self._validate_jacobi()
        unknown = {g for _, x, y in self.casimir for g in (x, y)} - set(self.generators)
        if unknown:
            raise ValueError(f"Casimir uses unknown generators {sorted(unknown)}")

    def bracket(self, x: str, y: str) -> Bracket:
        if (x, y) in self.brackets:
            return self.brackets[(x, y)]
        if (y, x) in self.brackets:
            return tuple((-c, z) for c, z in self.brackets[(y, x)])
        if x == y:
            return ()
        raise KeyError(f"no bracket for ({x}, {y})")

    def _validate_antisymmetry(self):
        for (x, y) in self.brackets:
            if x == y:
                if self.brackets[(x, y)]:
                    raise ValueError(f"[{x},{x}] must vanish")
            if (y, x) in self.brackets and (x, y) != (y, x):
                fwd = _coeff_map(self.brackets[(x, y)])
                bwd = _coeff_map(self.brackets[(y, x)])
                names = set(fwd) | set(bwd)
                for n in names:
                    if not (fwd.get(n, RadicalSum()) + bwd.get(n, RadicalSum())).is_zero():
                        raise ValueError(f"brackets for ({x},{y}) are not antisymmetric")

    def _validate_jacobi(self):
        gens = self.generators
        for i, x in enumerate(gens):
            for j in range(i + 1, len(gens)):
                for k in range(j + 1, len(gens)):
                    y, z = gens[j], gens[k]
                    total: dict[str, RadicalSum] = {}
                    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                        for coeff, w in self.bracket(b, c):
                            for coeff2, v in self.bracket(a, w):
                                cur = total.get(v, RadicalSum())
                                total[v] = cur + RadicalSum.from_value(coeff) * RadicalSum.from_value(coeff2)
                    for v, acc in total.items():
                        if not acc.is_zero():
                            raise ValueError(
                                f"Jacobi identity fails for ({x},{y},{z}) at {v}"
                            )


def _coeff_map(terms: Bracket) -> dict[str, RadicalSum]:
    out: dict[str, RadicalSum] = {}
    for c, z in terms:
        out[z] = out.get(z, RadicalSum()) + RadicalSum.from_value(c)
    return out


# -- shipped algebra tables ----------------------------------------------------


def su11_spec() -> AlgebraSpec:
    """su(1,1): ``[S0, S+-] = +-S+-``, ``[S-, S+] = 2 S0``.

    Casimir ``S0**2 - (S+ S- + S- S+)/2``, equal to ``lam**2/4 - lam/2``.
    """
    return AlgebraSpec(
        name="su11",
        generators=("S0", "S+", "S-"),
        brackets={
            ("S0", "S+"): ((1, "S+"),),
            ("S0", "S-"): ((-1, "S-"),),
            ("S-", "S+"): ((2, "S0"),),
        },
        hermiticity_pairs=(("S0", "S0", 1), ("S+", "S-", 1)),
        casimir=((1, "S0", "S0"), (Fraction(-1, 2), "S+", "S-"), (Fraction(-1, 2), "S-", "S+")),
    )


def u3_spec() -> AlgebraSpec:
    """u(3): ``[C(ij), C(kl)] = d(kj) C(il) - d(il) C(kj)`` for all 81 pairs.

    Casimir ``sum_ik C(ik) C(ki)``, equal to ``sum w_i**2 + sum_{i<j} (w_i - w_j)``.
    """
    names = [(i, k) for i in (1, 2, 3) for k in (1, 2, 3)]
    brackets = {}
    for i, k in names:
        for l, m in names:
            terms = []
            if k == l:
                terms.append((1, f"C{i}{m}"))
            if i == m:
                terms.append((-1, f"C{l}{k}"))
            combined: dict[str, int] = {}
            for c, z in terms:
                combined[z] = combined.get(z, 0) + c
            brackets[(f"C{i}{k}", f"C{l}{m}")] = tuple(
                (c, z) for z, c in combined.items() if c
            )
    herm = tuple((f"C{i}{k}", f"C{k}{i}", 1) for i, k in names)
    return AlgebraSpec(
        name="u3",
        generators=tuple(f"C{i}{k}" for i, k in names),
        brackets=brackets,
        hermiticity_pairs=herm,
        casimir=tuple((1, f"C{i}{k}", f"C{k}{i}") for i, k in names),
    )


def su3_so3_spec() -> AlgebraSpec:
    """su(3) in SO(3)-tensor form: L0, L+-, and the rank-2 quadrupole Q(-2..2).

    The quadrupole components transform as a spherical rank-2 tensor under L,
    close on L among themselves (in particular ``[Q2, Q-2] = 6 L0``), and obey
    ``Q(n)^dag = (-1)**n Q(-n)``.  Casimir ``Q.Q + 3 L.L``, equal to
    ``4 (lam**2 + mu**2 + lam mu + 3 lam + 3 mu)`` on the irrep ``(lam, mu)``.
    """
    rt6 = Radical.sqrt_of(6)
    c32 = rt6 * Fraction(3, 2)
    brackets: dict[tuple[str, str], Bracket] = {
        ("L0", "L+"): ((1, "L+"),),
        ("L0", "L-"): ((-1, "L-"),),
        ("L+", "L-"): ((2, "L0"),),
        ("Q-2", "Q-1"): (),
        ("Q-2", "Q0"): (),
        ("Q-2", "Q1"): ((-3, "L-"),),
        ("Q-2", "Q2"): ((-6, "L0"),),
        ("Q-1", "Q0"): ((c32, "L-"),),
        ("Q-1", "Q1"): ((3, "L0"),),
        ("Q-1", "Q2"): ((3, "L+"),),
        ("Q0", "Q1"): ((-c32, "L+"),),
        ("Q0", "Q2"): (),
        ("Q1", "Q2"): (),
    }
    for n in range(-2, 3):
        brackets[("L0", f"Q{n}")] = ((n, f"Q{n}"),) if n else ()
        up = (2 - n) * (3 + n)
        brackets[("L+", f"Q{n}")] = (
            ((Radical.sqrt_of(up), f"Q{n + 1}"),) if up else ()
        )
        down = (2 + n) * (3 - n)
        brackets[("L-", f"Q{n}")] = (
            ((Radical.sqrt_of(down), f"Q{n - 1}"),) if down else ()
        )
    herm = [("L0", "L0", 1), ("L+", "L-", 1)] + [
        (f"Q{n}", f"Q{-n}", (-1) ** abs(n)) for n in range(-2, 3)
    ]
    return AlgebraSpec(
        name="su3-so3",
        generators=("L0", "L+", "L-", "Q-2", "Q-1", "Q0", "Q1", "Q2"),
        brackets=brackets,
        hermiticity_pairs=tuple(herm),
        casimir=tuple(((-1) ** abs(n), f"Q{n}", f"Q{-n}") for n in range(-2, 3))
        + ((3, "L0", "L0"), (Fraction(3, 2), "L+", "L-"), (Fraction(3, 2), "L-", "L+")),
    )


# -- residual functions --------------------------------------------------------


class SparseMatrix:
    """A float matrix in row-sorted coordinate form, as the float checks use it.

    ``rows``, ``cols`` and ``vals`` hold the entries sorted by row, then by
    column; ``starts[r]:starts[r + 1]`` is row ``r``'s slice and ``norm`` is the
    Frobenius norm.  A product gathers ``B``'s row slice for every entry of
    ``A``, so it costs the number of scalar products it forms, not ``d**3``.
    """

    __slots__ = ("dim", "rows", "cols", "vals", "starts", "norm")

    def __init__(self, dim: int, rows, cols, vals):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals)
        if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= dim):
            raise IndexError(f"entry outside {dim}x{dim} matrix")
        keys = rows * dim + cols
        order = np.argsort(keys, kind="stable")
        if np.any(np.diff(keys[order]) == 0):
            raise ValueError("duplicate matrix entry")
        self.dim = dim
        self.rows, self.cols, self.vals = rows[order], cols[order], vals[order]
        self.starts = np.searchsorted(self.rows, np.arange(dim + 1))
        self.norm = float(np.linalg.norm(self.vals))

    @classmethod
    def of(cls, m) -> "SparseMatrix":
        """The sparse form of an OperatorMatrix (exact or float) or an ndarray."""
        if isinstance(m, cls):
            return m
        if isinstance(m, OperatorMatrix):
            keys = np.array(list(m.entries), dtype=np.int64).reshape(-1, 2)
            vals = np.fromiter(m.entries.values(), float, len(m.entries))  # float() of each
            return cls(m.dim, keys[:, 0], keys[:, 1], vals)
        m = np.asarray(m)
        rows, cols = np.nonzero(m)
        return cls(m.shape[0], rows, cols, m[rows, cols])

    def terms(self, scale=1.0):
        """``scale`` times the entries, as ``(flat index, value)`` pairs."""
        return self.rows * self.dim + self.cols, scale * self.vals


def _product(a: SparseMatrix, b: SparseMatrix, scale=1.0):
    """``scale * A B`` as unsummed ``(flat index, value)`` pairs."""
    lo = b.starts[a.cols]
    counts = b.starts[a.cols + 1] - lo
    src = np.repeat(np.arange(a.vals.size), counts)
    at = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(src.size)
    return a.rows[src] * a.dim + b.cols[at], scale * a.vals[src] * b.vals[at]


def _summed(dim: int, terms) -> np.ndarray:
    """The dense ``dim x dim`` sum of ``(flat index, value)`` pairs."""
    keys = np.concatenate([k for k, _ in terms])
    vals = np.concatenate([v for _, v in terms])
    out = np.bincount(keys, vals.real, dim * dim)
    if np.iscomplexobj(vals):
        out = out + 1j * np.bincount(keys, vals.imag, dim * dim)
    return out.reshape(dim, dim)


class ExactMatrix:
    """An exact matrix as integer numerators over one denominator, as the exact checks use it.

    ``rows[r]`` lists ``(col, core, num)`` triples with ``core`` square-free;
    entry ``(r, col)`` is the sum of ``num * sqrt(core) / den`` over its
    triples.  The form of a value is unique, so sums cancel exactly when their
    integers do.  ``norm`` is the Frobenius norm.
    """

    __slots__ = ("dim", "den", "rows", "norm")

    def __init__(self, m: OperatorMatrix):
        terms = [(r, c, t) for (r, c), v in m.entries.items() for t in radical_terms(v)]
        self.dim = m.dim
        self.den = math.lcm(*(den for _, _, (_, _, den) in terms))
        self.rows: list[list[tuple[int, int, int]]] = [[] for _ in range(m.dim)]
        for r, c, (core, num, den) in terms:
            self.rows[r].append((c, core, num * (self.den // den)))
        self.norm = m.frobenius()

    @classmethod
    def of(cls, m) -> "ExactMatrix":
        """The exact form of an exact OperatorMatrix."""
        return m if isinstance(m, cls) else cls(m)


# An exact sum of matrices is accumulated as integer numerators over a
# denominator the caller keeps, keyed ``(flat index, square-free core)``.


def _add_product(acc: dict, a: ExactMatrix, b: ExactMatrix, scale: int, core: int = 1) -> None:
    """Add ``scale * sqrt(core) * A B`` to ``acc``, over ``a.den * b.den``."""
    dim, gcd, b_rows = a.dim, math.gcd, b.rows
    for r, row in enumerate(a.rows):
        base = r * dim
        for k, ca, na in row:
            g = gcd(ca, core)
            ca, na = (ca // g) * (core // g), na * g * scale
            for c, cb, nb in b_rows[k]:
                g = gcd(ca, cb)  # sqrt(ca) sqrt(cb) = g sqrt(ca/g cb/g)
                key = (base + c, (ca // g) * (cb // g))
                acc[key] = acc.get(key, 0) + na * nb * g


def _add_scaled(acc: dict, m: ExactMatrix, scale: int, core: int = 1, transpose: bool = False) -> None:
    """Add ``scale * sqrt(core)`` times ``M`` (or its transpose) to ``acc``, over ``m.den``."""
    dim, gcd = m.dim, math.gcd
    for r, row in enumerate(m.rows):
        for c, cm, num in row:
            g = gcd(cm, core)
            key = (c * dim + r if transpose else r * dim + c, (cm // g) * (core // g))
            acc[key] = acc.get(key, 0) + scale * num * g


def _exact_norm(acc: dict, den: int, dim: int, interior: int | None = None) -> float:
    """Frobenius norm of ``acc / den`` on the interior block; exactly 0.0 when all its integers are 0."""
    values: dict[int, float] = {}
    for (flat, core), num in acc.items():
        if num and (interior is None or max(divmod(flat, dim)) < interior):
            values[flat] = values.get(flat, 0.0) + num / den * math.sqrt(core)
    return math.sqrt(sum(v * v for v in values.values()))


def _commutator_defect(spec: AlgebraSpec, forms: dict, x: str, y: str) -> tuple[dict, int]:
    """``[X, Y] - sum c Z`` as accumulated numerators and their common denominator."""
    a, b = forms[x], forms[y]
    terms = [
        (forms[z], core, num, den) for c, z in spec.bracket(x, y) for core, num, den in radical_terms(c)
    ]
    common = math.lcm(a.den * b.den, *(den * z.den for z, _, _, den in terms))
    acc: dict = {}
    scale = common // (a.den * b.den)
    _add_product(acc, a, b, scale)
    _add_product(acc, b, a, -scale)
    for z, core, num, den in terms:
        _add_scaled(acc, z, -num * (common // (den * z.den)), core)
    return acc, common


def _forms(spec: AlgebraSpec, matrices: dict, form=None) -> dict:
    """Every generator converted once, checking that all are given, at one dimension.

    ``form`` defaults to :class:`ExactMatrix` when every matrix is exact and
    to :class:`SparseMatrix` otherwise.
    """
    missing = [g for g in spec.generators if g not in matrices]
    if missing:
        raise ValueError(f"matrices missing for generators {missing}")
    if form is None:
        form = ExactMatrix if _is_exact(spec, matrices) else SparseMatrix
    forms = {g: form.of(matrices[g]) for g in spec.generators}
    if len({f.dim for f in forms.values()}) != 1:
        raise ValueError("matrices have mismatched dimensions")
    return forms


def _is_exact(spec: AlgebraSpec, matrices: dict) -> bool:
    """Whether every generator is exact, so its checks run in exact arithmetic."""
    return all(
        isinstance(m, ExactMatrix) or (isinstance(m, OperatorMatrix) and m.is_exact())
        for m in (matrices.get(g) for g in spec.generators)
    )


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, OperatorMatrix):
        return m.to_dense()
    return np.asarray(m)


def commutator_residual(spec: AlgebraSpec, matrices: dict, interior: int | None = None) -> float:
    """Max over generator pairs of ``|[A,B] - sum c C| / (1 + |A| |B|)`` (Frobenius).

    When every matrix is exact the defect is summed in exact integers, so a
    holding identity reports exactly 0.0; otherwise it is summed from sparse
    float products.  ``interior`` restricts the defect (not the norms of A
    and B) to the leading ``interior x interior`` block.
    """
    forms = _forms(spec, matrices)
    exact = _is_exact(spec, forms)
    gens = spec.generators
    worst = 0.0
    for i, x in enumerate(gens):
        a = forms[x]
        for y in gens[i:]:
            b = forms[y]
            if exact:
                num = _exact_norm(*_commutator_defect(spec, forms, x, y), a.dim, interior)
            else:
                terms = [_product(a, b), _product(b, a, -1.0)]
                terms += [forms[z].terms(-as_float(c)) for c, z in spec.bracket(x, y)]
                num = float(np.linalg.norm(_summed(a.dim, terms)[:interior, :interior]))
            worst = max(worst, num / (1.0 + a.norm * b.norm))
    return worst


def hermiticity_residual(spec: AlgebraSpec, matrices: dict) -> float:
    """Max over declared pairs of ``|A^dag - phase B| / (1 + |A|)``; exact when every matrix is."""
    forms = _forms(spec, matrices)
    exact = _is_exact(spec, forms)
    worst = 0.0
    for a_name, b_name, phase in spec.hermiticity_pairs:
        a, b = forms[a_name], forms[b_name]
        if exact:  # exact entries are real, so the adjoint is the transpose
            acc: dict = {}
            _add_scaled(acc, a, b.den, transpose=True)
            _add_scaled(acc, b, -phase * a.den)
            num = _exact_norm(acc, a.den * b.den, a.dim)
        else:
            adjoint = (a.cols * a.dim + a.rows, a.vals.conj())
            num = float(np.linalg.norm(_summed(a.dim, [adjoint, b.terms(-phase)])))
        worst = max(worst, num / (1.0 + a.norm))
    return worst


def schur_constancy(matrix) -> tuple[float, float]:
    """Mean diagonal value and max normalized deviation from that multiple of I."""
    mean, dev = _schur_deviation(_as_matrix(matrix))
    return mean, dev / (1.0 + abs(mean))


def _schur_deviation(m: np.ndarray) -> tuple[float, float]:
    """Mean diagonal value and max absolute deviation from that multiple of I."""
    n = m.shape[0]
    mean = float(np.trace(m).real) / n
    return mean, float(np.abs(m - mean * np.eye(n)).max())


def casimir_matrix(spec: AlgebraSpec, matrices: dict) -> np.ndarray:
    """The spec's quadratic Casimir ``sum c X Y`` (at least one term) as a dense array."""
    forms = _forms(spec, matrices, SparseMatrix)
    dim = forms[spec.generators[0]].dim
    return _summed(dim, [_product(forms[x], forms[y], as_float(c)) for c, x, y in spec.casimir])


def _casimir_constancy(spec: AlgebraSpec, forms: dict, interior: int | None) -> float:
    """The Schur deviation of the Casimir on the interior block; exactly 0.0 for exact constancy.

    Float forms divide the largest deviation by ``1 + sum |c| |X| |Y|``
    (Frobenius norms), the size of the terms that cancel in it, as
    :func:`commutator_residual` does.  Exact forms sum the Casimir exactly;
    only a Casimir that is not exactly constant goes to the float
    :func:`schur_constancy`.
    """
    if not _is_exact(spec, forms):
        _, dev = _schur_deviation(casimir_matrix(spec, forms)[:interior, :interior])
        scale = 1.0 + sum(abs(as_float(c)) * forms[x].norm * forms[y].norm for c, x, y in spec.casimir)
        return dev / scale
    dim = forms[spec.generators[0]].dim
    terms = [
        (forms[x], forms[y], core, num, den)
        for c, x, y in spec.casimir
        for core, num, den in radical_terms(c)
    ]
    common = math.lcm(*(den * a.den * b.den for a, b, _, _, den in terms))
    acc: dict = {}
    for a, b, core, num, den in terms:
        _add_product(acc, a, b, num * (common // (den * a.den * b.den)), core)
    # Exactly constant: no off-diagonal entry, and each core's diagonal
    # numerator the same on every interior row.
    n = dim if interior is None else min(interior, dim)
    diagonal: dict[int, list[int]] = {}
    constant = True
    for (flat, core), num in acc.items():
        r, c = divmod(flat, dim)
        if num and r < n and c < n:
            constant = constant and r == c
            diagonal.setdefault(core, []).append(num)
    if constant and all(len(nums) == n and len(set(nums)) == 1 for nums in diagonal.values()):
        return 0.0
    dense = np.zeros(dim * dim)
    for (flat, core), num in acc.items():
        dense[flat] += num / common * math.sqrt(core)
    return schur_constancy(dense.reshape(dim, dim)[:interior, :interior])[1]


def standard_checks(
    spec: AlgebraSpec, matrices: dict, tol: float, interior: int | None = None
) -> list[tuple[str, float, bool]]:
    """Commutator, Hermiticity and Casimir-constancy residuals as ``(name, residual, passed)``.

    The generators are converted once, to :class:`ExactMatrix` when every
    matrix is exact (all three checks then run in exact integers) and to
    :class:`SparseMatrix` otherwise.  ``interior`` confines the commutator
    defect and the Schur test to the leading block, for truncations of
    infinite-dimensional irreps whose identities fail only on the boundary
    rows and columns.
    """
    suffix = "" if interior is None else " (interior)"
    forms = _forms(spec, matrices)
    residuals = [
        ("commutators" + suffix, commutator_residual(spec, forms, interior)),
        ("hermiticity", hermiticity_residual(spec, forms)),
    ]
    if spec.casimir:
        residuals.append(("casimir constancy" + suffix, _casimir_constancy(spec, forms, interior)))
    return [(name, r, r <= tol) for name, r in residuals]


def spectrum_multiset(matrix, hermitian_tol: float = 1e-9) -> list[float]:
    """Sorted eigenvalue list (uses the symmetric solver when applicable)."""
    m = _as_matrix(matrix)
    if np.abs(m - m.conj().T).max() <= hermitian_tol * (1.0 + np.abs(m).max()):
        ev = np.linalg.eigvalsh(m)
    else:
        ev = np.sort_complex(np.linalg.eigvals(m))
        if np.abs(ev.imag).max() < 1e-9:
            ev = ev.real
    return [float(x) for x in np.sort(ev.real)]
