"""Reusable verification suite for representation matrices.

An :class:`AlgebraSpec` is a structure-constant table ``[X, Y] = sum c Z``
over named generators, validated once (antisymmetry and the Jacobi identity,
exactly) at construction, together with the quadratic Casimir as
``sum c X Y`` terms.  Residual functions measure how well a concrete set of
matrices realizes the table, how well declared Hermiticity pairs hold, and
whether the Casimir is a multiple of the identity (Schur test);
:func:`standard_checks` runs all three.  All residuals are relative, so
tolerances need no retuning with irrep size.

Each check is written once, as a list of ``(c, A, B)`` terms summed by the
kernel that the matrices choose.  When every generator is exact, each is
an :class:`ExactMatrix`: coordinate arrays of integer numerators over one
denominator, times square roots of square-free cores.  The u(3) builder and
an exact replay make one straight from integers; an ``OperatorMatrix`` is
converted once.  The sums are formed in integers by whole-array row joins
and one sorted reduction, so a holding identity (or an exactly constant
Casimir) reports exactly 0.0, and a non-zero defect is evaluated to float
precision however much its square classes cancel.  Otherwise the float
kernel runs, on weight tiles.  The spec's weight generators are those whose bracket with every
generator ``X`` is a multiple of ``X`` (``L0``, ``C11``/``C22``/``C33``,
``S0``).  States are grouped into classes by those generators' diagonal
entries, and each generator becomes a :class:`TiledMatrix`: dense blocks
between tiles of consecutive classes (at most ``_TILE_STATES`` states a tile,
unless one class is larger).  A product is then a list of matmuls between
tiles.  In a basis of weight states (every weight generator exactly diagonal)
the classes are the weight spaces and the list is short; in any other basis
(a rotated one, a hand-edited document) the same tiles group states of nearby
diagonal values, and off-class entries take more blocks.  A generator norm or
a residual scale that overflows a float raises ``OverflowError``: a defect
divided by it would read 0.  A float defect whose sum of squares overflows is
measured again over its entries divided by the largest one, so a finite
defect never reads ``inf``.

Shipped tables: su(1,1), u(3) (all 81 relations), and su(3) in its
SO(3)-tensor form (angular momentum plus the five quadrupole components).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .opmatrix import OperatorMatrix
from .radical import Radical, float_sqrt, radical_terms, squarefree_decompose

# The package's one default tolerance: for residual checks, for the K-matrix
# engine's float solves and for su3_so3's zero test on reduced elements.
DEFAULT_TOL = 1e-10

Bracket = tuple[tuple[object, str], ...]
Casimir = tuple[tuple[object, str, str], ...]


def positive_leads(u: np.ndarray) -> np.ndarray:
    """``u``, each column negated in place where its largest-magnitude entry is negative (the eigenvector sign)."""
    for col in range(u.shape[1]):
        lead = int(np.argmax(np.abs(u[:, col])))
        if u[lead, col] < 0:
            u[:, col] = -u[:, col]
    return u


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
                pair = (self.brackets[(x, y)], self.brackets[(y, x)])
                total = _coeff_map((c, z, 1) for terms in pair for c, z in terms)
                if any(any(sums.values()) for sums in total.values()):
                    raise ValueError(f"brackets for ({x},{y}) are not antisymmetric")

    def _validate_jacobi(self):
        gens = self.generators
        for i, x in enumerate(gens):
            for j in range(i + 1, len(gens)):
                for k in range(j + 1, len(gens)):
                    y, z = gens[j], gens[k]
                    total = _coeff_map(
                        (coeff, v, coeff2)
                        for a, b, c in ((x, y, z), (y, z, x), (z, x, y))
                        for coeff, w in self.bracket(b, c)
                        for coeff2, v in self.bracket(a, w)
                    )
                    for v, sums in total.items():
                        if any(sums.values()):
                            raise ValueError(
                                f"Jacobi identity fails for ({x},{y},{z}) at {v}"
                            )


def _coeff_map(terms) -> dict[str, dict[int, Fraction]]:
    """The sum of ``(a, z, b)`` terms ``a b z`` per generator ``z``, as ``{core: coefficient}`` from :func:`radical_terms`."""
    out: dict[str, dict[int, Fraction]] = {}
    for a, z, b in terms:
        sums = out.setdefault(z, {})
        for core_a, num_a, den_a in radical_terms(a):
            for core_b, num_b, den_b in radical_terms(b):
                g = math.gcd(core_a, core_b)
                core = (core_a // g) * (core_b // g)
                sums[core] = sums.get(core, 0) + Fraction(num_a * num_b * g, den_a * den_b)
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
            combined: Counter = Counter()
            if k == l:
                combined[f"C{i}{m}"] += 1
            if i == m:
                combined[f"C{l}{k}"] -= 1
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
# A check sums ``(c, A, B)`` terms, ``c A B`` (``c A`` when ``B`` is None), with
# the ``sum`` of either matrix form; its result has ``norm`` and ``deviation``.


class SparseMatrix:
    """A float matrix in row-sorted coordinate form: what the su(3) builder returns and the replay reads.

    ``rows``, ``cols`` and ``vals`` hold the non-zero entries sorted by row,
    then by column, and ``norm`` is the Frobenius norm.  The float checks
    scatter it into weight tiles (:meth:`TiledMatrix.tile`).  Coordinate
    arrays in any order make one: an entry outside the matrix raises
    ``IndexError``, a repeated ``(row, col)`` raises ``ValueError`` and exact
    zeros are dropped.
    """

    __slots__ = ("dim", "rows", "cols", "vals", "norm")

    def __init__(self, dim: int, rows, cols, vals):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals)
        outside = (rows < 0) | (rows >= dim) | (cols < 0) | (cols >= dim)
        if outside.any():
            at = int(np.argmax(outside))
            raise IndexError(f"entry {(int(rows[at]), int(cols[at]))} outside {dim}x{dim} matrix")
        keys = rows * dim + cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if repeated.size:
            raise ValueError(f"entry {divmod(int(keys[repeated[0]]), dim)} given twice")
        order = order[vals[order] != 0]
        self.dim = dim
        self.rows, self.cols, self.vals = rows[order], cols[order], vals[order]
        with np.errstate(over="ignore"):  # an overflowing norm reads inf, which _forms rejects
            self.norm = float(np.linalg.norm(self.vals))

    @classmethod
    def of(cls, m) -> "SparseMatrix":
        """The sparse form of an exact matrix or an ndarray, in floats; a SparseMatrix as it is.

        An entry of an exact matrix is its value's ``float()``: an
        ``ExactMatrix``'s are in ``vals``, and one that overflows raises
        ``OverflowError``.
        """
        if isinstance(m, cls):
            return m
        if isinstance(m, ExactMatrix):
            if m.vals is None:
                raise OverflowError("an entry overflows a float")
            kept = m.vals != 0  # an entry's float is on its first triple
            return cls(m.dim, m.rows[kept], m.cols[kept], m.vals[kept])
        if isinstance(m, OperatorMatrix):
            keys = np.array(list(m.entries), dtype=np.int64).reshape(-1, 2)
            vals = np.fromiter(m.entries.values(), float, len(m.entries))  # float() of each
            return cls(m.dim, keys[:, 0], keys[:, 1], vals)
        m = np.asarray(m)
        rows, cols = np.nonzero(m)
        return cls(m.shape[0], rows, cols, m[rows, cols])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), self.vals.dtype)
        out[self.rows, self.cols] = self.vals
        return out


def _norm(parts) -> float:
    """The Frobenius norm of the arrays that ``parts()`` yields.

    Only when the plain sum of squares overflows is the norm formed again,
    over the arrays divided by their largest absolute entry, so a finite norm
    above ``sqrt(max float)`` stays finite and the usual path costs nothing
    more.
    """
    plain = math.sqrt(sum(float(np.vdot(part, part).real) for part in parts()))
    if math.isfinite(plain):
        return plain
    big = max(float(np.abs(part).max(initial=0.0)) for part in parts())
    if not math.isfinite(big):
        return big
    return big * math.sqrt(sum(float(np.vdot(part / big, part / big).real) for part in parts()))


# A weight tile takes consecutive weight classes while it holds at most this
# many states; a larger class is a tile of its own.
_TILE_STATES = 32


class TiledMatrix:
    """A float matrix as dense blocks between weight tiles: the form of every float check.

    ``index[I]`` lists tile ``I``'s states (their places in the given basis)
    and ``blocks[I, J]`` is the dense block from tile ``J``'s states to tile
    ``I``'s; a pair with no entry has no block.  ``norm`` is the Frobenius
    norm.  In a basis of weight states a generator that moves the weights by
    a fixed amount has a few blocks per tile row, so a product is a short
    list of matmuls between tiles.
    """

    __slots__ = ("dim", "index", "blocks", "norm", "_by_row")

    def __init__(self, dim: int, index: list[np.ndarray], blocks: dict[tuple[int, int], np.ndarray], norm: float):
        self.dim, self.index, self.blocks, self.norm = dim, index, blocks, norm
        self._by_row: dict[int, list[tuple[int, np.ndarray]]] = {}
        for (i, j), block in blocks.items():
            self._by_row.setdefault(i, []).append((j, block))

    @classmethod
    def tile(cls, spec: AlgebraSpec, forms: dict[str, SparseMatrix]) -> dict:
        """The forms on tiles of the classes that the weight generators' diagonal entries define.

        States are sorted by those diagonal entries, whether or not the
        generators are exactly diagonal (stable, so a class keeps the basis
        order), and consecutive classes share a tile while it holds at most
        ``_TILE_STATES`` states.  With no weight generators, or with equal
        diagonals, every state is in one class: one tile, in basis order.
        """
        weights = [forms[h] for h in _weight_generators(spec)]
        dim = next(iter(forms.values())).dim
        values = np.zeros((dim, 1 + 2 * len(weights)))  # one constant column, then real and imaginary diagonals
        for k, w in enumerate(weights):
            on = w.rows == w.cols
            values[w.rows[on], 2 * k + 1], values[w.rows[on], 2 * k + 2] = w.vals[on].real, w.vals[on].imag
        _, classes, counts = np.unique(values, axis=0, return_inverse=True, return_counts=True)
        order = np.argsort(classes.ravel(), kind="stable")
        ends = np.cumsum(counts).tolist()
        starts = [0]
        for lo, hi in zip(ends[:-1], ends[1:]):
            if hi - starts[-1] > _TILE_STATES:
                starts.append(lo)
        edges = np.array(starts + [dim])
        index = [order[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]
        sizes = np.diff(edges)
        tile = np.empty(dim, np.int64)
        tile[order] = np.repeat(np.arange(len(index)), sizes)
        place = np.empty(dim, np.int64)
        place[order] = np.arange(dim) - np.repeat(edges[:-1], sizes)
        return {g: cls._of(m, index, sizes, tile, place) for g, m in forms.items()}

    @classmethod
    def _of(cls, m: SparseMatrix, index, sizes, tile, place) -> "TiledMatrix":
        """``m`` scattered into its blocks, which are views of one flat array."""
        ti, tj = tile[m.rows], tile[m.cols]
        pairs, at = np.unique(ti * len(index) + tj, return_inverse=True)
        pi, pj = np.divmod(pairs, len(index))
        ends = np.cumsum(sizes[pi] * sizes[pj])
        flat = np.zeros(ends[-1] if ends.size else 0, m.vals.dtype)
        flat[(ends - sizes[pi] * sizes[pj])[at] + place[m.rows] * sizes[tj] + place[m.cols]] = m.vals
        blocks = {
            (i, j): flat[end - sizes[i] * sizes[j]:end].reshape(sizes[i], sizes[j])
            for i, j, end in zip(pi.tolist(), pj.tolist(), ends.tolist())
        }
        return cls(m.dim, index, blocks, m.norm)

    def adjoint(self) -> "TiledMatrix":
        """The conjugate-transposed blocks, as views where the entries are real."""
        flip = (lambda b: b.T.conj()) if any(np.iscomplexobj(b) for b in self.blocks.values()) else (lambda b: b.T)
        return TiledMatrix(self.dim, self.index, {(j, i): flip(b) for (i, j), b in self.blocks.items()}, self.norm)

    @staticmethod
    def sum(dim: int, terms) -> "TileSum":
        """The sum of the terms as dense blocks: ``c A B`` is a matmul per pair of blocks that meet."""
        out: dict[tuple[int, int], np.ndarray] = {}
        for c, a, b in terms:
            c = float(c)
            if b is None:
                products = ((key, c * block) for key, block in a.blocks.items())
            else:
                products = (((i, j), c * (x @ y)) for (i, k), x in a.blocks.items() for j, y in b._by_row.get(k, ()))
            for key, value in products:
                prev = out.get(key)
                out[key] = value if prev is None else prev + value
        return TileSum(dim, terms[0][1].index, out)


class TileSum:
    """A float sum of tiled terms, held as its dense blocks; both measures see the leading ``interior`` block."""

    def __init__(self, dim: int, index: list[np.ndarray], blocks: dict[tuple[int, int], np.ndarray]):
        self.dim, self.index, self.blocks = dim, index, blocks

    def _inside(self, interior: int | None):
        """The leading block's size and, per tile, where its states inside that block sit (a slice when all do)."""
        n = self.dim if interior is None else min(interior, self.dim)
        return n, [slice(None) if t.size and t.max() < n else np.flatnonzero(t < n) for t in self.index]

    def _kept(self, inside: list):
        """``(I, J, block, rows)`` for every block, cut to the states ``inside`` the leading block."""
        for (i, j), block in self.blocks.items():
            yield i, j, block[inside[i]][:, inside[j]], inside[i]

    def norm(self, interior: int | None = None) -> float:
        _, inside = self._inside(interior)
        return _norm(lambda: (block for _, _, block, _ in self._kept(inside)))

    def deviation(self, interior: int | None = None) -> float:
        """Largest deviation from the mean diagonal value times I, the mean taken in basis order."""
        n, inside = self._inside(interior)
        if not n:
            return 0.0
        diagonal = np.zeros(n, np.result_type(float, *self.blocks.values()))
        off = 0.0
        for i, j, block, rows in self._kept(inside):
            if not block.size:
                continue
            size = np.abs(block)
            if i == j:
                diagonal[self.index[i][rows]] = np.diagonal(block)
                np.fill_diagonal(size, 0)
            off = max(off, float(size.max()))
        mean = float(diagonal.sum().real) / n
        return max(off, float(np.abs(diagonal - mean).max()))


class ExactMatrix:
    """An exact matrix as integer numerators over one denominator, in row-sorted coordinate arrays.

    Triple ``i`` is ``nums[i] sqrt(cores[i]) / den`` at ``(rows[i], cols[i])``, ``cores[i]``
    square-free, one per square class of an entry.  Row ``r``'s triples are ``start[r]``
    to ``start[r] + count[r]``, at most ``longest``.  ``cores`` and ``nums`` are int64
    when all fit, else Python ints; ``bits`` holds the bit lengths of the largest
    ``|num|`` and core.  The form of a value is unique, so sums cancel exactly when
    their integers do.  ``vals[i]`` is the ``float()`` of the value that triple ``i``
    came from on its first triple, 0.0 on any further one (``None`` if one overflows),
    and ``norm`` the root of the builtin ``sum`` of their squares in entry order, as
    ``OperatorMatrix.frobenius`` forms it.
    """

    __slots__ = ("dim", "den", "rows", "cols", "cores", "nums", "vals", "bits", "start", "count", "longest", "norm")

    def __init__(self, dim: int, den: int, rows, cols, cores, nums, vals, bits: tuple[int, int], norm: float):
        order = np.argsort(rows, kind="stable")
        self.dim, self.den, self.bits, self.norm = dim, den, bits, norm
        self.rows, self.cols, self.cores, self.nums = rows[order], cols[order], cores[order], nums[order]
        self.vals = None if vals is None else vals[order]
        self.count = np.bincount(self.rows, minlength=dim)
        self.start, self.longest = np.cumsum(self.count) - self.count, int(self.count.max(initial=0))

    @classmethod
    def of(cls, m) -> "ExactMatrix":
        """The exact form of an exact OperatorMatrix."""
        if isinstance(m, cls):
            return m
        terms = [(r, c, *t) for (r, c), v in m.entries.items() for t in radical_terms(v)]
        values = m.entries.values()
        if len(terms) > len(values):  # an entry of several square classes: its float on its first triple
            values = [x for v in values for x in [v] + [0] * (len(radical_terms(v)) - 1)]
        return cls.of_terms(m.dim, terms, lambda: list(map(float, values)))

    @classmethod
    def of_radicals(cls, dim: int, entries: list) -> "ExactMatrix":
        """From ``(row, col, sign, num, den)`` entries ``sign sqrt(num / den)``, ``num / den`` in lowest terms.

        Each is one triple, as ``of`` makes it of the ``Radical``:
        ``sqrt(num/den) = root sqrt(core) / den`` with ``num den = root**2 core``.
        """
        terms = [(r, c, core, s * root, d) for r, c, s, n, d in entries for root, core in [squarefree_decompose(n * d)]]
        return cls.of_terms(dim, terms, lambda: [s * float_sqrt(n, d) for _, _, s, n, d in entries])

    @classmethod
    def of_terms(cls, dim: int, terms: list, floats: Callable[[], list]) -> "ExactMatrix":
        """From ``(row, col, core, num, den)`` terms ``num sqrt(core) / den`` and ``floats()``, their ``vals``.

        ``vals`` is None and the norm inf when a float overflows; the norm is inf, too, when a square does.
        """
        rows, cols, cores, nums, dens = zip(*terms) if terms else ((),) * 5
        den = math.lcm(*dens)
        nums = [num * (den // d) for num, d in zip(nums, dens)]
        bits = (max(map(abs, nums), default=0).bit_length(), max(cores, default=0).bit_length())
        dtype = np.int64 if max(bits) < 64 else object
        vals = norm = None
        try:
            vals = floats()
            norm = math.sqrt(sum(v ** 2 for v in vals))
        except OverflowError:  # an entry or its square is too large for a float
            norm = math.inf
        return cls(dim, den, np.array(rows, np.int64), np.array(cols, np.int64), np.array(cores, dtype),
                   np.array(nums, dtype), None if vals is None else np.array(vals, float), bits, norm)

    def to_dense(self) -> np.ndarray:
        """Each entry's ``float()`` in a dense array; ``OverflowError`` if one overflows."""
        return SparseMatrix.of(self).to_dense()

    def adjoint(self) -> "ExactMatrix":
        """The transpose: exact entries are real."""
        return ExactMatrix(self.dim, self.den, self.cols, self.rows, self.cores, self.nums, self.vals, self.bits, self.norm)

    @staticmethod
    def sum(dim: int, terms) -> "ExactSum":
        """The sum of the terms in integers over one common denominator, as whole-array work.

        ``c A B`` is a row join (Gustavson): each triple of ``A`` meets row
        ``col`` of ``B``, and square classes combine as ``sqrt(a) sqrt(b) =
        g sqrt(a/g b/g)``, ``g = gcd(a, b)``.  One sort by ``(row dim + col,
        core)`` and one ``reduceat`` add every term.  The arrays are int64 only
        when bit lengths bound every product, core, total and key below
        ``2**63``; otherwise the same code runs on Python ints.
        """
        parts = [((a,) if b is None else (a, b), t) for c, a, b in terms for t in radical_terms(c)]
        common = math.lcm(*(den * math.prod(m.den for m in ms) for ms, (_, _, den) in parts))
        parts = [(ms, core, num * common // (den * math.prod(m.den for m in ms))) for ms, (core, num, den) in parts]
        num_bits = core_bits = keys = 0
        for ms, core, scale in parts:
            bits = sum(m.bits[1] for m in ms) + core.bit_length()  # the cores met multiply to below 2**bits
            core_bits = max(core_bits, bits)  # and their gcds to at most its root
            num_bits = max(num_bits, sum(m.bits[0] for m in ms) + (bits + 1) // 2 + abs(scale).bit_length())
            keys += math.prod(m.longest for m in ms)  # the most terms one key takes
        dtype = np.int64 if max(num_bits + keys.bit_length(), core_bits) < 64 else object
        out = []
        for (a, *bs), core, scale in parts:
            ca, na, rows, cols = a.cores.astype(dtype, copy=False), a.nums.astype(dtype, copy=False), a.rows, a.cols
            for b in bs:
                n = b.count[cols]
                ia = np.repeat(np.arange(n.size), n)
                ib = np.arange(ia.size) - np.repeat(np.cumsum(n) - n - b.start[cols], n)
                ca, cb, na = ca[ia], b.cores.astype(dtype, copy=False)[ib], na[ia] * b.nums.astype(dtype, copy=False)[ib]
                g = np.gcd(ca, cb)
                ca, na, rows, cols = (ca // g) * (cb // g), na * g, rows[ia], b.cols[ib]
            if core != 1:
                g = np.gcd(ca, core)
                ca, na = (ca // g) * (core // g), na * g
            out.append((rows * dim + cols, ca, na * scale))
        flat, core, num = map(np.concatenate, zip(*out))
        span = int(core.max(initial=0)) + 1  # one sort key per (flat, core)
        key = flat.astype(np.int64 if dim * dim * span < 2**63 else object) * span + core
        order = np.argsort(key)
        key = key[order]
        new = np.ones(key.size, bool)
        new[1:] = key[1:] != key[:-1]
        first = order[new]
        total = np.add.reduceat(num[order], np.flatnonzero(new))
        kept = total != 0
        return ExactSum(dim, common, flat[first][kept], core[first][kept], total[kept])


class ExactSum:
    """An exact sum of matrices: its non-zero ``(flat index, core, num)`` triples over ``den``.

    ``flat`` is ``row dim + col``, and an entry sums ``num sqrt(core) / den``
    over its triples.  Both measures see the leading ``interior`` block, are
    exactly 0.0 when it holds no triple, and otherwise evaluate each entry
    with :func:`_value`.
    """

    def __init__(self, dim: int, den: int, flat: np.ndarray, cores: np.ndarray, nums: np.ndarray):
        self.dim, self.den, self.flat, self.cores, self.nums = dim, den, flat, cores, nums

    def _block(self, interior: int | None) -> tuple[int, dict[tuple[int, int], dict[int, int]]]:
        """The block's size and its non-zero entries as ``{(r, c): {core: num}}``."""
        n = self.dim if interior is None else min(interior, self.dim)
        rows, cols = np.divmod(self.flat, self.dim)
        inside = (rows < n) & (cols < n)
        entries: dict[tuple[int, int], dict[int, int]] = {}
        for r, c, core, num in zip(*(x[inside].tolist() for x in (rows, cols, self.cores, self.nums))):
            entries.setdefault((r, c), {})[core] = num
        return n, entries

    def norm(self, interior: int | None = None) -> float:
        return math.hypot(*(_value(e, self.den) for e in self._block(interior)[1].values()))

    def deviation(self, interior: int | None = None) -> float:
        """Largest deviation from the mean diagonal value times I, from ``n C - trace I`` in integers."""
        n, entries = self._block(interior)
        # Each distinct diagonal value is measured once, with its count in the trace.
        diagonal = Counter(frozenset(entries.pop((r, r), {}).items()) for r in range(n))
        trace: Counter = Counter()
        for value, count in diagonal.items():
            trace.update({core: count * num for core, num in value})
        worst = 0.0
        for entry, mean in [(dict(value), trace) for value in diagonal] + [(e, {}) for e in entries.values()]:
            shifted = {core: n * entry.get(core, 0) - mean.get(core, 0) for core in {*entry, *mean}}
            worst = max(worst, abs(_value(shifted, n * self.den)))
        return worst


def _value(entry: dict[int, int], den: int) -> float:
    """``sum num sqrt(core) / den`` over ``{core: num}`` to float precision; 0.0 only when every num is 0.

    Flooring each ``|num| sqrt(core) 2**k`` errs by less than one, so ``k`` grows
    until the sum dwarfs the number of terms; it is non-zero for a non-zero num,
    as square roots of distinct square-free cores are linearly independent.  A
    core that is not square-free (one built by hand, not by
    ``squarefree_decompose``) can make it zero, so ``k`` stops where the error
    is far below the smallest float.
    """
    terms = [(num, core) for core, num in entry.items() if num]
    k = 64
    while True:
        total = sum(math.isqrt(num * num * core << 2 * k) * (1 if num > 0 else -1) for num, core in terms)
        if abs(total) >> 60 >= len(terms) or k >= 2048:
            return total / (den << k)
        k *= 2


def _commutator_terms(spec: AlgebraSpec, forms: dict, x: str, y: str) -> list:
    """``[X, Y] - sum c Z`` as ``(c, A, B or None)`` terms."""
    a, b = forms[x], forms[y]
    return [(1, a, b), (-1, b, a)] + [(-c, forms[z], None) for c, z in spec.bracket(x, y)]


def _weight_generators(spec: AlgebraSpec) -> tuple[str, ...]:
    """The generators ``H`` whose bracket with every generator ``X`` is a multiple of ``X``: they label weight states."""
    return tuple(
        h for h in spec.generators if all(z == x for x in spec.generators for _, z in spec.bracket(h, x))
    )


def _forms(spec: AlgebraSpec, matrices: dict) -> dict:
    """Every generator converted once, all given, at one dimension.

    The form is :class:`ExactMatrix` when every matrix is exact, else weight
    tiles (:meth:`TiledMatrix.tile`); an ``ExactMatrix`` and tiles pass
    through as they are.  A norm that overflows raises ``OverflowError``.
    """
    missing = [g for g in spec.generators if g not in matrices]
    if missing:
        raise ValueError(f"matrices missing for generators {missing}")
    given = [matrices[g] for g in spec.generators]
    if all(isinstance(m, TiledMatrix) for m in given):
        return dict(zip(spec.generators, given))
    exact = all(isinstance(m, (ExactMatrix, OperatorMatrix)) for m in given)
    form = ExactMatrix if exact else SparseMatrix
    forms = {g: form.of(m) for g, m in zip(spec.generators, given)}
    if len({f.dim for f in forms.values()}) != 1:
        raise ValueError("matrices have mismatched dimensions")
    for g, f in forms.items():
        _finite(f.norm, f"the norm of {g}")
    return forms if exact else TiledMatrix.tile(spec, forms)


def _finite(value: float, what: str) -> float:
    """``value`` when finite; a defect divided by an infinite scale would read 0, so otherwise ``OverflowError``."""
    if not math.isfinite(value):
        raise OverflowError(f"{what} overflows a float")
    return value


def commutator_residual(spec: AlgebraSpec, matrices: dict, interior: int | None = None) -> float:
    """Max over distinct generator pairs of ``|[A,B] - sum c C| / (1 + |A| |B|)`` (Frobenius).

    ``[A,A]`` vanishes for every matrix (the spec rejects a non-zero ``[X,X]``),
    so a self-pair could only measure rounding.  ``interior`` restricts the
    defect, not the norms of A and B, to the leading block.  The scale is
    finite: a norm is the root of a float sum of squares, which ``_forms``
    found finite, so ``|A|**2 + |B|**2`` and hence ``|A| |B|`` are too.
    """
    forms = _forms(spec, matrices)
    gens = spec.generators
    worst = 0.0
    for i, x in enumerate(gens):
        a = forms[x]
        for y in gens[i + 1:]:
            defect = type(a).sum(a.dim, _commutator_terms(spec, forms, x, y))
            worst = max(worst, defect.norm(interior) / (1.0 + a.norm * forms[y].norm))
    return worst


def hermiticity_residual(spec: AlgebraSpec, matrices: dict) -> float:
    """Max over declared pairs of ``|A^dag - phase B| / (1 + |A|)``."""
    forms = _forms(spec, matrices)
    worst = 0.0
    for a_name, b_name, phase in spec.hermiticity_pairs:
        a = forms[a_name]
        defect = type(a).sum(a.dim, [(1, a.adjoint(), None), (-phase, forms[b_name], None)])
        worst = max(worst, defect.norm() / (1.0 + a.norm))
    return worst


def casimir_residual(spec: AlgebraSpec, matrices: dict, interior: int | None = None) -> float:
    """The Casimir's largest deviation from a multiple of I, over ``1 + sum |c| |X| |Y|``.

    That scale is the size of the terms ``c X Y`` that cancel in the deviation
    (Frobenius norms).  ``interior`` confines the test to the leading block.
    """
    forms = _forms(spec, matrices)
    terms = [(c, forms[x], forms[y]) for c, x, y in spec.casimir]
    scale = _finite(1.0 + sum(abs(float(c)) * a.norm * b.norm for c, a, b in terms), "the Casimir scale")
    a = terms[0][1]
    return type(a).sum(a.dim, terms).deviation(interior) / scale


def schur_constancy(matrix) -> tuple[float, float]:
    """Mean diagonal value and max normalized deviation from that multiple of I."""
    m = matrix.to_dense() if hasattr(matrix, "to_dense") else np.asarray(matrix)
    mean = float(np.trace(m).real) / len(m)
    diagonal = np.diagonal(m)
    off = float(np.abs(m - np.diag(diagonal)).max())
    return mean, max(off, float(np.abs(diagonal - mean).max())) / (1.0 + abs(mean))


def standard_checks(
    spec: AlgebraSpec, matrices: dict, tol: float, interior: int | None = None
) -> list[tuple[str, float, bool]]:
    """Commutator, Hermiticity and Casimir-constancy residuals as ``(name, residual, passed)``.

    The generators are converted once, to :class:`ExactMatrix` when every
    matrix is exact and to :class:`TiledMatrix` otherwise.  ``interior``
    confines the commutator defect and the Schur test to the leading block,
    for truncations whose identities fail only on the last rows and columns.
    """
    suffix = "" if interior is None else " (interior)"
    forms = _forms(spec, matrices)
    residuals = [
        ("commutators" + suffix, commutator_residual(spec, forms, interior)),
        ("hermiticity", hermiticity_residual(spec, forms)),
    ]
    if spec.casimir:
        residuals.append(("casimir constancy" + suffix, casimir_residual(spec, forms, interior)))
    return [(name, r, r <= tol) for name, r in residuals]
