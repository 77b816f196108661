"""Sparse exact generator matrices over a declared ordered basis.

An entry must be exact (``int``/``Fraction``/``Radical``/``RadicalSum``); a
float matrix is a :class:`~vcs_irreps.repcheck.SparseMatrix`.  Products, sums
and adjoints are exact, with sums of mixed square classes accumulated in
:class:`~vcs_irreps.radical.RadicalSum`; this is what lets commutator
identities be verified with zero residual.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat

import numpy as np

from .radical import Radical, RadicalSum

_EXACT_TYPES = (int, Fraction, Radical, RadicalSum)
_EXACT_SET = frozenset(_EXACT_TYPES)


class OperatorMatrix:
    """A named exact operator matrix stored sparsely over an ordered basis; any other value raises ``TypeError``."""

    def __init__(self, name: str, basis, entries: dict | None = None):
        self.name = name
        self.basis = tuple(basis)
        self.entries: dict[tuple[int, int], object] = _nonzero_entries(name, self.dim, entries) if entries else {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def __setitem__(self, key, value):
        _check_entry(self.name, self.dim, key, value)
        if _value_is_zero(value):
            self.entries.pop(key, None)
        else:
            self.entries[key] = value

    def copy(self, name: str | None = None) -> "OperatorMatrix":
        return OperatorMatrix(name or self.name, self.basis, self.entries)

    # -- linear algebra ------------------------------------------------------

    def dagger(self, name: str | None = None) -> "OperatorMatrix":
        """Adjoint; entries here are real, so this is the transpose."""
        out = OperatorMatrix(name or f"{self.name}+", self.basis)
        for (r, c), v in self.entries.items():
            out[c, r] = v
        return out

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        by_row: dict[int, list[tuple[int, object]]] = {}
        for (r, k), v in other.entries.items():
            by_row.setdefault(r, []).append((k, v))
        acc: dict[tuple[int, int], RadicalSum] = {}
        for (r, k), a in self.entries.items():
            for c, b in by_row.get(k, ()):
                term = RadicalSum.from_value(a) * RadicalSum.from_value(b)
                key = (r, c)
                acc[key] = acc[key] + term if key in acc else term
        out = OperatorMatrix(f"{self.name}*{other.name}", self.basis)
        for key, v in acc.items():
            out[key] = _simplify(v)
        return out

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, -1)

    def _combine(self, other: "OperatorMatrix", sgn: int) -> "OperatorMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = self.copy()
        for key, v in other.entries.items():
            cur = RadicalSum.from_value(out[key])
            add = RadicalSum.from_value(v)
            out[key] = _simplify(cur + add if sgn > 0 else cur - add)
        return out

    def scale(self, factor) -> "OperatorMatrix":
        out = OperatorMatrix(self.name, self.basis)
        if _value_is_zero(factor):
            return out
        for key, v in self.entries.items():
            out[key] = _simplify(RadicalSum.from_value(factor) * RadicalSum.from_value(v))
        return out

    # -- conversions -------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim))
        for (r, c), v in self.entries.items():
            m[r, c] = float(v)
        return m

    def is_zero(self) -> bool:
        """Exact zero test (entries are pruned on assignment)."""
        return not self.entries

    def __repr__(self):
        return f"OperatorMatrix({self.name!r}, dim={self.dim}, nnz={len(self.entries)})"


def _check_entry(name: str, dim: int, key, value) -> None:
    """Refuse an entry outside the ``dim`` x ``dim`` matrix (``IndexError``) or not exact (``TypeError``)."""
    r, c = key
    if not (0 <= r < dim and 0 <= c < dim):
        raise IndexError(f"entry {key} outside {dim}x{dim} matrix")
    if not isinstance(value, _EXACT_TYPES):
        raise TypeError(f"{name} entry {key} is a {type(value).__name__}, not an exact value")


def _nonzero_entries(name: str, dim: int, entries: dict) -> dict:
    """A new dict of the non-zero ``entries``, each refused as ``__setitem__`` refuses it.

    One test over the whole dict passes when every value has an exact type
    and every index is in range; only a dict that fails it is walked entry by
    entry, so the first bad entry raises its own error.
    """
    exact = _EXACT_SET.issuperset(map(type, entries.values()))
    if not (exact and all(0 <= r < dim and 0 <= c < dim for r, c in entries)):
        for key, value in entries.items():
            _check_entry(name, dim, key, value)
    return {key: value for key, value in entries.items() if not _value_is_zero(value)}


def _value_is_zero(value) -> bool:
    return value.is_zero() if isinstance(value, (Radical, RadicalSum)) else value == 0


def _simplify(value):
    """Collapse RadicalSums that fit in a single square class back to Radical."""
    if isinstance(value, RadicalSum):
        if value.is_zero():
            return 0
        if len(value.terms) == 1:
            return value.to_radical()
    return value


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    out = (a @ b) - (b @ a)
    out.name = f"[{a.name},{b.name}]"
    return out


# JSON readers shared by a document's replay and a K-matrix input; each bad value raises ``ValueError``.
def json_integer(record: dict, key: str, where: str) -> int:
    """``record[key]``, which must be a JSON integer: ``int()`` would truncate a float and read a bool or string."""
    if type(record[key]) is not int:
        raise ValueError(f"{where} field {key!r} is {record[key]!r}, not an integer")
    return record[key]


def json_entries(name: str, entries) -> tuple[list, list, list]:
    """The rows, columns and values of ``[row, col, value]`` entries, whose indices must be JSON integers.

    Each check is one ``map`` and each column one list: no tuple or iterator is made per entry.
    """
    if not (all(map(isinstance, entries, repeat(list))) and {3}.issuperset(map(len, entries))):
        raise ValueError(f"{name} has an entry that is not [row, col, value]")
    rows, cols, values = [e[0] for e in entries], [e[1] for e in entries], [e[2] for e in entries]
    if not ({int}.issuperset(map(type, rows)) and {int}.issuperset(map(type, cols))):
        raise ValueError(f"{name} has an entry index that is not an integer")
    return rows, cols, values


def json_finite(name: str, value) -> float:
    """A number or numeric string, not a bool, as a finite float; anything else raises ``ValueError``."""
    try:
        number = math.nan if value is True or value is False else float(value)
    except TypeError:  # a dict, list or None
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{name} has the value {value!r}, which is not a finite number")
    return number
