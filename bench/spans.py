"""Span and call-count tracing of the library's layers, installed from outside.

The library has no tracing of its own, so :class:`Tracer` wraps each layer's
public entry points in place and restores them afterwards.  Names are patched
where callers look them up: ``u3`` and ``su3_so3`` bind ``clebsch_gordan`` by
name at import, so their module attributes are wrapped as well as
``angmom``'s.  The radical layer is wrapped on the ``RadicalSum`` class
itself, so modules that bind ``Radical``/``RadicalSum`` by name (``cli``,
``opmatrix``, ``kmatrix``) see the wrapped methods too.

A span is ``(name, start, end, parent, operation id)``.  Self time is a span's
duration minus the time its child spans cover.  ``clebsch_gordan`` runs
hundreds of thousands of times per operation, so its spans are only summed,
not stored; it never has child spans.  The radical layer is too fine-grained
for spans and records call counts only.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute path, span name, keep each span)
SPANNED = (
    ("vcs_irreps.angmom", "clebsch_gordan", "angmom.cg", False),
    ("vcs_irreps.u3", "clebsch_gordan", "angmom.cg", False),
    ("vcs_irreps.su3_so3", "clebsch_gordan", "angmom.cg", False),
    ("vcs_irreps.opmatrix", "OperatorMatrix.__matmul__", "opmatrix.matmul", True),
    ("vcs_irreps.opmatrix", "OperatorMatrix.to_dense", "opmatrix.to_dense", True),
    ("vcs_irreps.u3", "assemble_generators", "u3.assemble", True),
    ("vcs_irreps.u3", "holomorphic_gamma_rep", "u3.holomorphic", True),
    ("vcs_irreps.su11", "generator_matrices", "su11.generators", True),
    ("vcs_irreps.su11", "holomorphic_gamma_rep", "su11.holomorphic", True),
    ("vcs_irreps.su3_so3", "_construction", "su3_so3.construction", True),
    ("vcs_irreps.su3_so3", "assemble_so3_generators", "su3_so3.assemble", True),
    ("vcs_irreps.su3_so3", "branching_oracle", "su3_so3.oracle", True),
    ("vcs_irreps.kmatrix", "gamma_rep_from_json", "kmatrix.from_json", True),
    ("vcs_irreps.kmatrix", "solve_s_recursion", "kmatrix.s_recursion", True),
    ("vcs_irreps.kmatrix", "orthonormalize", "kmatrix.orthonormalize", True),
    ("vcs_irreps.kmatrix", "unitarize", "kmatrix.unitarize", True),
    ("vcs_irreps.repcheck", "commutator_residual", "repcheck.commutator", True),
    ("vcs_irreps.repcheck", "hermiticity_residual", "repcheck.hermiticity", True),
    ("vcs_irreps.repcheck", "schur_constancy", "repcheck.schur", True),
    ("vcs_irreps.cli", "main", "cli.main", True),
)

# span name -> (count name, function of the call's return value)
RESULT_COUNTS = {
    "kmatrix.s_recursion": ("kmatrix.sectors", len),
    "kmatrix.orthonormalize": (
        "kmatrix.zero_norm_states", lambda ortho: sum(o.zero_norm for o in ortho.values())
    ),
}

COUNTED = (
    ("RadicalSum.from_value", "radical.from_value_calls"),
    ("RadicalSum.__mul__", "radical.sum_mul_calls"),
    ("RadicalSum.__rmul__", "radical.sum_mul_calls"),
    ("RadicalSum.__add__", "radical.sum_add_calls"),
    ("RadicalSum.__radd__", "radical.sum_add_calls"),
)

# cache name -> (module, attribute) of the functools.lru_cache wrapper
CACHES = {
    "angmom._cg_twice": ("vcs_irreps.angmom", "_cg_twice"),
    "radical.squarefree_decompose": ("vcs_irreps.radical", "squarefree_decompose"),
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def cache_counts() -> dict[str, dict[str, int]]:
    out = {}
    for name, (module, attr) in CACHES.items():
        owner, attr = _resolve(module, attr)
        info = getattr(owner, attr).cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses}
    return out


class Tracer:
    """Records spans and counts while installed (use as a context manager)."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.caches: dict = {}
        self._caches_before: dict = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def _spanned(self, fn, name: str, keep: bool):
        stack, clock = self._stack, time.perf_counter
        count_name, measure = RESULT_COUNTS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]  # id, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    self.counts[count_name] += measure(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if keep:
                    self.spans.append(
                        (name, start, end, parent[0] if parent else None, self.op_id)
                    )

        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def __enter__(self):
        self._caches_before = cache_counts()
        for module, path, name, keep in SPANNED:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, lambda fn, n=name, k=keep: self._spanned(fn, n, k))
        for path, name in COUNTED:
            owner, attr = _resolve("vcs_irreps.radical", path)
            self._patch(owner, attr, lambda fn, n=name: self._counted(fn, n))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        after = cache_counts()
        self.caches = {
            name: {k: after[name][k] - self._caches_before[name][k] for k in ("hits", "misses")}
            for name in after
        }
        return False

    def result(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "caches": self.caches,
            "spans": self.spans,
        }
