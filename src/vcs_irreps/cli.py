"""Command-line front end: generate irrep matrices, verify them, cross-check bases.

Subcommands
-----------
``gen``     build an irrep and write basis, sparse generator matrices and the
            reduced-matrix-element table as JSON (or the table alone as CSV).
``check``   run the verification suite (commutators, Hermiticity, Casimir
            constancy, branching cross-check where applicable); also replays
            a previously generated JSON document with ``--replay``.
``branch``  print the L-multiplicity table of an su(3) irrep from both the
            rotor enumeration and the L0 weight count of the canonical
            (Gelfand-Tsetlin) basis.

Each algebra is described once, by an :class:`Algebra` entry in
:data:`ALGEBRAS`: how to read its label from the command line or from a
document, how to build its generators, what its document holds and how its
checks run.  ``gen``, ``check`` and ``check --replay`` are one path through
that table; adding an algebra means adding one entry.  A replay reads a
generator whose entries are all floats (``repr`` strings) straight into
coordinate arrays, a :class:`repcheck.SparseMatrix` as the su(3) builder
returns it, and a generator with any exact ``{"sign", "radicand"}`` entry
into an ``OperatorMatrix`` of ``Radical``s as the su(1,1) and u(3) builders
return it.  So the live and replayed checks are one
:func:`repcheck.standard_checks` call, and both pick the exact or the float
kernel from the entries alone.  An entry's indices must be integers inside
the matrix, its value finite, and no ``(row, col)`` may repeat; the
weight's integer fields (su(1,1) ``nmax``, su(3) ``lam`` and ``mu``) must be
JSON integers.  ``gen`` writes the JSON document one generator at a time, in
the ``json.dump(..., indent=1)`` layout: a float generator's entries are
formatted straight from its coordinate arrays, and every other field by
``json.dumps``.  ``--format csv`` writes the reduced table alone and formats
no generator.  A ``gen --out`` that fails part-way removes the file it
opened.  The su(1,1) matrices are truncations of an infinite-dimensional
irrep, so its commutator and Casimir checks run on the interior block (every
row and column but the last).

Exit codes: 0 success, 1 verification failure, which includes an su(3)
construction that fails its own consistency checks (``So3ConsistencyError``,
with a one-line ``error:`` message), 2 usage error (also with a one-line
``error:`` message), which includes a value, generator norm or residual scale
too large for a float (``OverflowError``).  The default tolerance is 1e-10,
overridable per-call with ``--tol`` or globally with the ``VCS_IRREPS_TOL``
environment variable; either must be a finite number >= 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import stat
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from . import repcheck, su3_so3, su11, u3
from .opmatrix import OperatorMatrix
from .radical import Radical, RadicalSum, as_float

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


def _tolerance(flag: str | None) -> float:
    """``--tol``, else ``VCS_IRREPS_TOL``, else the default: a finite number >= 0."""
    text = os.environ.get("VCS_IRREPS_TOL") if flag is None else flag
    if flag is None and not text:
        return repcheck.DEFAULT_TOL
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise UsageError(f"tolerance must be a finite number >= 0, got {text!r}")
    return tol


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _parse_triple(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"expected three comma-separated values, got {text!r}")
    return tuple(_parse_fraction(p) for p in parts)  # type: ignore[return-value]


def _parse_lm(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected lam,mu - got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(f"lam and mu must be integers: {text!r}") from exc


def _require(args, usage: str, *flags: str) -> None:
    if any(getattr(args, flag) is None for flag in flags):
        raise UsageError(f"{args.command} {usage}")


def _value_to_json(value, mode: str):
    if mode == "exact":
        if isinstance(value, RadicalSum):
            value = value.to_radical()
        if isinstance(value, (int, Fraction)):
            value = Radical.from_rational(Fraction(value))
        if isinstance(value, Radical):
            return value.to_json()
        raise UsageError("exact output requested but matrix entries are floats")
    return repr(as_float(value))


def _is_exact(mat: OperatorMatrix | repcheck.SparseMatrix) -> bool:
    """Whether every entry is exact: a float ``SparseMatrix`` qualifies only when it has none."""
    return mat.is_exact() if isinstance(mat, OperatorMatrix) else not mat.vals.size


def _indented(value, depth: int) -> str:
    """``json.dumps(value, indent=1)`` as it reads ``depth`` levels into an ``indent=1`` document."""
    return json.dumps(value, indent=1).replace("\n", "\n" + " " * depth)  # strings hold no raw newline


# One float ``[row, col, "repr(value)"]`` entry, as ``indent=1`` lays it out four levels down.
_FLOAT_ENTRY = '[\n     {},\n     {},\n     "{!r}"\n    ]'.format


def _generator_json(mat: OperatorMatrix | repcheck.SparseMatrix, mode: str) -> str:
    """One generator's ``{"dim", "entries"}`` object, two levels down; entries in row, then column order.

    A float generator's entries are formatted straight from its arrays, never
    held as ``[row, col, value]`` lists.
    """
    if isinstance(mat, OperatorMatrix):
        entries = [[r, c, _value_to_json(v, mode)] for (r, c), v in sorted(mat.entries.items())]
        return _indented({"dim": mat.dim, "entries": entries}, 2)
    if not mat.vals.size:
        return _indented({"dim": mat.dim, "entries": []}, 2)
    body = ",\n    ".join(map(_FLOAT_ENTRY, mat.rows.tolist(), mat.cols.tolist(), mat.vals.tolist()))
    return f'{{\n   "dim": {mat.dim},\n   "entries": [\n    {body}\n   ]\n  }}'


def _finite(name: str, value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} has the value {value!r}, which is not finite")
    return number


def _matrix_from_json(name: str, info: dict, dim: int) -> OperatorMatrix | repcheck.SparseMatrix:
    """A generator as its builder returned it.

    Float entries (``repr`` strings) become a ``SparseMatrix``; a generator
    with any exact entry becomes an ``OperatorMatrix`` of ``Radical``s.  An
    index must be an ``int`` inside the matrix (``IndexError`` outside), a
    value finite, and a ``(row, col)`` given once.
    """
    if info["dim"] != dim:
        raise ValueError(f"{name} has dim {info['dim']!r}, but the weight gives {dim}")
    entries = info["entries"]
    if not all(isinstance(e, list) and len(e) == 3 for e in entries):
        raise ValueError(f"{name} has an entry that is not [row, col, value]")
    rows, cols, values = zip(*entries) if entries else ((), (), ())
    indices = rows + cols
    if not all(type(i) is int for i in indices):
        raise ValueError(f"{name} has an entry index that is not an integer")
    if indices and not 0 <= min(indices) <= max(indices) < dim:
        raise IndexError(f"{name} has an entry outside its {dim}x{dim} matrix")
    if not any(isinstance(v, dict) for v in values):
        return repcheck.SparseMatrix(dim, rows, cols, [_finite(name, v) for v in values])  # ValueError for a repeat
    matrix = dict(zip(zip(rows, cols), (Radical.from_json(v) if isinstance(v, dict) else _finite(name, v) for v in values)))
    if len(matrix) != len(values):
        raise ValueError(f"{name} repeats an entry")
    return OperatorMatrix(name, range(dim), matrix)


# -- the algebras ------------------------------------------------------------


@dataclass(frozen=True)
class Algebra:
    """One algebra as the CLI sees it.

    ``label`` is the algebra's own irrep label (``Su11Irrep``,
    ``U3HighestWeight``, ``Su3Label``).  Library functions are looked up on
    their modules when called, never bound here.
    """

    name: str
    from_args: Callable[[argparse.Namespace], Any]  # command line -> label
    from_weight: Callable[[dict], Any]  # a document's "weight" -> label
    spec: Callable[[], repcheck.AlgebraSpec]
    build: Callable[[Any], dict]  # label -> generator matrices
    basis: Callable[[Any], Iterable]  # label -> basis labels, in matrix index order
    title: Callable[[Any], str]
    weight: Callable[[Any], dict]  # label -> the document's "weight"
    csv_weight: Callable[[Any], str]
    reduced: Callable[[Any, dict], Iterable[tuple[str, str, Any]]]  # -> (bra, ket, value)
    dimension: Callable[[Any], int]  # label -> number of basis states
    # Size of the leading block on which the identities hold, for truncations.
    interior: Callable[[Any], int | None] = lambda label: None
    metadata: Callable[[Any], dict | None] = lambda label: None
    extra_checks: Callable[[Any], list] = lambda label: []


def _integer(weight: dict, key: str) -> int:
    """A document's integer label field, which must be a JSON integer: a float, bool or string would truncate."""
    value = weight[key]
    if type(value) is not int:
        raise ValueError(f"weight field {key!r} is {value!r}, not an integer")
    return value


def _su11_from_args(args) -> su11.Su11Irrep:
    _require(args, "su11 requires --lambda and --nmax", "lam", "nmax")
    return su11.Su11Irrep(_parse_fraction(args.lam), args.nmax)


def _u3_from_args(args) -> u3.U3HighestWeight:
    _require(args, "u3 requires --weight w1,w2,w3", "weight")
    return u3.U3HighestWeight(*_parse_triple(args.weight))


def _su3_so3_from_args(args) -> su3_so3.Su3Label:
    _require(args, "su3-so3 requires --lm lam,mu", "lm")
    return su3_so3.Su3Label(*_parse_lm(args.lm))


def _u3_reduced(hw: u3.U3HighestWeight, gens: dict):
    for tj, tS, tSp, val in u3.reduced_elements(hw):
        yield f"j={Fraction(tj + 1, 2)},S={Fraction(tSp, 2)}", f"j={Fraction(tj, 2)},S={Fraction(tS, 2)}", val


def _su3_so3_reduced(lm: su3_so3.Su3Label, gens: dict):
    mults = su3_so3.rotor_multiplicities(lm)
    for L in sorted(mults):
        for Lp in sorted(mults):
            if abs(Lp - L) > 2:
                continue
            for alpha in range(mults[L]):
                for beta in range(mults[Lp]):
                    val = su3_so3.reduced_q(lm, beta, Lp, alpha, L)
                    if val != 0.0:
                        yield f"L={Lp},alpha={beta}", f"L={L},alpha={alpha}", val


def _su3_so3_branching(lm: su3_so3.Su3Label) -> list[tuple[str, float, bool]]:
    match = su3_so3.rotor_multiplicities(lm) == su3_so3.weight_multiplicities(lm)
    return [("branching cross-check", 0.0 if match else 1.0, match)]


SU11 = Algebra(
    name="su11",
    from_args=_su11_from_args,
    from_weight=lambda w: su11.Su11Irrep(Fraction(w["lambda"]), _integer(w, "nmax")),
    spec=lambda: repcheck.su11_spec(),
    build=lambda irrep: su11.generator_matrices(irrep),
    basis=lambda irrep: range(irrep.dim),
    title=lambda irrep: f"su11 lambda={irrep.lam} nmax={irrep.n_max}",
    weight=lambda irrep: {"lambda": str(irrep.lam), "nmax": irrep.n_max},
    csv_weight=lambda irrep: f"lambda={irrep.lam}",
    reduced=lambda irrep, gens: (
        (str(n + 1), str(n), gens["S+"][n + 1, n]) for n in range(irrep.n_max)
    ),
    dimension=lambda irrep: irrep.dim,
    # The truncation defect lives in the last row and column.
    interior=lambda irrep: irrep.n_max,
    metadata=lambda irrep: {"kernel_convergence_radius": su11.KERNEL_CONVERGENCE_RADIUS},
)

U3 = Algebra(
    name="u3",
    from_args=_u3_from_args,
    from_weight=lambda w: u3.U3HighestWeight(*(Fraction(x) for x in w["w"])),
    spec=lambda: repcheck.u3_spec(),
    build=lambda hw: u3.assemble_generators(hw),
    basis=lambda hw: u3.basis_enumeration(hw),
    title=lambda hw: f"u3 weight {{{hw.w1},{hw.w2},{hw.w3}}}",
    weight=lambda hw: {"w": [str(w) for w in (hw.w1, hw.w2, hw.w3)]},
    csv_weight=lambda hw: f"{hw.w1},{hw.w2},{hw.w3}",
    reduced=_u3_reduced,
    dimension=lambda hw: hw.dimension(),
)

SU3_SO3 = Algebra(
    name="su3-so3",
    from_args=_su3_so3_from_args,
    from_weight=lambda w: su3_so3.Su3Label(_integer(w, "lam"), _integer(w, "mu")),
    spec=lambda: repcheck.su3_so3_spec(),
    build=lambda lm: su3_so3.assemble_so3_generators(lm),
    basis=lambda lm: su3_so3.basis_labels(lm),
    title=lambda lm: f"su3-so3 ({lm.lam},{lm.mu})",
    weight=lambda lm: {"lam": lm.lam, "mu": lm.mu},
    csv_weight=lambda lm: f"{lm.lam},{lm.mu}",
    reduced=_su3_so3_reduced,
    dimension=lambda lm: lm.dimension(),
    extra_checks=_su3_so3_branching,
)

ALGEBRAS: dict[str, Algebra] = {a.name: a for a in (SU11, U3, SU3_SO3)}


def _label(algebra: Algebra, args):
    """The irrep label given on the command line; an invalid one is a usage error."""
    try:
        return algebra.from_args(args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# -- documents ---------------------------------------------------------------


def _document(algebra: Algebra, label, mode: str) -> dict:
    gens = algebra.build(label)
    if not all(_is_exact(m) for m in gens.values()):
        mode = "float"
    doc = {
        "schema": SCHEMA_VERSION,
        "algebra": algebra.name,
        "weight": algebra.weight(label),
        "mode": mode,
        "basis": [str(b) for b in algebra.basis(label)],
        "generators": gens,  # the matrices; _write_json formats them one at a time
        "reduced_matrix_elements": [
            {"bra": bra, "ket": ket, "value": _value_to_json(value, mode)}
            for bra, ket, value in algebra.reduced(label, gens)
        ],
    }
    metadata = algebra.metadata(label)
    if metadata is not None:
        doc["metadata"] = metadata
    return doc


def _write_json(doc: dict, fh) -> None:
    """Write ``doc`` as ``json.dump(..., indent=1)`` wrote it with entry lists, one generator at a time.

    ``doc["generators"]`` holds the matrices themselves, each written by
    :func:`_generator_json`; every other field is one ``json.dumps`` call.
    The document is never one string.
    """
    sep = "{"
    for key, value in doc.items():
        fh.write(f"{sep}\n {json.dumps(key)}: ")
        sep = ","
        if key != "generators":
            fh.write(_indented(value, 1))
            continue
        inner = "{"
        for name, mat in value.items():
            fh.write(f"{inner}\n  {json.dumps(name)}: {_generator_json(mat, doc['mode'])}")
            inner = ","
        fh.write("\n }" if value else "{}")
    fh.write("\n}")


def _doc_to_csv(doc: dict, weight: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["weight", "bra", "ket", "value"])
    for row in doc["reduced_matrix_elements"]:
        value = row["value"]
        if isinstance(value, dict):
            value = str(Radical.from_json(value))
        writer.writerow([weight, row["bra"], row["ket"], value])
    return buf.getvalue()


def _load_document(path: str):
    """Algebra, label and generator matrices of a ``gen`` JSON document, at its weight's dimension."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
            schema = doc.get("schema") if isinstance(doc, dict) else None
            if schema != SCHEMA_VERSION:
                raise UsageError(f"unsupported schema {schema!r}")
            algebra = ALGEBRAS.get(doc["algebra"])
            if algebra is None:
                raise UsageError(f"unknown algebra {doc['algebra']!r} in document")
            label = algebra.from_weight(doc["weight"])
            generators, dim = doc["generators"], algebra.dimension(label)
            if len(doc["basis"]) != dim:
                raise ValueError(f"basis has {len(doc['basis'])} labels, but the weight gives {dim}")
            matrices = {g: _matrix_from_json(g, generators[g], dim) for g in algebra.spec().generators}
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else f"{type(exc).__name__}: {exc}"
            raise UsageError(f"{path} is not a valid document: {reason}") from exc
    return algebra, label, matrices


# -- verification ------------------------------------------------------------


def _print_report(title: str, checks) -> bool:
    ok = True
    print(title)
    for name, residual, passed in checks:
        status = "PASS" if passed else "FAIL"
        print(f"  {name:32s} residual {residual:.3e}  {status}")
        ok = ok and passed
    return ok


# -- command implementations -------------------------------------------------


def cmd_gen(args) -> int:
    algebra = ALGEBRAS[args.algebra]
    label = _label(algebra, args)
    doc = _document(algebra, label, args.mode)

    def write(fh):
        if args.format == "csv":
            fh.write(_doc_to_csv(doc, algebra.csv_weight(label)))
        else:
            _write_json(doc, fh)

    if not args.out:
        write(sys.stdout)
        sys.stdout.write("\n")
        return 0
    with open(args.out, "w") as fh:
        try:
            write(fh)
        except BaseException:  # a value that fails part-way leaves no truncated document
            fh.close()
            if stat.S_ISREG(os.lstat(args.out).st_mode):  # not a device, FIFO or link
                os.remove(args.out)
            raise
    return 0


def cmd_check(args) -> int:
    tol = _tolerance(args.tol)
    if args.replay:
        algebra, label, matrices = _load_document(args.replay)
        title = f"replay {args.replay} ({algebra.name})"
    elif args.algebra is None:
        raise UsageError("check requires an algebra or --replay FILE")
    else:
        algebra = ALGEBRAS[args.algebra]
        label = _label(algebra, args)
        matrices = algebra.build(label)
        title = algebra.title(label)
    checks = repcheck.standard_checks(algebra.spec(), matrices, tol, algebra.interior(label))
    ok = _print_report(title, checks + algebra.extra_checks(label))
    return 0 if ok else 1


def cmd_branch(args) -> int:
    lm = _label(SU3_SO3, args)
    rotor = su3_so3.rotor_multiplicities(lm)
    oracle = su3_so3.weight_multiplicities(lm)
    print(f"L multiplicities for ({lm.lam},{lm.mu}):")
    print(f"  {'L':>3s} {'rotor':>6s} {'oracle':>6s}")
    ok = True
    for L in sorted(set(rotor) | set(oracle)):
        a, b = rotor.get(L, 0), oracle.get(L, 0)
        flag = "" if a == b else "  MISMATCH"
        ok = ok and a == b
        print(f"  {L:3d} {a:6d} {b:6d}{flag}")
    print("agreement:", "yes" if ok else "NO")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcs-irreps",
        description="Unitary irrep matrices of su(1,1), u(3) and su(3) with built-in verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an irrep document")
    gen.add_argument("algebra", choices=tuple(ALGEBRAS))
    gen.add_argument("--lambda", dest="lam", help="su(1,1) lowest weight (positive rational)")
    gen.add_argument("--nmax", type=int, help="su(1,1) truncation order")
    gen.add_argument("--weight", help="u(3) weight as w1,w2,w3")
    gen.add_argument("--lm", help="su(3) weight as lam,mu")
    gen.add_argument("--format", choices=("json", "csv"), default="json")
    gen.add_argument("--mode", choices=("exact", "float"), default="exact")
    gen.add_argument("--out", help="write to file instead of stdout")
    gen.set_defaults(func=cmd_gen)

    chk = sub.add_parser("check", help="verify algebra relations")
    chk.add_argument("algebra", nargs="?", choices=tuple(ALGEBRAS))
    chk.add_argument("--lambda", dest="lam")
    chk.add_argument("--nmax", type=int)
    chk.add_argument("--weight")
    chk.add_argument("--lm")
    chk.add_argument("--replay", help="re-verify a generated JSON document")
    chk.add_argument("--tol", help="residual tolerance (default 1e-10 or VCS_IRREPS_TOL)")
    chk.set_defaults(func=cmd_check)

    br = sub.add_parser("branch", help="L-multiplicity table from both constructions")
    br.add_argument("--lm", required=True)
    br.set_defaults(func=cmd_branch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except su3_so3.So3ConsistencyError as exc:  # the su(3) construction failed its own checks
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
