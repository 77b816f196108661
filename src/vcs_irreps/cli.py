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
generator whose entries are all exact ``{"sign", "radicand"}`` objects
straight into the integer arrays of a :class:`repcheck.ExactMatrix`, the
form the u(3) builder returns and the exact checks make of su(1,1)'s, with
no ``Radical`` built, and any other into a :class:`repcheck.SparseMatrix` of
each entry's ``float()``, the one float form, as the su(3) builder returns
it; a document that mixes the two reads as its all-float twin.  So the live
and replayed checks are one :func:`repcheck.standard_checks` call, and both
pick the exact or the float kernel from the matrix types alone.  An entry's
indices must be integers inside the matrix, its value finite, and no
``(row, col)`` may repeat; the weight's integer fields (su(1,1) ``nmax``,
su(3) ``lam`` and ``mu``) must be JSON integers, and its rational fields
(su(1,1) ``lambda``, each of a u(3) ``w``'s three) JSON integers or strings
such as ``"7/2"``, as the ``--lambda`` and ``--weight`` flags are read.
``gen`` writes the JSON document in the ``json.dump(..., indent=1)`` layout:
each entry by one string template, every other field by ``json.dumps``.  An
exact document's generators are all formatted before the first write, so a
failure writes nothing; a float document's are all converted first (a value
too large for a float, refused with its generator's name, writes nothing),
then formatted and written one at a time, so its text is never held whole.
``--format csv`` writes the reduced table alone.  A ``gen --out`` that fails
removes the file it opened.  The su(1,1) matrices are truncations of an infinite-dimensional
irrep, so its commutator and Casimir checks run on the interior block (every
row and column but the last).

Exit codes: 0 success, 1 verification failure, which includes an su(3)
construction that fails its own consistency checks (``So3ConsistencyError``,
with a one-line ``error:`` message), 2 usage error (also with a one-line
``error:`` message, argparse's own included), which includes a value,
generator norm or residual scale too large for a float (``OverflowError``),
and an irrep too large to hold in memory (``MemoryError``).
The default tolerance is 1e-10, overridable per-call with ``--tol`` or
globally with the ``VCS_IRREPS_TOL`` environment variable; either must be a
finite number >= 0.
"""

from __future__ import annotations

import argparse
import contextlib
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

import numpy as np

from . import repcheck, su3_so3, su11, u3
from .opmatrix import OperatorMatrix, json_entries, json_finite, json_integer
from .radical import Radical, json_radical

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors are one ``error:`` line, exit 2; ``--help`` is unchanged."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


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


def _rational(value) -> Fraction:
    """A weight from a flag or a document: a JSON integer or a rational string such as ``"7/2"``, no bool or float."""
    try:
        if type(value) is int or isinstance(value, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"not a rational number: {value!r}")


def _triple(values: list) -> tuple[Fraction, Fraction, Fraction]:
    """A u(3) weight from a list of three :func:`_rational` values."""
    if not isinstance(values, list) or len(values) != 3:
        raise ValueError(f"expected three weights w1,w2,w3, got {values!r}")
    return tuple(map(_rational, values))  # type: ignore[return-value]


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
        if isinstance(value, (int, Fraction)):
            value = Radical.from_rational(Fraction(value))
        if isinstance(value, Radical):
            return value.to_json()
        raise UsageError("exact output requested but matrix entries are floats")
    return repr(float(value))


# One ``[row, col, value]`` entry, as ``indent=1`` lays it out four levels down: a
# float's value is ``"repr(value)"`` (a ``%`` template), an exact one's ``{"sign", "radicand"}``.
_FLOAT_ENTRY = '[\n     %d,\n     %d,\n     "%r"\n    ]'
_EXACT_ENTRY = '[\n     {},\n     {},\n     {{\n      "sign": {sign},\n      "radicand": "{radicand}"\n     }}\n    ]'.format


def _generator_json(mat: OperatorMatrix | repcheck.ExactMatrix | repcheck.SparseMatrix) -> str:
    """One generator's ``{"dim", "entries"}`` object, two levels down; entries in row, then column order.

    An exact generator's entries are written exact; an ``ExactMatrix``'s and
    a ``SparseMatrix``'s are formatted straight from their arrays, never held
    as ``[row, col, value]`` lists.
    """
    if isinstance(mat, OperatorMatrix):
        items = sorted(mat.entries.items())
        body = ",\n    ".join(_EXACT_ENTRY(r, c, **_value_to_json(v, "exact")) for (r, c), v in items)
    elif isinstance(mat, repcheck.ExactMatrix):
        body = ",\n    ".join(_exact_entries(mat))
    else:  # one % over the template joined once per entry, and each entry's row, col and value in turn
        flat = [None] * (3 * mat.vals.size)
        flat[::3], flat[1::3], flat[2::3] = mat.rows.tolist(), mat.cols.tolist(), mat.vals.tolist()
        body = ",\n    ".join([_FLOAT_ENTRY] * mat.vals.size) % tuple(flat)
    if not body:
        return f'{{\n   "dim": {mat.dim},\n   "entries": []\n  }}'
    return f'{{\n   "dim": {mat.dim},\n   "entries": [\n    {body}\n   ]\n  }}'


def _exact_entries(mat: repcheck.ExactMatrix):
    """Each entry's text, one triple each, as ``Radical.to_json`` writes it.

    ``num sqrt(core) / den`` is ``sign sqrt(radicand)``, the radicand
    ``num**2 core / den**2`` put in lowest terms by two integer gcds.
    """
    order = np.lexsort((mat.cols, mat.rows))
    for r, c, core, num in zip(*(a[order].tolist() for a in (mat.rows, mat.cols, mat.cores, mat.nums))):
        g = math.gcd(num, mat.den)
        root, den = abs(num) // g, mat.den // g
        g = math.gcd(core, den)
        n, d = root * root * (core // g), den * den // g
        yield _EXACT_ENTRY(r, c, sign=1 if num > 0 else -1, radicand=n if d == 1 else f"{n}/{d}")


def _matrix_from_json(name: str, info: dict, dim: int, exact=True) -> repcheck.ExactMatrix | repcheck.SparseMatrix:
    """A generator in the form its checks read.

    A generator whose entries are all exact ``{"sign", "radicand"}`` objects
    becomes an ``ExactMatrix`` (unless ``exact`` is false); any other, a
    ``SparseMatrix`` of the ``float()`` of every entry, exact ones included.
    An index must be an ``int`` inside the matrix (``IndexError`` outside), a
    value finite, and a ``(row, col)`` given once.
    """
    if info["dim"] != dim:
        raise ValueError(f"{name} has dim {info['dim']!r}, but the weight gives {dim}")
    rows, cols, values = json_entries(name, info["entries"])
    indices = rows + cols
    if indices and not 0 <= min(indices) <= max(indices) < dim:
        raise IndexError(f"{name} has an entry outside its {dim}x{dim} matrix")
    if exact and all(isinstance(v, dict) for v in values):
        return _exact_matrix(name, dim, rows, cols, values)
    return repcheck.SparseMatrix(dim, rows, cols, _floats(name, values))  # ValueError for a repeat


def _exact_matrix(name: str, dim: int, rows: list, cols: list, values: list) -> repcheck.ExactMatrix:
    """Exact entries read by :func:`json_radical`, as ``ExactMatrix.of`` makes them of ``Radical``s; zeros dropped."""
    radicals = [(r, c, *json_radical(v)) for r, c, v in zip(rows, cols, values)]
    if len(set(zip(rows, cols))) != len(radicals):
        raise ValueError(f"{name} repeats an entry")
    return repcheck.ExactMatrix.of_radicals(dim, [e for e in radicals if e[2]])


def _floats(name: str, values: list) -> np.ndarray | list[float]:
    """Each value's float: a number or numeric string's by :func:`json_finite`, a dict's by ``Radical.from_json``.

    One ``float()`` per value and one finiteness test over the array; a list
    that fails them is read value by value, so the first bad value is refused.
    """
    if bool not in set(map(type, values)):  # float() would read a bool
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            floats = np.fromiter(map(float, values), float, len(values))
            if np.isfinite(floats).all():
                return floats
    each = (float(Radical.from_json(v)) if isinstance(v, dict) else json_finite(name, v) for v in values)
    return _name_overflow(name, list, each)


def _name_overflow(name: str, convert: Callable, *args):
    """``convert(*args)``; a value too large for a float raises an ``OverflowError`` that names generator ``name``."""
    try:
        return convert(*args)
    except OverflowError as exc:
        raise OverflowError(f"an entry of {name} overflows a float") from exc


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


def _su11_from_args(args) -> su11.Su11Irrep:
    _require(args, "su11 requires --lambda and --nmax", "lam", "nmax")
    return su11.Su11Irrep(_rational(args.lam), args.nmax)


def _u3_from_args(args) -> u3.U3HighestWeight:
    _require(args, "u3 requires --weight w1,w2,w3", "weight")
    return u3.U3HighestWeight(*_triple(args.weight.split(",")))


def _su3_so3_from_args(args) -> su3_so3.Su3Label:
    _require(args, "su3-so3 requires --lm lam,mu", "lm")
    return su3_so3.Su3Label(*_parse_lm(args.lm))


def _u3_reduced(hw: u3.U3HighestWeight, gens: dict):
    for tj, tS, tSp, val in u3.reduced_elements(hw):
        yield f"j={Fraction(tj + 1, 2)},S={Fraction(tSp, 2)}", f"j={Fraction(tj, 2)},S={Fraction(tS, 2)}", val


def _su3_so3_reduced(lm: su3_so3.Su3Label, gens: dict):
    for Lp, beta, L, alpha, val in su3_so3.reduced_elements(lm):
        yield f"L={Lp},alpha={beta}", f"L={L},alpha={alpha}", val


def _su3_so3_branching(lm: su3_so3.Su3Label) -> list[tuple[str, float, bool]]:
    match = su3_so3.rotor_multiplicities(lm) == su3_so3.weight_multiplicities(lm)
    return [("branching cross-check", 0.0 if match else 1.0, match)]


SU11 = Algebra(
    name="su11",
    from_args=_su11_from_args,
    from_weight=lambda w: su11.Su11Irrep(_rational(w["lambda"]), json_integer(w, "nmax", "weight")),
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
    from_weight=lambda w: u3.U3HighestWeight(*_triple(w["w"])),
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
    from_weight=lambda w: su3_so3.Su3Label(json_integer(w, "lam", "weight"), json_integer(w, "mu", "weight")),
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
    """The command line's irrep label; a usage error if invalid or if its flat index ``row*d + col`` overflows int64."""
    try:
        label = algebra.from_args(args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    d = algebra.dimension(label)
    if d * d >= 2**63:
        raise UsageError(f"the irrep has d = {d} states; the flat index row*d + col needs d*d < 2**63")
    return label


# -- documents ---------------------------------------------------------------


def _document(algebra: Algebra, label, mode: str) -> dict:
    gens = algebra.build(label)
    if not all(isinstance(m, (OperatorMatrix, repcheck.ExactMatrix)) or not m.vals.size for m in gens.values()):
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
    """Write ``doc`` as ``json.dump(..., indent=1)`` wrote it with entry lists.

    ``doc["generators"]`` holds the matrices, each formatted by
    :func:`_generator_json`; every other field is one ``json.dumps`` call.  An
    exact document's generators are all formatted before the first write; a
    float document's are all converted first, then formatted one at a time.
    """
    gens = doc["generators"]
    if doc["mode"] == "float":
        texts = map(_generator_json, [_name_overflow(g, repcheck.SparseMatrix.of, m) for g, m in gens.items()])
    else:
        texts = [_generator_json(m) for m in gens.values()]
    sep = "{"
    for key, value in doc.items():
        fh.write(f"{sep}\n {json.dumps(key)}: ")
        sep = ","
        if key != "generators":
            fh.write(json.dumps(value, indent=1).replace("\n", "\n "))  # one level down; no string holds a newline
            continue
        inner = "{"
        for name, text in zip(gens, texts):
            fh.write(f"{inner}\n  {json.dumps(name)}: {text}")
            inner = ","
        fh.write("\n }" if gens else "{}")
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
    """Algebra, label, spec and generator matrices of a ``gen`` JSON document, at its weight's dimension."""
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
            spec = algebra.spec()
            matrices = {g: _matrix_from_json(g, generators[g], dim) for g in spec.generators}
            if not all(isinstance(m, repcheck.ExactMatrix) for m in matrices.values()):  # read as its all-float twin
                exact = [g for g, m in matrices.items() if isinstance(m, repcheck.ExactMatrix)]
                matrices.update({g: _matrix_from_json(g, generators[g], dim, exact=False) for g in exact})
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:  # a radicand "1/0"
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else f"{type(exc).__name__}: {exc}"
            raise UsageError(f"{path} is not a valid document: {reason}") from exc
    return algebra, label, spec, matrices


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
        algebra, label, spec, matrices = _load_document(args.replay)
        title = f"replay {args.replay} ({algebra.name})"
    elif args.algebra is None:
        raise UsageError("check requires an algebra or --replay FILE")
    else:
        algebra = ALGEBRAS[args.algebra]
        label = _label(algebra, args)
        matrices = algebra.build(label)
        title = algebra.title(label)
        spec = algebra.spec()
    checks = repcheck.standard_checks(spec, matrices, tol, algebra.interior(label))
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
    parser = _Parser(
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
    except MemoryError:  # numpy's allocation failures included
        print("error: the irrep is too large to hold in memory", file=sys.stderr)
        return 2
    except su3_so3.So3ConsistencyError as exc:  # the su(3) construction failed its own checks
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
