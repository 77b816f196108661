"""The benchmark's operations and the gate that checks each one's output.

Every operation runs in a fresh interpreter (see ``child.py``).  ``run``
performs the timed work and returns what the gate needs; ``gate`` runs after
the clock stops and raises :class:`GateError` when the output is wrong.  An
exception raised by the library itself (for example ``KMatrixError``) is a
failed operation, not a wrong output.

Expected dimensions come from the closed forms below, not from the library:
u(3) ``{w1,w2,w3}`` has ``(l+1)(m+1)(l+m+2)/2`` states with ``l = w1-w2``,
``m = w2-w3``, and su(3) ``(l,m)`` the same count.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from vcs_irreps import cli, kmatrix, repcheck, su11, u3

INDUCE_TOL = 1e-12
INGEST_TOL = 1e-10

_CHECK_LINE = re.compile(r"^  (\S.*?)\s+residual (\S+)\s+(PASS|FAIL)$")


class GateError(Exception):
    """The operation finished but its output is wrong."""


@dataclass(frozen=True)
class Operation:
    name: str
    run: Callable[[str], object]  # work directory -> output
    gate: Callable[[object, str], None]  # (output, work directory) -> None or GateError
    output: str | None = None  # file the operation writes in the work directory


def su3_dim(lam: int, mu: int) -> int:
    return (lam + 1) * (mu + 1) * (lam + mu + 2) // 2


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _gate_report(result, min_checks: int, exact_zero: tuple[str, ...] = ()) -> None:
    code, text = result
    checks = {}
    for line in text.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            checks[m.group(1)] = (m.group(2), m.group(3))
    if code != 0:
        raise GateError(f"exit code {code}: {text.strip()[-300:]}")
    if len(checks) < min_checks:
        raise GateError(f"expected {min_checks} check lines, got {len(checks)}")
    failed = [name for name, (_, status) in checks.items() if status != "PASS"]
    if failed:
        raise GateError(f"checks not PASS: {failed}")
    for name in exact_zero:
        if checks.get(name, (None,))[0] != "0.000e+00":
            raise GateError(f"{name} residual is not exactly zero: {checks.get(name)}")


def _gate_document(path: str, algebra: str, dim: int) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != 1 or doc.get("algebra") != algebra:
        raise GateError(f"unexpected header {doc.get('schema')!r} {doc.get('algebra')!r}")
    if len(doc["basis"]) != dim:
        raise GateError(f"basis length {len(doc['basis'])}, expected {dim}")


def _gate_branch(result, dim: int) -> None:
    code, text = result
    if code != 0 or "agreement: yes" not in text.splitlines():
        raise GateError(f"exit code {code}: {text.strip()[-300:]}")
    rows = [line.split() for line in text.splitlines()[2:] if line.strip()[:1].isdigit()]
    states = sum((2 * int(row[0]) + 1) * int(row[1]) for row in rows)
    if states != dim:
        raise GateError(f"L table spans {states} states, expected {dim}")


def _cli_check(name, argv, min_checks, exact_zero=()):
    return Operation(
        name, lambda work: _cli(argv),
        lambda out, work: _gate_report(out, min_checks, exact_zero),
    )


def _cli_gen(name, argv, doc, algebra, dim):
    return Operation(
        name, lambda work: _cli(argv + ["--out", os.path.join(work, doc)]),
        lambda out, work: (_gate_report(out, 0), _gate_document(os.path.join(work, doc), algebra, dim)),
        output=doc,
    )


def _cli_replay(name, doc, min_checks):
    return Operation(
        name, lambda work: _cli(["check", "--replay", os.path.join(work, doc)]),
        lambda out, work: _gate_report(out, min_checks),
    )


# -- inductions through the library -------------------------------------------

U3_INDUCE = (8, 4, 0)
SU11_INDUCE = (Fraction(7, 2), 1000)
U3_INGEST = (6, 3, 0)
INGEST_DOC = "ingest-u3-6-3-0.json"


def _induce(rep):
    sblocks = kmatrix.solve_s_recursion(rep)
    ortho = kmatrix.orthonormalize(sblocks, exact=rep.exact)
    basis, gammas = kmatrix.unitarize(rep, ortho)
    return rep, ortho, basis, gammas


def _run_induce_u3(work):
    return _induce(u3.holomorphic_gamma_rep(u3.U3HighestWeight(*U3_INDUCE)))


def _gate_induce_u3(out, work):
    rep, ortho, basis, gammas = out
    hw = u3.U3HighestWeight(*U3_INDUCE)
    dim = su3_dim(U3_INDUCE[0] - U3_INDUCE[1], U3_INDUCE[1] - U3_INDUCE[2])
    if len(basis) != dim:
        raise GateError(f"{len(basis)} unitary states, expected {dim}")
    zero = kmatrix.zero_norm_count(ortho)
    if zero != rep.raw_dimension() - dim:
        raise GateError(f"{zero} zero-norm states, expected {rep.raw_dimension() - dim}")
    labels = u3.basis_enumeration(hw)
    perm = [labels.index(u3.CanonicalLabel(*sec)) for sec, _ in basis]
    reference = u3.assemble_generators(hw)
    for name in u3.GENERATOR_NAMES:
        dense = np.zeros((dim, dim))
        for (r, c), v in gammas[name].entries.items():
            dense[perm[r], perm[c]] = float(v)
        diff = float(np.abs(dense - reference[name].to_dense()).max())
        if diff > INDUCE_TOL:
            raise GateError(f"gamma({name}) differs from the canonical matrix by {diff:.3e}")


def _run_induce_su11(work):
    return _induce(su11.holomorphic_gamma_rep(su11.Su11Irrep(*SU11_INDUCE)))


def _gate_induce_su11(out, work):
    _, _, basis, gammas = out
    irrep = su11.Su11Irrep(*SU11_INDUCE)
    if len(basis) != irrep.dim:
        raise GateError(f"{len(basis)} unitary states, expected {irrep.dim}")
    for name, matrix in su11.generator_matrices(irrep).items():
        if gammas[name].entries != matrix.entries:
            raise GateError(f"gamma({name}) is not exactly the closed-form matrix")


def ingest_document() -> dict:
    """The u(3) holomorphic rep as a user's JSON GammaRep, one sector per grade.

    The library's default raw grading (``extra_grades=1``, one grade past the
    irrep boundary) is kept, so the top sector is wholly zero-norm.
    """
    fine = u3.holomorphic_gamma_rep(u3.U3HighestWeight(*U3_INGEST))
    members: dict[int, list] = {}
    for sec in sorted(fine.sectors):
        members.setdefault(fine.grades[sec], []).append(sec)
    position = {sec: i for secs in members.values() for i, sec in enumerate(secs)}
    generators = {}
    for gen, blocks in fine.blocks.items():
        coarse: dict[tuple, list] = {}
        for (row, col), block in blocks.items():
            key = (fine.grades[row], fine.grades[col])
            coarse.setdefault(key, []).append([position[row], position[col], float(block[0][0])])
        generators[gen] = {
            "adjoint": fine.adjoints[gen],
            "blocks": [{"row": [r], "col": [c], "entries": e} for (r, c), e in sorted(coarse.items())],
        }
    sectors = [{"key": [g], "dim": len(secs), "grade": g} for g, secs in sorted(members.items())]
    return {"sectors": sectors, "generators": generators}


def _run_ingest(work):
    with open(os.path.join(work, INGEST_DOC)) as fh:
        doc = json.load(fh)
    return _induce(kmatrix.gamma_rep_from_json(doc))


def _gate_ingest(out, work):
    _, _, basis, gammas = out
    hw = u3.U3HighestWeight(*U3_INGEST)
    dim = su3_dim(U3_INGEST[0] - U3_INGEST[1], U3_INGEST[1] - U3_INGEST[2])
    if len(basis) != dim:
        raise GateError(f"{len(basis)} unitary states, expected {dim}")
    spec = repcheck.u3_spec()
    dense = {name: gammas[name].to_dense() for name in u3.GENERATOR_NAMES}
    for what, residual in (
        ("commutator", repcheck.commutator_residual(spec, dense)),
        ("hermiticity", repcheck.hermiticity_residual(spec, dense)),
    ):
        if residual > INGEST_TOL:
            raise GateError(f"{what} residual {residual:.3e} above {INGEST_TOL}")
    # The grade blocks are rotated by a float eigenbasis, so compare the
    # basis-independent spectra of the Cartan generators.
    reference = u3.assemble_generators(hw)
    for name in ("C11", "C22", "C33"):
        got = np.sort(np.linalg.eigvalsh(dense[name]))
        want = np.sort(np.diag(reference[name].to_dense()))
        if float(np.abs(got - want).max()) > INGEST_TOL:
            raise GateError(f"spectrum of gamma({name}) differs from the canonical weights")


OPERATIONS = {
    op.name: op
    for op in (
        _cli_check("check-u3", ["check", "u3", "--weight", "12,6,0"], 3, ("commutators", "hermiticity")),
        _cli_gen("gen-u3", ["gen", "u3", "--weight", "10,5,0"], "u3-10-5-0.json", "u3", su3_dim(5, 5)),
        _cli_replay("replay-u3", "u3-10-5-0.json", 3),
        _cli_check("check-su3so3", ["check", "su3-so3", "--lm", "10,8"], 4),
        Operation(
            "branch-su3so3", lambda work: _cli(["branch", "--lm", "10,8"]),
            lambda out, work: _gate_branch(out, su3_dim(10, 8)),
        ),
        _cli_gen("gen-su3so3", ["gen", "su3-so3", "--lm", "8,6"], "su3so3-8-6.json", "su3-so3", su3_dim(8, 6)),
        _cli_replay("replay-su3so3", "su3so3-8-6.json", 4),
        Operation("induce-u3", _run_induce_u3, _gate_induce_u3),
        Operation("induce-su11", _run_induce_su11, _gate_induce_su11),
        Operation("ingest-u3", _run_ingest, _gate_ingest),
        _cli_check("check-su11", ["check", "su11", "--lambda", "7/2", "--nmax", "1000"], 3),
    )
}
