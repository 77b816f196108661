"""Command-line interface: documents, verification runs, exit codes."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import warnings
from fractions import Fraction

import pytest

from vcs_irreps import cli, kmatrix, repcheck, su3_so3, su11, u3
from vcs_irreps.cli import ALGEBRAS, main
from vcs_irreps.opmatrix import OperatorMatrix
from vcs_irreps.radical import Radical

import oracles

# A small irrep of every registered algebra, as command-line flags.
SMALL_IRREPS = {
    "su11": ["--lambda", "3/2", "--nmax", "6"],
    "u3": ["--weight", "2,1,0"],
    "su3-so3": ["--lm", "2,1"],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_su11_document_size(capsys):
    code, out, _ = run(capsys, "gen", "su11", "--lambda", "3", "--nmax", "10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["basis"]) == 11
    assert set(doc["generators"]) == {"S0", "S+", "S-"}
    # exact values round-trip through the Radical JSON form
    entry = doc["generators"]["S+"]["entries"][0]
    assert set(entry[2]) == {"sign", "radicand"}


def test_gen_u3_basis_count(capsys):
    code, out, _ = run(capsys, "gen", "u3", "--weight", "2,1,0")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["basis"]) == 8
    assert len(doc["generators"]) == 9


def test_gen_su3_so3_document(capsys):
    code, out, _ = run(capsys, "gen", "su3-so3", "--lm", "2,2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["basis"]) == 27
    assert doc["basis"][0].startswith("L=0")
    assert doc["reduced_matrix_elements"], "reduced-Q table should be included"
    assert set(doc["generators"]) == {"L0", "L+", "L-", "Q-2", "Q-1", "Q0", "Q1", "Q2"}


def test_gen_invalid_weight_is_usage_error(capsys):
    code, _, err = run(capsys, "gen", "u3", "--weight", "1,2,0")
    assert code == 2
    assert "error" in err


def test_gen_missing_flags(capsys):
    code, _, err = run(capsys, "gen", "su11", "--nmax", "5")
    assert code == 2


def _never_build(monkeypatch):
    """Make every builder and enumeration a label could reach raise, so a test proves nothing was built."""

    def built(*args, **kwargs):
        raise AssertionError("an irrep was built")

    for module, name in [
        (su11, "generator_matrices"),
        (u3, "assemble_generators"),
        (u3, "basis_enumeration"),
        (su3_so3, "_construction"),
        (su3_so3, "assemble_so3_generators"),
        (su3_so3, "rotor_multiplicities"),
        (su3_so3, "weight_multiplicities"),
    ]:
        monkeypatch.setattr(module, name, built)


@pytest.mark.parametrize(
    "argv,dim",
    [
        (["check", "u3", "--weight", "10000000000000000000000,0,0"], u3.U3HighestWeight(10**22, 0, 0).dimension()),
        (["check", "u3", "--weight", "1e400,0,0"], u3.U3HighestWeight(10**400, 0, 0).dimension()),
        (["gen", "u3", "--weight", "1e400,0,0"], u3.U3HighestWeight(10**400, 0, 0).dimension()),
        (["check", "su3-so3", "--lm", "2000,2000"], su3_so3.Su3Label(2000, 2000).dimension()),
        (["check", "su11", "--lambda", "1/2", "--nmax", "3037000499"], 3037000500),
        (["branch", "--lm", "2000,2000"], su3_so3.Su3Label(2000, 2000).dimension()),
    ],
    ids=["u3-1e22", "u3-1e400", "gen-u3-1e400", "su3-so3", "su11", "branch"],
)
def test_an_irrep_whose_flat_index_overflows_int64_is_refused_unbuilt(capsys, monkeypatch, argv, dim):
    _never_build(monkeypatch)
    assert dim * dim >= 2**63
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: the irrep has d = {dim} states; the flat index row*d + col needs d*d < 2**63\n"


def test_the_largest_irrep_whose_flat_index_fits_int64_is_accepted(monkeypatch):
    _never_build(monkeypatch)
    args = cli.build_parser().parse_args(["check", "su11", "--lambda", "1/2", "--nmax", "3037000498"])
    assert cli._label(cli.SU11, args).dim == 3037000499  # 3037000499**2 < 2**63 <= 3037000500**2


def test_gen_csv_columns(capsys):
    code, out, _ = run(capsys, "gen", "u3", "--weight", "2,1,0", "--format", "csv")
    assert code == 0
    rows = [r for r in csv.reader(io.StringIO(out)) if r]
    assert rows[0] == ["weight", "bra", "ket", "value"]
    assert all(r[0] == "2,1,0" for r in rows[1:])
    assert len(rows) > 1


def _entry_lists(doc: dict) -> dict:
    """``doc`` as the list writer held it, each generator's entries as ``[row, col, value]`` lists."""

    def listed(mat):
        if isinstance(mat, repcheck.ExactMatrix) and doc["mode"] == "float":
            mat = repcheck.SparseMatrix.of(mat)  # each entry's float as its builder rounded it
        if isinstance(mat, repcheck.SparseMatrix):
            return [[r, c, repr(v)] for r, c, v in zip(mat.rows.tolist(), mat.cols.tolist(), mat.vals.tolist())]
        entries = oracles.exact_entries(mat) if isinstance(mat, repcheck.ExactMatrix) else mat.entries
        return [[r, c, cli._value_to_json(v, doc["mode"])] for (r, c), v in sorted(entries.items())]

    return dict(doc, generators={k: {"dim": m.dim, "entries": listed(m)} for k, m in doc["generators"].items()})


@pytest.mark.parametrize(
    "argv",
    [
        ["su11", "--lambda", "7/2", "--nmax", "12"],
        ["su11", "--lambda", "7/2", "--nmax", "12", "--mode", "float"],
        ["u3", "--weight", "7/3,4/3,1/3"],
        ["u3", "--weight", "2,1,0", "--mode", "float"],
        ["su3-so3", "--lm", "0,0"],
        ["su3-so3", "--lm", "2,1"],
    ],
    ids=["su11", "su11-float", "u3", "u3-float", "su3-0-0", "su3-2-1"],
)
def test_gen_writes_json_dumps_of_the_entry_lists_to_stdout_and_file(tmp_path, capsys, argv):
    path = tmp_path / "doc.json"
    assert run(capsys, "gen", *argv, "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "gen", *argv)
    assert code == 0
    assert out == path.read_text() + "\n" and not out.endswith("\n\n")
    algebra = ALGEBRAS[argv[0]]
    args = cli.build_parser().parse_args(["gen", *argv])
    doc = cli._document(algebra, cli._label(algebra, args), args.mode)
    assert ("metadata" in doc) == (algebra is cli.SU11)
    assert out == json.dumps(_entry_lists(doc), indent=1) + "\n"


@pytest.mark.parametrize(
    "argv",
    [["su11", "--lambda", "7/2", "--nmax", "50"], ["u3", "--weight", "7/3,4/3,1/3"], None],
    ids=["su11-nmax-50", "u3-rational", "no-entries"],
)
def test_exact_entry_template_writes_json_dumps_of_the_entry_lists(argv):
    if argv is None:  # one exact generator with no entries
        doc = {"schema": 1, "mode": "exact", "generators": {"E": OperatorMatrix("E", range(3))}}
    else:
        algebra = ALGEBRAS[argv[0]]
        args = cli.build_parser().parse_args(["gen", *argv])
        doc = cli._document(algebra, cli._label(algebra, args), args.mode)
    exact = (OperatorMatrix, repcheck.ExactMatrix)
    assert doc["mode"] == "exact" and all(isinstance(m, exact) for m in doc["generators"].values())
    out = io.StringIO()
    cli._write_json(doc, out)
    assert out.getvalue() == json.dumps(_entry_lists(doc), indent=1)


def test_gen_csv_formats_no_generator_entries(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a generator was formatted")

    monkeypatch.setattr(cli, "_generator_json", refuse)
    path = tmp_path / "t.csv"
    assert run(capsys, "gen", "su3-so3", "--lm", "4,2", "--format", "csv", "--out", str(path))[0] == 0
    # The table as it has always been written: one csv row per reduced element, floats as repr.
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(["weight", "bra", "ket", "value"])
    lm = su3_so3.Su3Label(4, 2)
    for bra, ket, value in cli._su3_so3_reduced(lm, su3_so3.assemble_so3_generators(lm)):
        writer.writerow(["4,2", bra, ket, repr(float(value))])
    assert path.read_bytes() == want.getvalue().encode()


def test_check_su11_passes(capsys):
    code, out, _ = run(capsys, "check", "su11", "--lambda", "2", "--nmax", "15")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_check_u3_passes(capsys):
    code, out, _ = run(capsys, "check", "u3", "--weight", "4,2,0")
    assert code == 0


# SHA-256 of the standard output of u(3) commands, as computed at commit fafbfca,
# where the generators were built from Racah's series: the closed-form builder
# writes every document, table, CSV row and check line byte for byte the same.
U3_OUTPUT_SHA256 = {
    ("gen", "u3", "--weight", "10,5,0"): "ad26f74ca2f541ae3df143104f7f6b1918309de1df1f78af6c5c0ab25ae8af2b",
    ("gen", "u3", "--weight", "10,5,0", "--mode", "float"):
        "cd01aef924fe0547dceb2efab65c245ba8e076767cf2463fec668e2503b706b7",
    ("gen", "u3", "--weight", "7/3,4/3,1/3"): "30a37ef791de4d9de8603ccd99bc9cee93760785a739808fd543bf406032814c",
    ("gen", "u3", "--weight", "2,1,0", "--format", "csv"):
        "af1521532600d43bbb8213f35aa4756a86017e8d462d7f1921a8e30bcbce5a3b",
    ("check", "u3", "--weight", "12,6,0"): "b07717fd2f83180046254daece61a86661a676e0aae27e31ca397760dc4f3c72",
}


@pytest.mark.parametrize("argv", list(U3_OUTPUT_SHA256), ids=" ".join)
def test_u3_outputs_are_byte_identical_to_the_pinned_hashes(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == U3_OUTPUT_SHA256[argv]


# SHA-256 of the standard output of su(3) commands, as computed at commit
# 4e955d9, before the construction read its edge weights and reduced elements
# from one table per block pair.  (24,22) has multiplicities up to 12, where the
# walk's heap order decides which edge fixes each norm.  A change that moves
# the float bits of the su(3) factors must update these and say why.
SU3_OUTPUT_SHA256 = {
    ("gen", "su3-so3", "--lm", "8,6"): "107e7f65cab26f29bc1c32112bab895a585f150aee1c12c3a2eae0ab2ca3d006",
    ("gen", "su3-so3", "--lm", "24,22", "--format", "csv"):
        "3d6e260d6250835ad7bde76116dd6084cb106c1e15f546e2039d4daf84e0af5b",
    ("check", "su3-so3", "--lm", "10,8"): "7b32638fe811a14667a50c78b0b413f2b3f0f9ef710bf067a2d51352669256d8",
    ("branch", "--lm", "10,8"): "8a765439ae67022048d11487da725d6c20dd22035b0284b5190e25c903829b78",
}


@pytest.mark.parametrize("argv", list(SU3_OUTPUT_SHA256), ids=" ".join)
def test_su3_outputs_are_byte_identical_to_the_pinned_hashes(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SU3_OUTPUT_SHA256[argv]


def test_check_su3_so3_passes(capsys):
    code, out, _ = run(capsys, "check", "su3-so3", "--lm", "2,2")
    assert code == 0
    assert "branching cross-check" in out


def test_check_su11_large_truncation_passes(capsys):
    # The exact su(1,1) matrices are checked exactly: the interior Casimir is
    # exactly -5/36 times the identity, where a float Schur test once read
    # 8.540e-10 against the 1e-10 tolerance (entries grow like n**2).
    code, out, _ = run(capsys, "check", "su11", "--lambda", "1/3", "--nmax", "2000")
    assert code == 0, out


def test_check_tolerance_flag_can_force_failure(capsys):
    code, out, _ = run(capsys, "check", "su3-so3", "--lm", "2,0", "--tol", "1e-20")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "su3-so3", "--lm", "2,1"],
        ["gen", "su3-so3", "--lm", "2,1"],
        ["gen", "su3-so3", "--lm", "2,1", "--format", "csv"],
        ["gen", "su3-so3", "--lm", "2,1", "--out", "OUT"],
    ],
)
def test_a_failed_su3_construction_is_one_error_line_and_exit_1(tmp_path, capsys, monkeypatch, argv):
    message = "non-positive norm ratio -4.150e-06 between (L=41,a=1) and (L=43,a=10)"

    def fail(lm):
        raise su3_so3.So3ConsistencyError(message)

    monkeypatch.setattr(su3_so3, "_construction", fail)
    out_path = tmp_path / "d.json"
    code, out, err = run(capsys, *(str(out_path) if a == "OUT" else a for a in argv))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, where",
    [
        (["check", "su3-so3", "--lm", "4,2"], (repcheck.TiledMatrix, "_of")),
        (["gen", "su3-so3", "--lm", "4,2", "--out", "OUT"], (cli, "_generator_json")),
        (["gen", "u3", "--weight", "2,1,0", "--out", "OUT"], (cli, "_generator_json")),
    ],
)
def test_an_irrep_too_large_for_memory_is_one_error_line_and_exit_2(tmp_path, capsys, monkeypatch, argv, where):
    # numpy's allocation failure (_ArrayMemoryError) is a MemoryError; a gen --out removes its file
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 10.9 GiB for an array with shape (1459, 1459) and data type float64")

    monkeypatch.setattr(*where, fail)
    out_path = tmp_path / "d.json"
    code, out, err = run(capsys, *(str(out_path) if a == "OUT" else a for a in argv))
    assert (code, err) == (2, "error: the irrep is too large to hold in memory\n")
    assert out == "" and not out_path.exists()


def test_an_exact_gen_to_stdout_that_fails_part_way_writes_nothing(capsys, monkeypatch):
    # every exact generator is formatted before the first write to stdout
    format_generator, calls = cli._generator_json, []

    def third_fails(mat):
        calls.append(mat)
        if len(calls) == 3:
            raise MemoryError
        return format_generator(mat)

    monkeypatch.setattr(cli, "_generator_json", third_fails)
    code, out, err = run(capsys, "gen", "u3", "--weight", "2,1,0")
    assert (code, out, err) == (2, "", "error: the irrep is too large to hold in memory\n")
    assert len(calls) == 3


def test_tolerance_env_override(capsys, monkeypatch):
    monkeypatch.setenv("VCS_IRREPS_TOL", "1e-20")
    code, out, _ = run(capsys, "check", "su3-so3", "--lm", "2,0")
    assert code == 1


def test_replay_round_trip_reproduces_residuals(tmp_path, capsys):
    out_file = tmp_path / "doc.json"
    code, _, _ = run(capsys, "gen", "su3-so3", "--lm", "2,2", "--out", str(out_file))
    assert code == 0
    code, first, _ = run(capsys, "check", "--replay", str(out_file))
    assert code == 0
    code, second, _ = run(capsys, "check", "--replay", str(out_file))
    assert first == second  # serialization is bit-exact
    # and the replayed residuals equal a direct check of the same irrep
    code, direct, _ = run(capsys, "check", "su3-so3", "--lm", "2,2")
    assert code == 0
    assert first.splitlines()[1:] == direct.splitlines()[1:]


def test_replay_exact_document(tmp_path, capsys):
    out_file = tmp_path / "u3.json"
    run(capsys, "gen", "u3", "--weight", "2,1,0", "--out", str(out_file))
    code, out, _ = run(capsys, "check", "--replay", str(out_file))
    assert code == 0
    assert "FAIL" not in out


def test_replay_corrupted_document_fails(tmp_path, capsys):
    out_file = tmp_path / "doc.json"
    run(capsys, "gen", "su11", "--lambda", "2", "--nmax", "8", "--out", str(out_file))
    doc = json.loads(out_file.read_text())
    doc["generators"]["S+"]["entries"][0][2] = Radical.from_rational(42).to_json()
    out_file.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", "--replay", str(out_file))
    assert code == 1
    assert "FAIL" in out


def _gen_large_su11(tmp_path, capsys):
    path = tmp_path / "su11.json"
    code, _, _ = run(capsys, "gen", "su11", "--lambda", "1/3", "--nmax", "2000", "--out", str(path))
    assert code == 0
    return path


def _casimir_line(out):
    return next(line for line in out.splitlines() if "casimir constancy" in line)


def test_replay_of_large_su11_truncation_passes(tmp_path, capsys):
    # The exact document replays exactly: the interior Casimir is exactly
    # -5/36 times the identity, though its terms S+ S- and S- S+ have entries
    # near n**2 = 4e6.
    path = _gen_large_su11(tmp_path, capsys)
    code, out, _ = run(capsys, "check", "--replay", str(path))
    assert code == 0, out
    assert _casimir_line(out).endswith("residual 0.000e+00  PASS")


def test_float_replay_of_large_su11_truncation_passes(tmp_path, capsys):
    # In floats the Casimir's rounding (about 1e-9) is small only next to the
    # size of the terms that cancel, which is what the deviation is divided by.
    path = tmp_path / "su11.json"
    run(capsys, "gen", "su11", "--lambda", "1/3", "--nmax", "2000", "--mode", "float", "--out", str(path))
    code, out, _ = run(capsys, "check", "--replay", str(path))
    assert code == 0, out
    assert _casimir_line(out).endswith("PASS")


def test_replay_of_perturbed_large_su11_casimir_fails(tmp_path, capsys):
    path = _gen_large_su11(tmp_path, capsys)
    doc = json.loads(path.read_text())
    # S0 at n = 1000 moved by 1e-5 of its value, about 0.01
    entry = next(e for e in doc["generators"]["S0"]["entries"] if e[0] == e[1] == 1000)
    value = Radical.from_json(entry[2]).as_fraction()
    entry[2] = Radical.from_rational(value * (1 + Fraction(1, 10**5))).to_json()
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", "--replay", str(path))
    assert code == 1
    assert _casimir_line(out).endswith("FAIL")


def test_exact_replay_prints_the_live_lines(tmp_path, capsys):
    # An exact document replays in exact arithmetic, so its holding identities
    # read 0.000e+00 as in the live check, not float rounding.
    path = tmp_path / "u3.json"
    run(capsys, "gen", "u3", "--weight", "7/3,4/3,1/3", "--out", str(path))
    code, replayed, _ = run(capsys, "check", "--replay", str(path), "--tol", "0")
    assert code == 0, replayed
    code, live, _ = run(capsys, "check", "u3", "--weight", "7/3,4/3,1/3", "--tol", "0")
    assert replayed.splitlines()[1:] == live.splitlines()[1:]
    assert all(" residual 0.000e+00  PASS" in line for line in live.splitlines()[1:])


def test_a_mixed_document_replays_as_its_all_float_twin(tmp_path, capsys):
    # A generator with any float entry is read as the floats of all its entries.
    path = tmp_path / "u3.json"
    run(capsys, "gen", "u3", "--weight", "4,2,0", "--out", str(path))
    exact = path.read_text()
    replays = []
    for every in (2, 1):  # every other entry a float, then every entry
        doc = json.loads(exact)
        for info in doc["generators"].values():
            for entry in info["entries"][::every]:
                entry[2] = repr(float(Radical.from_json(entry[2])))
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", "--replay", str(path))
        assert code == 0, out
        replays.append(out)
    assert replays[0] == replays[1]


def test_replay_of_radicand_perturbed_at_1e_30_fails_at_zero_tolerance(tmp_path, capsys):
    path = tmp_path / "u3.json"
    run(capsys, "gen", "u3", "--weight", "4,2,0", "--out", str(path))
    code, out, _ = run(capsys, "check", "--replay", str(path), "--tol", "0")
    assert code == 0, out
    doc = json.loads(path.read_text())
    entry = next(e for e in doc["generators"]["C21"]["entries"] if not Radical.from_json(e[2]).is_rational())
    value = Radical.from_json(entry[2])
    entry[2] = Radical(value.sign, value.radicand * (1 + Fraction(1, 10**30))).to_json()
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", "--replay", str(path), "--tol", "0")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("algebra, builder", [("u3", "u3_spec"), ("su3-so3", "su3_so3_spec"), ("su11", "su11_spec")])
def test_replay_builds_its_algebra_spec_once(tmp_path, capsys, monkeypatch, algebra, builder):
    out_file = tmp_path / "doc.json"
    assert run(capsys, "gen", algebra, *SMALL_IRREPS[algebra], "--out", str(out_file))[0] == 0
    calls = []
    build = getattr(repcheck, builder)
    monkeypatch.setattr(repcheck, builder, lambda: calls.append(1) or build())
    code, out, _ = run(capsys, "check", "--replay", str(out_file))
    assert code == 0 and "FAIL" not in out
    assert len(calls) == 1


def test_replay_missing_file(capsys):
    code, _, err = run(capsys, "check", "--replay", "/nonexistent/file.json")
    assert code == 2


def test_branch_agreement(capsys):
    code, out, _ = run(capsys, "branch", "--lm", "2,0")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
    table = {int(l.split()[0]): (int(l.split()[1]), int(l.split()[2])) for l in lines}
    assert table == {0: (1, 1), 2: (1, 1)}


def test_branch_trivial(capsys):
    code, out, _ = run(capsys, "branch", "--lm", "0,0")
    assert code == 0
    assert "agreement: yes" in out


def test_branch_22(capsys):
    code, out, _ = run(capsys, "branch", "--lm", "2,2")
    assert code == 0


def _oracle_must_not_run(lm):
    raise AssertionError("the L^2 oracle is the tests' reference, not the CLI's")


@pytest.mark.parametrize("argv", [["check", "su3-so3", "--lm", "4,2"], ["branch", "--lm", "4,2"]])
def test_branching_counts_weights_without_the_l_squared_oracle(capsys, monkeypatch, argv):
    monkeypatch.setattr(su3_so3, "branching_oracle", _oracle_must_not_run)
    code, _, _ = run(capsys, *argv)
    assert code == 0


def _drop_top_multiplet(rotor_multiplicities):
    def dropped(lm):
        mults = dict(rotor_multiplicities(lm))
        top = max(mults)
        mults[top] -= 1
        return {L: m for L, m in mults.items() if m}

    return dropped


def test_branching_mismatch_fails_check_and_branch(capsys, monkeypatch):
    monkeypatch.setattr(su3_so3, "rotor_multiplicities", _drop_top_multiplet(su3_so3.rotor_multiplicities))
    code, out, _ = run(capsys, "check", "su3-so3", "--lm", "4,2")
    assert code == 1
    assert re.search(r"branching cross-check .* FAIL", out)
    code, out, _ = run(capsys, "branch", "--lm", "4,2")
    assert code == 1
    assert "MISMATCH" in out
    assert "agreement: NO" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "unknown-algebra"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv", [["check", "su3-so3", "--lm", "-1,2"], ["gen", "nosuch"], ["branch"], ["frobnicate"], []], ids=repr
)
def test_argparse_errors_are_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--help"])
    out = capsys.readouterr()
    assert exc.value.code == 0 and out.err == ""
    assert out.out.startswith("usage: vcs-irreps gen [-h]") and "--lm LM" in out.out


def test_float_mode_document(capsys):
    code, out, _ = run(capsys, "gen", "su11", "--lambda", "5/2", "--nmax", "4", "--mode", "float")
    assert code == 0
    doc = json.loads(out)
    entry = doc["generators"]["S+"]["entries"][0]
    assert isinstance(entry[2], str)
    assert float(entry[2]) > 0


def _drop_key(tmp_path, capsys, algebra, key):
    path = tmp_path / "doc.json"
    run(capsys, "gen", algebra, *SMALL_IRREPS[algebra], "--out", str(path))
    doc = json.loads(path.read_text())
    del doc[key]
    return json.dumps(doc)


def _edit_entries(tmp_path, capsys, edit):
    path = tmp_path / "doc.json"
    run(capsys, "gen", "su11", *SMALL_IRREPS["su11"], "--out", str(path))
    doc = json.loads(path.read_text())
    edit(doc["generators"]["S+"]["entries"])
    return json.dumps(doc)


def _negative_row(entries):
    entries[0][0] = -1


def _edit_float_entries(tmp_path, capsys, edit):
    path = tmp_path / "doc.json"
    run(capsys, "gen", "su3-so3", "--lm", "1,0", "--out", str(path))
    doc = json.loads(path.read_text())
    edit(doc["generators"]["L0"]["entries"])
    return json.dumps(doc)


def _first_entry(position, value):
    def edit(entries):
        entries[0][position] = value

    return edit


def _duplicate_first(entries):
    entries.append(entries[0])


def _edit_document(tmp_path, capsys, gen_argv, edit):
    path = tmp_path / "doc.json"
    run(capsys, "gen", *gen_argv, "--out", str(path))
    doc = json.loads(path.read_text())
    edit(doc)
    return json.dumps(doc)


def _one_dim_changed(doc):
    doc["generators"]["S+"]["dim"] += 1


def _all_dims_zero(doc):
    for info in doc["generators"].values():
        info["dim"] = 0


def _truncation_relabelled(doc):
    # nmax 50 -> 10, so that a check on the 10 x 10 interior would not see
    # the S+ and S- entries changed at row and column 40.
    doc["weight"]["nmax"] = 10
    for name in ("S+", "S-"):
        for entry in doc["generators"][name]["entries"]:
            if 40 in entry[:2]:
                entry[2] = Radical.from_rational(7).to_json()


def _su3_relabelled(doc):
    doc["weight"] = {"lam": 2, "mu": 1}


def _one_basis_label(doc):
    doc["basis"] = ["x"]


# A weight field edited to a value that int() reads as the document's own
# label, so only its type is wrong: (gen arguments, field, value, id).
_NON_INTEGER_LABELS = [
    (["su11", "--lambda", "3/2", "--nmax", "2"], "nmax", 2.5, "su11-nmax-2.5"),
    (["su11", "--lambda", "3/2", "--nmax", "2"], "nmax", "2", "su11-nmax-string"),
    (["su11", "--lambda", "3/2", "--nmax", "2"], "nmax", 2.0, "su11-nmax-2.0"),
    (["su3-so3", "--lm", "1,1"], "lam", 1.5, "su3-lam-1.5"),
    (["su3-so3", "--lm", "1,1"], "lam", True, "su3-lam-true"),
    (["su3-so3", "--lm", "1,1"], "lam", "1", "su3-lam-string"),
    (["su3-so3", "--lm", "1,1"], "mu", 1.0, "su3-mu-1.0"),
]

# A rational weight field edited to a value outside the one rule that the
# --lambda and --weight flags share: a JSON integer, or a string with a
# non-zero denominator; a u(3) "w" is a list of three such values.
_NON_RATIONAL_WEIGHTS = [
    (["su11", "--lambda", "3/2", "--nmax", "2"], "lambda", True, "su11-lambda-true"),
    (["su11", "--lambda", "3/2", "--nmax", "2"], "lambda", "1/0", "su11-lambda-zero-denominator"),
    (["su11", "--lambda", "3/2", "--nmax", "2"], "lambda", 1.5, "su11-lambda-float"),
    (["u3", "--weight", "1,0,0"], "w", "100", "u3-w-string"),
    (["u3", "--weight", "1,0,0"], "w", [True, False, False], "u3-w-bools"),
    (["u3", "--weight", "1,0,0"], "w", ["1/0", "0", "0"], "u3-w-zero-denominator"),
    (["u3", "--weight", "1,0,0"], "w", [1.0, 0, 0], "u3-w-float"),
    (["u3", "--weight", "1,0,0"], "w", ["1", "0"], "u3-w-two-values"),
]


def _set_weight(key, value):
    def edit(doc):
        doc["weight"][key] = value

    return edit


def _weight_field(key, value):
    def edit(doc):
        assert doc["weight"][key] == int(value)
        doc["weight"][key] = value

    return edit


@pytest.mark.parametrize(
    "argv, document, env",
    [
        (["check", "su11", "--lambda", "-1", "--nmax", "5"], None, {}),
        (["gen", "su11", "--lambda", "0", "--nmax", "3"], None, {}),
        (["check", "su11", "--lambda", "1", "--nmax", "0"], None, {}),
        (["check", "--replay"], lambda tmp_path, capsys: "this is not JSON", {}),
        (["check", "--replay"], lambda tmp_path, capsys: _drop_key(tmp_path, capsys, "su11", "generators"), {}),
        (["check", "--replay"], lambda tmp_path, capsys: _drop_key(tmp_path, capsys, "su3-so3", "weight"), {}),
        (["check", "--replay"], lambda tmp_path, capsys: _edit_entries(tmp_path, capsys, _negative_row), {}),
        (["check", "--replay"], lambda tmp_path, capsys: _edit_entries(tmp_path, capsys, _duplicate_first), {}),
        (["check", "--replay"], lambda tmp_path, capsys: _edit_entries(tmp_path, capsys, _first_entry(0, 1.5)), {}),
        (["check", "--replay"], lambda tmp_path, capsys: _edit_entries(tmp_path, capsys, _first_entry(2, "nan")), {}),
        (
            ["check", "--replay"],
            lambda tmp_path, capsys: _edit_entries(tmp_path, capsys, _first_entry(2, {"sign": 1, "radicand": "1/0"})),
            {},
        ),
        *(
            (["check", "--replay"], lambda tmp_path, capsys, edit=edit: _edit_float_entries(tmp_path, capsys, edit), {})
            for edit in (
                _first_entry(0, 1.5), _first_entry(0, True), _first_entry(0, "1"), _first_entry(0, 3),
                _first_entry(2, "nan"), _first_entry(2, "inf"), _first_entry(2, True), _duplicate_first,
            )
        ),
        (
            ["check", "--replay"],
            lambda tmp_path, capsys: _edit_document(tmp_path, capsys, ["su11", *SMALL_IRREPS["su11"]], _one_dim_changed),
            {},
        ),
        (
            ["check", "--replay"],
            lambda tmp_path, capsys: _edit_document(tmp_path, capsys, ["u3", "--weight", "0,0,0"], _all_dims_zero),
            {},
        ),
        (
            ["check", "--replay"],
            lambda tmp_path, capsys: _edit_document(
                tmp_path, capsys, ["su11", "--lambda", "7/2", "--nmax", "50"], _truncation_relabelled
            ),
            {},
        ),
        (
            ["check", "--replay"],
            lambda tmp_path, capsys: _edit_document(tmp_path, capsys, ["su3-so3", "--lm", "8,6"], _su3_relabelled),
            {},
        ),
        (
            ["check", "--replay"],
            lambda tmp_path, capsys: _edit_document(tmp_path, capsys, ["u3", "--weight", "2,1,0"], _one_basis_label),
            {},
        ),
        *(
            (
                ["check", "--replay"],
                lambda tmp_path, capsys, gen=gen, key=key, value=value: _edit_document(
                    tmp_path, capsys, gen, _weight_field(key, value)
                ),
                {},
            )
            for gen, key, value, _ in _NON_INTEGER_LABELS
        ),
        *(
            (
                ["check", "--replay"],
                lambda tmp_path, capsys, gen=gen, key=key, value=value: _edit_document(
                    tmp_path, capsys, gen, _set_weight(key, value)
                ),
                {},
            )
            for gen, key, value, _ in _NON_RATIONAL_WEIGHTS
        ),
        (["check", "su11", "--lambda", "1/0", "--nmax", "2"], None, {}),
        (["check", "u3", "--weight", "1,0"], None, {}),
        (["check", "u3", "--weight", "2,1,0"], None, {"VCS_IRREPS_TOL": "abc"}),
        (["check", "u3", "--weight", "2,1,0"], None, {"VCS_IRREPS_TOL": "inf"}),
        (["check", "u3", "--weight", "2,1,0", "--tol", "nan"], None, {}),
        (["check", "u3", "--weight", "2,1,0", "--tol=-1e-10"], None, {}),
        (["check", "u3", "--weight", "2,1,0", "--tol", "abc"], None, {}),
    ],
    ids=[
        "negative-lambda", "zero-lambda", "zero-nmax", "non-json", "no-generators", "no-weight",
        "negative-entry-index", "duplicate-entry", "fractional-entry-index", "nan-among-exact-values",
        "zero-denominator-radicand",
        "float-doc-fractional-index", "float-doc-bool-index", "float-doc-string-index", "float-doc-index-outside",
        "float-doc-nan-value", "float-doc-inf-value", "float-doc-bool-value", "float-doc-duplicate-entry",
        "mismatched-dims", "zero-dims",
        "su11-nmax-relabelled", "su3-relabelled", "basis-length", *(case[-1] for case in _NON_INTEGER_LABELS),
        *(case[-1] for case in _NON_RATIONAL_WEIGHTS), "lambda-flag-zero-denominator", "weight-flag-two-values",
        "env-tol-not-a-number", "env-tol-infinite",
        "tol-nan", "tol-negative", "tol-not-a-number",
    ],
)
def test_bad_input_is_one_line_usage_error(tmp_path, capsys, monkeypatch, argv, document, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    if document is not None:
        path = tmp_path / "input.json"
        path.write_text(document(tmp_path, capsys))
        argv = argv + [str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_float_su3_paths_build_no_operator_matrix(tmp_path, capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("an OperatorMatrix was built")

    # the u(3) holomorphic rep as a float K-matrix input, one sector per raw state
    hw = u3.U3HighestWeight(2, 1, 0)
    fine = u3.holomorphic_gamma_rep(hw)
    ingest = {
        "sectors": [{"key": list(sec), "dim": 1, "grade": fine.grades[sec]} for sec in fine.sectors],
        "generators": {
            gen: {
                "adjoint": fine.adjoints[gen],
                "blocks": [
                    {"row": list(r), "col": list(c), "entries": [[0, 0, float(b[0][0])]]} for (r, c), b in blocks.items()
                ],
            }
            for gen, blocks in fine.blocks.items()
        },
    }
    monkeypatch.setattr(OperatorMatrix, "__init__", refuse)
    path = tmp_path / "doc.json"
    assert run(capsys, "check", "su3-so3", "--lm", "4,2")[0] == 0
    assert run(capsys, "gen", "su3-so3", "--lm", "4,2", "--out", str(path))[0] == 0
    assert run(capsys, "check", "--replay", str(path))[0] == 0
    rep = kmatrix.gamma_rep_from_json(json.loads(json.dumps(ingest)))
    basis, gammas = kmatrix.unitarize(rep, kmatrix.orthonormalize(kmatrix.solve_s_recursion(rep)))
    assert len(basis) == hw.dimension() and all(isinstance(m, repcheck.SparseMatrix) for m in gammas.values())


def test_u3_paths_build_no_operator_matrix(tmp_path, capsys, monkeypatch):
    # check u3 takes the builder's ExactMatrix as it is, and gen writes each entry from its arrays
    def refuse(self, *args, **kwargs):
        raise AssertionError("an OperatorMatrix was built")

    monkeypatch.setattr(OperatorMatrix, "__init__", refuse)
    path = tmp_path / "doc.json"
    assert run(capsys, "check", "u3", "--weight", "7/3,4/3,1/3")[0] == 0
    for mode in ("exact", "float"):
        assert run(capsys, "gen", "u3", "--weight", "7/3,4/3,1/3", "--mode", mode, "--out", str(path))[0] == 0
        assert run(capsys, "check", "--replay", str(path))[0] == 0


def _check_names(report: str) -> list[str]:
    return re.findall(r"^  (\S.*?)\s+residual ", report, flags=re.MULTILINE)


@pytest.mark.parametrize("algebra", list(ALGEBRAS))
def test_replay_runs_the_same_checks_as_check(tmp_path, capsys, algebra):
    path = tmp_path / "doc.json"
    code, _, _ = run(capsys, "gen", algebra, *SMALL_IRREPS[algebra], "--out", str(path))
    assert code == 0
    code, replayed, _ = run(capsys, "check", "--replay", str(path))
    assert code == 0
    code, direct, _ = run(capsys, "check", algebra, *SMALL_IRREPS[algebra])
    assert code == 0
    assert len(_check_names(direct)) >= 3
    assert _check_names(replayed) == _check_names(direct)


def _gen_to(tmp_path, capsys, *argv):
    path = tmp_path / "doc.json"
    assert run(capsys, "gen", *argv, "--out", str(path))[0] == 0
    return ["--replay", str(path)]


@pytest.mark.parametrize(
    "check_argv",
    [
        lambda tmp_path, capsys: ["su11", "--lambda", "1e155", "--nmax", "3"],
        lambda tmp_path, capsys: ["su11", "--lambda", "1e400", "--nmax", "3"],
        lambda tmp_path, capsys: _gen_to(tmp_path, capsys, "su11", "--lambda", "1e155", "--nmax", "3", "--mode", "float"),
        lambda tmp_path, capsys: _gen_to(tmp_path, capsys, "su11", "--lambda", "1e400", "--nmax", "3"),
    ],
    ids=["exact-1e155", "exact-1e400", "float-replay-1e155", "exact-replay-1e400"],
)
def test_a_norm_too_large_for_a_float_is_a_one_line_error(tmp_path, capsys, check_argv):
    # The squared entries (1e155) or the entries themselves (1e400) overflow a
    # float; a defect over an infinite scale would read 0.0 and pass.
    argv = check_argv(tmp_path, capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "check", *argv)
    assert code == 2 and "PASS" not in out
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflows a float" in err


def test_gen_that_fails_part_way_leaves_no_file(tmp_path, capsys):
    # 1e400 overflows a float when S0 is converted, after the file is open
    # and before the first write to it
    path = tmp_path / "f.json"
    code, out, err = run(capsys, "gen", "su11", "--lambda", "1e400", "--nmax", "3", "--mode", "float", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_gen_that_fails_part_way_removes_no_device(capsys, monkeypatch):
    # only a regular file is removed: writing to the null device, the
    # failure is the one-line error and the device is left alone
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    code, out, err = run(capsys, "gen", "su11", "--lambda", "1e400", "--nmax", "3", "--mode", "float", "--out", os.devnull)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert removed == []


def test_gen_whose_write_fails_part_way_removes_its_file(tmp_path, capsys, monkeypatch):
    # the file is open when the first generator fails to format
    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_generator_json", fail)
    path = tmp_path / "f.json"
    code, out, err = run(capsys, "gen", "su11", "--lambda", "7/2", "--nmax", "2", "--out", str(path))
    assert code == 2 and out == "" and err == "error: disk full\n"
    assert list(tmp_path.iterdir()) == []


def test_gen_that_overflows_a_float_writes_nothing_and_names_the_generator(tmp_path, capsys):
    # S0 = 1e400/2 + n is converted before anything is written, to stdout or to a file
    path = tmp_path / "f.json"
    for out_flag in ((), ("--out", str(path))):
        code, out, err = run(capsys, "gen", "su11", "--lambda", "1e400", "--nmax", "2", "--mode", "float", *out_flag)
        assert code == 2 and out == ""
        assert err == "error: an entry of S0 overflows a float\n"
    assert list(tmp_path.iterdir()) == []


def test_gen_csv_of_a_float_document_converts_no_generator(capsys):
    # S0 overflows a float, but the table reads only S+ (about 1e200), which fits
    code, out, err = run(capsys, "gen", "su11", "--lambda", "1e400", "--nmax", "2", "--mode", "float", "--format", "csv")
    assert code == 0 and err == ""
    assert [row[1:] for row in csv.reader(io.StringIO(out)) if row] == [
        ["bra", "ket", "value"],
        ["1", "0", "1e+200"],
        ["2", "1", "1.414213562373095e+200"],
    ]


def test_a_mixed_replay_with_an_entry_too_large_for_a_float_names_the_generator(tmp_path, capsys):
    path = tmp_path / "su11.json"
    assert run(capsys, "gen", "su11", "--lambda", "7/2", "--nmax", "2", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    entries = doc["generators"]["S0"]["entries"]
    entries[0][2] = repr(float(Radical.from_json(entries[0][2])))  # one float entry makes S0 a float generator
    entries[1][2] = {"sign": 1, "radicand": str(10**800)}  # exactly 1e400
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--replay", str(path))
    assert code == 2 and out == ""
    assert err == "error: an entry of S0 overflows a float\n"


def test_an_all_exact_generator_of_a_mixed_replay_that_overflows_a_float_is_named(tmp_path, capsys):
    # S+ holds a float entry, so the document reads as its all-float twin, S0 included
    path = tmp_path / "su11.json"
    assert run(capsys, "gen", "su11", "--lambda", "7/2", "--nmax", "2", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    doc["generators"]["S+"]["entries"][0][2] = "1.5"
    doc["generators"]["S0"]["entries"][1][2] = {"sign": 1, "radicand": str(10**800)}  # exactly 1e400
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--replay", str(path))
    assert (code, out, err) == (2, "", "error: an entry of S0 overflows a float\n")
