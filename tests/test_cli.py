"""Command-line interface: documents, verification runs, exit codes."""

from __future__ import annotations

import csv
import io
import json
import os
import re
import warnings
from fractions import Fraction

import pytest

from vcs_irreps import cli, repcheck, su3_so3
from vcs_irreps.cli import ALGEBRAS, main
from vcs_irreps.opmatrix import OperatorMatrix
from vcs_irreps.radical import Radical

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
        if isinstance(mat, repcheck.SparseMatrix):
            return [[r, c, repr(v)] for r, c, v in zip(mat.rows.tolist(), mat.cols.tolist(), mat.vals.tolist())]
        return [[r, c, cli._value_to_json(v, doc["mode"])] for (r, c), v in sorted(mat.entries.items())]

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
        *(
            (["check", "--replay"], lambda tmp_path, capsys, edit=edit: _edit_float_entries(tmp_path, capsys, edit), {})
            for edit in (
                _first_entry(0, 1.5), _first_entry(0, True), _first_entry(0, "1"), _first_entry(0, 3),
                _first_entry(2, "nan"), _first_entry(2, "inf"), _duplicate_first,
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
        (["check", "u3", "--weight", "2,1,0"], None, {"VCS_IRREPS_TOL": "abc"}),
        (["check", "u3", "--weight", "2,1,0"], None, {"VCS_IRREPS_TOL": "inf"}),
        (["check", "u3", "--weight", "2,1,0", "--tol", "nan"], None, {}),
        (["check", "u3", "--weight", "2,1,0", "--tol=-1e-10"], None, {}),
        (["check", "u3", "--weight", "2,1,0", "--tol", "abc"], None, {}),
    ],
    ids=[
        "negative-lambda", "zero-lambda", "zero-nmax", "non-json", "no-generators", "no-weight",
        "negative-entry-index", "duplicate-entry", "fractional-entry-index", "nan-among-exact-values",
        "float-doc-fractional-index", "float-doc-bool-index", "float-doc-string-index", "float-doc-index-outside",
        "float-doc-nan-value", "float-doc-inf-value", "float-doc-duplicate-entry", "mismatched-dims", "zero-dims",
        "su11-nmax-relabelled", "su3-relabelled", "basis-length", *(case[-1] for case in _NON_INTEGER_LABELS),
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

    monkeypatch.setattr(OperatorMatrix, "__init__", refuse)
    path = tmp_path / "doc.json"
    assert run(capsys, "check", "su3-so3", "--lm", "4,2")[0] == 0
    assert run(capsys, "gen", "su3-so3", "--lm", "4,2", "--out", str(path))[0] == 0
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
    # 1e400 overflows a float only when the first float generator is written,
    # after the file is open and its header is out
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
