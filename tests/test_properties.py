"""Property tests: the exact and float kernels agree, exact values are accurate,
``Radical`` arithmetic obeys the field laws, a replay prints the live check, the
``gen`` writer writes what ``json.dumps(indent=1)`` of the entry lists did, the
replay's reader reads what the ``Radical`` reader did, the K-matrix pair check
decides as cross-multiplication did, and ``OperatorMatrix`` takes an entry
dict as one ``__setitem__`` per entry does.

Hypothesis runs derandomized with no example database, so the examples are
the same on every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import numpy as np
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vcs_irreps import cli, kmatrix, repcheck
from vcs_irreps.opmatrix import OperatorMatrix
from vcs_irreps.radical import Radical, RadicalSum

SPECS = (repcheck.su11_spec(), repcheck.u3_spec(), repcheck.su3_so3_spec())


def fixed(max_examples: int):
    return settings(derandomize=True, database=None, max_examples=max_examples, deadline=None)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=10)
radicands = st.sampled_from((1, 2, 3, 5, 8, 12, 18, 50))
radicals = st.builds(lambda q, k: Radical.sqrt_of(k) * q, rationals, radicands)
exact_values = st.one_of(
    st.integers(-3, 3),
    rationals,
    radicals,
    st.builds(lambda a, b: RadicalSum.from_value(a) + b, radicals, radicals),
)


@st.composite
def exact_generators(draw):
    """A spec, random exact matrices for its generators, and an interior (or None)."""
    spec = draw(st.sampled_from(SPECS))
    dim = draw(st.integers(1, 4))
    index = st.integers(0, dim - 1)
    mats = {
        g: OperatorMatrix(g, range(dim), draw(st.dictionaries(st.tuples(index, index), exact_values)))
        for g in spec.generators
    }
    return spec, mats, draw(st.none() | st.integers(0, dim))


@fixed(60)
@given(exact_generators())
def test_exact_and_float_kernels_report_the_same_residuals(case):
    spec, mats, interior = case
    floats = {g: m.to_dense() for g, m in mats.items()}
    exact = repcheck.standard_checks(spec, mats, 0.0, interior)
    approx = repcheck.standard_checks(spec, floats, 0.0, interior)
    assert [name for name, _, _ in exact] == [name for name, _, _ in approx]
    for (name, e, _), (_, f, _) in zip(exact, approx):
        # Residuals are relative, so float rounding stays near 1e-16 of 1.
        assert abs(e - f) <= 1e-12 * abs(e) + 1e-14, (name, e, f)


@fixed(100)
@given(
    st.dictionaries(st.sampled_from((2, 3, 5, 6, 7, 10, 30)), st.integers(-(10**30), 10**30), max_size=4),
    st.integers(1, 10**6),
    st.booleans(),
)
def test_exact_entries_evaluate_accurately_when_their_classes_cancel(entry, den, cancel):
    # With the nearest integer to the irrational part as the rational term,
    # the sum cancels to about 1e-30 of its terms.
    irrational = sum((num * sympy.sqrt(core) for core, num in entry.items()), sympy.Integer(0))
    if cancel:
        entry = {**entry, 1: -int(sympy.floor(irrational + sympy.Rational(1, 2)))}
    got = repcheck._value(entry, den)
    if not any(entry.values()):
        assert got == 0.0
        return
    want = float(((irrational + entry.get(1, 0)) / den).evalf(80))
    assert got != 0.0
    assert abs(got - want) <= 1e-15 * abs(want)


def _sympy(value):
    """A ``Radical`` or ``RadicalSum`` as the sympy number it stands for."""
    if isinstance(value, Radical):
        return value.sign * sympy.sqrt(sympy.Rational(value.radicand.numerator, value.radicand.denominator))
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(d) for d, c in value.terms.items()), sympy.Integer(0)
    )


@fixed(100)
@given(radicals, radicals)
def test_radical_field_laws_match_sympy(a, b):
    x, y = _sympy(a), _sympy(b)
    assert sympy.expand(_sympy(a + b) - (x + y)) == 0
    assert sympy.expand(_sympy(a - b) - (x - y)) == 0
    assert sympy.expand(_sympy(a * b) - x * y) == 0
    if not b.is_zero():
        assert sympy.expand(_sympy(a / b) - x / y) == 0
    assert (a < b) == bool(x < y)
    assert (a == b) == (sympy.expand(x - y) == 0)


def _cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


@fixed(20)
@given(
    st.integers(0, 4).flatmap(lambda lam: st.tuples(st.just(lam), st.integers(0, 4 - lam))),
    st.sampled_from((Fraction(0), Fraction(1, 3), Fraction(1, 2))),
)
def test_replay_of_a_u3_document_prints_the_live_check(lm, shift):
    lam, mu = lm
    weight = ",".join(str(w + shift) for w in (lam + mu, mu, 0))
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "u3.json")
        assert _cli("gen", "u3", "--weight", weight, "--out", path)[0] == 0
        live = _cli("check", "u3", "--weight", weight, "--tol", "0")
        replayed = _cli("check", "--replay", path, "--tol", "0")
    assert replayed[0] == live[0] == 0
    assert replayed[1].splitlines()[1:] == live[1].splitlines()[1:]


float_values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    (5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 2.0, -2.0, 1.0, 0.0)
)
single_radicals = st.one_of(st.integers(-3, 3), rationals, radicals)


@st.composite
def gen_documents(draw):
    """A ``gen`` document with matrices for generators, and the same document with their entry lists.

    The lists are what the list writer held: ``[row, col, value]`` in row, then
    column order, a float as its ``repr`` string.
    """
    mode = draw(st.sampled_from(("exact", "float")))
    dim = draw(st.integers(0, 30))
    cell = st.integers(0, max(dim - 1, 0))
    size = 40 if dim else 0
    gens, listed = {}, {}
    for name in draw(st.lists(st.text(max_size=3), unique=True, max_size=4)):
        if draw(st.booleans()):
            entries = draw(st.dictionaries(st.tuples(cell, cell), float_values, max_size=size))
            rows, cols = zip(*entries) if entries else ((), ())
            with np.errstate(over="ignore"):  # the norm of 1e300 entries; the writer does not read it
                gens[name] = repcheck.SparseMatrix(dim, rows, cols, list(entries.values()))
            kept = [[r, c, repr(v)] for (r, c), v in sorted(entries.items()) if v != 0.0]
        else:
            entries = draw(st.dictionaries(st.tuples(cell, cell), single_radicals, max_size=size // 4))
            gens[name] = OperatorMatrix(name, range(dim), entries)
            kept = [[r, c, cli._value_to_json(v, mode)] for (r, c), v in sorted(gens[name].entries.items())]
        listed[name] = {"dim": dim, "entries": kept}
    head = {
        "schema": 1,
        "algebra": draw(st.text(max_size=5)),  # any text, escapes and newlines included
        "weight": draw(st.dictionaries(st.text(max_size=3), st.integers() | st.text(max_size=3), max_size=3)),
        "mode": mode,
        "basis": draw(st.lists(st.text(max_size=6), max_size=dim)),
    }
    row = st.fixed_dictionaries({"bra": st.text(max_size=4), "ket": st.text(max_size=4), "value": st.text(max_size=6)})
    tail = {"reduced_matrix_elements": draw(st.lists(row, max_size=3))}
    if draw(st.booleans()):
        tail["metadata"] = {"kernel_convergence_radius": draw(float_values)}
    return {**head, "generators": gens, **tail}, {**head, "generators": listed, **tail}


@fixed(200)
@given(gen_documents())
def test_gen_writer_writes_the_entry_lists_as_json_dumps_did(docs):
    doc, listed = docs
    out = io.StringIO()
    cli._write_json(doc, out)
    assert out.getvalue() == json.dumps(listed, indent=1)


# Document entry lists for the replay's reader: well-formed exact, float and
# mixed lists, then up to two flaws that it must refuse or read as before.
def _radical(sign, radicand) -> dict:
    return {"sign": sign, "radicand": radicand}


_good_exact = st.builds(
    _radical,
    st.sampled_from((1, -1, 1, -1, "1", True, 1.5)),
    st.sampled_from(("2", "3/4", "12", "50/3", "1", "2/4", "1.5", "1e3", " 5 ", "007", 7, 0.5, "1" + "0" * 800)),
) | st.just(_radical(0, "0"))
_good_float = st.sampled_from(("1.5", "-2", "0", "0.0", "7e-3", "1e300", 3, 2.5, 0))
_near_int_text = st.sampled_from(  # radicands near str(Fraction)'s digits and one "/", which int() reads
    ("5/", "/5", "1/2/3", "+3", "3 / 4", "\u0663", "\u00b2", "1_000", "6/04", "0/5", "4/0", "", "9" * 4301)
)
_bad_values = (
    st.builds(_radical, st.sampled_from((2, 0, -2, "x", None, 1)), st.sampled_from(("-2", "1/0", "x", None, "2", "0", "nan")))
    | st.builds(_radical, st.just(1), _near_int_text)
    | st.sampled_from(({"sign": 1}, {}, "nan", "inf", "1e400", "abc", True, False, None, [], 10**400))
)
_FLAWS = ("value", "index type", "index range", "repeat", "not an entry", "entries", "dim")
_DRAWN_FLAWS = st.lists(st.sampled_from(_FLAWS[:1] * 4 + _FLAWS), max_size=2)  # mostly bad values


@st.composite
def json_generators(draw):
    """A generator's ``{"dim", "entries"}`` object and its dimension, as ``json.load`` gives them."""
    dim = draw(st.sampled_from((1, 2, 3, 4) * 2 + (0,)))
    cell = st.integers(0, max(dim - 1, 0))
    value = draw(st.sampled_from((_good_exact, _good_float, _good_exact | _good_float)))
    entry = st.builds(lambda r, c, v: [r, c, v], cell, cell, value)
    entries = draw(st.lists(entry, min_size=min(dim, 1), max_size=2 * dim, unique_by=lambda e: tuple(e[:2])))
    info = {"dim": dim, "entries": entries}
    for flaw in sorted(draw(_DRAWN_FLAWS), key=_FLAWS.index):  # entries edited first
        at = draw(st.integers(0, len(entries)))
        if flaw == "value" and entries[at:]:
            entries[at][2] = draw(_bad_values)
        elif flaw == "index type" and entries[at:]:
            entries[at][draw(st.sampled_from((0, 1)))] = draw(st.sampled_from((True, False, 1.0, "1")))
        elif flaw == "index range" and entries[at:]:
            entries[at][draw(st.sampled_from((0, 1)))] = draw(st.sampled_from((-1, dim)))
        elif flaw == "repeat" and entries[at:]:
            entries.append([*entries[at][:2], draw(value)])
        elif flaw == "not an entry":
            entries.insert(at, draw(st.sampled_from(({}, "x", [0, 0], [0, 0, "1", 4], 5, (0, 0, "1")))))
        elif flaw == "entries":
            info["entries"] = draw(st.sampled_from((None, "", {}, 5)))
        elif flaw == "dim":
            info["dim"] = draw(st.sampled_from((dim + 1, float(dim), str(dim))))
    return info, dim


def _read(reader, info: dict, dim: int):
    """What ``reader`` returns, as comparable plain values, or the type and message of what it raises."""
    try:
        m = reader("G", info, dim)
    except Exception as exc:  # noqa: BLE001 - every refusal is compared
        return type(exc), str(exc)
    arrays = ("rows", "cols", "cores", "nums", "start", "count") if isinstance(m, repcheck.ExactMatrix) else ("rows", "cols")
    fields = {a: (getattr(m, a).dtype, getattr(m, a).tolist()) for a in arrays}
    if isinstance(m, repcheck.ExactMatrix):
        fields.update(den=m.den, bits=m.bits, longest=m.longest)
    else:
        fields.update(vals=m.vals.tobytes())
    return type(m), m.dim, np.float64(m.norm).tobytes(), fields


@fixed(800)
@given(json_generators())
def test_replay_reader_reads_entry_lists_as_the_radical_reader_did(case):
    info, dim = case
    with np.errstate(over="ignore"):
        assert _read(cli._matrix_from_json, info, dim) == _read(oracles.matrix_from_json_reference, info, dim)


# The K-matrix pair check against the cross-multiplication it replaced: S
# values of 0, 1 and up to about 2,000 bits, square classes with num 0,
# negative num, unreduced num/den and differing cores, and S(col) drawn, set
# to balance the pair, or balanced but off by one in its numerator.
_long = st.integers(-(2**2000), 2**2000)
_s_values = st.one_of(
    st.sampled_from((Fraction(0), Fraction(1), Fraction(-1))),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)),
    st.builds(Fraction, _long, st.integers(1, 2**2000)),
)
_square_classes = st.tuples(st.sampled_from((1, 2, 3, 5, 6)), st.integers(-60, 60), st.integers(1, 60))


@fixed(800)
@given(
    _s_values, _square_classes, _square_classes, _s_values,
    st.sampled_from(("drawn", "balanced", "off by one", "same core", "one object", "one class")),
)
def test_pair_check_by_the_short_ratio_agrees_with_cross_multiplication(s_row, g, p, s_drawn, case):
    s_col = s_drawn
    if case in ("balanced", "off by one", "same core") and g[1]:
        s_col = s_row * Fraction(p[1] * g[2], p[2] * g[1])
        s_col += Fraction(1, s_col.denominator) if case == "off by one" else 0
    if case == "same core":
        p = (g[0], *p[1:])
    if case == "one object":  # a self-adjoint diagonal block: one class and one S value on both sides
        s_col, p = s_row, g
    if case == "one class":
        p = g
    assert kmatrix._balanced(s_col, g, p, s_row) == oracles.balanced_reference(s_col, g, p, s_row)


# OperatorMatrix(name, basis, entries) against one __setitem__ per entry: the
# same kept entries, or the same error type and message (a key that is not a
# pair fails to unpack in both).
_keys = st.tuples(st.integers(-1, 4), st.integers(-1, 4)) | st.just((0, 0, 0))
_entry_values = st.one_of(
    exact_values,
    st.sampled_from((0, Fraction(0), Radical.zero(), RadicalSum(), 0.0, 0.5, True, "1", None)),
)


def _by_setitem(entries: dict):
    matrix = OperatorMatrix("X", range(4))
    try:
        for key, value in entries.items():
            matrix[key] = value
    except (IndexError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return matrix.entries


@fixed(400)
@given(st.dictionaries(_keys, _entry_values, max_size=8))
def test_operator_matrix_takes_an_entry_dict_as_setitem_does(entries):
    try:
        got = OperatorMatrix("X", range(4), entries).entries
    except (IndexError, TypeError, ValueError) as exc:
        got = type(exc), str(exc)
    assert got == _by_setitem(entries)
    assert type(got) is not dict or got is not entries
