"""Property tests: the exact and float kernels agree, exact values are accurate,
``Radical`` arithmetic obeys the field laws, and a replay prints the live check.

Hypothesis runs derandomized with no example database, so the examples are
the same on every run.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from vcs_irreps import cli, repcheck
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
