"""The matrix, group and polynomial texts of the command line.

The tokenizer must read every text as the character scanner it replaced
did (``scanner_oracle``): the same values, and on malformed text the
same message at the same position.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scanner_oracle import parse_group_expr, parse_matrix as oracle_matrix, parse_poly_coeffs

from algentropy.cli import _parse_group_expr, _scaled_matrix, parse_matrix, parse_poly
from algentropy.errors import ParseError
from algentropy.polynomial import IntPolynomial

# white space str.isspace accepts, ASCII and not
SPACES = st.sampled_from(["", "", "", " ", "  ", "\t", "\n", "\u00a0", "\u2003"])


@st.composite
def rendered_matrices(draw):
    """(Fraction rows, a text for them): random spacing, signs, ``p/q``
    entries and an optional ``/d`` suffix."""
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    d = draw(st.sampled_from([1, 1, 2, -3, 6]))
    suffix = draw(st.booleans()) or d != 1
    parts, rows = [draw(SPACES), "["], []
    for i in range(n_rows):
        parts += [draw(SPACES), "["]
        row = []
        for j in range(n_cols):
            p = draw(st.integers(-10**20, 10**20))
            q = draw(st.sampled_from([1, 1, 2, 3, -4, 7, 10**18 + 9]))
            sign = "+" if p >= 0 and draw(st.booleans()) else ""
            text = f"{sign}{p}"
            if q != 1 or draw(st.booleans()):
                text += f"{draw(SPACES)}/{draw(SPACES)}{q}"
            parts += [draw(SPACES), text, draw(SPACES)]
            if j < n_cols - 1:
                parts.append(",")
            row.append(Fraction(p, q) / d)
        parts.append("]")
        if i < n_rows - 1:
            parts += [draw(SPACES), ","]
        rows.append(row)
    parts += [draw(SPACES), "]"]
    if suffix:
        parts += [draw(SPACES), "/", draw(SPACES), str(d)]
    parts.append(draw(SPACES))
    return rows, "".join(parts)


@settings(max_examples=300)
@given(rendered_matrices())
@example(([[Fraction(-1, 2)]], "[[1/-2]]"))
@example(([[Fraction(1, 2), Fraction(0)]], "[[-1,0]]/-2"))
@example(([[Fraction(0)]], "[[-0/5]]"))
def test_matrix_round_trip(case):
    rows, text = case
    den, scaled = _scaled_matrix(text)
    assert den >= 1
    assert [[Fraction(x, den) for x in row] for row in scaled] == rows
    # den is a common denominator: a multiple of the least one
    assert all(isinstance(x, int) for row in scaled for x in row)
    lcm = math.lcm(*(x.denominator for row in rows for x in row))
    assert den % lcm == 0
    view = parse_matrix(text)
    assert view == rows
    assert all(type(x) is Fraction for row in view for x in row)
    assert view == oracle_matrix(text)


def outcome(parse, text):
    """The value parse returns, or the text of the ParseError it raises."""
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", str(exc)


# the corruptions a hand-typed text meets, and the characters int() reads
# that the grammar does not: a superscript two and an Arabic-Indic three
def corruptions(text):
    return st.one_of(
        st.integers(0, len(text)).map(lambda i: text[:i]),
        st.integers(0, len(text)).map(lambda i: text[:i] + "," + text[i:]),
        st.just(text.replace(",", ",,", 1)),
        st.integers(0, len(text)).flatmap(lambda i: st.sampled_from(
            ["\u00b2", "\u0663", "/0", "/", "-", "+", " ", "[", "]", "0", "x", "Z"]
        ).map(lambda c: text[:i] + c + text[i:])),
        st.integers(0, max(len(text) - 1, 0)).map(lambda i: text[:i] + text[i + 1:]),
    )


MATRIX_ALPHABET = "[],/ +-0123456789\t\u00b2\u0663"
GROUP_ALPHABET = "Zz01234x*+/^ -\t\u00b2\u0663"
POLY_ALPHABET = ",+-0123456789 \t\u00b2\u0663"


@settings(max_examples=400)
@given(st.one_of(
    rendered_matrices().flatmap(lambda case: corruptions(case[1])),
    st.text(MATRIX_ALPHABET, max_size=24),
))
@example("[[1,2],[3]]")
@example("[[1/0]]")
@example("[[1]]/0")
@example("[[1]]/-0 ")
@example("[[+]]")
@example("[[1-2]]")
@example("[[- 1]]")
@example("[[1/ -]]")
@example("[[\u0663]]")
@example("[[1,,2]]")
@example("")
def test_matrix_errors_match_the_scanner(text):
    assert outcome(parse_matrix, text) == outcome(oracle_matrix, text)


@st.composite
def rendered_groups(draw):
    factors = draw(st.lists(st.sampled_from(
        ["Z", "z", "0", "1", "Z/8", "Z / 12", "Z^2", "z^ 3", "Z/-4", "Z/+6"]), min_size=1, max_size=4))
    seps = [draw(st.sampled_from([" x ", "x", "*", " + ", "+"])) for _ in factors[1:]]
    return factors[0] + "".join(s + f for s, f in zip(seps, factors[1:]))


@settings(max_examples=400)
@given(st.one_of(rendered_groups().flatmap(corruptions), st.text(GROUP_ALPHABET, max_size=16)))
@example("Z/2+3")
@example("Z/2+10")
@example("Z/2 x 10")
@example("Z^")
@example("Z/- 3")
@example("Z/\u00b2")
@example("1-1")
def test_group_errors_match_the_scanner(text):
    text = text.strip()
    assert outcome(_parse_group_expr, text) == outcome(parse_group_expr, text)


@settings(max_examples=300)
@given(st.one_of(
    st.lists(st.integers(-99, 99), min_size=1, max_size=6).map(
        lambda cs: " , ".join(map(str, cs))).flatmap(corruptions),
    st.text(POLY_ALPHABET, max_size=16),
))
@example("1,,2")
@example("1,\u00b2")
@example("+1, -2")
def test_poly_errors_match_the_scanner(text):
    if text.strip().startswith("["):
        return  # the JSON form, which json reads
    expected = outcome(lambda t: IntPolynomial(parse_poly_coeffs(t)).coeffs, text)
    assert outcome(lambda t: parse_poly(t).coeffs, text) == expected


@pytest.mark.parametrize("text, message", [
    ("[[1,2]", "expected ']' (at position 6)"),
    ("[[1/0]]", "zero denominator (at position 5)"),
    ("[[1]] / 0 ", "zero denominator (at position 9)"),
    ("[[+]]", "expected an integer (at position 3)"),
    ("[[1 2]]", "expected ']' (at position 4)"),
    ("[[\u0663]]", "expected an integer (at position 2)"),
    ("[[1]] x", "unexpected trailing input (at position 6)"),
])
def test_matrix_error_positions(text, message):
    assert outcome(parse_matrix, text) == ("error", message) == outcome(oracle_matrix, text)
