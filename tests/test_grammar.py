import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tautring import (
    GrammarError,
    Monomial,
    Polynomial,
    RingContext,
    UNIT,
    diag,
    exc,
    kappa,
    parse_monomial,
    parse_polynomial,
    point_k,
)
from tautring.grammar import format_monomial, format_polynomial


CTX = RingContext(3, 3)


@pytest.mark.parametrize("text,expected", [
    ("1", UNIT),
    ("K1", Monomial.from_symbols(point_k(1))),
    ("k1", Monomial.from_symbols(kappa(1))),
    ("d(1,2)", Monomial.from_symbols(diag(1, 2))),
    ("d(2,1)", Monomial.from_symbols(diag(1, 2))),
    ("D(1,2,3)", Monomial.from_symbols(exc((1, 2, 3)))),
    ("K1^3", Monomial.from_pairs([(point_k(1), 3)])),
    ("K2*K1", Monomial.from_symbols(point_k(1), point_k(2))),
    ("k1*K1^2*d(1,3)", Monomial.from_pairs(
        [(kappa(1), 1), (point_k(1), 2), (diag(1, 3), 1)])),
])
def test_parse_monomial(text, expected):
    assert parse_monomial(CTX, text) == expected


@pytest.mark.parametrize("text", [
    "", "K0", "K4", "d(1,1)", "d(1,4)", "D(1,2)", "D(1,2,4)", "K1^0",
    "K1*", "*K1", "K1 K2", "k2", "2K1", "K1^", "d(1)", "bogus", "K1^1/0",
])
def test_parse_monomial_rejects(text):
    with pytest.raises(GrammarError):
        parse_monomial(CTX, text)


@pytest.mark.parametrize("text,n_terms", [
    ("0", 0),
    ("1", 1),
    ("-1", 1),
    ("K1 + K2", 2),
    ("K1 - K2", 2),
    ("-K1 - K2", 2),
    ("3 K1 + 1/2 K2", 2),
    ("3*K1", 1),
    ("K1 + K1", 1),      # merges
    ("K1 - K1", 0),      # cancels
    ("5", 1),
    ("-7/3", 1),
])
def test_parse_polynomial_shapes(text, n_terms):
    assert len(parse_polynomial(CTX, text)) == n_terms


def test_parse_polynomial_values():
    p = parse_polynomial(CTX, "1/2 K1*K2 - 2 d(1,2)")
    assert p.coeff(Monomial.from_symbols(point_k(1), point_k(2))) == Fraction(1, 2)
    assert p.coeff(Monomial.from_symbols(diag(1, 2))) == -2


@pytest.mark.parametrize("text", ["", "+", "K1 +", "1 +- K2", "K1 ^ 2 ^ 3", "2/0 K1", "3/0 K1"])
def test_parse_polynomial_rejects(text):
    with pytest.raises(GrammarError):
        parse_polynomial(CTX, text)


def test_format_zero_and_constants():
    assert format_polynomial(Polynomial.zero()) == "0"
    assert format_polynomial(Polynomial.monomial(UNIT, Fraction(-3, 4))) == "-3/4"
    assert format_monomial(UNIT) == "1"


def test_format_signs():
    p = parse_polynomial(CTX, "-2 K1*D(1,2,3) - d(1,2)*d(1,3)")
    assert format_polynomial(p) == "-2 K1*D(1,2,3) - d(1,2)*d(1,3)"


# -- round-trip properties ----------------------------------------------------

_SYMBOLS = (
    [kappa(1)]
    + [point_k(i) for i in (1, 2, 3)]
    + [diag(i, j) for i, j in itertools.combinations((1, 2, 3), 2)]
    + [exc((1, 2, 3))]
)

monomials = st.lists(st.sampled_from(_SYMBOLS), max_size=5).map(
    lambda syms: Monomial.from_symbols(*syms)
)
rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=20),
)
polynomials = st.dictionaries(monomials, rationals, max_size=4).map(Polynomial)


@given(monomials)
def test_monomial_round_trip(m):
    assert parse_monomial(CTX, format_monomial(m)) == m


@given(polynomials)
def test_polynomial_round_trip(p):
    assert parse_polynomial(CTX, format_polynomial(p)) == p
