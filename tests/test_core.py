import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tautring import (
    Monomial,
    Polynomial,
    RingContext,
    UNIT,
    diag,
    exc,
    kappa,
    point_k,
    relabel,
)
from tautring.core import check_symbol, packed_keys, relabel_monomial


def test_context_validation():
    RingContext(2, 1)
    with pytest.raises(ValueError):
        RingContext(1, 3)
    with pytest.raises(ValueError):
        RingContext(2, 0)


def test_context_derived_quantities():
    ctx = RingContext(3, 4)
    assert ctx.top_degree == 5
    assert ctx.markings == (1, 2, 3, 4)
    assert ctx.kappa_zero == 4


def test_symbol_factories():
    assert kappa(2).degree == 2
    assert point_k(3).degree == 1
    assert diag(2, 1) is diag(1, 2)
    assert diag(2, 1).params == (1, 2)
    assert exc([3, 1, 2]) is exc((1, 2, 3))
    with pytest.raises(ValueError):
        kappa(0)
    with pytest.raises(ValueError):
        diag(2, 2)
    with pytest.raises(ValueError):
        exc((1, 2))  # needs three markings


def test_exc_sorts_bigger_sets_first():
    small, big = exc((1, 2, 3)), exc((1, 2, 3, 4))
    assert big.key < small.key


def test_check_symbol():
    ctx = RingContext(3, 3)
    check_symbol(ctx, kappa(1))
    with pytest.raises(ValueError):
        check_symbol(ctx, kappa(2))
    with pytest.raises(ValueError):
        check_symbol(ctx, point_k(4))
    with pytest.raises(ValueError):
        check_symbol(ctx, exc((2, 3, 4)))


def test_monomial_merge_and_degree():
    m = Monomial.from_pairs([(point_k(1), 1), (point_k(1), 2), (kappa(2), 1)])
    assert m.exponent(point_k(1)) == 3
    assert m.degree == 5
    assert repr(m) == "k2*K1^3"


def test_monomial_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Monomial.from_pairs([(point_k(1), -1)])
    with pytest.raises(ValueError):
        Monomial.from_pairs([(point_k(1), Fraction(1, 2))])


def test_monomial_mul_pow_div():
    a = Monomial.from_symbols(point_k(1), diag(1, 2))
    b = Monomial.from_symbols(point_k(1))
    assert (a * b).degree == 3
    assert a ** 2 == Monomial.from_pairs([(point_k(1), 2), (diag(1, 2), 2)])
    assert a ** 0 == UNIT
    assert (a * b).try_div(b) == a
    assert a.try_div(a) == UNIT
    assert b.try_div(a) is None


def test_monomial_parts():
    m = Monomial.from_symbols(kappa(1), point_k(2), diag(1, 3), exc((1, 2, 3)))
    assert repr(m.a_part()) == "k1*K2*d(1,3)"
    assert repr(m.d_part()) == "D(1,2,3)"
    assert m.exc_items() == (((1, 2, 3), 1),)
    assert m.marking_indices() == frozenset({1, 2, 3})


def test_polynomial_arithmetic():
    p = Polynomial.monomial(Monomial.from_symbols(point_k(1)), 2)
    q = Polynomial.monomial(Monomial.from_symbols(point_k(2)))
    s = p + q
    assert len(s) == 2
    assert (s - p) == q
    assert (p - p).is_zero
    assert (-p).coeff(Monomial.from_symbols(point_k(1))) == -2
    prod = p * q
    m12 = Monomial.from_symbols(point_k(1), point_k(2))
    assert prod.coeff(m12) == 2
    assert (p * Fraction(1, 2)).coeff(Monomial.from_symbols(point_k(1))) == 1
    assert (3 * q).coeff(Monomial.from_symbols(point_k(2))) == 3


def test_polynomial_rejects_floats():
    with pytest.raises(TypeError):
        Polynomial.monomial(UNIT, 0.5)


def test_polynomial_homogeneous_degree():
    p = Polynomial.monomial(Monomial.from_symbols(point_k(1)))
    assert p.homogeneous_degree() == 1
    with pytest.raises(ValueError):
        (p + Polynomial.one()).homogeneous_degree()
    with pytest.raises(ValueError):
        Polynomial.zero().homogeneous_degree()


def test_mul_monomial():
    p = Polynomial.one() + Polynomial.monomial(Monomial.from_symbols(point_k(1)))
    shifted = p.mul_monomial(Monomial.from_symbols(point_k(2)), -1)
    assert shifted.coeff(Monomial.from_symbols(point_k(2))) == -1
    assert shifted.coeff(Monomial.from_symbols(point_k(1), point_k(2))) == -1


def test_relabel_monomial():
    sigma = {1: 2, 2: 3, 3: 1}
    m = Monomial.from_symbols(point_k(1), diag(1, 3), exc((1, 2, 3)), kappa(1))
    out = relabel_monomial(m, sigma)
    assert repr(out) == "k1*K2*d(1,2)*D(1,2,3)"


def test_relabel_polynomial_checks_permutation():
    ctx = RingContext(2, 3)
    p = Polynomial.monomial(Monomial.from_symbols(point_k(1)))
    assert relabel(ctx, p, (2, 1, 3)).coeff(Monomial.from_symbols(point_k(2))) == 1
    with pytest.raises(ValueError):
        relabel(ctx, p, (1, 1, 3))
    with pytest.raises(ValueError):
        relabel(ctx, p, {1: 2, 2: 1})  # misses marking 3


# -- property tests ---------------------------------------------------------

_SYMBOLS = (
    [kappa(i) for i in (1, 2)]
    + [point_k(i) for i in (1, 2, 3)]
    + [diag(i, j) for i, j in itertools.combinations((1, 2, 3), 2)]
    + [exc((1, 2, 3))]
)

monomials = st.lists(st.sampled_from(_SYMBOLS), max_size=6).map(
    lambda syms: Monomial.from_symbols(*syms)
)


@given(monomials, monomials)
def test_product_degree_additive(a, b):
    assert (a * b).degree == a.degree + b.degree


@given(monomials, monomials)
def test_try_div_inverts_product(a, b):
    assert (a * b).try_div(b) == a


@given(monomials)
def test_parts_recombine(m):
    assert m.a_part() * m.d_part() == m


@given(monomials, monomials)
def test_monomial_order_total(a, b):
    assert (a < b) + (b < a) + (a == b) == 1


@given(monomials, monomials)
def test_product_merges_like_from_pairs(a, b):
    prod = a * b
    ref = Monomial.from_pairs(a.pairs + b.pairs)
    assert prod == ref
    assert prod.pairs == ref.pairs


# -- packed keys ------------------------------------------------------------


def _generators(ctx):
    marks = ctx.markings
    return (
        [kappa(i) for i in range(1, ctx.g - 1)]
        + [point_k(i) for i in marks]
        + [diag(i, j) for i, j in itertools.combinations(marks, 2)]
        + [exc(s) for size in range(3, ctx.n + 1) for s in itertools.combinations(marks, size)]
    )


def _ring_monomials(ctx, max_degree):
    return st.lists(st.sampled_from(_generators(ctx)), max_size=max_degree).map(
        lambda syms: Monomial.from_symbols(*syms)
    ).filter(lambda m: m.degree <= max_degree)


@pytest.mark.parametrize("g,n", [(2, 1), (2, 3), (3, 4), (2, 5), (4, 5), (5, 3)])
@given(data=st.data())
def test_packed_key_adds_and_separates(g, n, data):
    ctx = RingContext(g, n)
    keys = packed_keys(ctx)
    top = ctx.top_degree
    a = data.draw(_ring_monomials(ctx, top))
    b = data.draw(_ring_monomials(ctx, top - a.degree))
    c = data.draw(_ring_monomials(ctx, top))
    assert keys.key(a * b) == keys.key(a) + keys.key(b)
    assert (keys.key(a) == keys.key(c)) == (a == c)


@pytest.mark.parametrize("g,n", [(2, 3), (2, 4), (4, 3)])
def test_packed_key_is_injective_up_to_top_degree(g, n):
    # every monomial of degree <= top, so an exponent that overflows its
    # field cannot hide from a sample
    ctx = RingContext(g, n)
    keys = packed_keys(ctx)
    monos = {
        Monomial.from_symbols(*syms)
        for r in range(ctx.top_degree + 1)
        for syms in itertools.combinations_with_replacement(_generators(ctx), r)
    }
    monos = [m for m in monos if m.degree <= ctx.top_degree]
    assert len({keys.key(m) for m in monos}) == len(monos)
