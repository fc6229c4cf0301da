from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from cmhilb import LaurentPolynomial, NonPolynomialError
from cmhilb.exactalg import one_minus_q_product
from strategies import laurent_polys, non_unit_laurent_polys, nonzero_laurent_polys

Q = LaurentPolynomial.monomial(1)
QINV = LaurentPolynomial.monomial(-1)


def test_binomial_square():
    p = Q + QINV
    assert p * p == LaurentPolynomial({2: 1, 0: 2, -2: 1})


def test_geometric_telescope():
    assert LaurentPolynomial({0: 1, 1: -1}) * LaurentPolynomial(
        {0: 1, 1: 1, 2: 1}
    ) == LaurentPolynomial({0: 1, 3: -1})


@given(laurent_polys)
def test_additive_identity(p):
    assert p + LaurentPolynomial.zero() == p
    assert p * LaurentPolynomial.one() == p


@given(laurent_polys, laurent_polys, laurent_polys)
def test_laurent_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a


@given(laurent_polys)
def test_neg_and_sub(p):
    assert p - p == LaurentPolynomial.zero()
    assert -(-p) == p


def test_laurent_rejects_nonintegers():
    with pytest.raises(TypeError):
        LaurentPolynomial({0: 1.5})


def test_laurent_invariants_hold():
    p = LaurentPolynomial([(2, 3), (2, -3), (0, 1)])
    assert p.terms == {0: 1}
    assert not LaurentPolynomial().terms


def test_exact_div():
    num = LaurentPolynomial({0: 1, 3: -1})
    den = LaurentPolynomial({0: 1, 1: -1})
    assert num.exact_div(den) == LaurentPolynomial({0: 1, 1: 1, 2: 1})
    with pytest.raises(NonPolynomialError):
        den.exact_div(num)
    with pytest.raises(ZeroDivisionError):
        num.exact_div(LaurentPolynomial.zero())


def test_to_text():
    p = LaurentPolynomial({-1: 1, 0: 2, 3: 1})
    assert p.to_text() == "q^-1 + 2 + q^3"
    assert LaurentPolynomial.zero().to_text() == "0"
    assert LaurentPolynomial({1: -2, 0: 1}).to_text() == "1 - 2q"


@given(laurent_polys)
def test_json_roundtrip(p):
    assert LaurentPolynomial.from_json(p.to_json()) == p


def test_evaluate():
    p = LaurentPolynomial({-1: 1, 1: 1})
    assert p.evaluate(1) == 2
    assert p.evaluate(2) == Fraction(5, 2)
    assert p.evaluate(Fraction(1, 2)) == Fraction(5, 2)


@given(nonzero_laurent_polys)
def test_ratfun_self_division(f):
    assert f.exact_div(f) == LaurentPolynomial.one()


def test_ratfun_division_by_zero():
    f = LaurentPolynomial({0: 1, 1: -1})
    with pytest.raises(ZeroDivisionError):
        f.exact_div(LaurentPolynomial.zero())
    with pytest.raises(ZeroDivisionError):
        f.exact_div(0)


def test_ratfun_to_laurent_geometric():
    f = LaurentPolynomial({-1: 1, 2: -1})  # q^-1 (1 - q^3)
    assert f.exact_div(LaurentPolynomial({0: 1, 1: -1})) == LaurentPolynomial(
        {-1: 1, 0: 1, 1: 1}
    )


def test_ratfun_to_laurent_constant():
    ten = LaurentPolynomial({0: 10})
    assert ten.exact_div(LaurentPolynomial({0: 2})) == LaurentPolynomial({0: 5})
    assert ten.exact_div(2) == LaurentPolynomial({0: 5})


def test_ratfun_to_laurent_rejects_series():
    with pytest.raises(NonPolynomialError):
        LaurentPolynomial.one().exact_div(LaurentPolynomial({0: 1, 1: -1}))


def test_ratfun_to_laurent_rejects_fractional():
    five = LaurentPolynomial({0: 5})
    with pytest.raises(NonPolynomialError):
        five.exact_div(2)
    with pytest.raises(NonPolynomialError):
        five.exact_div(LaurentPolynomial({0: 2}))


@given(laurent_polys, st.integers(-6, 6))
def test_laurent_ratfun_roundtrip(p, k):
    assert p.exact_div(LaurentPolynomial.one()) == p
    assert p.exact_div(1) == p
    shift = LaurentPolynomial.monomial(k)
    assert (p * shift).exact_div(shift) == p


@given(laurent_polys, nonzero_laurent_polys)
def test_exact_div_inverts_multiplication(a, b):
    assert (a * b).exact_div(b) == a


@given(laurent_polys, non_unit_laurent_polys, st.integers(-6, 6))
def test_exact_div_rejects_remainder(a, b, j):
    with pytest.raises(NonPolynomialError):
        (a * b + LaurentPolynomial.monomial(j)).exact_div(b)


@given(laurent_polys, st.integers(2, 9))
def test_exact_div_by_integer(a, k):
    assert a.scaled(k).exact_div(k) == a
    assert a.scaled(-k).exact_div(-k) == a
    with pytest.raises(NonPolynomialError):
        (a.scaled(k) + LaurentPolynomial.one()).exact_div(k)
    with pytest.raises(ZeroDivisionError):
        a.exact_div(0)


@given(st.lists(st.integers(1, 30), max_size=12))
def test_one_minus_q_product_matches_binomial_products(ks):
    expected = LaurentPolynomial.one()
    for k in ks:
        expected = expected * LaurentPolynomial({0: 1, k: -1})
    assert one_minus_q_product(ks) == expected
