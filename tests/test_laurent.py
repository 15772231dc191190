from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mphecke.laurent import (
    GroupAlgebraElement,
    NotDivisible,
    QLaurent,
    RationalFunction,
    rf_normalize,
)

GA = GroupAlgebraElement


def q(e):
    return QLaurent.q_power(e)


# -- strategies -------------------------------------------------------------

small_fraction = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))

qlaurents = st.dictionaries(st.integers(-4, 4), small_fraction, max_size=3).map(QLaurent)

vectors2 = st.tuples(st.integers(-2, 2), st.integers(-2, 2))

ga_elements = st.dictionaries(vectors2, qlaurents, max_size=3).map(
    lambda t: GA(2, t))


# -- QLaurent ---------------------------------------------------------------

def test_qlp_arith_examples():
    one_plus = QLaurent({0: 1, 2: 1})
    one_minus = QLaurent({0: 1, 2: -1})
    assert one_plus * one_minus == QLaurent({0: 1, 4: -1})
    assert q(1) * q(-1) == QLaurent.one()
    assert (q(1) - QLaurent.one()) + QLaurent.one() == q(1)


def test_no_zero_coefficients_stored():
    x = QLaurent({0: 1, 3: 0, 5: Fraction(0)})
    assert x.items() == [(0, Fraction(1))]


def test_q_power_requires_quarter_integer():
    q(Fraction(1, 4))
    q(Fraction(-7, 2))
    with pytest.raises(ValueError):
        q(Fraction(1, 3))


def test_floats_rejected():
    with pytest.raises(TypeError):
        QLaurent({0: 0.5})


@given(qlaurents, qlaurents, qlaurents)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(qlaurents, qlaurents)
def test_exact_div_roundtrip(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


def test_gcd_is_monic_unitless():
    a = QLaurent({2: 1, 6: -1})      # u^2 (1 - q)
    b = QLaurent({-4: 2, 0: -2})     # 2 u^-4 (1 - q)
    g = QLaurent.gcd(a, b)
    assert g == QLaurent({0: Fraction(-1, 1), 4: 1}).scale(-1) or g.leading_coeff() == 1
    assert g.valuation() == 0
    assert a.exact_div(g) is not None and b.exact_div(g) is not None


def test_qlaurent_json_roundtrip():
    x = QLaurent({-3: Fraction(2, 7), 4: -5})
    assert QLaurent.from_json(x.to_json()) == x


# -- GroupAlgebraElement -----------------------------------------------------

def test_ga_mul_monomials():
    assert GA.monomial((1, 0)) * GA.monomial((0, 1)) == GA.monomial((1, 1))


def test_ga_mul_difference_of_squares():
    alpha = (1, -1)
    minus = tuple(-x for x in alpha)
    lhs = (GA.one(2) - GA.monomial(minus)) * (GA.one(2) + GA.monomial(minus))
    assert lhs == GA.one(2) - GA.monomial((-2, 2))


def test_ga_mul_zero():
    assert (GA.monomial((3, -1)) * GA.zero(2)).is_zero()


def test_ga_rank_mismatch():
    with pytest.raises(ValueError):
        GA.one(2) * GA.one(3)


@given(ga_elements, ga_elements, ga_elements)
@settings(max_examples=60)
def test_ga_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


def test_exact_div_geometric():
    lam = (2, 1)
    alpha = (1, -1)
    num = GA.monomial(lam) - GA.monomial((0, 3))          # Z_lam - Z_{lam-2a}
    den = GA.one(2) - GA.monomial((-1, 1))                # 1 - Z_{-a}
    expected = GA.monomial(lam) * (GA.one(2) + GA.monomial((-1, 1)))
    assert num.exact_div(den) == expected


def test_exact_div_zero_numerator():
    den = GA.one(2) - GA.monomial((-1, 1))
    assert (GA.monomial((1, 1)) - GA.monomial((1, 1))).exact_div(den).is_zero()


def test_exact_div_not_divisible():
    num = GA.one(2) + GA.monomial((-1, 1))
    den = GA.one(2) - GA.monomial((-1, 1))
    with pytest.raises(NotDivisible):
        num.exact_div(den)


@given(ga_elements, ga_elements)
@settings(max_examples=60)
def test_exact_div_product_property(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


def test_ga_json_roundtrip():
    x = GA(2, {(1, -2): q(Fraction(1, 2)), (0, 0): QLaurent.const(Fraction(-3, 5))})
    assert GA.from_json(x.to_json()) == x


# -- RationalFunction ---------------------------------------------------------

def x_poly(coeffs):
    return GA(1, {(k,): v for k, v in coeffs.items()})


def test_rf_normalize_cancels_linear_factor():
    one = QLaurent.one()
    num = x_poly({0: one, 2: -one})      # 1 - X^2
    den = x_poly({0: one, 1: -one})      # 1 - X
    rf = rf_normalize(num, den)
    assert rf.den == GA.one(1)
    assert rf == RationalFunction.from_ga(x_poly({0: one, 1: one}))


def test_rf_normalize_zero():
    rf = rf_normalize(GA.zero(1), x_poly({0: QLaurent.one(), 1: -QLaurent.one()}))
    assert rf.num.is_zero() and rf.den == GA.one(1)


def test_rf_normalize_shared_q_factor():
    one = QLaurent.one()
    f1 = x_poly({0: one, 1: -one})               # 1 - X
    f2 = x_poly({0: one, 1: -q(-1)})             # 1 - X/q
    rf = rf_normalize(f1 * f2, f2)
    assert rf == RationalFunction.from_ga(f1)
    assert rf.den == GA.one(1)


def test_rf_normalize_idempotent_and_equality():
    one = QLaurent.one()
    num = x_poly({0: one, 2: -one})
    den = x_poly({0: one, 1: -one})
    rf = rf_normalize(num, den)
    again = rf_normalize(rf.num, rf.den)
    assert (rf.num, rf.den) == (again.num, again.den)
    # cross-multiplication equality iff canonical forms coincide
    other = rf_normalize(x_poly({1: one, 3: -one}), x_poly({1: one, 2: -one}))
    assert rf == other
    assert (rf.num, rf.den) == (other.num, other.den)


@given(ga_elements_1 := st.dictionaries(st.tuples(st.integers(-2, 3)), qlaurents, min_size=1, max_size=3).map(lambda t: GA(1, t)),
       ga_elements_1, ga_elements_1)
@settings(max_examples=40)
def test_rf_equality_respects_cross_multiplication(n1, d1, g):
    if d1.is_zero() or g.is_zero():
        return
    a = rf_normalize(n1, d1)
    b = rf_normalize(n1 * g, d1 * g)
    assert a == b
    assert (a.num, a.den) == (b.num, b.den)


@given(ga_elements_1, ga_elements_1)
def test_bar_and_inverse_of_canonical_form_are_canonical(n, d):
    if d.is_zero():
        return
    r = rf_normalize(n, d)
    barred = rf_normalize(r.num.bar(), r.den.bar())
    assert (r.bar().num, r.bar().den) == (barred.num, barred.den)
    if not r.is_zero():
        swapped = rf_normalize(r.den, r.num)
        assert (r.inverse().num, r.inverse().den) == (swapped.num, swapped.den)


def test_rf_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rf_normalize(GA.one(1), GA.zero(1))


def test_residue_simple_pole():
    one = QLaurent.one()
    # (q-1) X / (X - 1): residue at X = 1 is q - 1
    f = rf_normalize(x_poly({1: q(1) - one}), x_poly({1: one, 0: -one}))
    res = f.residue1(QLaurent.one())
    assert res == RationalFunction.const(q(1) - one)
    assert f.residue1(QLaurent.const(-1)).is_zero()


def test_rational_functions_are_rank_one_only():
    with pytest.raises(ValueError):
        rf_normalize(GA.one(2), GA.one(2))
    with pytest.raises(ValueError):
        RationalFunction(GA.one(2), GA.one(2))
