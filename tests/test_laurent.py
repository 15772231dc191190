from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mphecke.laurent import (
    GroupAlgebraElement,
    NotDivisible,
    QLaurent,
    RationalFunction,
    _coprime_at_a_point,
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


@given(qlaurents, qlaurents, st.integers(-3, 3), small_fraction)
def test_ring_ops_store_fractions(a, b, k, x):
    # an int coefficient would turn 1 / leading_coeff() into a float
    out = [a + b, a - b, a * b, -a, a.scale(k), a.scale(x), a ** 2, QLaurent.gcd(a, b)]
    if not b.is_zero():
        out.append((a * b).exact_div(b))
    if b.is_monomial():
        out.append(b ** -2)
    for r in out:
        assert all(type(v) is Fraction for _, v in r.items())


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


@given(ga_elements, ga_elements, qlaurents, vectors2, st.integers(-2, 2),
       st.lists(qlaurents, max_size=4))
def test_ga_ring_ops_store_the_public_form(a, b, c, v, val, coeffs):
    # the ring ops wrap their dicts unchecked; the public constructor coerces and merges
    out = [a + b, a - b, a + (-a), a * b, -a, a.scale(c), a.scale(QLaurent.zero()),
           a.shift(v), a.bar(), a.apply_lattice_map(lambda w: (Fraction(w[1]), w[0])),
           GA.from_dense1(val, coeffs)]
    if not b.is_zero():
        out.append((a * b).exact_div(b))
    for r in out:
        assert all(type(k) is tuple and len(k) == r.rank and all(type(x) is int for x in k)
                   for k in r._t)
        assert all(isinstance(x, QLaurent) and not x.is_zero() for x in r._t.values())
        assert r._t == GA(r.rank, r._t)._t
    assert a.scale(QLaurent.zero()).is_zero() and (a + (-a)).is_zero()


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


# Operands for the arithmetic gate.  The linear factors X - (+-q^e) of
# one chain come from a pool of at most three, so that operands share
# factors and the cross-cancellations and the reduction of a sum against
# the common denominator have real work to do.  Denominators take a
# coefficient of one or two terms, so two of them can share a content that
# is not a unit.  Numerators carry up to two factors and denominators at
# most one: that keeps the unreduced cross pairs, which the oracle
# normalises, inside the default deadline.
_nonzero = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 2))
_units = st.builds(lambda k, c: QLaurent({k: c}), st.sampled_from([-4, 0, 4]), _nonzero)
_coeffs = st.dictionaries(st.sampled_from([-4, 0, 4]), _nonzero, min_size=1, max_size=2).map(QLaurent)
_linear = st.sampled_from([x_poly({1: QLaurent.one(), 0: QLaurent({k: -s})})
                           for k in (-4, 0, 4) for s in (1, -1)])


def _side(coeff, shift, factors):
    out = GA.monomial((shift,), coeff)
    for f in factors:
        out = out * f
    return out


@st.composite
def _chains(draw):
    pool = st.sampled_from(draw(st.lists(_linear, min_size=1, max_size=3)))
    dens = st.builds(_side, st.one_of(_units, _coeffs), st.integers(-1, 1), st.lists(pool, max_size=1))
    nums = st.one_of(
        st.builds(_side, _coeffs, st.integers(-1, 1), st.lists(pool, max_size=2)),
        st.dictionaries(st.tuples(st.integers(-1, 1)), _units, min_size=1, max_size=2).map(lambda t: GA(1, t)),
    )
    values = st.one_of(st.builds(rf_normalize, nums, dens), st.just(RationalFunction.zero()))
    ops = st.lists(st.tuples(st.sampled_from("+-*/"), values), min_size=1, max_size=2)
    return draw(values), draw(ops)


def _naive(op, x, y):
    """rf_normalize of the unreduced cross pair: the definition of each operation."""
    if op == "+":
        return rf_normalize(x.num * y.den + y.num * x.den, x.den * y.den)
    if op == "-":
        return rf_normalize(x.num * y.den - y.num * x.den, x.den * y.den)
    if op == "*":
        return rf_normalize(x.num * y.num, x.den * y.den)
    return rf_normalize(x.num * y.den, x.den * y.num)


def _rf(num, den):
    return rf_normalize(x_poly(num), x_poly(den))


_ONE, _Q = QLaurent.one(), QLaurent.q_power(1)
_X_MINUS_1 = {1: _ONE, 0: -_ONE}
_X_PLUS_1 = {1: _ONE, 0: _ONE}
_Q_PLUS_1 = _Q + _ONE


@given(_chains())
# equal denominators whose numerators sum to a multiple of them: X/(X-1) - 1/(X-1) = 1
@example((_rf({1: _ONE}, _X_MINUS_1), [("-", _rf({0: _ONE}, _X_MINUS_1))]))
# g = X - 1 divides both denominators and t = (q+1)(X-1):
# 2/((X-1)(X+1)) + (q-1)/((X-1)(X-q)) = (q+1)/((X+1)(X-q))
@example((_rf({0: QLaurent.const(2)}, _X_MINUS_1), [("*", _rf({0: _ONE}, _X_PLUS_1)),
                                                   ("+", _rf({0: _Q - _ONE}, {2: _ONE, 1: -_Q - _ONE, 0: _Q}))]))
# the denominators share the content q + 1, which g carries and t does not:
# 1/((q+1)(X-1)) + 1/((q+1)X) = (2 - X^-1)/((q+1)(X-1))
@example((_rf({0: _ONE}, {1: _Q_PLUS_1, 0: -_Q_PLUS_1}), [("+", _rf({0: _ONE}, {1: _Q_PLUS_1}))]))
# and t shares it too: (q+2-X)/((q+1)(X-1)) + 1/(q+1) = 1/(X-1)
@example((_rf({0: _Q_PLUS_1 + _ONE, 1: -_ONE}, {1: _Q_PLUS_1, 0: -_Q_PLUS_1}),
          [("+", _rf({0: _ONE}, {0: _Q_PLUS_1}))]))
def test_arithmetic_chains_give_the_canonical_pair(start_chain):
    acc, chain = start_chain
    for op, y in chain:
        if op == "/" and y.is_zero():
            with pytest.raises(ZeroDivisionError):
                acc / y
            continue
        out = {"+": acc.__add__, "-": acc.__sub__, "*": acc.__mul__, "/": acc.__truediv__}[op](y)
        ref = _naive(op, acc, y)
        assert (out.num, out.den) == (ref.num, ref.den)
        acc = out


@given(ga_elements_1, ga_elements_1, ga_elements_1)
def test_a_common_x_factor_is_never_certified_away(a, b, g):
    # g has X-degree >= 1 once it has two terms, so a g and b g share it
    if a.is_zero() or b.is_zero() or len(g.terms()) < 2:
        return
    assert not _coprime_at_a_point((a * g).dense1()[1], (b * g).dense1()[1])


def test_coprime_at_a_point_certifies_and_abstains():
    u = QLaurent.u_power
    # the pair that took about 200 ms through the pseudo-remainder sequence
    n = GA(1, {(-2,): u(1, Fraction(1, 3)), (0,): u(0) + u(1) + u(2), (3,): q(-1) + u(3)})
    d = GA(1, {(-2,): u(0) + u(3), (1,): u(0), (3,): u(0)})
    assert _coprime_at_a_point(n.dense1()[1], d.dense1()[1])
    # X - u and X - 13/7 are coprime but share the root of their specialisations
    assert not _coprime_at_a_point([-u(1), u(0)], [QLaurent.const(Fraction(-13, 7)), u(0)])
    # a leading coefficient that vanishes at the point proves nothing either
    assert not _coprime_at_a_point([u(0), u(1, 7) - u(0, 13)], [u(0), u(0)])


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
