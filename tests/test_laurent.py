import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mphecke import laurent
from mphecke.laurent import (
    GroupAlgebraElement,
    NotDivisible,
    QLaurent,
    RationalFunction,
    _content,
    _coprime_at_a_point,
    rf_normalize,
)
from mphecke.rankone import mu_build

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


@pytest.mark.parametrize("build", [
    lambda: QLaurent.u_power(1.5),
    lambda: QLaurent.u_power(Fraction(1, 2)),
    lambda: QLaurent({2.7: 3}),
    lambda: QLaurent({2.0: 3}),
    lambda: QLaurent({Fraction(1, 2): 1}),
    lambda: QLaurent({Fraction(1, 2): 0}),
], ids=["u_power-float", "u_power-half", "key-float", "key-integral-float", "key-half",
        "key-half-zero-coeff"])
def test_non_integer_exponents_are_rejected_not_truncated(build):
    with pytest.raises(ValueError, match="not an exact integer"):
        build()


def test_integral_exponents_of_any_exact_type_are_kept():
    assert QLaurent({Fraction(4, 2): 3, True: 1}) == QLaurent({2: 3, 1: 1})
    assert QLaurent.u_power(Fraction(-6, 3)) == QLaurent({-2: 1})


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


# The Fraction-dict ring of Q[u, u^-1], kept as the oracle for QLaurent:
# one Fraction per exponent, every operation straight on those values.

class _FractionLaurent:
    def __init__(self, c):
        self._c = {int(k): Fraction(v) for k, v in c.items() if v}

    def items(self):
        return sorted(self._c.items())

    def is_zero(self):
        return not self._c

    def __add__(self, other):
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c[k] + v if k in c else v
        return _FractionLaurent({k: v for k, v in c.items() if v})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _FractionLaurent({k: -v for k, v in self._c.items()})

    def __mul__(self, other):
        c = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = k1 + k2
                s = c.get(k)
                c[k] = v1 * v2 if s is None else s + v1 * v2
        return _FractionLaurent({k: v for k, v in c.items() if v})

    def scale(self, x):
        x = Fraction(x)
        if not x:
            return _FractionLaurent({})
        return _FractionLaurent({k: v * x for k, v in self._c.items()})

    def __pow__(self, n):
        if n < 0:
            k = min(self._c)
            c = self._c[k]
            base = _FractionLaurent({-k: 1 / c})
            return base ** (-n)
        out = _FractionLaurent({0: 1})
        for _ in range(n):
            out = out * self
        return out

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for k, v in self.items():
            if k == 0:
                parts.append(str(v))
            elif k % 4 == 0:
                e = k // 4
                parts.append(f"{v}*q^{e}" if e != 1 else f"{v}*q")
            else:
                parts.append(f"{v}*u^{k}")
        return " + ".join(parts)

    def _dense(self):
        if not self._c:
            return 0, []
        v, d = min(self._c), max(self._c)
        return v, [self._c.get(k, Fraction(0)) for k in range(v, d + 1)]

    def exact_div(self, den):
        if self.is_zero():
            return _FractionLaurent({})
        nv, nc = self._dense()
        dv, dc = den._dense()
        q, r = _fraction_polydiv(nc, dc)
        if any(r):
            raise NotDivisible(f"({self}) is not divisible by ({den})")
        return _FractionLaurent({nv - dv + i: c for i, c in enumerate(q) if c})

    @staticmethod
    def gcd(a, b):
        if a.is_zero() and b.is_zero():
            return _FractionLaurent({})
        if a.is_zero():
            return _FractionLaurent.gcd(b, a)
        _, ac = a._dense()
        if b.is_zero():
            g = _fraction_int_normalize(ac)
        else:
            _, bc = b._dense()
            g = _fraction_int_polygcd(_fraction_int_normalize(ac), _fraction_int_normalize(bc))
        lead = Fraction(g[-1])
        return _FractionLaurent({i: Fraction(c) / lead for i, c in enumerate(g) if c})

    def to_json(self):
        return [[k, v.numerator, v.denominator] for k, v in self.items()]

    @classmethod
    def from_json(cls, data):
        return cls({int(k): Fraction(int(n), int(d)) for k, n, d in data})


def _fraction_polydiv(num, den):
    num = list(num)
    dd = len(den) - 1
    while den[dd] == 0:
        dd -= 1
    q = [Fraction(0)] * max(len(num) - dd, 0)
    for i in range(len(num) - 1 - dd, -1, -1):
        c = num[i + dd] / den[dd]
        if c:
            q[i] = c
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    return q, num[:dd]


def _fraction_int_normalize(coeffs):
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    if g > 1:
        ints = [c // g for c in ints]
    return ints


def _fraction_int_polygcd(a, b):
    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def primitive(p):
        g = 0
        for c in p:
            g = math.gcd(g, c)
        return [c // g for c in p] if g > 1 else p

    a, b = trim(list(a)), trim(list(b))
    if not b:
        return primitive(a)
    while b:
        r = list(a)
        lb = b[-1]
        db = len(b) - 1
        while r and len(r) - 1 >= db:
            lead = r[-1]
            shift = len(r) - 1 - db
            r = [c * lb for c in r]
            for i, bc in enumerate(b):
                r[shift + i] -= lead * bc
            r = trim(r)
        a, b = b, primitive(trim(r))
    return primitive(a)


# mixed denominators, so sums run over unequal ones and products cancel
mixed_fraction = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6]))
laurent_dicts = st.dictionaries(st.integers(-4, 4), mixed_fraction, max_size=3)


def _agrees(new, old):
    assert new.items() == old.items()
    assert all(type(v) is Fraction for _, v in new.items())
    assert new.to_json() == old.to_json()
    assert str(new) == str(old)
    assert new == QLaurent(dict(old.items()))
    assert hash(new) == hash(tuple(old.items()))


@given(laurent_dicts, laurent_dicts, laurent_dicts, st.integers(-3, 3), mixed_fraction,
       st.integers(0, 3), st.integers(-4, 4), mixed_fraction.filter(bool))
def test_ring_ops_match_the_fraction_oracle(a, b, c, k, x, n, e, m):
    new, old = (QLaurent(a), QLaurent(b), QLaurent(c)), tuple(map(_FractionLaurent, (a, b, c)))
    (a1, b1, c1), (a0, b0, c0) = new, old
    pairs = [
        (a1 + b1, a0 + b0), (a1 - b1, a0 - b0), (a1 * b1, a0 * b0), (-a1, -a0),
        (a1.scale(k), a0.scale(k)), (a1.scale(x), a0.scale(x)), (a1 ** n, a0 ** n),
        (a1 * b1 + c1, a0 * b0 + c0), ((a1 - c1) * (b1 + c1), (a0 - c0) * (b0 + c0)),
        (QLaurent.gcd(a1, b1), _FractionLaurent.gcd(a0, b0)),
        (QLaurent.gcd(a1 * c1, b1 * c1), _FractionLaurent.gcd(a0 * c0, b0 * c0)),
        (QLaurent.from_json(a1.to_json()), _FractionLaurent.from_json(a0.to_json())),
        (QLaurent({e: m}) ** -n, _FractionLaurent({e: m}) ** -n),
    ]
    if not b0.is_zero():
        pairs.append(((a1 * b1).exact_div(b1), (a0 * b0).exact_div(b0)))
        try:
            quotient = a0.exact_div(b0)
        except NotDivisible:
            with pytest.raises(NotDivisible):
                a1.exact_div(b1)
        else:
            pairs.append((a1.exact_div(b1), quotient))
    for got, want in pairs:
        _agrees(got, want)


def test_equal_values_from_different_routes_are_equal_with_equal_hashes():
    half = Fraction(1, 2)
    routes = [
        [QLaurent({0: Fraction(2, 4)}), QLaurent.one().scale(half), QLaurent.const("1/2"),
         QLaurent({0: Fraction(1, 3)}) + QLaurent({0: Fraction(1, 6)}),
         QLaurent({0: Fraction(2, 3)}) * QLaurent({0: Fraction(3, 4)}),
         QLaurent.from_json([[0, 2, 4]]), QLaurent.u_power(2, 2) ** -1 * QLaurent.u_power(2)],
        [QLaurent.one(), QLaurent({0: half}) + QLaurent({0: half}), QLaurent.const(2).scale(half),
         QLaurent({0: Fraction(2, 3)}) * QLaurent({0: Fraction(3, 2)}), QLaurent.q_power(0)],
        [QLaurent.zero(), QLaurent({1: half}) - QLaurent({1: half}), QLaurent({3: half}).scale(0),
         QLaurent({0: half}) * QLaurent.zero(), QLaurent.gcd(QLaurent.zero(), QLaurent.zero())],
        [QLaurent({-1: Fraction(5, 6), 2: -1}),
         QLaurent({-1: half}) + QLaurent({-1: Fraction(1, 3), 2: -1}),
         QLaurent({-2: Fraction(5, 12), 1: -half}) * QLaurent({1: 2})],
    ]
    for values in routes:
        for x in values:
            assert x == values[0] and hash(x) == hash(values[0])
            assert x.items() == values[0].items() and str(x) == str(values[0])
    assert QLaurent.one() != QLaurent({0: half}) and QLaurent({0: half}) != QLaurent({0: 2})


# -- GroupAlgebraElement -----------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: GA.monomial((Fraction(3, 2), 0)),
    lambda: GA.monomial((1.9, 0)),
    lambda: GA.monomial((1.0, 0)),
    lambda: GA(2, {(Fraction(1, 2), 0): QLaurent.one()}),
    lambda: GA.one(2).coeff((Fraction(1, 2), 0)),
    lambda: GA.one(2).shift((0, 0.5)),
    lambda: GA.monomial((1, 1)).apply_lattice_map(lambda v: tuple(Fraction(x, 2) for x in v)),
], ids=["monomial-half", "monomial-float", "monomial-integral-float", "constructor", "coeff",
        "shift", "apply_lattice_map"])
def test_non_integer_lattice_coordinates_are_rejected_not_truncated(build):
    with pytest.raises(ValueError, match="not an exact integer"):
        build()


def test_integral_lattice_coordinates_of_any_exact_type_are_kept():
    z = GA.monomial((Fraction(4, 2), -1))
    assert z == GA.monomial((2, -1))
    assert z.coeff((Fraction(2), Fraction(-1))) == QLaurent.one()
    assert z.shift((Fraction(-2), 1)) == GA.one(2)


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

def test_raw_constructor_rejects_unnormalised_units():
    inv = mu_build(2, 1).inverse
    assert RationalFunction(inv.num, inv.den) == inv
    two = QLaurent.const(2)
    with pytest.raises(ValueError, match="monic"):
        RationalFunction(inv.num.scale(two), inv.den.scale(two))
    with pytest.raises(ValueError, match="monic"):
        RationalFunction(inv.num.scale(q(1)), inv.den.scale(q(1)))
    with pytest.raises(ValueError, match="lattice valuation"):
        RationalFunction(inv.num.shift((1,)), inv.den.shift((1,)))
    # each of them is the canonical value once normalised
    assert rf_normalize(inv.num.scale(two), inv.den.scale(two)) == inv
    assert rf_normalize(inv.num.shift((1,)), inv.den.shift((1,))) == inv


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


def _equality_is_the_canonical_pair(values):
    for x in values:
        for y in values:
            same = (x.num, x.den) == (y.num, y.den)
            # cross-multiplication decides equality whatever the form of the pairs
            assert (x.num * y.den == y.num * x.den) == same, (x, y)
            assert (x == y) == same, (x, y)


@given(_chains())
def test_equality_of_chain_values_compares_the_canonical_pair(start_chain):
    # every value is canonical, so equality may compare (num, den); rf_normalize
    # of each value's own pair adds an equal value that must be the same pair
    acc, chain = start_chain
    values = [acc] + [y for _, y in chain]
    for op, y in chain:
        if op == "/" and y.is_zero():
            continue
        acc = {"+": acc.__add__, "-": acc.__sub__, "*": acc.__mul__, "/": acc.__truediv__}[op](y)
        values.append(acc)
    values += [rf_normalize(x.num, x.den) for x in values]
    _equality_is_the_canonical_pair(values)


# The two primitive pseudo-remainder loops as they stood before one routine
# replaced them, kept as oracles: over Z, and over Q[u, u^-1].

def _old_int_polygcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive pseudo-remainder gcd over Z, ascending coefficients."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def primitive(p):
        g = math.gcd(*p)
        return [c // g for c in p] if g > 1 else p

    a, b = trim(list(a)), trim(list(b))
    if not b:
        return primitive(a)
    while b:
        # pseudo-remainder of a by b, re-primitivised each step
        r = list(a)
        lb = b[-1]
        db = len(b) - 1
        while r and len(r) - 1 >= db:
            lead = r[-1]
            shift = len(r) - 1 - db
            r = [c * lb for c in r]
            for i, bc in enumerate(b):
                r[shift + i] -= lead * bc
            r = trim(r)
        a, b = b, primitive(trim(r))
    return primitive(a)


def _old_xpoly_primitive(p: list[QLaurent]) -> list[QLaurent]:
    g = _content(p)
    if g.is_zero() or g.is_one():
        return p
    return [c if c.is_zero() else c.exact_div(g) for c in p]


def _old_xgcd_primitive(a: list[QLaurent], b: list[QLaurent]) -> list[QLaurent]:
    """Gcd in Q[u,u^-1][X] up to units, by a primitive pseudo-remainder
    sequence (ascending dense coefficients)."""

    def trim(p):
        while p and p[-1].is_zero():
            p.pop()
        return p

    a, b = trim(list(a)), trim(list(b))
    if not a:
        return _old_xpoly_primitive(b)
    if not b:
        return _old_xpoly_primitive(a)
    a, b = _old_xpoly_primitive(a), _old_xpoly_primitive(b)
    while b:
        r = list(a)
        lb = b[-1]
        db = len(b) - 1
        while r and len(r) - 1 >= db:
            lead = r[-1]
            shift = len(r) - 1 - db
            r = [c * lb for c in r]
            for i, bc in enumerate(b):
                r[shift + i] = r[shift + i] - lead * bc
            r = trim(r)
        a, b = b, _old_xpoly_primitive(trim(r))
    return a


def _int_gcd(a, b):
    return laurent._prs(a, b, 0, laurent._int_primitive)


def _xgcd(a, b):
    return laurent._prs(a, b, QLaurent.zero(), laurent._xpoly_primitive)


_int_polys = st.lists(st.integers(-6, 6), max_size=5)


@given(_int_polys, _int_polys, _int_polys)
@example([], [], [])
@example([0, 0], [3], [])
@example([4, 0, 6, 0], [0, 0], [])
def test_one_prs_loop_matches_the_old_loop_over_z(a, b, g):
    # a common factor g makes the sequence run to a gcd of positive degree
    ag = [sum(a[i] * g[k - i] for i in range(len(a)) if 0 <= k - i < len(g))
          for k in range(len(a) + len(g) - 1)] if a and g else a
    for x, y in ((a, b), (b, a), (ag, b), (a, [2 * c for c in a])):
        assert _int_gcd(x, y) == _old_int_polygcd(x, y)


_x_coeffs = st.dictionaries(st.sampled_from([-4, 0, 4]), st.integers(-2, 2), max_size=2).map(QLaurent)
_x_polys = st.lists(_x_coeffs, max_size=3)


@given(_x_polys, _x_polys, _x_polys)
@example([], [], [])
@example([QLaurent.zero()], [QLaurent.one()], [])
@example([QLaurent.const(2), QLaurent({0: 2, 4: 2})], [], [])
def test_one_prs_loop_matches_the_old_loop_over_laurent_polynomials(a, b, g):
    ag = [sum((a[i] * g[k - i] for i in range(len(a)) if 0 <= k - i < len(g)), QLaurent.zero())
          for k in range(len(a) + len(g) - 1)] if a and g else a
    q_plus_1 = QLaurent({0: 1, 4: 1})
    for x, y in ((a, b), (b, a), (ag, b), (a, [c * q_plus_1 for c in a])):
        assert _xgcd(x, y) == _old_xgcd_primitive(x, y)


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
