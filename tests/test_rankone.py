import itertools
import random
from fractions import Fraction

import pytest

from mphecke.laurent import GroupAlgebraElement as GA
from mphecke.laurent import QLaurent, RationalFunction, rf_normalize
from mphecke.rankone import (
    RankOneAlgebra,
    RankOneElement,
    boundary_scalars,
    build_Ts,
    j_square_check,
    mu_build,
    mu_zeros_poles,
    quadratic_report,
    verify_quadratic,
)

F = Fraction
ONE = QLaurent.one()


def q(e):
    return QLaurent.q_power(e)


def x_poly(coeffs):
    return GA(1, {(k,): v for k, v in coeffs.items()})


def rf(num, den=None):
    return rf_normalize(x_poly(num), x_poly(den) if den else GA.one(1))


# -- mu ---------------------------------------------------------------------

def test_mu_symmetry_and_cancellation_at_b0():
    mu = mu_build(1, 0)
    # second factor cancels: mu = (1-X)(1-X^-1) / ((1-X/q)(1-X^-1/q))
    expected = rf_normalize(
        x_poly({0: ONE, 1: -ONE}) * x_poly({0: ONE, -1: -ONE}),
        x_poly({0: ONE, 1: -q(-1)}) * x_poly({0: ONE, -1: -q(-1)}))
    assert mu.value == expected
    assert mu.value.bar() == mu.value


def test_mu_vanishes_at_fixed_points():
    for a, b in [(1, 0), (2, 1), (F(3, 2), F(1, 2))]:
        mu = mu_build(a, b)
        assert mu.value.num.eval1(ONE).is_zero()          # mu(1) = 0 for a > 0
        if b > 0:
            assert mu.value.num.eval1(QLaurent.const(-1)).is_zero()


def test_mu_rejects_bad_exponents():
    with pytest.raises(ValueError):
        mu_build(1, 2)
    with pytest.raises(TypeError):
        mu_build(0.5, 0)
    # off (1/4)Z: q_power names -a first, then -b
    for a, b, named in [(F(4, 3), 1, "-4/3"), (2, F(4, 3), "-4/3"), (F(5, 3), F(4, 3), "-5/3")]:
        with pytest.raises(ValueError, match=f"^exponent {named} is not"):
            mu_build(a, b)


def test_mu_zeros_poles_10():
    zeros, poles = mu_zeros_poles(mu_build(1, 0))
    assert zeros == [((1, F(0)), 2)]
    assert poles == [((1, F(-1)), 1), ((1, F(1)), 1)]


def test_mu_zeros_poles_21():
    zeros, poles = mu_zeros_poles(mu_build(2, 1))
    assert zeros == [((-1, F(0)), 2), ((1, F(0)), 2)]
    assert sorted(poles) == sorted([
        ((1, F(2)), 1), ((1, F(-2)), 1), ((-1, F(1)), 1), ((-1, F(-1)), 1)])


def test_mu_constant_no_zeros_poles():
    zeros, poles = mu_zeros_poles(mu_build(0, 0))
    assert zeros == [] and poles == []


def _monomial_roots(ga):
    """Oracle: factor a rank-1 element by synthetic division at s*u^k."""
    from collections import Counter

    _, coeffs = ga.dense1()
    poly = list(coeffs)
    found = Counter()
    for s in (1, -1):
        for k in range(-13, 14):
            r = QLaurent({k: s})
            while len(poly) > 1:
                # synthetic division by (X - r): b_{n-1} = c_n; b_{i-1} = c_i + r b_i
                quot = [QLaurent.zero()] * (len(poly) - 1)
                quot[-1] = poly[-1]
                for i in range(len(poly) - 2, 0, -1):
                    quot[i - 1] = poly[i] + r * quot[i]
                rem = poly[0] + r * quot[0]
                if rem.is_zero():
                    found[(s, F(k, 4))] += 1
                    poly = quot
                else:
                    break
    assert len(poly) == 1, "nonzero degree left after monomial deflation"
    return found


@pytest.mark.parametrize("a,b", [(1, 0), (2, 1), (F(3, 2), F(1, 2)), (1, 1), (0, 0)])
def test_mu_zeros_poles_against_factoring_oracle(a, b):
    mu = mu_build(a, b)
    zeros, poles = mu_zeros_poles(mu)
    assert dict(_monomial_roots(mu.value.num)) == {k: m for k, m in zeros}
    assert dict(_monomial_roots(mu.value.den)) == {k: m for k, m in poles}


def _mu_from_eight_factors(a, b):
    """Oracle: rf_normalize of the paper's eight-factor product for mu."""
    qa, qb = q(-a), q(-b)
    num = x_poly({0: ONE, 1: -ONE}) * x_poly({0: ONE, -1: -ONE}) \
        * x_poly({0: ONE, 1: ONE}) * x_poly({0: ONE, -1: ONE})
    den = x_poly({0: ONE, 1: -qa}) * x_poly({0: ONE, -1: -qa}) \
        * x_poly({0: ONE, 1: qb}) * x_poly({0: ONE, -1: qb})
    return rf_normalize(num, den), rf_normalize(den, num)


QUARTER_PAIRS = [(F(i, 4), F(j, 4)) for i in range(7) for j in range(i + 1)]


@pytest.mark.parametrize("a,b", QUARTER_PAIRS)
def test_mu_and_inverse_are_the_canonical_eight_factor_forms(a, b):
    mu = mu_build(a, b)
    value, inverse = _mu_from_eight_factors(a, b)
    assert (mu.value.num, mu.value.den) == (value.num, value.den)
    assert (mu.inverse.num, mu.inverse.den) == (inverse.num, inverse.den)


def test_mu_inverse_even_pole_orders_at_fixed_points():
    # the double zeros of mu at X = +-1 are the only fixed-point zeros
    for a, b in [(1, 1), (2, 1)]:
        zeros, _ = mu_zeros_poles(mu_build(a, b))
        fixed = {k: m for (k, m) in zeros if k in ((1, F(0)), (-1, F(0)))}
        assert all(m % 2 == 0 for m in fixed.values())


# -- the algebra --------------------------------------------------------------

def random_rf(rng):
    num = {k: QLaurent({4 * rng.randint(-1, 1): F(rng.randint(-2, 2))}) for k in range(-1, 2)}
    den_choices = [{0: ONE}, {0: ONE, 1: -ONE}, {0: ONE, 1: QLaurent.const(-2)}]
    return rf(num, rng.choice(den_choices))


def test_rankone_associativity_random():
    rng = random.Random(11)
    alg = RankOneAlgebra(mu_build(1, 0))
    for _ in range(15):
        u = RankOneElement(random_rf(rng), random_rf(rng))
        v = RankOneElement(random_rf(rng), random_rf(rng))
        w = RankOneElement(random_rf(rng), random_rf(rng))
        lhs = alg.mul(alg.mul(u, v), w)
        rhs = alg.mul(u, alg.mul(v, w))
        assert lhs.f == rhs.f and lhs.g == rhs.g


def test_j_square_check():
    assert j_square_check(1, 0)
    assert j_square_check(F(3, 2), F(1, 2))
    alg = RankOneAlgebra(mu_build(2, 1))
    j, x = alg.j(), alg.x()
    jx = alg.mul(j, x)
    assert alg.mul(jx, jx).f == alg.mu_inv and alg.mul(jx, jx).g.is_zero()
    xj = alg.mul(x, j)
    assert alg.mul(xj, xj).f == alg.mu_inv and alg.mul(xj, xj).g.is_zero()


# -- T ------------------------------------------------------------------------

def test_build_Ts_10():
    T = build_Ts(1, 0, 1, -1)
    # equality branch applies at b = 0 (both sides of the sign condition vanish)
    assert T.g == rf({1: q(1).scale(-1)})
    assert T.f == rf({1: q(1) - ONE}, {1: ONE, 0: -ONE})   # (q-1) X/(X-1)


def test_build_Ts_11():
    T = build_Ts(1, 1, 1, 1)
    assert T.f == rf({2: q(2) - ONE}, {2: ONE, 0: -ONE})   # (q^2-1) X^2/(X^2-1)


def test_Ts_poles_only_at_pm1():
    for a, b in [(1, 0), (2, 1), (F(3, 2), F(1, 2))]:
        T = build_Ts(a, b, 1, -1)
        den = T.f.den
        # denominator divides X^2 - 1: every root is +-1
        x2 = x_poly({2: ONE, 0: -ONE})
        x2.exact_div(den)   # raises if not a divisor


def test_Ts_twist_symmetry():
    # f + bar(f) = q^(a+b) - 1 exactly
    for a, b in [(1, 0), (2, 1), (3, F(1, 2))]:
        T = build_Ts(a, b, 1, 1)
        const = RationalFunction.const(QLaurent.q_power(a + b) - ONE)
        assert T.f + T.f.bar() == const


def test_build_Ts_rejects_degenerate():
    with pytest.raises(ValueError):
        build_Ts(0, 0, 1, 1)
    with pytest.raises(ValueError):
        build_Ts(1, 2, 1, 1)
    with pytest.raises(ValueError):
        build_Ts(1, 0, 2, 1)


# -- quadratic relation ---------------------------------------------------------

GRID = [F(1, 2), F(1), F(3, 2), F(2), F(3)]


def test_quadratic_known_instances():
    assert verify_quadratic(1, 0, 1, -1)
    assert verify_quadratic(2, 1, 1, -1)
    assert verify_quadratic(2, 1, 1, 1)


@pytest.mark.parametrize("a,b", [(a, b) for a in GRID for b in GRID if a >= b])
def test_quadratic_grid_all_signs(a, b):
    for eps1, epsm1 in itertools.product((1, -1), repeat=2):
        assert verify_quadratic(a, b, eps1, epsm1)


@pytest.mark.parametrize("a,b", [(1, 0), (1, 1), (2, 1), (F(5, 4), F(1, 4))])
def test_quadratic_report_matches_separate_checks(a, b):
    rows = quadratic_report(a, b)
    assert [(r["eps1"], r["epsm1"]) for r in rows] == list(itertools.product((1, -1), repeat=2))
    for r in rows:
        assert r["quadratic_ok"] == verify_quadratic(a, b, r["eps1"], r["epsm1"])


def test_flipped_sign_leaves_residue():
    # construction signs disagreeing with J's polar signs: nonzero residue term
    assert not verify_quadratic(2, 1, 1, 1, build_signs=(1, -1))
    assert not verify_quadratic(F(3, 2), F(1, 2), 1, -1, build_signs=(1, 1))


def test_flip_at_b0_is_harmless():
    # with b = 0 the minus-boundary scalar vanishes; both branches are regular
    assert verify_quadratic(1, 0, 1, 1, build_signs=(1, -1))


def test_boundary_scalars_squares():
    a, b = F(2), F(1)
    w1, wm1 = boundary_scalars(a, b, 1, -1)
    rhs = ((ONE - q(-a)) * (ONE + q(-b))) * ((ONE - q(-a)) * (ONE + q(-b)))
    assert w1 * w1 == rhs.scale(F(1, 4))
    rhs2 = ((ONE + q(-a)) * (ONE - q(-b))) * ((ONE + q(-a)) * (ONE - q(-b)))
    assert wm1 * wm1 == rhs2.scale(F(1, 4))
