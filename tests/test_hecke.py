import itertools
import random
from fractions import Fraction

import pytest

from mphecke.hecke import (
    Cocycle,
    ExponentChar,
    ExtendedHeckeElement,
    HeckeElement,
    HeckeParams,
    InvalidParameters,
    commute_zu_ga,
    ext_mul,
    he_mul,
    is_central,
    sqint_check,
    tempered_check,
)
from mphecke.laurent import GroupAlgebraElement as GA
from mphecke.laurent import QLaurent
from mphecke.rootdata import (
    WeylElement,
    braid_order,
    build_O_datum,
    classical_datum,
    pair,
    weyl_enumerate,
    weyl_length,
)

F = Fraction


def q(e):
    return QLaurent.q_power(e)


def gl2():
    d, _ = classical_datum("GL", 2)
    return d, HeckeParams(d, (F(1),))


def gl3():
    d, _ = classical_datum("GL", 3)
    return d, HeckeParams(d, (F(1), F(1)))


def b2(long_exp=F(1), short_exp=F(3, 2), qi=F(1, 2)):
    d, _ = classical_datum("SO_odd", 5)
    return d, HeckeParams(d, (long_exp, short_exp), {0: qi})


def a1a1():
    d = build_O_datum([("A1", 2, 1), ("A1", 2, 1)], 4)
    return d, HeckeParams(d, (F(1), F(3, 2)))


ALL_DATA = [gl2, gl3, b2, a1a1]


# -- parameter validation -------------------------------------------------------

def test_conjugate_roots_need_equal_exponents():
    d, _ = classical_datum("GL", 3)
    with pytest.raises(InvalidParameters):
        HeckeParams(d, (F(1), F(2)))


def test_qi_placement():
    d, _ = classical_datum("SO_odd", 5)
    with pytest.raises(InvalidParameters):
        HeckeParams(d, (F(1), F(1)))          # missing q_i on the B component
    d2, _ = classical_datum("GL", 2)
    with pytest.raises(InvalidParameters):
        HeckeParams(d2, (F(1),), {0: F(1)})   # no special root in type A


def test_square_root_exactness():
    d, _ = classical_datum("SO_odd", 3)
    HeckeParams(d, (F(3, 2),), {0: F(1, 2)})   # (a +- b)/2 in {1, 1/2}: fine
    HeckeParams(d, (F(1, 4),), {0: F(1, 4)})   # (a +- b)/2 in {1/4, 0}: fine
    with pytest.raises(InvalidParameters):
        HeckeParams(d, (F(1, 2),), {0: F(1, 4)})  # (a-b)/2 = 1/8


def test_qi_zero_exponent_allowed():
    d, _ = classical_datum("SO_odd", 5)
    HeckeParams(d, (F(1), F(1)), {0: F(0)})


def test_equal_params_hash_equal_and_key_a_dict():
    d, p = b2()
    same = HeckeParams(d, (F(1), F(3, 2)), ((0, F(1, 2)),))
    assert p.qi_exp == same.qi_exp == ((0, F(1, 2)),)
    assert p == same and hash(p) == hash(same)
    table = {p: "b2", gl2()[1]: "gl2"}
    assert table[same] == "b2"
    assert HeckeParams(d, (F(1), F(3, 2)), {0: F(3, 2)}) not in table


# -- commutation rule -------------------------------------------------------------

def test_commute_zu_gl2():
    d, p = gl2()
    corr = commute_zu_ga((1, 0), 0, d, p)
    assert corr == GA.monomial((1, 0), q(1) - QLaurent.one())


def test_commute_zu_orthogonal_vector():
    d, p = gl2()
    assert commute_zu_ga((1, 1), 0, d, p).is_zero()


def test_commute_zu_rank_one():
    # lattice Z with root 2e, coroot e: the coroot is not in 2 Lambda^
    d = build_O_datum([("A1", 2, 2)], 2)
    p = HeckeParams(d, (F(1),))
    corr = commute_zu_ga((2, -2), 0, d, p)
    expected = (GA.monomial((2, -2)) + GA.one(2)).scale(q(1) - QLaurent.one())
    assert corr == expected


def test_commute_zu_gl2_negative_and_long_sums():
    d, p = gl2()
    qa1 = q(1) - QLaurent.one()
    # n = -1: -(q - 1) Z_{lam + alpha}
    assert commute_zu_ga((0, 1), 0, d, p) == GA.monomial((1, 0), -qa1)
    # n = 3: (q - 1)(Z_lam + Z_{lam - alpha} + Z_{lam - 2 alpha})
    expected = GA.monomial((2, -1)) + GA.monomial((1, 0)) + GA.monomial((0, 1))
    assert commute_zu_ga((2, -1), 0, d, p) == expected.scale(qa1)
    # n = -2: -(q - 1)(Z_{lam + alpha} + Z_{lam + 2 alpha})
    expected = GA.monomial((0, 0)) + GA.monomial((1, -1))
    assert commute_zu_ga((-1, 1), 0, d, p) == expected.scale(-qa1)


def test_commute_zu_special_branch():
    d, p = b2(F(1), F(3, 2), F(1, 2))
    # short root e_2: coroot (0, 2) in 2 Lambda^; lam = e_2
    corr = commute_zu_ga((0, 1), 1, d, p)
    qa = q(F(3, 2))
    factor = GA.const(2, qa - QLaurent.one()) + GA.monomial((0, -1), q(1) - q(F(1, 2)))
    expected = factor * GA.monomial((0, 1))
    assert corr == expected


def test_commute_zu_special_branch_negative_and_long_sums():
    d, p = b2(F(1), F(3, 2), F(1, 2))
    a, b = q(F(3, 2)) - QLaurent.one(), q(1) - q(F(1, 2))
    # lam = -e_2, n = -2: -factor * Z_{lam + 2 alpha}
    expected = GA.monomial((0, 1), -a) + GA.monomial((0, 0), -b)
    assert commute_zu_ga((0, -1), 1, d, p) == expected
    # lam = 2 e_2, n = 4: factor * (Z_lam + Z_{lam - 2 alpha})
    expected = (GA.monomial((0, 2), a) + GA.monomial((0, 1), b)
                + GA.monomial((0, 0), a) + GA.monomial((0, -1), b))
    assert commute_zu_ga((0, 2), 1, d, p) == expected
    # lam = e_1 - 2 e_2, n = -4: -factor * (Z_{lam + 2 alpha} + Z_{lam + 4 alpha})
    expected = (GA.monomial((1, 0), -a) + GA.monomial((1, -1), -b)
                + GA.monomial((1, 2), -a) + GA.monomial((1, 1), -b))
    assert commute_zu_ga((1, -2), 1, d, p) == expected


def _commute_by_division(lam, i, d, p):
    """Z_lam U_s - U_s Z_{s lam} by the long division that the closed form replaced."""
    root, coroot = d.simple_pairs()[i]
    n = pair(lam, coroot)
    if n.denominator != 1:
        raise ValueError(f"{lam} pairs non-integrally with the coroot of simple {i}")
    n = int(n)
    if n == 0:
        return GA.zero(d.rank)
    alpha = tuple(int(x) for x in root)
    lam = tuple(int(x) for x in lam)
    slam = tuple(a - n * b for a, b in zip(lam, alpha))
    diff = GA.monomial(lam) - GA.monomial(slam)
    one = QLaurent.one()
    if not p.special_simple(i):
        den = GA.one(d.rank) - GA.monomial(tuple(-x for x in alpha))
        return diff.exact_div(den).scale(p.q_alpha(i) - one)
    if n % 2:
        raise ValueError("coroot in 2 Lambda^ forces even pairings; malformed lattice vector")
    a, b = p.alpha_exp[i], p.qi_for_simple(i)
    factor = GA.const(d.rank, p.q_alpha(i) - one) + \
        GA.monomial(tuple(-x for x in alpha), q((a + b) / 2) - q((a - b) / 2))
    den = GA.one(d.rank) - GA.monomial(tuple(-2 * x for x in alpha))
    return factor * diff.exact_div(den)


def _outcome(f, *args):
    try:
        return f(*args)._t
    except ValueError as e:
        return type(e), str(e)


_GATE_DATA = [("GL", 2), ("GL", 3), ("SO_odd", 5), ("SO_odd", 7), ("Sp", 4), ("Sp", 6),
              ("SO_even", 4), ("SO_even", 6), [("A1", 2, 1), ("A1", 2, 1)], [("A1", 2, 2)]]


@pytest.mark.parametrize("spec", _GATE_DATA, ids=str)
def test_commute_zu_matches_the_division_formula(spec):
    """Every lam in [-3, 3]^rank, every simple root, a(alpha) in {0, 1, 3/2}.

    q_i in {0, 1/2} where the datum needs one.  Lattice vectors with a half
    in the last slot reach the odd-pairing error of the 2 Lambda^ branch.
    """
    if isinstance(spec, tuple):
        d, _ = classical_datum(*spec)
    else:
        d = build_O_datum(spec, 2 * len(spec))
    params = []
    for a in (F(0), F(1), F(3, 2)):
        try:
            params.append(HeckeParams(d, (a,) * d.num_simples()))
        except InvalidParameters:
            params += [HeckeParams(d, (a,) * d.num_simples(), {0: b}) for b in (F(0), F(1, 2))]
    grid = list(itertools.product(range(-3, 4), repeat=d.rank))
    lams = grid + [lam[:-1] + (lam[-1] + F(1, 2),) for lam in grid[:49]]
    for p in params:
        for i in range(d.num_simples()):
            for lam in lams:
                got = _outcome(commute_zu_ga, lam, i, d, p)
                assert got == _outcome(_commute_by_division, lam, i, d, p), (lam, i, p)


# -- equality ----------------------------------------------------------------------

def test_equality_sees_the_parameters():
    d, p1 = gl2()
    p2 = HeckeParams(d, (F(2),))
    assert HeckeElement.one(d, p1) != HeckeElement.one(d, p2)
    assert HeckeElement.one(d, p1) == HeckeElement.one(d, HeckeParams(d, (F(1),)))
    flip = WeylElement((0, 1), (1, -1))
    d2, _ = classical_datum("SO_even", 4)
    coc = Cocycle([WeylElement.identity(2), flip])
    q1, q2 = HeckeParams(d2, (F(1), F(1))), HeckeParams(d2, (F(2), F(2)))
    assert (ExtendedHeckeElement.j_r(d2, q1, coc, flip)
            != ExtendedHeckeElement.j_r(d2, q2, coc, flip))
    assert (ExtendedHeckeElement.j_r(d2, q1, coc, flip)
            == ExtendedHeckeElement.j_r(d2, HeckeParams(d2, (F(1), F(1))), coc, flip))


def test_simple_table_matches_the_exponents():
    """Each per-simple record against the values it is built from."""
    for d, p in [gl3(), b2(), a1a1(), (lambda d: (d, HeckeParams(d, (F(1),))))(
            build_O_datum([("A1", 2, 2)], 2))]:
        assert len(p.simples) == d.num_simples()
        for i, (rec, (root, coroot)) in enumerate(zip(p.simples, d.simple_pairs())):
            assert rec.root == tuple(root)
            assert tuple(F(x, rec.coroot_den) for x in rec.coroot) == tuple(coroot)
            assert rec.special == all(F(x).denominator == 1 and x % 2 == 0 for x in coroot)
            assert rec.beta == tuple((2 if rec.special else 1) * x for x in root)
            assert p.q_alpha(i) == q(p.alpha_exp[i])
            assert rec.q_alpha_minus_1 == q(p.alpha_exp[i]) - QLaurent.one()
            assert rec.neg_factor == -rec.factor
    _, p = b2()
    assert p.qi_for_simple(1) == F(1, 2)
    with pytest.raises(ValueError):
        p.qi_for_simple(0)


# -- products ----------------------------------------------------------------------

def test_quadratic_relation_instance():
    d, p = gl2()
    u = HeckeElement.u_simple(d, p, 0)
    prod = he_mul(u, u)
    expected = u.scale(q(1) - QLaurent.one()) + HeckeElement.one(d, p).scale(q(1))
    assert prod == expected


def test_us_commutes_with_invariant_z():
    d, p = gl2()
    u = HeckeElement.u_simple(d, p, 0)
    z = HeckeElement.from_z(d, p, (1, 1))
    assert he_mul(u, z) == he_mul(z, u)


def test_length_additive_product():
    d, p = gl3()
    u0 = HeckeElement.u_simple(d, p, 0)
    u1 = HeckeElement.u_simple(d, p, 1)
    w = d.simple_reflection(0) * d.simple_reflection(1) * d.simple_reflection(0)
    lhs = he_mul(he_mul(u0, u1), u0)
    assert lhs == HeckeElement.from_u(d, p, w)


def _descent_data():
    d2, _ = classical_datum("SO_even", 4)
    d3, _ = classical_datum("SO_even", 6)
    b3, _ = classical_datum("SO_odd", 7)
    a3, _ = classical_datum("GL", 4)
    return [gl3(), (a3, HeckeParams(a3, (F(1),) * 3)), b2(),
            (b3, HeckeParams(b3, (F(1), F(1), F(3, 2)), {0: F(1, 2)})),
            (d2, HeckeParams(d2, (F(1), F(2)))), (d3, HeckeParams(d3, (F(1),) * 3)),
            a1a1()]


def test_simple_times_basis_follows_length_rule():
    """U_{s_i} U_w against the two-case rule decided by weyl_length."""
    count = 0
    for d, p in _descent_data():
        for w in weyl_enumerate(d):
            uw = HeckeElement.from_u(d, p, w)
            for i in range(d.num_simples()):
                s = d.simple_reflection(i)
                usw = HeckeElement.from_u(d, p, s * w)
                if weyl_length(s * w, d) > weyl_length(w, d):
                    expected = usw
                else:
                    qa = p.q_alpha(i)
                    expected = uw.scale(qa - QLaurent.one()) + usw.scale(qa)
                assert he_mul(HeckeElement.u_simple(d, p, i), uw) == expected
                count += 1
    assert count == 332


@pytest.mark.parametrize("make", ALL_DATA)
def test_quadratic_all_simples(make):
    d, p = make()
    one = HeckeElement.one(d, p)
    for i in range(d.num_simples()):
        u = HeckeElement.u_simple(d, p, i)
        assert he_mul(u + one, u - one.scale(p.q_alpha(i))).is_zero()


@pytest.mark.parametrize("make", ALL_DATA)
def test_braid_relations(make):
    d, p = make()
    for i in range(d.num_simples()):
        for j in range(i + 1, d.num_simples()):
            m = braid_order(i, j, d)
            ui, uj = HeckeElement.u_simple(d, p, i), HeckeElement.u_simple(d, p, j)
            lhs, rhs = ui, uj
            for k in range(1, m):
                lhs = he_mul(lhs, uj if k % 2 else ui)
                rhs = he_mul(rhs, ui if k % 2 else uj)
            assert lhs == rhs


def random_element(rng, d, p, degree=2):
    out = HeckeElement.zero(d, p)
    ws = [d.simple_reflection(i) for i in range(d.num_simples())] + [WeylElement.identity(d.rank)]
    for _ in range(2):
        vec = tuple(rng.randint(-degree, degree) for _ in range(d.rank))
        coeff = QLaurent({4 * rng.randint(0, 1): F(rng.randint(-3, 3))})
        ga = GA.monomial(vec, coeff)
        if not ga.is_zero():
            out = out + HeckeElement.from_u(d, p, rng.choice(ws), ga)
    return out


@pytest.mark.parametrize("make", ALL_DATA)
def test_associativity_random(make):
    rng = random.Random(7)
    d, p = make()
    for _ in range(20):
        x, y, z = (random_element(rng, d, p) for _ in range(3))
        assert he_mul(he_mul(x, y), z) == he_mul(x, he_mul(y, z))


def test_basis_expansion_is_finite_and_unital():
    d, p = b2()
    rng = random.Random(3)
    for _ in range(10):
        x = random_element(rng, d, p)
        assert he_mul(x, HeckeElement.one(d, p)) == x
        assert he_mul(HeckeElement.one(d, p), x) == x


# -- center --------------------------------------------------------------------------

def test_center_gl2():
    d, p = gl2()
    assert is_central(HeckeElement.from_z(d, p, (1, 1)))
    assert not is_central(HeckeElement.from_z(d, p, (1, 0)))
    assert is_central(HeckeElement.from_z(d, p, (1, 0)) + HeckeElement.from_z(d, p, (0, 1)))


def orbit_sum(d, p, lam):
    seen = set()
    for w in weyl_enumerate(d):
        seen.add(w.act(lam))
    out = HeckeElement.zero(d, p)
    for v in sorted(seen):
        out = out + HeckeElement.from_z(d, p, v)
    return out


def test_center_b2_orbit_sums():
    d, p = b2()
    for lam in [(1, 0), (1, 1), (2, 0)]:
        assert is_central(orbit_sum(d, p, lam))
    assert not is_central(HeckeElement.from_z(d, p, (1, 0)))


# -- extended algebra -----------------------------------------------------------------

def d2_setup():
    d, _ = classical_datum("SO_even", 4)
    p = HeckeParams(d, (F(1), F(1)))
    flip = WeylElement((0, 1), (1, -1))
    coc = Cocycle([WeylElement.identity(2), flip])
    return d, p, flip, coc


def test_jr_squared_trivial_cocycle():
    d, p, flip, coc = d2_setup()
    jr = ExtendedHeckeElement.j_r(d, p, coc, flip)
    assert ext_mul(jr, jr) == ExtendedHeckeElement.from_hecke(HeckeElement.one(d, p), coc)


def test_jr_z_relation():
    d, p, flip, coc = d2_setup()
    jr = ExtendedHeckeElement.j_r(d, p, coc, flip)
    z = ExtendedHeckeElement.from_hecke(HeckeElement.from_z(d, p, (0, 1)), coc)
    zr = ExtendedHeckeElement.from_hecke(HeckeElement.from_z(d, p, (0, -1)), coc)
    assert ext_mul(jr, z) == ext_mul(zr, jr)


def test_jr_u_relation_d2_d3():
    for size in (4, 6):
        d, _ = classical_datum("SO_even", size)
        n = d.rank
        p = HeckeParams(d, (F(1),) * d.num_simples())
        flip = WeylElement(tuple(range(n)), tuple([1] * (n - 1) + [-1]))
        coc = Cocycle([WeylElement.identity(n), flip])
        jr = ExtendedHeckeElement.j_r(d, p, coc, flip)
        for i in range(d.num_simples()):
            w = d.simple_reflection(i)
            conj = flip * w * flip.inverse()
            lhs = ext_mul(jr, ExtendedHeckeElement.from_hecke(HeckeElement.from_u(d, p, w), coc))
            rhs = ext_mul(ExtendedHeckeElement.from_hecke(HeckeElement.from_u(d, p, conj), coc), jr)
            assert lhs == rhs


def test_ext_mul_associativity_random():
    rng = random.Random(17)
    d, p, flip, coc = d2_setup()
    e = WeylElement.identity(2)

    def rand_ext():
        return ExtendedHeckeElement(d, p, coc, {
            rng.choice([e, flip]): random_element(rng, d, p),
            rng.choice([e, flip]): random_element(rng, d, p),
        })

    for _ in range(10):
        x, y, z = rand_ext(), rand_ext(), rand_ext()
        assert ext_mul(ext_mul(x, y), z) == ext_mul(x, ext_mul(y, z))


def test_ext_rejects_non_positivity_preserving_r():
    d, p, _, _ = d2_setup()
    e = WeylElement.identity(2)
    bad = WeylElement((0, 1), (-1, 1))   # flips e_1: sends e_1 - e_2 nowhere positive
    coc_bad = Cocycle([e, bad])
    with pytest.raises(ValueError):
        ExtendedHeckeElement.j_r(d, p, coc_bad, bad)


def test_ext_rejects_a_term_from_another_algebra():
    d, p, flip, coc = d2_setup()
    with pytest.raises(ValueError, match="parameter mismatch"):
        ExtendedHeckeElement(d, p, coc, {flip: HeckeElement.one(d, HeckeParams(d, (F(2), F(2))))})
    with pytest.raises(ValueError, match="datum mismatch"):
        ExtendedHeckeElement(d, p, coc, {flip: HeckeElement.one(*gl2())})
    # an equal parameter set built apart is the same algebra
    x = ExtendedHeckeElement(d, p, coc, {flip: HeckeElement.one(d, HeckeParams(d, (F(1), F(1))))})
    assert x == ExtendedHeckeElement.j_r(d, p, coc, flip)


def test_nontrivial_cocycle_validated_and_used():
    d, p, flip, coc_triv = d2_setup()
    e = WeylElement.identity(2)
    table = {(e, e): F(1), (e, flip): F(1), (flip, e): F(1), (flip, flip): F(-1)}
    coc = Cocycle([e, flip], table)
    jr = ExtendedHeckeElement.j_r(d, p, coc, flip)
    assert ext_mul(jr, jr) == ExtendedHeckeElement.from_hecke(
        HeckeElement.one(d, p).scale(QLaurent.const(-1)), coc)
    bad = dict(table)
    bad[(flip, flip)] = F(0)
    with pytest.raises(ValueError):
        Cocycle([e, flip], bad)


# -- cross-check against the rank-one operator model --------------------------------

def _phi(h, alpha, alg, T):
    """U_s -> T, Z_{k alpha} -> X^k into the rank-one module."""
    from mphecke.laurent import rf_normalize

    out = alg.zero()
    for w, b in h.terms():
        felem = alg.zero()
        for vec, c in b.terms():
            i = next(i for i, a in enumerate(alpha) if a != 0)
            k = F(vec[i], alpha[i])
            assert k.denominator == 1 and tuple(int(k) * a for a in alpha) == vec
            rf = rf_normalize(GA(1, {(int(k),): c}), GA.one(1))
            felem = alg.add(felem, alg.from_f(rf))
        out = alg.add(out, felem if w.is_identity() else alg.mul(felem, T))
    return out


def _rand_line_elem(rng, d, p, alpha):
    out = HeckeElement.zero(d, p)
    for _ in range(2):
        k = rng.randint(-2, 2)
        vec = tuple(k * a for a in alpha)
        c = QLaurent({4 * rng.randint(0, 1): F(rng.randint(-2, 2))})
        ga = GA.monomial(vec, c)
        if not ga.is_zero():
            w = d.simple_reflection(0) if rng.random() < 0.5 else WeylElement.identity(d.rank)
            out = out + HeckeElement.from_u(d, p, w, ga)
    return out


@pytest.mark.parametrize("case", ["plain", "special"])
def test_operator_model_realizes_both_branches(case):
    """The regularised rank-one operator is a module realisation of the
    abstract algebra: products agree under U_s -> T, Z_{k a} -> X^k.
    This ties the normal-form commutation rule (either coroot branch) to
    the independently constructed operator coefficients."""
    from mphecke.rankone import RankOneAlgebra, build_Ts, mu_build

    rng = random.Random(5)
    if case == "plain":
        d, _ = classical_datum("GL", 2)
        p = HeckeParams(d, (F(1),))
        alpha = (1, -1)
        alg = RankOneAlgebra(mu_build(1, 0))
        T = build_Ts(1, 0, 1, 1)
    else:
        d = build_O_datum([("B1", 1, 1)], 1)
        p = HeckeParams(d, (F(2),), {0: F(1)})    # q_a = q^(a+b), q_i = q^(a-b)
        alpha = (1,)
        alg = RankOneAlgebra(mu_build(F(3, 2), F(1, 2)))
        T = build_Ts(F(3, 2), F(1, 2), 1, 1)
    for _ in range(20):
        x, y = _rand_line_elem(rng, d, p, alpha), _rand_line_elem(rng, d, p, alpha)
        lhs = _phi(he_mul(x, y), alpha, alg, T)
        rhs = alg.mul(_phi(x, alpha, alg, T), _phi(y, alpha, alg, T))
        assert lhs.f == rhs.f and lhs.g == rhs.g


# -- chamber criteria -----------------------------------------------------------------

def test_tempered_examples():
    d, _ = classical_datum("SO_odd", 5)
    a1c, a2c = (c for _, c in d.simple_pairs())
    closed = ExponentChar("1", tuple(x + y for x, y in zip(a1c, a2c)))
    assert tempered_check([closed], d)
    assert tempered_check([ExponentChar("1", (F(0), F(0)))], d)
    positive = ExponentChar("1", tuple(-x for x in a1c))
    assert not tempered_check([positive], d)


def test_sqint_examples():
    b2d, _ = classical_datum("SO_odd", 5)
    a1c, a2c = (c for _, c in b2d.simple_pairs())
    strict = ExponentChar("1", tuple(x + y for x, y in zip(a1c, a2c)))
    assert sqint_check([strict], [], b2d)
    assert not sqint_check([ExponentChar("1", (F(0), F(0)))], [], b2d)
    gl2d, _ = classical_datum("GL", 2)
    ac = gl2d.simple_pairs()[0][1]
    e = ExponentChar("1", tuple(ac))
    assert sqint_check([e], [(1, 1)], gl2d)
    assert not sqint_check([e], [], gl2d)          # roots alone have rank 1 in Z^2
    skew = ExponentChar("1", tuple(x + 1 for x in ac))
    assert not sqint_check([skew], [(1, 1)], gl2d)  # not unitary on the centre

