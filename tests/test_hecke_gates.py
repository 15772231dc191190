"""Differential gates for the Hecke product and for reduced words.

The oracle below is the Hecke product as it stood before the commutation
data moved into a per-simple table on ``HeckeParams``: ``commute_zu_ga``
paired over ``Fraction`` vectors, ``_u_simple_times`` summed its
corrections through ``GroupAlgebraElement`` add and scale, and
``reduced_word`` acted on ``Fraction`` simple roots.  The three functions
and the word are kept as they were; only their parameter lookups go
through the local helpers, which recompute each value from the raw
exponents and the datum, so the oracle shares no cached value with the
code under test.
"""

import random
from fractions import Fraction

import pytest

from mphecke.hecke import (
    ExtendedHeckeElement,
    HeckeElement,
    HeckeParams,
    _simple_component,
    ext_mul,
    he_mul,
    twist_hecke,
)
from mphecke.laurent import GroupAlgebraElement, QLaurent
from mphecke.rootdata import (
    BasedRootDatum,
    WeylElement,
    build_O_datum,
    classical_datum,
    coroot_in_2Lambda,
    pair,
    reduced_word,
    weyl_enumerate,
    weyl_length,
)
from test_hecke import _GATE_DATA, ALL_DATA, d2_setup

F = Fraction


# -- the oracle -------------------------------------------------------------------

def _q_alpha(p, i):
    return QLaurent.q_power(p.alpha_exp[i])


def _special_simple(p, i):
    _, coroot = p.datum.simple_pairs()[i]
    return coroot_in_2Lambda(coroot)


def _qi_for_simple(p, i):
    return Fraction(dict(p.qi_exp)[_simple_component(p.datum, i)])


def _oracle_reduced_word(w: WeylElement, d: BasedRootDatum) -> list[int]:
    simples = d.simple_pairs()
    word: list[int] = []
    cur = w
    for _ in range(len(d.pos_roots) + 1):
        if cur.is_identity():
            word.reverse()
            return word
        for i, (root, _) in enumerate(simples):
            if d.root_sign(cur.act(root)) == -1:
                word.append(i)
                cur = cur * d.simple_reflection(i)
                break
        else:
            raise ValueError("element is not in the Weyl group of the datum")
    raise ValueError("element is not in the Weyl group of the datum")


def _oracle_commute_zu_ga(lam, i, d, p) -> GroupAlgebraElement:
    root, coroot = d.simple_pairs()[i]
    n = pair(lam, coroot)
    if n.denominator != 1:
        raise ValueError(f"{lam} pairs non-integrally with the coroot of simple {i}")
    if not n:
        return GroupAlgebraElement.zero(d.rank)
    special = _special_simple(p, i)
    if special and n % 2:
        raise ValueError("coroot in 2 Lambda^ forces even pairings; malformed lattice vector")
    step = 2 if special else 1
    c = int(n) // step
    lam = tuple(int(x) for x in lam)
    beta = tuple(step * int(x) for x in root)
    sign = QLaurent.one() if c > 0 else -QLaurent.one()
    geo = GroupAlgebraElement._trusted(d.rank, {tuple(a - k * b for a, b in zip(lam, beta)): sign
                                                for k in range(min(c, 0), max(c, 0))})
    qa_minus_1 = _q_alpha(p, i) - QLaurent.one()
    if not special:
        return geo.scale(qa_minus_1)
    a, b = p.alpha_exp[i], _qi_for_simple(p, i)
    factor = GroupAlgebraElement.const(d.rank, qa_minus_1) + GroupAlgebraElement.monomial(
        tuple(-x for x in root), QLaurent.q_power((a + b) / 2) - QLaurent.q_power((a - b) / 2))
    return factor * geo


def _oracle_u_simple_times(i: int, z: HeckeElement) -> HeckeElement:
    d, p = z.datum, z.params
    s = d.simple_reflection(i)
    alpha = d.simple_pairs()[i][0]
    qa = _q_alpha(p, i)
    qa_minus_1 = qa - QLaurent.one()
    out: dict[WeylElement, GroupAlgebraElement] = {}

    def add(w, b):
        out[w] = out[w] + b if w in out else b

    for v, c in z._t.items():
        sc = c.apply_lattice_map(s.act)
        corr = GroupAlgebraElement.zero(d.rank)
        for mu, coeff in c.terms():
            smu = s.act(mu)
            dmu = _oracle_commute_zu_ga(smu, i, d, p)
            if not dmu.is_zero():
                corr = corr + dmu.scale(coeff)
        sv = s * v
        # l(s_i v) > l(v) exactly when v^-1(alpha_i) is a positive root
        if d.root_sign(v.inverse().act(alpha)) == 1:
            add(sv, sc)
        else:
            add(v, sc.scale(qa_minus_1))
            add(sv, sc.scale(qa))
        if not corr.is_zero():
            add(v, -corr)
    return HeckeElement(d, p, out)


def _oracle_he_mul(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    x._check(y)
    d, p = x.datum, x.params
    out = HeckeElement.zero(d, p)
    for w, b in x._t.items():
        word = _oracle_reduced_word(w, d)
        acc = y
        for letter in reversed(word):
            acc = _oracle_u_simple_times(letter, acc)
        out = out + acc.ga_mul_left(b)
    return out


def _oracle_ext_mul(x: ExtendedHeckeElement, y: ExtendedHeckeElement) -> ExtendedHeckeElement:
    x._compat(y)
    out = ExtendedHeckeElement(x.datum, x.params, x.cocycle)
    for r, h in x._t.items():
        for rp, hp in y._t.items():
            eta = x.cocycle(r, rp)
            prod = _oracle_he_mul(h, twist_hecke(r, hp)).scale(QLaurent.const(eta))
            out = out + ExtendedHeckeElement(x.datum, x.params, x.cocycle, {r * rp: prod})
    return out


# -- seeded elements with lattice parts -------------------------------------------

def _lattice_vector(rng, d, degree):
    """A vector of [-degree, degree]^rank pairing integrally with every coroot."""
    while True:
        lam = tuple(rng.randint(-degree, degree) for _ in range(d.rank))
        if all(pair(lam, coroot).denominator == 1 for _, coroot in d.simple_pairs()):
            return lam


def _element(rng, d, p, weyl, degree, nterms=2):
    out = HeckeElement.zero(d, p)
    for _ in range(nterms):
        lam = _lattice_vector(rng, d, degree)
        coeff = QLaurent({rng.choice((0, 1, 4)): F(rng.choice((-3, -1, 1, 2))),
                          rng.choice((-4, 2)): F(rng.randint(-1, 1), rng.choice((1, 2)))})
        if not coeff.is_zero():
            out = out + HeckeElement.from_u(d, p, rng.choice(weyl), GroupAlgebraElement.monomial(lam, coeff))
    return out


def _t2_a1():
    # roots 2(e1 - e2), coroots (e1 - e2)/2: the pairing is a half-integer form
    d = build_O_datum([("A1", 2, 2)], 2)
    return d, HeckeParams(d, (F(1),))


def _t2_b2():
    # long roots 2(e1 -+ e2) with coroots (e1 -+ e2)/2; short roots 2e_i, coroots e_i
    d = build_O_datum([("B2", 2, 2)], 2)
    return d, HeckeParams(d, (F(1), F(3, 2)))


def _zero_gl3():
    d, _ = classical_datum("GL", 3)
    return d, HeckeParams(d, (F(0), F(0)))


def _zero_b2():
    d, _ = classical_datum("SO_odd", 5)
    return d, HeckeParams(d, (F(0), F(0)), {0: F(0)})


def _zero_long_b2():
    d, _ = classical_datum("SO_odd", 5)
    return d, HeckeParams(d, (F(0), F(1)), {0: F(1)})


def _zero_a1a1():
    d = build_O_datum([("A1", 2, 1), ("A1", 2, 1)], 4)
    return d, HeckeParams(d, (F(0), F(3, 2)))


PRODUCT_DATA = ALL_DATA + [_t2_a1, _t2_b2, _zero_gl3, _zero_b2, _zero_long_b2, _zero_a1a1]


@pytest.mark.parametrize("make", PRODUCT_DATA, ids=lambda f: f.__name__)
def test_he_mul_matches_the_fraction_oracle(make):
    """Seeded triples with lattice parts: x*y, (x*y)*z and x*(y*z) against the oracle."""
    d, p = make()
    rng = random.Random(f"he-mul-gate:{make.__name__}")
    weyl = weyl_enumerate(d)
    degree = 1 if d.num_simples() > 1 and d.rank <= 2 else 2
    for _ in range(6):
        x, y, z = (_element(rng, d, p, weyl, degree) for _ in range(3))
        xy = he_mul(x, y)
        assert xy == _oracle_he_mul(x, y)
        assert he_mul(xy, z) == _oracle_he_mul(xy, z)
        assert he_mul(x, he_mul(y, z)) == _oracle_he_mul(x, _oracle_he_mul(y, z))


@pytest.mark.parametrize("a", [F(1), F(0)])
def test_ext_mul_matches_the_fraction_oracle(a):
    d, _, flip, coc = d2_setup()
    p = HeckeParams(d, (a, a))
    e = WeylElement.identity(2)
    rng = random.Random(f"ext-mul-gate:{a}")
    weyl = weyl_enumerate(d)

    def rand_ext():
        return ExtendedHeckeElement(d, p, coc, {r: _element(rng, d, p, weyl, 2) for r in (e, flip)})

    for _ in range(4):
        x, y, z = rand_ext(), rand_ext(), rand_ext()
        xy = ext_mul(x, y)
        assert xy == _oracle_ext_mul(x, y)
        assert ext_mul(xy, z) == _oracle_ext_mul(xy, z)


# -- reduced words ----------------------------------------------------------------

@pytest.mark.parametrize("spec", _GATE_DATA, ids=str)
def test_reduced_word_matches_the_fraction_oracle(spec):
    if isinstance(spec, tuple):
        d, _ = classical_datum(*spec)
    else:
        d = build_O_datum(spec, 2 * len(spec))
    for w in weyl_enumerate(d):
        word = reduced_word(w, d)
        assert word == _oracle_reduced_word(w, d)
        assert len(word) == weyl_length(w, d)
        prod = WeylElement.identity(d.rank)
        for i in word:
            prod = prod * d.simple_reflection(i)
        assert prod == w


def test_reduced_word_rejects_what_the_oracle_rejects():
    d, _ = classical_datum("GL", 3)
    outside = WeylElement((0, 1, 2), (1, 1, -1))
    with pytest.raises(ValueError):
        _oracle_reduced_word(outside, d)
    with pytest.raises(ValueError):
        reduced_word(outside, d)
