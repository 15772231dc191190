"""The metaplectic presentations run through the Hecke engine.

``mp-enumerate`` reports each class's Hecke algebra as an
``MpHeckePresentation`` record.  Here every distinct record over the
pool of normed parameters with 2n <= 8 is built as ``HeckeParams`` on
its classical datum and its relations are checked with ``he_mul``.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from mphecke.hecke import HeckeElement, HeckeParams, he_mul
from mphecke.laurent import GroupAlgebraElement as GA
from mphecke.laurent import QLaurent
from mphecke.mpparams import enumerate_blocks
from mphecke.rootdata import WeylElement, braid_order, classical_datum

from test_mpparams import pool_parameters


def _distinct_presentations():
    """One record per distinct algebra.

    ``scale`` is already multiplied into the exponents, so records that
    differ only in it (the rank-0 ones) present the same algebra.
    """
    records, algebras = set(), {}
    for p0 in pool_parameters(8):
        for block in enumerate_blocks(p0).records():
            for pres in block["hecke"].values():
                records.add(pres)
                algebras.setdefault((pres.kind, pres.size, pres.exponents, pres.qi), pres)
    return len(records), [algebras[k] for k in sorted(algebras, key=str)]


N_RECORDS, PRESENTATIONS = _distinct_presentations()


def as_hecke_params(pres):
    """The presentation as parameters on its classical datum.

    SO_even_ext lives on the even orthogonal datum; an odd orthogonal
    presentation of rank >= 1 puts q_i on its one component.
    """
    kind = "SO_even" if pres.kind == "SO_even_ext" else pres.kind
    d, _ = classical_datum(kind, pres.size)
    qi = {0: pres.qi} if pres.qi is not None else {}
    return d, HeckeParams(d, pres.exponents, qi)


def test_the_pool_emits_69_distinct_presentations():
    assert N_RECORDS == 74
    assert len(PRESENTATIONS) == 69
    assert Counter(p.kind for p in PRESENTATIONS) == {"SO_odd": 58, "SO_even_ext": 7, "GL": 4}


@pytest.mark.parametrize("pres", PRESENTATIONS, ids=lambda p: p.display() or p.kind)
def test_presentation_satisfies_quadratic_and_braid_relations(pres):
    d, p = as_hecke_params(pres)
    one = HeckeElement.one(d, p)
    u = [HeckeElement.u_simple(d, p, i) for i in range(d.num_simples())]
    for i, ui in enumerate(u):
        assert he_mul(ui + one, ui - one.scale(p.q_alpha(i))).is_zero()
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            left, right = u[i], u[j]
            for k in range(1, braid_order(i, j, d)):
                left = he_mul(left, u[j] if k % 2 else u[i])
                right = he_mul(right, u[i] if k % 2 else u[j])
            assert left == right


def _random_element(rng, d, p):
    ws = [d.simple_reflection(i) for i in range(d.num_simples())] + [WeylElement.identity(d.rank)]
    out = HeckeElement.zero(d, p)
    for _ in range(2):
        lam = tuple(rng.randint(-2, 2) for _ in range(d.rank))
        coeff = QLaurent({4 * rng.randint(0, 1): Fraction(rng.choice((-2, -1, 1, 3)))})
        out = out + HeckeElement.from_u(d, p, rng.choice(ws), GA.monomial(lam, coeff))
    return out


LOW_RANK_SO_ODD = [p for p in PRESENTATIONS if p.kind == "SO_odd" and p.rank() in (1, 2)]


@pytest.mark.parametrize("pres", LOW_RANK_SO_ODD, ids=lambda p: p.display())
def test_so_odd_presentation_is_associative_with_lattice_parts(pres):
    # the short simple root of B_r has coroot 2 e_r, so pushing Z_lam
    # through its U_s runs the q_i branch of the commutation rule
    d, p = as_hecke_params(pres)
    assert p.special_simple(d.num_simples() - 1)
    rng = random.Random(f"{pres.display()}:{pres.scale}")
    for _ in range(3):
        x, y, z = (_random_element(rng, d, p) for _ in range(3))
        assert he_mul(he_mul(x, y), z) == he_mul(x, he_mul(y, z))
