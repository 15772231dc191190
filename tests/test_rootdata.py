import itertools
from fractions import Fraction

import pytest

from mphecke.rootdata import (
    WeylElement,
    braid_order,
    build_O_datum,
    classical_datum,
    coroot_in_2Lambda,
    pair,
    reduced_word,
    reflection,
    weyl_enumerate,
    weyl_length,
)


def datum(kind, size):
    d, _ = classical_datum(kind, size)
    return d


# -- classical data -----------------------------------------------------------

def test_gl2_datum():
    d = datum("GL", 2)
    assert d.rank == 2
    assert [r for r, _ in d.pos_roots] == [(1, -1)]
    assert [d.pos_roots[i][0] for i in d.base] == [(1, -1)]
    assert d.components[0].label == "A1"


def test_so5_datum():
    d = datum("SO_odd", 5)
    base = [d.pos_roots[i][0] for i in d.base]
    assert base == [(1, -1), (0, 1)]
    assert len(d.pos_roots) == 4
    assert d.components[0].label == "B2"


def test_sp4_datum():
    d = datum("Sp", 4)
    base = [d.pos_roots[i][0] for i in d.base]
    assert base == [(1, -1), (0, 2)]
    assert d.components[0].label == "C2"


def test_o_even_returns_flip():
    d, flip = classical_datum("O_even", 6)
    assert flip is not None
    base = {r for r, _ in d.simple_pairs()}
    images = {flip.map.act(r) for r in base}
    assert images == base
    assert flip.map * flip.map == WeylElement.identity(3)


def test_invalid_sizes():
    with pytest.raises(ValueError):
        classical_datum("SO_odd", 4)
    with pytest.raises(ValueError):
        classical_datum("Sp", 3)
    with pytest.raises(ValueError):
        classical_datum("GL", 0)


# -- lengths and words ----------------------------------------------------------

def test_length_identity_and_simple():
    d = datum("SO_odd", 5)
    assert weyl_length(WeylElement.identity(2), d) == 0
    for i in range(2):
        assert weyl_length(d.simple_reflection(i), d) == 1


def test_b2_longest_element():
    d = datum("SO_odd", 5)
    minus_id = WeylElement((0, 1), (-1, -1))
    assert weyl_length(minus_id, d) == 4
    word = reduced_word(minus_id, d)
    assert len(word) == 4
    w = WeylElement.identity(2)
    for i in word:
        w = w * d.simple_reflection(i)
    assert w == minus_id


def test_reduced_word_examples():
    d = datum("GL", 3)
    assert reduced_word(WeylElement.identity(3), d) == []
    s0, s1 = d.simple_reflection(0), d.simple_reflection(1)
    w = s0 * s1
    word = reduced_word(w, d)
    assert len(word) == weyl_length(w, d) == 2
    prod = WeylElement.identity(3)
    for i in word:
        prod = prod * d.simple_reflection(i)
    assert prod == w


def test_reduced_word_rejects_outsiders():
    d = datum("GL", 2)
    flip = WeylElement((0, 1), (1, -1))  # sign change: not in S_2
    with pytest.raises(ValueError):
        reduced_word(flip, d)


def test_act():
    flip2 = WeylElement((0, 1), (1, -1))
    assert flip2.act((3, 5)) == (3, -5)
    d = datum("GL", 2)
    assert d.simple_reflection(0).act((1, 0)) == (0, 1)
    assert WeylElement.identity(2).act((7, -2)) == (7, -2)


# -- braid orders and coroots ---------------------------------------------------

def test_braid_orders():
    assert braid_order(0, 1, datum("GL", 3)) == 3
    assert braid_order(0, 1, datum("SO_odd", 5)) == 4
    d = build_O_datum([("A1", 2, 1), ("A1", 2, 1)], 4)
    assert braid_order(0, 1, d) == 2


def test_coroot_in_2Lambda():
    b2 = datum("SO_odd", 5)
    short = b2.simple_pairs()[1]
    long_ = b2.simple_pairs()[0]
    assert coroot_in_2Lambda(short[1])
    assert not coroot_in_2Lambda(long_[1])
    gl2 = datum("GL", 2)
    assert not coroot_in_2Lambda(gl2.simple_pairs()[0][1])


# -- build_O_datum ---------------------------------------------------------------

def test_c_to_b_conversion():
    d = build_O_datum([("C3", 3, 1)], 3)
    assert d.components[0].letter == "B"
    base = [r for r, _ in d.simple_pairs()]
    assert base[-1] == (0, 0, 1)
    _, short_coroot = d.simple_pairs()[-1]
    assert short_coroot == (0, 0, 2)


def test_scaled_a_component():
    d = build_O_datum([("A1", 2, 2)], 2)
    (root, coroot), = d.simple_pairs()
    assert root == (2, -2)
    assert pair(root, coroot) == 2


def test_empty_components():
    d = build_O_datum([], 3)
    assert d.rank == 3 and not d.pos_roots
    d2 = build_O_datum([("empty", 2, 1), ("B1", 1, 1)], 3)
    assert len(d2.pos_roots) == 1
    assert d2.simple_pairs()[0][0] == (0, 0, 1)


def test_d1_component_is_empty_but_labeled():
    d = build_O_datum([("D1", 1, 1)], 1)
    assert d.components[0].label == "D1"
    assert not d.pos_roots


def test_overlap_errors():
    with pytest.raises(ValueError):
        build_O_datum([("B2", 2, 1), ("B2", 2, 1)], 3)


def test_pairing_always_two():
    d = build_O_datum([("B2", 2, 3), ("A2", 3, 2)], 5)
    for root, coroot in d.pos_roots:
        assert pair(root, coroot) == 2


# -- enumeration ------------------------------------------------------------------

@pytest.mark.parametrize("kind,size,count", [
    ("GL", 3, 6),        # A2
    ("SO_odd", 5, 8),    # B2
    ("SO_even", 4, 4),   # D2 = A1 x A1
])
def test_weyl_enumerate_counts(kind, size, count):
    d = datum(kind, size)
    assert len(weyl_enumerate(d)) == count == d.weyl_order()


@pytest.mark.parametrize("kind,size,expected", [
    ("GL", 4, 24),
    ("SO_odd", 7, 48),
    ("Sp", 8, 384),
    ("SO_even", 8, 192),
])
def test_weyl_order_formulas(kind, size, expected):
    assert datum(kind, size).weyl_order() == expected


def test_enumeration_guard():
    d = datum("Sp", 16)
    with pytest.raises(ValueError):
        weyl_enumerate(d)


def _datum_builders():
    sizes = {"GL": range(1, 5), "SO_odd": range(1, 10, 2), "Sp": range(0, 10, 2),
             "SO_even": range(0, 10, 2), "O_even": range(2, 10, 2)}
    out = [lambda kind=kind, size=size: datum(kind, size)
           for kind, sz in sizes.items() for size in sz]
    out.append(lambda: build_O_datum([("A1", 2, 1), ("A1", 2, 1)], 4))
    out.append(lambda: build_O_datum([("B2", 2, 2), ("A1", 2, 1)], 4))   # t = 2 component
    return out


def _scan_sign(d, v):
    for r, _ in d.pos_roots:
        if r == v:
            return 1
        if tuple(-x for x in r) == v:
            return -1
    return None


def test_built_once_facts_match_their_definitions():
    for make in _datum_builders():
        d = make()
        probes = [tuple(Fraction(0) for _ in range(d.rank))]
        for r, _ in d.pos_roots:
            probes += [r, tuple(-x for x in r), tuple(2 * x for x in r)]
        for v in probes:
            assert d.root_sign(v) == _scan_sign(d, v)
        for i, (root, coroot) in enumerate(d.simple_pairs()):
            assert d.simple_reflection(i) == reflection(root, coroot, d.rank)


def test_data_built_alike_are_equal():
    for make in _datum_builders():
        d, e = make(), make()
        assert d is not e and d == e and hash(d) == hash(e)


def test_length_inverse_invariant():
    d = datum("SO_odd", 5)
    for w in weyl_enumerate(d):
        assert weyl_length(w, d) == weyl_length(w.inverse(), d)


def test_reduced_concatenation_invariant():
    d = datum("GL", 3)
    ws = weyl_enumerate(d)
    for w, v in itertools.product(ws, ws):
        if weyl_length(w * v, d) == weyl_length(w, d) + weyl_length(v, d):
            word = reduced_word(w, d) + reduced_word(v, d)
            assert len(word) == weyl_length(w * v, d)


def test_datum_json():
    d = build_O_datum([("B2", 2, 1), ("A1", 2, 1)], 4)
    j = d.to_json()
    rebuilt = build_O_datum([(c["type"], c["size"], c["t"]) for c in j["components"]],
                            j["rank"])
    assert rebuilt == d
