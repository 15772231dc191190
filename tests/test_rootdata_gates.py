"""Differential gate for the classical root data.

The oracle below is ``classical_datum`` as it stood when it built its
data with its own loops (``_bcd_datum`` for types B, C and D, and an
inline loop for GL) rather than through the component emitter that
``build_O_datum`` uses.  Those loops and their vector helpers are kept
as they were; only the ``classical_datum`` dispatch around them is
reduced to what the comparison needs.
"""

from fractions import Fraction

import pytest

from mphecke.rootdata import (
    BasedRootDatum,
    Component,
    DiagramAutomorphism,
    WeylElement,
    build_O_datum,
    classical_datum,
)

Vec = tuple[Fraction, ...]


# -- the oracle -------------------------------------------------------------------

def _e(i: int, n: int, c=1) -> Vec:
    return tuple(Fraction(c) if j == i else Fraction(0) for j in range(n))


def _addv(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def _subv(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def _oracle_gl(size: int) -> BasedRootDatum:
    m = size
    n = m
    pos, base = [], []
    for i in range(n):
        for j in range(i + 1, n):
            v = _subv(_e(i, n), _e(j, n))
            pos.append((v, v))
            if j == i + 1:
                base.append(len(pos) - 1)
    comp = Component("A", m - 1, 1, tuple(range(n))) if m >= 2 else Component("empty", 0, 1, tuple(range(n)))
    return BasedRootDatum(n, tuple(pos), tuple(base), (comp,))


def _bcd_datum(n: int, letter: str) -> BasedRootDatum:
    pos: list[tuple[Vec, Vec]] = []
    base: list[int] = []
    for i in range(n):
        for j in range(i + 1, n):
            v = _subv(_e(i, n), _e(j, n))
            pos.append((v, v))
            if j == i + 1:
                base.append(len(pos) - 1)
            w = _addv(_e(i, n), _e(j, n))
            pos.append((w, w))
            if letter == "D" and i == n - 2 and j == n - 1:
                base.append(len(pos) - 1)
    if letter == "B":
        for i in range(n):
            pos.append((_e(i, n), _e(i, n, 2)))
            if i == n - 1:
                base.append(len(pos) - 1)
    elif letter == "C":
        for i in range(n):
            pos.append((_e(i, n, 2), _e(i, n)))
            if i == n - 1:
                base.append(len(pos) - 1)
    if letter == "D" and n == 1:
        comp = Component("D", 1, 1, (0,))
        return BasedRootDatum(1, (), (), (comp,))
    comp = Component(letter, n, 1, tuple(range(n))) if n >= 1 else Component("empty", 0, 1, ())
    return BasedRootDatum(n, tuple(pos), tuple(base), (comp,))


def _oracle(kind: str, size: int):
    if kind == "GL":
        return _oracle_gl(size), None
    if kind == "SO_odd":
        return _bcd_datum((size - 1) // 2, "B"), None
    if kind == "Sp":
        return _bcd_datum(size // 2, "C"), None
    n = size // 2
    datum = _bcd_datum(n, "D")
    if kind == "SO_even":
        return datum, None
    flip = WeylElement(tuple(range(n)), tuple([1] * (n - 1) + [-1]))
    return datum, DiagramAutomorphism(flip, datum)


CASES = ([("GL", m) for m in range(1, 7)]
         + [("SO_odd", s) for s in range(1, 12, 2)]
         + [("Sp", s) for s in range(0, 11, 2)]
         + [("SO_even", s) for s in range(0, 11, 2)]
         + [("O_even", s) for s in range(2, 11, 2)])


# -- the gate ---------------------------------------------------------------------

@pytest.mark.parametrize("kind,size", CASES)
def test_classical_datum_matches_the_oracle(kind, size):
    got, got_auto = classical_datum(kind, size)
    want, want_auto = _oracle(kind, size)
    assert got.rank == want.rank
    assert list(got.pos_roots) == list(want.pos_roots)
    assert got.base == want.base
    assert got.components == want.components
    assert got.components[0].label == want.components[0].label
    assert ([got.simple_reflection(i) for i in range(got.num_simples())]
            == [want.simple_reflection(i) for i in range(want.num_simples())])
    if want_auto is None:
        assert got_auto is None
    else:
        assert got_auto.map == want_auto.map
        assert got_auto.datum == want_auto.datum


@pytest.mark.parametrize("kind,size", [("GL", 1), ("SO_odd", 1), ("Sp", 0), ("SO_even", 0)])
def test_degenerate_sizes_keep_the_empty_label(kind, size):
    d, _ = classical_datum(kind, size)
    assert [c.label for c in d.components] == ["empty"]
    assert not d.pos_roots


def test_d1_stays_d1():
    d, _ = classical_datum("SO_even", 2)
    assert [c.label for c in d.components] == ["D1"]
    assert d.rank == 1 and not d.pos_roots


# -- one exact form ---------------------------------------------------------------

def _is_int_tuple(v) -> bool:
    return type(v) is tuple and all(type(x) is int for x in v)


def test_roots_are_int_tuples_and_coroots_fractions():
    data = [classical_datum(kind, size)[0] for kind, size in CASES]
    data += [build_O_datum([("A1", 2, 2)], 2), build_O_datum([("B2", 2, 2)], 2)]
    for d in data:
        for root, coroot in d.pos_roots:
            assert _is_int_tuple(root), (d, root)
            assert type(coroot) is tuple and all(type(x) is Fraction for x in coroot), (d, coroot)
        assert all(_is_int_tuple(r) for r in d.simple_roots())


def test_act_keeps_the_coordinate_type():
    w = WeylElement((1, 0, 2), (1, -1, -1))
    got = w.act((3, -5, 0))
    assert got == (5, 3, 0) and _is_int_tuple(got)
    got = w.act((Fraction(1, 2), Fraction(-5), Fraction(0)))
    assert got == (5, Fraction(1, 2), 0)
    assert all(type(x) is Fraction for x in got)
