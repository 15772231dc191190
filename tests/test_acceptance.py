"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is exact (symbolic zero / integer equality); the two
timed criteria assert their wall-clock budgets.
"""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

from mphecke.blocks import BlockDescriptor, CuspidalLine, classify
from mphecke.hecke import (
    ExponentChar,
    HeckeElement,
    HeckeParams,
    he_mul,
    is_central,
    sqint_check,
    tempered_check,
)
from mphecke.laurent import GroupAlgebraElement as GA
from mphecke.laurent import QLaurent
from mphecke.mpparams import (
    DiscreteParameter,
    InertialClass,
    JordEntry,
    NormedParameter,
    SChoice,
    enumerate_S,
    enumerate_alt_chars,
    enumerate_blocks,
    hecke_for_block,
    member_dim,
    split_so,
    verify_match,
    weil_example,
)
from mphecke.mpparams import _class_choices
from mphecke.rankone import verify_quadratic
from mphecke.rootdata import (
    WeylElement,
    braid_order,
    classical_datum,
    weyl_enumerate,
)

F = Fraction


def report(idx, name):
    print(f"ACCEPTANCE {idx} ({name}): PASS")


# -- pool shared by criteria 5-9 ------------------------------------------------

GL_CLS = InertialClass("gl", d=1, t=1, self_dual=False)
FF = InertialClass("ff", d=1, t=1, self_dual=True)
TF = InertialClass("tf", d=1, t=1, self_dual=True, type_plus=True)
FT = InertialClass("ft", d=1, t=2, self_dual=True, type_minus=True)
TT = InertialClass("tt", d=1, t=1, self_dual=True, type_plus=True, type_minus=True)
TT2 = InertialClass("tt2", d=1, t=2, self_dual=True, type_plus=True, type_minus=True)
POOL = (GL_CLS, FF, TF, FT, TT, TT2)


def pool_parameters(max_2n):
    out = []
    for n2 in range(2, max_2n + 1, 2):
        caps = [range(0, n2 // (c.d * (1 if c.self_dual else 2)) + 1) for c in POOL]
        for ms in itertools.product(*caps):
            total = sum(m * c.d * (1 if c.self_dual else 2) for m, c in zip(ms, POOL))
            if total == n2 and any(ms):
                out.append(NormedParameter(
                    n2 // 2, POOL, tuple((c.label, m) for c, m in zip(POOL, ms))))
    return out


# -- criterion 1 ------------------------------------------------------------------

def test_criterion_1_rank_one_quadratic():
    grid = [F(1, 2), F(1), F(3, 2), F(2), F(3)]
    t0 = time.time()
    checked = 0
    for a in grid:
        for b in grid:
            if a >= b:
                for eps1, epsm1 in itertools.product((1, -1), repeat=2):
                    assert verify_quadratic(a, b, eps1, epsm1), (a, b, eps1, epsm1)
                    checked += 1
    elapsed = time.time() - t0
    assert checked == 60
    assert elapsed < 30, f"grid sweep took {elapsed:.1f}s (budget 30s)"
    report(1, "rank-one quadratic relation")


# -- criterion 2 ------------------------------------------------------------------

def _test_data():
    from mphecke.rootdata import build_O_datum

    d1, _ = classical_datum("GL", 2)
    d2, _ = classical_datum("GL", 3)
    d3, _ = classical_datum("SO_odd", 5)
    d4 = build_O_datum([("A1", 2, 1), ("A1", 2, 1)], 4)
    return [
        ("A1", d1, HeckeParams(d1, (F(1),))),
        ("A2", d2, HeckeParams(d2, (F(1), F(1)))),
        ("B2", d3, HeckeParams(d3, (F(1), F(3, 2)), {0: F(1, 2)})),
        ("A1xA1", d4, HeckeParams(d4, (F(1), F(3, 2)))),
    ]


def _random_hecke(rng, d, p):
    out = HeckeElement.zero(d, p)
    ws = [d.simple_reflection(i) for i in range(d.num_simples())]
    ws.append(WeylElement.identity(d.rank))
    for _ in range(2):
        vec = tuple(rng.randint(-3, 3) for _ in range(d.rank))
        coeff = QLaurent({4 * rng.randint(0, 1): F(rng.randint(-3, 3))})
        ga = GA.monomial(vec, coeff)
        if not ga.is_zero():
            out = out + HeckeElement.from_u(d, p, rng.choice(ws), ga)
    return out


def test_criterion_2_hecke_presentation():
    t0 = time.time()
    rng = random.Random(20250809)
    both_coroot_cases = {True: False, False: False}
    for name, d, p in _test_data():
        for i in range(d.num_simples()):
            both_coroot_cases[p.simples[i].special] = True
        one = HeckeElement.one(d, p)
        for i in range(d.num_simples()):
            u = HeckeElement.u_simple(d, p, i)
            assert he_mul(u + one, u - one.scale(p.q_alpha(i))).is_zero(), name
        for i in range(d.num_simples()):
            for j in range(i + 1, d.num_simples()):
                m = braid_order(i, j, d)
                ui, uj = HeckeElement.u_simple(d, p, i), HeckeElement.u_simple(d, p, j)
                lhs, rhs = ui, uj
                for k in range(1, m):
                    lhs = he_mul(lhs, uj if k % 2 else ui)
                    rhs = he_mul(rhs, ui if k % 2 else uj)
                assert lhs == rhs, name
        for _ in range(100):
            x, y, z = (_random_hecke(rng, d, p) for _ in range(3))
            assert he_mul(he_mul(x, y), z) == he_mul(x, he_mul(y, z)), name
    assert both_coroot_cases[True] and both_coroot_cases[False], \
        "both commutation-rule branches must be exercised"
    elapsed = time.time() - t0
    assert elapsed < 60, f"relation suite took {elapsed:.1f}s (budget 60s)"
    report(2, "Hecke presentation relations")


# -- criterion 3 ------------------------------------------------------------------

def _orbit_sum(d, p, lam):
    vecs = sorted({w.act(lam) for w in weyl_enumerate(d)})
    out = HeckeElement.zero(d, p)
    for v in vecs:
        out = out + HeckeElement.from_z(d, p, v)
    return out


def test_criterion_3_center():
    d1, _ = classical_datum("GL", 2)
    p1 = HeckeParams(d1, (F(1),))
    for lam in [(1, 0), (1, 1), (2, 0), (1, -1)]:
        assert is_central(_orbit_sum(d1, p1, lam))
    assert not is_central(HeckeElement.from_z(d1, p1, (1, 0)))

    d2, _ = classical_datum("SO_odd", 5)
    p2 = HeckeParams(d2, (F(1), F(3, 2)), {0: F(1, 2)})
    for lam in [(1, 0), (1, 1), (2, 0)]:
        assert is_central(_orbit_sum(d2, p2, lam))
    assert not is_central(HeckeElement.from_z(d2, p2, (0, 1)))
    report(3, "center test")


# -- criterion 4 ------------------------------------------------------------------

def test_criterion_4_classification_table():
    L = CuspidalLine
    fixtures = [
        # descriptor, expected component labels, expected |R|
        (BlockDescriptor("Mp", 1, (L(1, 3, True, True, True),)), ["B3"], 1),
        (BlockDescriptor("Mp", 2, (L(1, 1, True, True, True),)), ["B1"], 1),
        (BlockDescriptor("Sp", 0, (L(1, 3, True, True, True),)), ["C3"], 1),
        (BlockDescriptor("SO_odd", 0, (L(1, 2, True, True, True),)), ["B2"], 1),
        (BlockDescriptor("Mp", 1, (L(1, 4, True, False, True),)), ["D4"], 2),
        (BlockDescriptor("Mp", 1, (L(1, 2, True, False, True),)), ["D2"], 2),
        (BlockDescriptor("Mp", 1, (L(1, 1, True, False, True),)), ["D1"], 2),
        (BlockDescriptor("Mp", 1, (L(1, 3, True, False, False),)), ["A2"], 1),
        (BlockDescriptor("Mp", 2, (L(1, 3, False, True, True),)), ["B1", "B1", "B1"], None),
        (BlockDescriptor("Mp", 1, (L(1, 3, False, False, False),)), ["empty"], 6),
        (BlockDescriptor("GL", 0, (L(2, 3, True, False, False),)), ["A2"], 1),
        (BlockDescriptor("GL", 0, (L(2, 3, False, False, False),)), ["empty"], 6),
    ]
    assert len(fixtures) == 12
    for bd, labels, r_order in fixtures:
        cb = classify(bd)
        assert [c.label for c in cb.components] == labels, bd
        if r_order is not None:
            assert cb.r_order == r_order, bd
        assert cb.wmo_order == cb.w_o_order * cb.r_order

    # R-group structure: Z/2 per D-component, symmetric groups for GL lines
    cb = classify(BlockDescriptor("Mp", 1, (L(1, 4, True, False, True),)))
    assert cb.r_order == 2
    g = cb.r_generators[0]
    assert g.act((0, 0, 1, -1)) == (0, 0, 1, 1)   # exchanges the fork roots
    cb_gl = classify(BlockDescriptor("GL", 0, (L(2, 4, False, False, False),)))
    assert cb_gl.r_order == 24                        # S_4

    rng = random.Random(4)
    for _ in range(20):
        ambient = rng.choice(["Mp", "Sp", "SO_odd", "GL"])
        lines = []
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(1, 3)
            sd = rng.random() < 0.7
            pole = sd and rng.random() < 0.5
            lines.append(L(rng.randint(1, 2), k, rng.random() < 0.5, pole, sd))
        cb = classify(BlockDescriptor(ambient, rng.randint(0, 2), tuple(lines)))
        assert cb.wmo_order == cb.w_o_order * cb.r_order
    report(4, "classification table")


# -- criterion 5 ------------------------------------------------------------------

def _brute_force_S(cls, m):
    out = set()
    for ap in range(0, m + 1):
        for am in range(0, m + 1):
            used = member_dim(ap, cls.kappa_plus) + member_dim(am, cls.kappa_minus)
            for m_gl in range(0, m // 2 + 1):
                if used + 2 * m_gl == m:
                    out.add((ap, am, m_gl))
    return out


def test_criterion_5_s_enumeration():
    # the three case shapes of the size-parity identity
    for cls in (FF, TF, TT):
        for m in range(0, 9):
            expected = _brute_force_S(cls, m)
            assert set(_class_choices(cls, m)) == expected, (cls.label, m)
            if (cls.d * m) % 2 == 0 and m > 0:
                p0 = NormedParameter(cls.d * m // 2, POOL, ((cls.label, m),))
                assert {s.get(cls.label) for s in enumerate_S(p0)} == expected
    report(5, "anchor-choice enumeration vs brute force")


# -- criterion 6 ------------------------------------------------------------------

def _brute_force_alt_count(p):
    entries = list(p.jord)
    count = 0
    for signs in itertools.product((1, -1), repeat=len(entries)):
        table = dict(zip(entries, signs))
        ok = True
        for label, minus in p.members():
            blocks = p.member_blocks(label, minus)
            first = table[JordEntry(label, minus, blocks[0])]
            if not p.member_of_type(label, minus) and first != -1:
                ok = False
                break
            for idx, a in enumerate(blocks):
                if table[JordEntry(label, minus, a)] != first * (-1) ** idx:
                    ok = False
                    break
            if not ok:
                break
        count += ok
    return count


def _without_holes_parameters(max_dim):
    members = []
    for c in POOL:
        if c.self_dual:
            members.append((c, False))
            members.append((c, True))
    out = []

    def rec(i, budget, jord, n_type):
        if i == len(members):
            out.append((tuple(jord), n_type))
            return
        cls, minus = members[i]
        kappa = 1 if cls.member_of_type(minus) else 0
        depth = 0
        while True:
            dim = cls.d * member_dim(depth, kappa)
            if dim > budget:
                break
            entries = [JordEntry(cls.label, minus, 2 * k - kappa)
                       for k in range(1, depth + 1)]
            rec(i + 1, budget - dim, jord + entries,
                n_type + (1 if kappa and depth >= 1 else 0))
            depth += 1

    rec(0, max_dim, [], 0)
    return out


def test_criterion_6_alternating_character_count():
    params = _without_holes_parameters(12)
    assert len(params) > 100
    for jord, n_type in params:
        p = DiscreteParameter(POOL, jord)
        chars = enumerate_alt_chars(p)
        assert len(chars) == 2 ** n_type, jord
        assert len(chars) == _brute_force_alt_count(p), jord
    report(6, "alternating-character count")


# -- criterion 7 ------------------------------------------------------------------

def test_criterion_7_hecke_matching():
    params = pool_parameters(6)
    assert len(params) > 300
    swaps = 0
    for p0 in params:
        rep = verify_match(p0)
        assert rep["mismatches"] == 0, p0.to_json()
        swaps += sum(1 for r in rep["rows"] if r["swapped"])
    assert swaps > 0, "the unitary argument swap must occur in the pool"
    report(7, "Hecke matching against classical towers")


# -- criterion 8 ------------------------------------------------------------------

def test_criterion_8_weil_example():
    for n in (1, 2, 3):
        w = weil_example(n)
        even = w["even"]["presentation"]
        assert even["kind"] == "SO_odd" and even["size"] == 2 * n + 1
        assert even["exponents"] == [1] * n and even["qi"] == 0
        assert w["even"]["display_matches_reference"]
        odd = w["odd"]["presentation"]
        assert odd["kind"] == "SO_odd" and odd["size"] == 2 * n - 1
        if n >= 2:
            assert odd["exponents"] == [1] * (n - 2) + [2]
            assert odd["special"] == 2 and odd["qi"] == 1
        assert not w["odd"]["display_matches_reference"], \
            "the reference-display discrepancy must be flagged"
    report(8, "Weil-representation blocks")


# -- criterion 9 ------------------------------------------------------------------

def _signed_alternating_counts(members):
    """{+1: n, -1: n'}: the alternating sign vectors on one anchor's Jordan blocks
    by the product of their signs, found by trying every vector.

    ``members`` lists (number of blocks, kappa) per member.  Signs alternate
    down each member's staircase, and a member with kappa = 0 starts at -1.
    """
    counts = {1: 0, -1: 0}
    for signs in itertools.product((1, -1), repeat=sum(a for a, _ in members)):
        pos, ok = 0, True
        for a, kappa in members:
            run = signs[pos:pos + a]
            pos += a
            if a and not kappa and run[0] != -1:
                ok = False
            if any(run[k] != -run[k - 1] for k in range(1, a)):
                ok = False
        if ok:
            counts[math.prod(signs)] += 1
    return counts


def _presentation_key(hecke):
    """A block's presentations as a sorted tuple of (class label, presentation)."""
    return tuple(sorted(hecke.items()))


def _split_by_sign_vectors(p0):
    """{+1: Counter, -1: Counter}: the presentation keys of p0's blocks per central
    sign, with no call into ``mpparams``'s enumeration.  The anchor choices come
    from ``_brute_force_S`` per class, the presentations from ``hecke_for_block``
    per class and choice, and each choice's key counts once per sign vector."""
    classes = [c for c in p0.classes if c.self_dual and p0.m(c.label) > 0]
    fixed = {c.label: hecke_for_block(p0, SChoice(()), c) for c in p0.support() if not c.self_dual}
    towers = {1: Counter(), -1: Counter()}
    for combo in itertools.product(*(sorted(_brute_force_S(c, p0.m(c.label))) for c in classes)):
        members = [mem for c, (ap, am, _) in zip(classes, combo)
                   for mem in ((ap, c.kappa_plus), (am, c.kappa_minus))]
        key = _presentation_key({**fixed, **{c.label: hecke_for_block(p0, SChoice(((c.label,) + triple,)), c)
                                             for c, triple in zip(classes, combo)}})
        for sign, n in _signed_alternating_counts(members).items():
            if n:
                towers[sign][key] += n
    return towers


def test_criterion_9_mp_so_split():
    for p0 in pool_parameters(6):
        blocks = list(enumerate_blocks(p0).records())
        parts = split_so(p0)
        assert len(parts[1]) + len(parts[-1]) == len(blocks)
        mp_side = Counter(_presentation_key(b["hecke"]) for b in blocks)
        so_side = Counter(_presentation_key(b["hecke"]) for sign in (1, -1) for b in parts[sign])
        assert mp_side == so_side, p0.to_json()
    # each tower's size and presentations against a count that never reads epsilon_Z
    towers = Counter()
    for p0 in pool_parameters(8):
        parts = split_so(p0)
        expected = _split_by_sign_vectors(p0)
        sizes = {sign: sum(expected[sign].values()) for sign in (1, -1)}
        assert (len(parts[1]), len(parts[-1])) == (sizes[1], sizes[-1]), p0.to_json()
        for sign in (1, -1):
            assert Counter(_presentation_key(b["hecke"]) for b in parts[sign]) == expected[sign], \
                (p0.to_json(), sign)
        towers.update(sizes)
    assert towers[1] and towers[-1]
    report(9, "metaplectic/orthogonal block split")


# -- criterion 10 -----------------------------------------------------------------

def test_criterion_10_chamber_criteria():
    a1, _ = classical_datum("GL", 2)
    b2, _ = classical_datum("SO_odd", 5)
    a1_co = a1.simple_pairs()[0][1]
    b2_co1, b2_co2 = (c for _, c in b2.simple_pairs())

    def char(nu):
        return ExponentChar("1", tuple(F(x) for x in nu))

    neg_a1 = char(a1_co)                                      # real part -alpha^
    zero2 = char((0, 0))
    pos_a1 = char(tuple(-x for x in a1_co))                   # real part +alpha^
    off_span = char((1, 1))                                    # real part outside span
    neg_b2_both = char(tuple(x + y for x, y in zip(b2_co1, b2_co2)))
    neg_b2_first = char(b2_co1)                                # boundary of the closed cone
    mixed_b2 = char(tuple(x - y for x, y in zip(b2_co1, b2_co2)))
    pos_b2 = char(tuple(-x for x in b2_co1))

    cases = [
        # (datum, exponents, central, tempered?, sqint?)
        (a1, [neg_a1], [(1, 1)], True, True),
        (a1, [zero2], [(1, 1)], True, False),
        (a1, [pos_a1], [(1, 1)], False, False),
        (a1, [off_span], [(1, 1)], False, False),
        (b2, [neg_b2_both], [], True, True),
        (b2, [zero2], [], True, False),
        (b2, [neg_b2_first], [], True, False),   # closed chamber boundary
        (b2, [mixed_b2], [], False, False),
        (b2, [pos_b2], [], False, False),
    ]
    assert len(cases) == 9
    for d, exps, central, want_t, want_s in cases:
        assert tempered_check(exps, d) is want_t, (exps, "tempered")
        assert sqint_check(exps, central, d) is want_s, (exps, "square-integrable")
    report(10, "tempered / square-integrable chamber criteria")


# -- criterion 11 -----------------------------------------------------------------

def test_criterion_11_jord_roundtrip():
    from mphecke.mpparams import jord_from_x, without_holes, x_from_jord
    for twice_x in range(2, 10):
        x = F(twice_x, 2)
        of_type = (twice_x % 2 == 0)
        label = "tf" if of_type else "ff"
        p = DiscreteParameter(POOL, tuple(jord_from_x(label, x)))
        assert without_holes(p)
        assert x_from_jord(p, label) == x, x
    report(11, "Jordan-data / reducibility-point roundtrip")
