import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest

from mphecke import mpparams
from mphecke.cli import main
from mphecke.mpparams import (
    DiscreteParameter,
    InertialClass,
    JordEntry,
    MpHeckePresentation,
    NormedParameter,
    ParameterError,
    SChoice,
    anchor_parameter,
    classical_hecke,
    classical_match,
    count_blocks,
    count_match_rows,
    enumerate_S,
    enumerate_alt_chars,
    enumerate_blocks,
    epsilon_Z,
    first_occurrence_x,
    hecke_for_block,
    jord_from_x,
    member_dim,
    split_so,
    verify_match,
    weil_example,
    without_holes,
    x_from_jord,
)

F = Fraction

# the archetype pool: non-self-dual plus the four type combinations
GL_CLS = InertialClass("gl", d=1, t=1, self_dual=False)
FF = InertialClass("ff", d=1, t=1, self_dual=True)
TF = InertialClass("tf", d=1, t=1, self_dual=True, type_plus=True)
FT = InertialClass("ft", d=1, t=2, self_dual=True, type_minus=True)
TT = InertialClass("tt", d=1, t=1, self_dual=True, type_plus=True, type_minus=True)
TT2 = InertialClass("tt2", d=1, t=2, self_dual=True, type_plus=True, type_minus=True)
POOL = (GL_CLS, FF, TF, FT, TT, TT2)


def normed(n, **mult):
    return NormedParameter(n, POOL, tuple(mult.items()))


def pool_parameters(max_2n):
    """All normed parameters over the pool with 2 <= 2n <= max_2n."""
    out = []
    for n2 in range(2, max_2n + 1, 2):
        caps = [range(0, n2 // (c.d * (1 if c.self_dual else 2)) + 1) for c in POOL]
        for ms in itertools.product(*caps):
            total = sum(m * c.d * (1 if c.self_dual else 2) for m, c in zip(ms, POOL))
            if total == n2 and any(ms):
                out.append(NormedParameter(
                    n2 // 2, POOL, tuple((c.label, m) for c, m in zip(POOL, ms))))
    return out


# -- basic validation ----------------------------------------------------------

def test_dimension_identity_enforced():
    with pytest.raises(ParameterError):
        NormedParameter(2, POOL, (("ff", 3),))
    NormedParameter(2, POOL, (("ff", 4),))
    NormedParameter(2, POOL, (("gl", 2),))  # dual pairs count twice


def test_type_flags_need_self_duality():
    with pytest.raises(ParameterError):
        InertialClass("x", self_dual=False, type_plus=True)


@pytest.mark.parametrize("field, value", [
    ("label", None), ("label", 1), ("d", True), ("d", "2"), ("t", 1.0),
    ("self_dual", 1), ("type_plus", "no"), ("type_minus", None)])
def test_inertial_class_coerces_no_field(field, value):
    fields = {"label": "x", "d": 1, "t": 1, "self_dual": True, "type_plus": False,
              "type_minus": False, field: value}
    with pytest.raises(ParameterError, match=repr(field)):
        InertialClass(**fields)


@pytest.mark.parametrize("n, mult", [
    (2, (("ff", "4"),)), (1, (("ff", True),)), (2, (("ff", 4.0),)), (2, (("ff", F(4)),)),
    (True, (("ff", 2),)), ("2", (("ff", 4),))])
def test_normed_parameter_coerces_no_count(n, mult):
    # "4" was read as 4 and True as 1; now only a plain int is a count
    with pytest.raises(ParameterError, match="'multiplicity'|'n'"):
        NormedParameter(n, POOL, mult)


def test_normed_parameter_keeps_its_labels():
    # a multiplicity keyed by 1 names no class labelled "1"
    one = InertialClass("1", self_dual=True)
    with pytest.raises(ParameterError, match="unknown class"):
        NormedParameter(1, (one,), ((1, 2),))
    assert NormedParameter(1, (one,), (("1", 2),)).m("1") == 2


# -- without_holes ----------------------------------------------------------------

def test_without_holes_examples():
    p = DiscreteParameter(POOL, (JordEntry("ff", False, 2), JordEntry("ff", False, 4)))
    assert without_holes(p)
    p2 = DiscreteParameter(POOL, (JordEntry("ff", False, 4),))
    assert not without_holes(p2)
    assert without_holes(DiscreteParameter(POOL, ()))


def test_without_holes_parity():
    # a type member carries odd blocks only
    p = DiscreteParameter(POOL, (JordEntry("tf", False, 2),))
    assert not without_holes(p)
    assert without_holes(DiscreteParameter(POOL, (JordEntry("tf", False, 1),)))


# -- alternating characters ----------------------------------------------------------

def brute_force_alt_chars(p):
    entries = list(p.jord)
    out = []
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
        if ok:
            out.append(tuple(sorted(table.items())))
    return set(out)


def test_alt_char_count_examples():
    p = DiscreteParameter(POOL, (JordEntry("tf", False, 1), JordEntry("tf", False, 3)))
    chars = enumerate_alt_chars(p)
    assert len(chars) == 2
    vals = {tuple(c.sign(e) for e in p.jord) for c in chars}
    assert vals == {(1, -1), (-1, 1)}

    p2 = DiscreteParameter(POOL, (JordEntry("ff", False, 2),))
    chars2 = enumerate_alt_chars(p2)
    assert len(chars2) == 1 and chars2[0].sign(p2.jord[0]) == -1

    assert len(enumerate_alt_chars(DiscreteParameter(POOL, ()))) == 1


def test_alt_chars_match_brute_force():
    ps = [
        DiscreteParameter(POOL, (JordEntry("tf", False, 1), JordEntry("tf", False, 3),
                                 JordEntry("ff", False, 2))),
        DiscreteParameter(POOL, (JordEntry("tt", False, 1), JordEntry("tt", True, 1))),
        DiscreteParameter(POOL, (JordEntry("ff", False, 2), JordEntry("ff", True, 2),
                                 JordEntry("tf", False, 1))),
    ]
    for p in ps:
        ours = {tuple(c.signs) for c in enumerate_alt_chars(p)}
        assert ours == brute_force_alt_chars(p)


def test_alt_chars_reject_holes():
    p = DiscreteParameter(POOL, (JordEntry("ff", False, 4),))
    with pytest.raises(ParameterError):
        enumerate_alt_chars(p)


def test_epsilon_Z():
    p = DiscreteParameter(POOL, (JordEntry("tf", False, 1), JordEntry("tf", False, 3)))
    chars = enumerate_alt_chars(p)
    assert {epsilon_Z(c) for c in chars} == {-1}  # two blocks, opposite signs
    p2 = DiscreteParameter(POOL, (JordEntry("ff", False, 2),))
    assert epsilon_Z(enumerate_alt_chars(p2)[0]) == -1
    assert epsilon_Z(enumerate_alt_chars(DiscreteParameter(POOL, ()))[0]) == 1


# -- S enumeration ----------------------------------------------------------------------

def brute_force_S(cls, m):
    out = set()
    for ap in range(0, m + 1):
        for am in range(0, m + 1):
            used = member_dim(ap, cls.kappa_plus) + member_dim(am, cls.kappa_minus)
            for m_gl in range(0, m // 2 + 1):
                if used + 2 * m_gl == m:
                    out.add((ap, am, m_gl))
    return out


@pytest.mark.parametrize("cls,m,pad", [
    (FF, 4, None), (FF, 8, None), (FF, 7, "tf"),
    (TF, 8, None), (TF, 5, "tf2_pad"), (FT, 6, None),
    (TT, 5, "tf"), (TT, 8, None),
])
def test_enumerate_S_matches_brute_force(cls, m, pad):
    mult = [(cls.label, m)]
    total = cls.d * m
    if pad == "tf":
        mult.append(("tf", 1))
        total += 1
    elif pad == "tf2_pad":
        mult.append(("tt", 1))
        total += 1
    assert total % 2 == 0
    p0 = NormedParameter(total // 2, POOL, tuple(mult))
    ours = {s.get(cls.label) for s in enumerate_S(p0)}
    expected = brute_force_S(cls, m)
    if not expected:
        assert not enumerate_S(p0)
    else:
        assert ours == expected


def test_enumerate_S_examples():
    from mphecke.mpparams import _class_choices

    p0 = NormedParameter(2, POOL, (("ff", 4),))
    assert {s.get("ff") for s in enumerate_S(p0)} == {(0, 0, 2), (1, 0, 1), (0, 1, 1), (1, 1, 0)}
    p1 = NormedParameter(1, POOL, (("tt", 1), ("tf", 1)))
    assert {s.get("tt") for s in enumerate_S(p1)} == {(1, 0, 0), (0, 1, 0)}
    assert _class_choices(FF, 0) == [(0, 0, 0)]
    p2 = NormedParameter(1, POOL, (("gl", 1),))
    assert enumerate_S(p2) == [SChoice(())]


def test_schoice_dimension_bookkeeping():
    for p0 in pool_parameters(6):
        for S in enumerate_S(p0):
            total = 0
            for c in p0.support():
                if c.self_dual:
                    ap, am, m_gl = S.get(c.label)
                    total += c.d * (2 * m_gl + member_dim(ap, c.kappa_plus)
                                    + member_dim(am, c.kappa_minus))
                else:
                    total += 2 * c.d * p0.m(c.label)
            assert total == 2 * p0.n


# -- reducibility points -------------------------------------------------------------------

def test_jord_from_x_examples():
    assert [e.a for e in jord_from_x("ff", F(5, 2))] == [4, 2]
    assert jord_from_x("ff", F(1, 2)) == []
    assert jord_from_x("ff", 0) == []
    assert [e.a for e in jord_from_x("tf", 1)] == [1]
    with pytest.raises(ParameterError):
        jord_from_x("ff", F(1, 3))


def test_x_from_jord_examples():
    p_absent = DiscreteParameter(POOL, ())
    assert x_from_jord(p_absent, "ff") == F(1, 2)   # absent, not of type
    assert x_from_jord(p_absent, "tf") == 0          # absent, of type
    p = DiscreteParameter(POOL, (JordEntry("ff", False, 2), JordEntry("ff", False, 4)))
    assert x_from_jord(p, "ff") == F(5, 2)


def test_jord_roundtrip():
    for twice_x in range(2, 10):   # x = 1, 3/2, ..., 9/2
        x = F(twice_x, 2)
        of_type = (twice_x % 2 == 0)   # integer x <=> odd blocks <=> type member
        label = "tf" if of_type else "ff"
        entries = jord_from_x(label, x)
        p = DiscreteParameter(POOL, tuple(entries))
        assert without_holes(p)
        assert x_from_jord(p, label) == x


def test_first_occurrence_examples():
    assert first_occurrence_x(5, 11) == F(1, 2)
    assert first_occurrence_x(1, 1) == F(3, 2)
    assert first_occurrence_x(1, 7) == F(3, 2)
    with pytest.raises(ParameterError):
        first_occurrence_x(3, 4)


# -- presentations ----------------------------------------------------------------------------

def test_hecke_for_block_gl():
    p0 = NormedParameter(3, POOL, (("gl", 3),))
    (S,) = enumerate_S(p0)
    pres = hecke_for_block(p0, S, GL_CLS)
    assert pres == MpHeckePresentation("GL", 3, (F(1), F(1)), None, None, 1)


def test_hecke_for_block_weil_plus_shape():
    n = 3
    p0 = NormedParameter(n, (FF,), (("ff", 2 * n),))
    S = SChoice((("ff", 0, 0, n),))
    pres = hecke_for_block(p0, S, FF)
    assert pres.kind == "SO_odd" and pres.size == 2 * n + 1
    assert pres.exponents == (F(1),) * n
    assert pres.qi == 0


def test_hecke_for_block_extended_case():
    p0 = NormedParameter(2, POOL, (("tt", 4),))
    S = SChoice((("tt", 0, 0, 2),))
    pres = hecke_for_block(p0, S, TT)
    assert pres.kind == "SO_even_ext" and pres.extended
    assert pres.size == 4 and pres.exponents == (F(1), F(1))


def test_classical_hecke_examples():
    so = classical_hecke("SO_odd", 7, 0, 0)
    assert so.exponents == (F(1), F(1), F(1)) and so.qi == 0
    u = classical_hecke("U", 4, 0, 0)
    assert u.exponents[-1] == F(1, 2) and u.qi == F(1, 2)
    o = classical_hecke("O_even", 6, 0, 0)
    assert o.kind == "SO_even_ext" and o.extended
    o2 = classical_hecke("O_even", 6, 1, 1)
    assert o2.kind == "SO_odd" and o2.special == F(2) and o2.qi == 0


def test_classical_match_table():
    assert classical_match(GL_CLS, 5) == ("GL", 5)
    assert classical_match(FF, 4) == ("SO_odd", 5)
    assert classical_match(TF, 2) == ("U", 2)
    assert classical_match(FT, 2) == ("U", 2)
    assert classical_match(TT, 5) == ("Sp", 4)
    assert classical_match(TT, 4) == ("O_even", 4)


def test_verify_match_single_examples():
    rep = verify_match(NormedParameter(2, POOL, (("ff", 4),)))
    assert rep["mismatches"] == 0 and len(rep["rows"]) == 4
    rep2 = verify_match(NormedParameter(1, POOL, (("tt", 2),)))
    assert rep2["mismatches"] == 0
    rep3 = verify_match(NormedParameter(1, POOL, (("tf", 2),)))
    assert rep3["mismatches"] == 0


def test_verify_match_u_case_swap_engages():
    # type-carrying base, even multiplicity: the argument order must swap
    rep = verify_match(NormedParameter(2, POOL, (("tf", 4),)))
    assert rep["mismatches"] == 0
    swapped = [r for r in rep["rows"] if r["swapped"]]
    assert swapped, "expected at least one unitary-case argument swap"


def test_verify_match_pool():
    for p0 in pool_parameters(6):
        assert verify_match(p0)["mismatches"] == 0


# -- blocks and the split -----------------------------------------------------------------------

def test_enumerate_blocks_counts():
    p0 = NormedParameter(2, POOL, (("ff", 4),))
    blocks = list(enumerate_blocks(p0).records())
    per_S = Counter(tuple(b["S"].entries) for b in blocks)
    assert sum(per_S.values()) == len(blocks)
    for S in enumerate_S(p0):
        anchor = anchor_parameter(p0, S)
        assert per_S[tuple(S.entries)] == len(enumerate_alt_chars(anchor))


def test_split_so_partitions():
    for p0 in pool_parameters(6)[:40]:
        blocks = list(enumerate_blocks(p0).records())
        parts = split_so(p0)
        assert len(parts[1]) + len(parts[-1]) == len(blocks)
        mp_side = Counter(
            tuple(sorted((label, pres) for label, pres in b["hecke"].items()))
            for b in blocks)
        so_side = Counter(
            tuple(sorted((label, pres) for label, pres in b["hecke"].items()))
            for sign in (1, -1) for b in parts[sign])
        assert mp_side == so_side


def test_split_so_puts_unipotent_blocks_in_the_tower_of_t():
    """For the trivial class, each block lands in the tower of sign (-1)^t.

    Lusztig's classification of unipotent representations (IMRN 1995,
    no. 11) puts each unipotent cuspidal of SO_{2m+1} on a parahoric with
    reductive quotient SO_{2s^2+2s+1} x O^+-_{2t^2}, so m = s^2 + s + t^2.
    The anchor choice gives (s, t): {a+, a-} = {s + t, s - t} when
    a+ = a- (mod 2), and {s + t, t - s - 1} otherwise; its anchor
    dimension is then 2(s^2 + s + t^2).  This is independent of split_so,
    which reads the sign off the character.

    Assumption (the paper's abstract does not fix it): t odd means the
    non-split form, the minus tower.  It agrees with n = 1, where the odd
    Weil representation of Mp_2 matches the trivial representation of the
    anisotropic SO(V-) (Waldspurger; Gan-Savin, Compositio 148, 2012).
    """
    seen = Counter()
    for n in range(1, 7):
        parts = split_so(normed(n, ff=2 * n))
        for sign in (1, -1):
            for block in parts[sign]:
                (_, ap, am, _), = block["S"].entries
                if (ap - am) % 2 == 0:
                    s, t = (ap + am) // 2, abs(ap - am) // 2
                else:
                    s, t = (abs(ap - am) - 1) // 2, (ap + am + 1) // 2
                assert member_dim(ap, 0) + member_dim(am, 0) == 2 * (s * s + s + t * t)
                assert sign == (-1) ** t, (n, ap, am)
                seen[sign] += 1
    assert seen[1] > 0 and seen[-1] > 0


# -- the Weil blocks -------------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_weil_example(n):
    w = weil_example(n)
    even = w["even"]
    assert even["presentation"]["kind"] == "SO_odd"
    assert even["presentation"]["size"] == 2 * n + 1
    assert even["presentation"]["exponents"] == [1] * n
    assert even["presentation"]["qi"] == 0
    assert even["display_matches_reference"]
    assert even["epsilon_Z"] == 1

    odd = w["odd"]
    assert odd["presentation"]["kind"] == "SO_odd"
    assert odd["presentation"]["size"] == 2 * n - 1
    if n >= 2:
        assert odd["presentation"]["exponents"] == [1] * (n - 2) + [2]
        assert odd["presentation"]["special"] == 2
        assert odd["presentation"]["qi"] == 1
    assert not odd["display_matches_reference"]
    assert odd["epsilon_Z"] == -1


# -- the enumeration guard -------------------------------------------------------------------------

def test_counts_match_the_enumerations_on_the_pool():
    for p0 in pool_parameters(8):
        assert count_blocks(p0) == len(list(enumerate_blocks(p0).records())), p0.mult
        assert count_match_rows(p0) == len(verify_match(p0)["rows"]), p0.mult


def test_counts_of_a_large_parameter_are_arithmetic():
    # ten both-type classes of multiplicity 6 (n = 30): each has four anchor
    # choices, (0, 0, 3), (0, 1, 2), (1, 0, 2) and (1, 1, 1), with 1, 2, 2
    # and 4 characters; only the arithmetic runs here
    classes = tuple(InertialClass(f"t{i}", self_dual=True, type_plus=True, type_minus=True)
                    for i in range(10))
    p0 = NormedParameter(30, classes, tuple((c.label, 6) for c in classes))
    assert count_match_rows(p0) == 4 ** 10 * 10
    assert count_blocks(p0) == 9 ** 10
    assert count_blocks(p0) > mpparams.ENUMERATION_GUARD


@pytest.mark.parametrize("verb", ["mp-enumerate", "mp-match"])
def test_enumeration_guard_exits_2(tmp_path, capsys, monkeypatch, verb):
    p0 = NormedParameter(2, POOL, (("ff", 4),))
    assert count_blocks(p0) == count_match_rows(p0) == 4
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(p0.to_json()))
    monkeypatch.setattr(mpparams, "ENUMERATION_GUARD", 4)
    assert main([verb, str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(mpparams, "ENUMERATION_GUARD", 3)
    assert main([verb, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "4 " in captured.err and "exceed the enumeration guard of 3" in captured.err
