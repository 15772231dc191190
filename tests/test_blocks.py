import random
from fractions import Fraction

import pytest

from mphecke.blocks import (
    BlockDescriptor,
    CuspidalLine,
    DescriptorError,
    InvalidInvariants,
    classify,
    hecke_from_block,
    r_group,
    semidirect_orders,
)
from mphecke.rootdata import WeylElement, group_closure

F = Fraction


def line(d=1, k=2, gl_singular=True, boundary_pole=True, self_dual_T=True, tau_T=False):
    return CuspidalLine(d, k, gl_singular, boundary_pole, self_dual_T, tau_T)


def labels(cb):
    return [c.label for c in cb.components]


# -- descriptor validation -------------------------------------------------------

def test_boundary_pole_forces_self_duality():
    with pytest.raises(DescriptorError):
        CuspidalLine(1, 2, True, True, False)


def test_so_even_h_rank_one_rejected():
    with pytest.raises(DescriptorError):
        BlockDescriptor("SO_even", 1, (line(),))
    BlockDescriptor("SO_even", 2, (line(),))


def test_unknown_ambient():
    with pytest.raises(DescriptorError):
        BlockDescriptor("E8", 0, (line(),))


@pytest.mark.parametrize("field, value", [
    ("d", True), ("k", "2"), ("gl_singular", 1), ("boundary_pole", "yes"),
    ("self_dual_T", None), ("tau_T", 0)])
def test_cuspidal_line_coerces_no_field(field, value):
    with pytest.raises(DescriptorError, match=repr(field)):
        line(**{field: value})


@pytest.mark.parametrize("h_rank", [True, "1", 1.0])
def test_descriptor_h_rank_must_be_an_int(h_rank):
    with pytest.raises(DescriptorError, match="'h_rank'"):
        BlockDescriptor("Mp", h_rank, (line(),))


# -- the classification table -----------------------------------------------------

def test_mp_pole_gives_B():
    cb = classify(BlockDescriptor("Mp", 2, (line(k=3),)))
    assert labels(cb) == ["B3"]
    assert cb.components[0].base == ((1, -1, 0), (0, 1, -1), (0, 0, 1))


def test_sp_rank0_pole_gives_C():
    cb = classify(BlockDescriptor("Sp", 0, (line(k=3),)))
    assert labels(cb) == ["C3"]
    assert cb.components[0].base[-1] == (0, 0, 2)


def test_so_odd_rank0_pole_still_B():
    cb = classify(BlockDescriptor("SO_odd", 0, (line(k=2),)))
    assert labels(cb) == ["B2"]


def test_no_pole_self_dual_gives_D():
    cb = classify(BlockDescriptor("Mp", 1, (line(k=4, boundary_pole=False),)))
    assert labels(cb) == ["D4"]
    assert cb.components[0].base == (
        (1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1))


def test_no_pole_not_self_dual_gives_A():
    cb = classify(BlockDescriptor("Mp", 1, (line(k=3, boundary_pole=False, self_dual_T=False),)))
    assert labels(cb) == ["A2"]


def test_gl_regular_pole_gives_B1_copies():
    cb = classify(BlockDescriptor("Mp", 2, (line(k=3, gl_singular=False),)))
    assert labels(cb) == ["B1", "B1", "B1"]
    assert [c.base for c in cb.components] == [
        ((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),)]


def test_gl_regular_pole_rank0_gives_C1_copies():
    cb = classify(BlockDescriptor("Sp", 0, (line(k=2, gl_singular=False),)))
    assert labels(cb) == ["C1", "C1"]


def test_gl_regular_no_pole_drops_to_empty():
    cb = classify(BlockDescriptor("Mp", 1, (line(k=3, gl_singular=False, boundary_pole=False),)))
    assert labels(cb) == ["empty"]


def test_gl_ambient_cases():
    cb = classify(BlockDescriptor("GL", 0, (line(k=3, boundary_pole=False, self_dual_T=False),)))
    assert labels(cb) == ["A2"]
    cb2 = classify(BlockDescriptor("GL", 0, (line(k=3, gl_singular=False, boundary_pole=False,
                                                  self_dual_T=False),)))
    assert labels(cb2) == ["empty"]


def test_d_ambient_tau_flag_consulted():
    # even special orthogonal ambient, odd d: D requires both self-conjugacy flags
    l_yes = line(d=1, k=2, boundary_pole=False, tau_T=True)
    l_no = line(d=1, k=2, boundary_pole=False, tau_T=False)
    assert labels(classify(BlockDescriptor("SO_even", 2, (l_yes,)))) == ["D2"]
    assert labels(classify(BlockDescriptor("SO_even", 2, (l_no,)))) == ["A1"]
    # even d: tau flag not consulted
    l_even_d = CuspidalLine(2, 2, True, False, True, False)
    assert labels(classify(BlockDescriptor("SO_even", 2, (l_even_d,)))) == ["D2"]


def test_degenerate_labels_kept():
    cb = classify(BlockDescriptor("Mp", 1, (line(k=1, boundary_pole=False),)))
    assert labels(cb) == ["D1"]
    cb2 = classify(BlockDescriptor("Mp", 1, (line(k=1),)))
    assert labels(cb2) == ["B1"]
    cb3 = classify(BlockDescriptor("Mp", 1, (line(k=2, boundary_pole=False),)))
    assert labels(cb3) == ["D2"]


def test_multiline_mixed():
    bd = BlockDescriptor("Mp", 1, (
        line(k=2),                                           # B2
        line(k=3, boundary_pole=False),                      # D3
        line(k=2, boundary_pole=False, self_dual_T=False),   # A1
    ))
    cb = classify(bd)
    assert labels(cb) == ["B2", "D3", "A1"]
    assert cb.w_o_order == 8 * 24 * 2


def test_base_positivity_count():
    # |positive roots| = |Sigma|/2 per component, via the emitted datum
    from mphecke.rootdata import build_O_datum, matrix_rank
    expected_pos = {"B3": 9, "D4": 12, "A2": 3, "B1": 1, "C3": 9, "D2": 2}
    for bd, want in [
        (BlockDescriptor("Mp", 1, (line(k=3),)), "B3"),
        (BlockDescriptor("Mp", 1, (line(k=4, boundary_pole=False),)), "D4"),
        (BlockDescriptor("Mp", 1, (line(k=3, boundary_pole=False, self_dual_T=False),)), "A2"),
        (BlockDescriptor("Sp", 0, (line(k=3),)), "C3"),
        (BlockDescriptor("Mp", 1, (line(k=2, boundary_pole=False),)), "D2"),
    ]:
        cb = classify(bd)
        assert cb.components[0].label == want
        n = bd.ambient_rank
        d = build_O_datum([(c.label, len(c.slots), 1) for c in cb.components], n)
        assert len(d.pos_roots) == expected_pos[want]
        base = [list(v) for v in cb.components[0].base]
        if base:
            assert matrix_rank(base) == len(base)  # linear independence


# -- R-groups ------------------------------------------------------------------------

def test_r_group_d_line_is_z2():
    bd = BlockDescriptor("Mp", 1, (line(k=4, boundary_pole=False),))
    cb = classify(bd)
    gens, report = r_group(bd, cb)
    assert cb.r_order == 2
    (g,) = gens
    # exchanges a_{k-1} and a_{k-1} + 2 a_k: the flip of the last coordinate
    assert g == WeylElement((0, 1, 2, 3), (1, 1, 1, -1))
    fork = (0, 0, 1, 1)
    sub = (0, 0, 1, -1)
    assert g.act(sub) == fork and g.act(fork) == sub


def test_r_group_b_line_trivial():
    bd = BlockDescriptor("Mp", 1, (line(k=3),))
    cb = classify(bd)
    assert cb.r_order == 1


def test_r_group_gl_symmetric():
    bd = BlockDescriptor("GL", 0, (CuspidalLine(2, 3, False, False, False),))
    cb = classify(bd)
    assert cb.r_order == 6  # S_3


def test_r_group_regular_line_with_flags():
    # gl-regular, self-dual, boundary regular: S_k, twisted swap and boundary flip
    bd = BlockDescriptor("Mp", 1, (CuspidalLine(1, 2, False, False, True),))
    cb = classify(bd)
    # <S_2, swap-flip, flip> is the full hyperoctahedral group of rank 2
    assert cb.r_order == 8
    # with a boundary pole the flip is withheld
    bd2 = BlockDescriptor("Mp", 1, (CuspidalLine(1, 2, False, True, True),))
    cb2 = classify(bd2)
    assert cb2.r_order == 4


def test_r_group_so_even_products():
    lines = (CuspidalLine(1, 1, True, False, True, False),
             CuspidalLine(3, 1, True, False, True, False))
    bd = BlockDescriptor("SO_even", 0, lines)
    cb = classify(bd)
    # each line alone: an empty D1 component, no individual flip allowed;
    # the product of the two boundary flips survives
    assert any(r["kind"] == "even boundary-flip products" for r in cb.r_report)
    prod = WeylElement((0, 1), (-1, -1))
    assert prod in group_closure(cb.r_generators, 2)


def test_extra_r_generators_flagged():
    bd = BlockDescriptor("Mp", 1, (line(k=2),))
    extra = WeylElement((1, 0), (1, 1))
    cb = classify(bd, extra_r_generators=(extra,))
    assert cb.r_external and cb.r_order == 2


# -- semidirect orders ------------------------------------------------------------------

def test_semidirect_orders_examples():
    cb = classify(BlockDescriptor("Mp", 1, (line(k=2),)))
    assert semidirect_orders(cb) == (8, 1, 8)
    cb2 = classify(BlockDescriptor("Mp", 1, (line(k=3, boundary_pole=False),)))
    assert semidirect_orders(cb2) == (24, 2, 48)
    cb3 = classify(BlockDescriptor("GL", 0, (CuspidalLine(2, 3, False, False, False),)))
    assert semidirect_orders(cb3) == (1, 6, 6)


def test_semidirect_orders_randomized():
    rng = random.Random(20250809)
    for _ in range(20):
        ambient = rng.choice(["Mp", "Sp", "SO_odd", "GL"])
        lines = []
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(1, 3)
            gl_singular = rng.random() < 0.5
            self_dual = rng.random() < 0.7
            pole = self_dual and rng.random() < 0.5
            lines.append(CuspidalLine(rng.randint(1, 2), k, gl_singular, pole, self_dual))
        bd = BlockDescriptor(ambient, rng.randint(0, 2), tuple(lines))
        cb = classify(bd)
        w, r, wmo = semidirect_orders(cb)
        assert wmo == w * r
        assert wmo == cb.wmo_order


def test_classify_is_deterministic():
    bd = BlockDescriptor("Mp", 2, (line(k=3), line(k=2, boundary_pole=False)))
    assert classify(bd).to_json() == classify(bd).to_json()


# -- presentations -------------------------------------------------------------------------

def test_hecke_from_block_b2():
    cb = classify(BlockDescriptor("Mp", 1, (line(k=2),)))
    pres = hecke_from_block(cb, [(F(1), F(0)), (F(3, 2), F(1, 2))])
    assert pres.alpha_exponents == (F(1), F(2))
    assert pres.qi_exponents == ((0, F(1)),)


def test_hecke_from_block_equal_parameter_A():
    cb = classify(BlockDescriptor("Mp", 1, (line(k=3, boundary_pole=False, self_dual_T=False),)))
    pres = hecke_from_block(cb, [(F(1), F(0)), (F(1), F(0))])
    assert pres.alpha_exponents == (F(1), F(1))
    assert pres.qi_exponents == ()


def test_hecke_from_block_c_to_b_conversion():
    cb = classify(BlockDescriptor("Sp", 0, (line(k=2),)))
    pres = hecke_from_block(cb, [(F(1), F(0)), (F(2), F(1))])
    assert [c.letter for c in pres.datum.components] == ["B"]
    # the converted short root has coroot 2 e_2, so q_i is carried
    assert pres.qi_exponents == ((0, F(1)),)


def test_hecke_from_block_rejects_minus_on_type_A():
    cb = classify(BlockDescriptor("Mp", 1, (line(k=3, boundary_pole=False, self_dual_T=False),)))
    with pytest.raises(InvalidInvariants):
        hecke_from_block(cb, [(F(1), F(1, 2)), (F(1), F(0))])


def test_hecke_from_block_rejects_unordered_pair():
    cb = classify(BlockDescriptor("Mp", 1, (line(k=2),)))
    with pytest.raises(InvalidInvariants):
        hecke_from_block(cb, [(F(1), F(0)), (F(1, 2), F(1))])


def test_hecke_from_block_rejects_unequal_conjugates():
    cb = classify(BlockDescriptor("Mp", 1, (line(k=3, boundary_pole=False),)))
    assert [c.label for c in cb.components] == ["D3"]
    with pytest.raises(InvalidInvariants):
        hecke_from_block(cb, [(F(1), F(0)), (F(2), F(0)), (F(1), F(0))])
    pres = hecke_from_block(cb, [(F(1), F(0))] * 3)
    assert pres.alpha_exponents == (F(1), F(1), F(1))


def test_descriptor_json_roundtrip():
    bd = BlockDescriptor("Mp", 2, (line(k=3), line(k=2, boundary_pole=False)))
    assert BlockDescriptor.from_json(bd.to_json()) == bd


def _d2_with_flip():
    bd = BlockDescriptor.from_json({
        "ambient": "SO_odd", "h_rank": 1,
        "lines": [{"d": 1, "k": 2, "gl_singular": True, "boundary_pole": False,
                   "self_dual_T": True, "tau_T": True}]})
    cb = classify(bd)
    assert labels(cb) == ["D2"]
    assert cb.r_generators == (WeylElement((0, 1), (1, -1)),)
    return cb


def test_hecke_from_block_rejects_r_swapping_unequal_parameters():
    # D2's two simple roots are not conjugate, so a(alpha_1) = 1 and
    # a(alpha_2) = 2 are valid parameters; but the flip in R swaps them
    cb = _d2_with_flip()
    with pytest.raises(InvalidInvariants, match="other parameters"):
        hecke_from_block(cb, [(F(1), F(0)), (F(2), F(0))])
    pres = hecke_from_block(cb, [(F(1), F(0)), (F(1), F(0))])
    assert pres.alpha_exponents == (F(1), F(1))
    assert pres.r_generators == cb.r_generators


def test_hecke_from_block_rejects_r_swapping_unequal_qi():
    # two B1 copies swapped by R: equal a(alpha) = 3, but q_i = q^1 against q^3
    cb = classify(BlockDescriptor("Mp", 1, (line(k=2, gl_singular=False),)))
    assert labels(cb) == ["B1", "B1"]
    with pytest.raises(InvalidInvariants, match="other parameters"):
        hecke_from_block(cb, [(F(2), F(1)), (F(3), F(0))])
    pres = hecke_from_block(cb, [(F(2), F(1)), (F(2), F(1))])
    assert pres.qi_exponents == ((0, F(1)), (1, F(1)))
