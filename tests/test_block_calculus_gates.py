"""Differential gates for the block-calculus verbs.

Each test checks a path of the CLI or of ``mpparams`` against an oracle
that is the straightforward form of the same computation:

* ``main(argv)`` against the full six-verb parser, on stdout, stderr and
  the exit code (``SystemExit`` included);
* the ``mp-enumerate`` and ``mp-match`` JSON against the per-(S, class)
  loops, kept here verbatim;
* ``enumerate_alt_chars`` against its per-member loops, kept verbatim;
* ``group_order`` (Schreier-Sims) against ``len(group_closure(...))``.
"""

import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from mphecke import blocks as blocks_mod
from mphecke import cli, mpparams
from mphecke.mpparams import (
    MpHeckePresentation,
    ParameterError,
    _scaled,
    anchor_parameter,
    classical_hecke,
    classical_match,
    enumerate_S,
    enumerate_alt_chars,
    epsilon_Z,
    hecke_for_block,
)
from mphecke.rootdata import WeylElement, group_closure, group_order

from test_mpparams import pool_parameters

# ---------------------------------------------------------------------------
# CLI: main against the full parser
# ---------------------------------------------------------------------------


def _full_parser_main(argv):
    """``main`` with the parser holding every verb."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except cli.InputError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except (mpparams.ParameterError, blocks_mod.DescriptorError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


def _observe(capsys, fn, argv):
    try:
        code = fn(list(argv))
    except SystemExit as e:
        code = ("SystemExit", e.code)
    out = capsys.readouterr()
    return code, out.out, out.err


PHI = {"schema": "v1", "n": 2,
       "classes": [{"label": "1", "d": 1, "t": 1, "self_dual": True,
                    "type_plus": False, "type_minus": False, "multiplicity": 4}]}
DESCRIPTOR = {"schema": "v1", "ambient": "Mp", "h_rank": 1,
              "lines": [{"d": 1, "k": 3, "gl_singular": True, "boundary_pole": True,
                         "self_dual_T": True, "tau_T": False}]}
VERB_NAMES = ("rankone-verify", "hecke-check", "blocks-classify", "mp-enumerate",
              "mp-match", "weil-example")

CLI_CASES = [
    (),
    ("-h",),
    ("--help",),
    ("no-such-verb",),
    ("no-such-verb", "{phi}"),
    ("--pretty", "weil-example", "--n", "1"),
    *[(verb, "--help") for verb in VERB_NAMES],
    ("blocks-classify",),
    ("mp-enumerate",),
    ("mp-match",),
    ("weil-example",),
    ("mp-enumerate", "a", "b"),
    ("mp-enumerate", "{phi}", "extra"),
    ("mp-match", "--bogus", "{phi}"),
    ("blocks-classify", "{descriptor}", "extra"),
    ("weil-example", "--n", "2", "extra"),
    ("weil-example", "--n", "x"),
    ("weil-example", "--n", "0"),
    ("weil-example", "--n"),
    ("hecke-check", "--max-rank", "1.5"),
    ("hecke-check", "--max-rank"),
    ("rankone-verify", "--grid", "nonsense"),
    ("rankone-verify", "--grid", "1/2..1"),
    ("hecke-check", "--max-rank", "1"),
    ("blocks-classify", "{descriptor}"),
    ("blocks-classify", "{descriptor}", "--pretty"),
    ("mp-enumerate", "{phi}"),
    ("mp-match", "{phi}"),
    ("weil-example", "--n", "2"),
    ("weil-example", "--n=2", "--pretty"),
    ("mp-enumerate", "/nonexistent/phi.json"),
]


@pytest.mark.parametrize("argv", CLI_CASES, ids=[" ".join(a) or "<empty>" for a in CLI_CASES])
def test_main_matches_the_full_parser(tmp_path, capsys, argv):
    paths = {}
    for name, spec in (("phi", PHI), ("descriptor", DESCRIPTOR)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(spec))
    argv = [a.format(**paths) for a in argv]
    assert _observe(capsys, cli.main, argv) == _observe(capsys, _full_parser_main, argv)


# ---------------------------------------------------------------------------
# mp-enumerate / mp-match: the per-(S, class) loops as the oracle
# ---------------------------------------------------------------------------


def _oracle_enumerate_blocks(p0):
    support = p0.support()
    matches = {cls.label: classical_match(cls, p0.m(cls.label)) for cls in support}
    out = []
    for S in enumerate_S(p0):
        chars = enumerate_alt_chars(anchor_parameter(p0, S))
        presentations = {cls.label: hecke_for_block(p0, S, cls) for cls in support}
        for eps in chars:
            out.append({
                "S": S,
                "epsilon": eps,
                "epsilon_Z": epsilon_Z(eps),
                "hecke": dict(presentations),
                "classical_match": dict(matches),
            })
    return out


def _oracle_mp_enumerate(p0, blocks=None):
    rows = []
    for b in _oracle_enumerate_blocks(p0) if blocks is None else blocks:
        rows.append({
            "S": b["S"].to_json(),
            "epsilon": b["epsilon"].to_json(),
            "epsilon_Z": b["epsilon_Z"],
            "hecke": {label: pres.to_json() for label, pres in b["hecke"].items()},
            "classical_match": {label: list(v) for label, v in b["classical_match"].items()},
        })
    return {"schema": "v1", "blocks": rows, "count": len(rows)}


def _oracle_verify_match(p0):
    rows = []
    mismatches = 0
    for S in enumerate_S(p0):
        for cls in p0.support():
            m = p0.m(cls.label)
            group, gsize = classical_match(cls, m)
            if not cls.self_dual:
                mp = hecke_for_block(p0, S, cls)
                classical = MpHeckePresentation("GL", m, (Fraction(1),) * max(m - 1, 0),
                                                None, None, 1)
                ok = mp == _scaled(classical, cls.t)
                rows.append({"S": S.to_json(), "class": cls.label, "group": group,
                             "matched": ok, "swapped": False})
                mismatches += 0 if ok else 1
                continue
            ap, am, _ = S.get(cls.label)
            mp = hecke_for_block(p0, S, cls)
            matched, swapped = False, False
            for swap in (False, True):
                args = (am, ap) if swap else (ap, am)
                try:
                    classical = classical_hecke(group, gsize, *args)
                except ParameterError:
                    continue
                if mp == _scaled(classical, cls.t):
                    matched, swapped = True, swap
                    break
            rows.append({"S": S.to_json(), "class": cls.label, "group": group,
                         "matched": matched, "swapped": swapped})
            mismatches += 0 if matched else 1
    return {"schema": "v1", "mismatches": mismatches, "rows": rows}


def _oracle_enumerate_alt_chars(p):
    if not mpparams.without_holes(p):
        raise ParameterError("parameter has holes; characters are undefined")
    member_entries = []
    for label, minus in p.members():
        entries = sorted((e for e in p.jord if (e.label, e.minus) == (label, minus)),
                         key=lambda e: e.a)
        member_entries.append(((label, minus), entries))
    free = [key for key, _ in member_entries if p.member_of_type(*key)]
    chars = []
    for choice in itertools.product((1, -1), repeat=len(free)):
        first_sign = dict(zip(free, choice))
        signs = []
        for key, entries in member_entries:
            s1 = first_sign.get(key, -1)
            for idx, e in enumerate(entries):
                signs.append((e, s1 * (-1) ** idx))
        chars.append(mpparams.AltChar(tuple(sorted(signs, key=lambda kv: kv[0]))))
    return chars


def test_alt_chars_match_the_per_member_loops():
    n = 0
    for p0 in pool_parameters(8):
        for S in enumerate_S(p0):
            anchor = anchor_parameter(p0, S)
            assert enumerate_alt_chars(anchor) == _oracle_enumerate_alt_chars(anchor)
            n += 1
    assert n == 6490


def _emitted(payload):
    return json.dumps(payload, sort_keys=True, default=cli._json_default,
                      separators=(",", ":")) + "\n"


def test_mp_json_matches_the_per_class_loops(tmp_path, capsys):
    params = pool_parameters(6)
    assert len(params) > 100
    path = tmp_path / "phi.json"
    for p0 in params:
        path.write_text(json.dumps(p0.to_json()))
        for verb, oracle in (("mp-enumerate", _oracle_mp_enumerate),
                             ("mp-match", _oracle_verify_match)):
            code = cli.main([verb, str(path)])
            out = capsys.readouterr().out
            assert code == 0
            assert out == _emitted(oracle(p0)), (verb, p0.mult)
        assert mpparams.verify_match(p0) == _oracle_verify_match(p0)
        assert list(mpparams.enumerate_blocks(p0).records()) == _oracle_enumerate_blocks(p0)


def _cls(label, **kw):
    return mpparams.InertialClass(label, **{"self_dual": True, **kw})


# parameters the pool does not reach, each with what it exercises
HAND_WRITTEN = [
    # labels that json.dumps escapes, in an order that is not the label order
    mpparams.NormedParameter(3, (_cls("zé", type_minus=True), _cls('a"b', type_plus=True),
                                 _cls("back\\slash", type_plus=True, type_minus=True)),
                             (("zé", 2), ('a"b', 2), ("back\\slash", 2))),
    # class order against label order: "b" before "a", and "9" before "10"
    mpparams.NormedParameter(3, (_cls("b", type_plus=True, type_minus=True), _cls("a", type_plus=True)),
                             (("b", 3), ("a", 3))),
    mpparams.NormedParameter(4, (_cls("9", type_plus=True), _cls("10", type_plus=True, type_minus=True, t=2)),
                             (("9", 4), ("10", 4))),
    # no blocks: a class with no type member has no choice at odd multiplicity
    mpparams.NormedParameter(2, (_cls("x", type_plus=True), _cls("odd")), (("x", 3), ("odd", 1))),
    # a non-self-dual class between two self-dual ones
    mpparams.NormedParameter(5, (_cls("s", type_plus=True), mpparams.InertialClass("gl", t=2),
                                 _cls("r", type_minus=True, t=3)), (("s", 3), ("gl", 2), ("r", 3))),
]


def test_hand_written_parameters_reach_their_cases():
    counts = [mpparams.count_blocks(p0) for p0 in HAND_WRITTEN]
    assert counts[3] == 0 and all(counts[:3]) and counts[4]
    labels = [[c.label for c in p0.support()] for p0 in HAND_WRITTEN]
    assert all(ls != sorted(ls) for ls in labels[:3])


def test_mp_enumerate_layouts_match_the_per_class_loops(tmp_path, capsys):
    params = pool_parameters(8) + HAND_WRITTEN
    assert len(params) == 1189 + len(HAND_WRITTEN)
    path, target = tmp_path / "phi.json", tmp_path / "report.json"
    layouts = (([], {"separators": (",", ":")}), (["--pretty"], {"indent": 2}))
    for p0 in params:
        path.write_text(json.dumps(p0.to_json()))
        blocks = _oracle_enumerate_blocks(p0)
        assert list(mpparams.enumerate_blocks(p0).records()) == blocks, p0.mult
        report = _oracle_mp_enumerate(p0, blocks)
        for flags, layout in layouts:
            code = cli.main(["mp-enumerate", str(path), "--out", str(target), *flags])
            out = capsys.readouterr().out
            assert code == 0
            assert out == json.dumps(report, sort_keys=True, default=cli._json_default,
                                     **layout) + "\n", (flags, p0.mult)
            assert target.read_text() == out


# ---------------------------------------------------------------------------
# |R|: Schreier-Sims against the listed closure
# ---------------------------------------------------------------------------


def _random_descriptor(rng, ambient, max_rank=4):
    h_ranks = (0, 2, 3) if ambient in ("SO_even", "O_even") else (0, 1, 2, 3)
    lines, budget = [], max_rank
    while budget and (not lines or rng.random() < 0.5) and len(lines) < 3:
        k = rng.randint(1, budget)
        budget -= k
        self_dual = rng.random() < 0.7
        lines.append(blocks_mod.CuspidalLine(
            rng.randint(1, 3), k, rng.random() < 0.5, self_dual and rng.random() < 0.5,
            self_dual, rng.random() < 0.5))
    return blocks_mod.BlockDescriptor(ambient, rng.choice(h_ranks), tuple(lines))


def test_group_order_matches_the_closure_on_classified_blocks():
    rng = random.Random(20251018)
    orders = set()
    for ambient in blocks_mod.AMBIENTS:
        for _ in range(40):
            bd = _random_descriptor(rng, ambient)
            cb = blocks_mod.classify(bd)
            n = bd.ambient_rank
            assert n <= 4
            expected = len(group_closure(cb.r_generators, n)) if cb.r_generators else 1
            assert group_order(cb.r_generators, n) == expected == cb.r_order, bd
            orders.add(expected)
    assert len(orders) >= 5


def _random_signed_permutation(rng, n, sparse):
    perm = list(range(n))
    signs = [1] * n
    if sparse and n >= 2:
        i, j = rng.sample(range(n), 2)
        perm[i], perm[j] = j, i
        if rng.random() < 0.5:
            signs[rng.randrange(n)] = -1
    else:
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
    return WeylElement(tuple(perm), tuple(signs))


def test_group_order_matches_the_closure_on_random_generators():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 5)
        gens = [_random_signed_permutation(rng, n, rng.random() < 0.6)
                for _ in range(rng.randint(0, 4))]
        assert group_order(gens, n) == len(group_closure(gens, n)), gens


def _s3():
    return [WeylElement((1, 0, 2), (1, 1, 1)), WeylElement((0, 2, 1), (1, 1, 1))]


def test_group_order_guard_is_the_closure_guard():
    with pytest.raises(ValueError) as closure_err:
        group_closure(_s3(), 3, guard=5)
    with pytest.raises(ValueError) as order_err:
        group_order(_s3(), 3, guard=5)
    assert str(order_err.value) == str(closure_err.value) == "group closure exceeds guard"
    assert group_order(_s3(), 3, guard=6) == 6 == len(group_closure(_s3(), 3, guard=6))
