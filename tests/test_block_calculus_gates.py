"""Differential gates for the block-calculus verbs.

Each test checks a path of the CLI or of ``mpparams`` against an oracle
that is the straightforward form of the same computation:

* ``main(argv)`` against the full six-verb parser, on stdout, stderr and
  the exit code (``SystemExit`` included);
* the ``mp-enumerate`` and ``mp-match`` JSON against the per-(S, class)
  loops, kept here verbatim;
* ``enumerate_alt_chars`` against its per-member loops, kept verbatim;
* the presentation arithmetic (``hecke_for_block``, ``classical_hecke``,
  ``_scaled``, ``_class_match``) against its ``Fraction`` form, which returns
  the seven values a record once stored, and the anchor choices
  (``_class_choices``) against their sorted square scan;
* ``group_order`` (Schreier-Sims) against ``len(group_closure(...))``.
"""

import dataclasses
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
    SChoice,
    _class_choices,
    _class_match,
    _scaled,
    anchor_parameter,
    classical_hecke,
    classical_match,
    enumerate_S,
    enumerate_alt_chars,
    epsilon_Z,
    hecke_for_block,
    member_dim,
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
                ok = _fields(hecke_for_block(p0, S, cls)) == _oracle_scaled(_oracle_gl(m), cls.t)
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
# Presentation arithmetic: the Fraction forms as the oracle
# ---------------------------------------------------------------------------


def _oracle_class_choices(cls, m):
    bound = next(b for b in itertools.count() if member_dim(b, 1) > m)
    rests = ((ap, am, m - member_dim(ap, cls.kappa_plus) - member_dim(am, cls.kappa_minus))
             for ap in range(bound + 1) for am in range(bound + 1))
    return sorted((ap, am, rest // 2) for ap, am, rest in rests if rest >= 0 and rest % 2 == 0)


# An oracle presentation is the tuple of the seven values the record once stored, in
# this order: the record's exponents and extended flag follow from the other five.
FIELDS = ("kind", "size", "exponents", "special", "qi", "scale", "extended")


def _fields(pres):
    """The seven values of a presentation record, read from it."""
    return tuple(getattr(pres, name) for name in FIELDS)


def _oracle_gl(m, t=1):
    return ("GL", m, (Fraction(t),) * max(m - 1, 0), None, None, t, False)


def _oracle_hecke_for_block(p0, S, cls):
    m = p0.m(cls.label)
    t = cls.t
    if not cls.self_dual:
        return _oracle_gl(m, t)
    ap, am, _ = S.get(cls.label)
    kp, km = cls.kappa_plus, cls.kappa_minus
    if kp and km and ap == 0 and am == 0:
        r = m // 2
        n_simples = r if r >= 2 else 0
        return ("SO_even_ext", m, (Fraction(t),) * n_simples, None, None, t, True)
    m_O = member_dim(ap, kp) + member_dim(am, km)
    if m_O > m or (m - m_O) % 2:
        raise ParameterError("anchor choice inconsistent with the multiplicity")
    size = m - m_O + 1
    r = (size - 1) // 2
    special = t * (Fraction(ap + am + 1) - Fraction(kp + km, 2))
    qi = abs(t * (Fraction(ap - am) + Fraction(km - kp, 2)))
    exponents = (Fraction(t),) * (r - 1) + (special,) if r >= 1 else ()
    return ("SO_odd", size, exponents, special if r >= 1 else None,
            qi if r >= 1 else None, t, False)


def _oracle_classical_hecke(group, size, a_plus, a_minus):
    ap, am = int(a_plus), int(a_minus)
    if ap < 0 or am < 0:
        raise ParameterError("a+ and a- must be >= 0")
    if group == "SO_odd":
        if size % 2 == 0:
            raise ParameterError("SO_odd size must be odd")
        m = size - 1
        mp, mm = member_dim(ap, 0), member_dim(am, 0)
        special = Fraction(ap + am + 1)
        qi = Fraction(abs(ap - am))
    elif group == "O_even":
        if size % 2:
            raise ParameterError("O_even size must be even")
        m = size
        if ap == 0 and am == 0:
            r = m // 2
            n_simples = r if r >= 2 else 0
            return ("SO_even_ext", m, (Fraction(1),) * n_simples, None, None, 1, True)
        mp, mm = member_dim(ap, 1), member_dim(am, 1)
        special = Fraction(ap + am)
        qi = Fraction(abs(ap - am))
    elif group == "Sp":
        if size % 2:
            raise ParameterError("Sp size must be even")
        m = size + 1
        mp, mm = member_dim(ap, 1), member_dim(am, 1)
        special = Fraction(ap + am)
        qi = Fraction(abs(ap - am))
    elif group == "U":
        m = size
        kp, km = (1, 0) if size % 2 else (0, 1)
        mp, mm = member_dim(ap, kp), member_dim(am, km)
        special = Fraction(ap + am) + Fraction(1, 2)
        qi = abs(Fraction(ap - am) + Fraction((-1) ** size, 2))
    else:
        raise ParameterError(f"unknown classical group {group!r}")
    cut = m - mp - mm
    if cut < 0 or cut % 2:
        raise ParameterError("anchor dimensions inconsistent with the group size")
    r = cut // 2
    exponents = (Fraction(1),) * (r - 1) + (special,) if r >= 1 else ()
    return ("SO_odd", 2 * r + 1, exponents, special if r >= 1 else None,
            qi if r >= 1 else None, 1, False)


def _oracle_scaled(p, t):
    kind, size, exponents, special, qi, scale, extended = p
    return (kind, size, tuple(t * e for e in exponents),
            t * special if special is not None else None,
            t * qi if qi is not None else None,
            scale * t, extended)


def _oracle_class_match(p0, S, cls):
    m = p0.m(cls.label)
    group, gsize = classical_match(cls, m)
    mp = _oracle_hecke_for_block(p0, S, cls)
    if not cls.self_dual:
        return group, mp == _oracle_scaled(_oracle_gl(m), cls.t), False
    ap, am, _ = S.get(cls.label)
    for swap in (False, True):
        args = (am, ap) if swap else (ap, am)
        try:
            classical = _oracle_classical_hecke(group, gsize, *args)
        except ParameterError:
            continue
        if mp == _oracle_scaled(classical, cls.t):
            return group, True, swap
    return group, False, False


def _oracle_q_json(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _oracle_to_json(p):
    kind, size, exponents, special, qi, scale, extended = p
    return {"kind": kind, "size": size, "exponents": [_oracle_q_json(e) for e in exponents],
            "special": _oracle_q_json(special) if special is not None else None,
            "qi": _oracle_q_json(qi) if qi is not None else None,
            "scale": scale, "extended": extended}


def _oracle_display(p):
    _, _, exponents, _, qi, _, _ = p
    q = lambda e: "q" if e == 1 else f"q^{_oracle_q_json(e)}"
    body = ", ".join(q(e) for e in exponents)
    if qi is not None:
        return f"{body}; {q(qi)}" if body else f"; {q(qi)}"
    return body


def _oracle_record(p):
    """The record holding the oracle's Fraction values, built from the fields it has."""
    values = dict(zip(FIELDS, p))
    return MpHeckePresentation(**{f.name: values[f.name] for f in dataclasses.fields(MpHeckePresentation)})


def _outcome(fn, *args):
    """fn(*args), or the ParameterError class it raises."""
    try:
        return fn(*args)
    except ParameterError:
        return ParameterError


def _assert_same_presentation(new, old, context):
    """The record ``new`` against the oracle's seven values ``old``: equal in every value,
    in JSON (as a value and as bytes) and in display, and equal and alike in hash to the
    record built from the oracle's values."""
    if old is ParameterError:
        assert new is ParameterError, context
        return
    assert _fields(new) == old, context
    assert new.to_json() == _oracle_to_json(old), context
    assert json.dumps(new.to_json()) == json.dumps(_oracle_to_json(old)), context
    assert new.display() == _oracle_display(old), context
    assert new == _oracle_record(old), context
    assert hash(new) == hash(_oracle_record(old)), context


# every class kind: GL, no type member, type_plus, type_minus, both
CLASS_KINDS = ({"self_dual": False}, {"self_dual": True}, {"self_dual": True, "type_plus": True},
               {"self_dual": True, "type_minus": True},
               {"self_dual": True, "type_plus": True, "type_minus": True})


def _inconsistent_choices(cls, m):
    """Two (a+, a-, m_gl) the multiplicity m does not admit: one too large, and one
    whose rest is odd where the class has such a pair."""
    too_large = next(a for a in itertools.count() if member_dim(a, cls.kappa_plus) > m)
    out = [(too_large, 0, 0)]
    odd = [(ap, am) for ap in range(too_large) for am in range(too_large)
           if (m - member_dim(ap, cls.kappa_plus) - member_dim(am, cls.kappa_minus)) % 2
           and member_dim(ap, cls.kappa_plus) + member_dim(am, cls.kappa_minus) <= m]
    return out + [(ap, am, 0) for ap, am in odd[:1]]


def test_hecke_for_block_matches_the_fraction_form():
    cases = raised = 0
    for kind, t, m in itertools.product(CLASS_KINDS, (1, 2, 3), range(1, 25)):
        cls = mpparams.InertialClass("c", d=2 if kind["self_dual"] else 1, t=t, **kind)
        p0 = mpparams.NormedParameter(m, (cls,), (("c", m),))
        if not cls.self_dual:
            triples = [None]
        else:
            triples = _oracle_class_choices(cls, m) + _inconsistent_choices(cls, m)
        for triple in triples:
            S = SChoice(() if triple is None else (("c",) + triple,))
            old = _outcome(_oracle_hecke_for_block, p0, S, cls)
            _assert_same_presentation(_outcome(hecke_for_block, p0, S, cls), old, (kind, t, m, triple))
            assert _outcome(_class_match, p0, S, cls) == _outcome(_oracle_class_match, p0, S, cls)
            cases += 1
            raised += old is ParameterError
    # a GL class never raises; each self-dual kind raises on its too-large choice, and on
    # an odd rest where it has one
    assert cases == 2448 and raised == 504


def test_classical_hecke_and_scaled_match_the_fraction_form():
    cases = raised = 0
    for group in ("SO_odd", "O_even", "Sp", "U", "GL"):
        for size, ap, am in itertools.product(range(26), range(-1, 7), range(-1, 7)):
            old = _outcome(_oracle_classical_hecke, group, size, ap, am)
            new = _outcome(classical_hecke, group, size, ap, am)
            _assert_same_presentation(new, old, (group, size, ap, am))
            cases += 1
            if old is ParameterError:
                raised += 1
                continue
            for t in (1, 2, 3):
                _assert_same_presentation(_scaled(new, t), _oracle_scaled(old, t),
                                          (group, size, ap, am, t))
    assert cases == 5 * 26 * 8 * 8 and 0 < raised < cases


def test_presentations_match_the_fraction_form_at_large_rank():
    """The gates above stop at m <= 24 and size <= 25; here the exponents, which the
    record derives from its other fields, are checked at ranks up to about 1 500."""
    rng = random.Random(25)
    ranks = {}
    for kind, t, m in itertools.product(CLASS_KINDS, (1, 2), (2999, 3000)):
        cls = mpparams.InertialClass("c", d=2 if kind["self_dual"] else 1, t=t, **kind)
        p0 = mpparams.NormedParameter(m, (cls,), (("c", m),))
        if not cls.self_dual:
            triples = [None]
        else:
            # the first choices have the largest rank, the last the smallest
            choices = _class_choices(cls, m)
            triples = (choices[:3] + choices[-2:] + rng.sample(choices, min(5, len(choices)))
                       + _inconsistent_choices(cls, m))
        for triple in triples:
            S = SChoice(() if triple is None else (("c",) + triple,))
            new = _outcome(hecke_for_block, p0, S, cls)
            _assert_same_presentation(new, _outcome(_oracle_hecke_for_block, p0, S, cls),
                                      (kind, t, m, triple))
            assert _outcome(_class_match, p0, S, cls) == _outcome(_oracle_class_match, p0, S, cls)
            if new is not ParameterError:
                ranks.setdefault(new.kind, set()).add(new.rank())
    for group, size in itertools.product(("SO_odd", "O_even", "Sp", "U", "GL"), (2999, 3000, 3001)):
        for ap, am in ((0, 0), (1, 0), (0, 1), (2, 3), (20, 17), (38, 0)):
            old = _outcome(_oracle_classical_hecke, group, size, ap, am)
            new = _outcome(classical_hecke, group, size, ap, am)
            _assert_same_presentation(new, old, (group, size, ap, am))
            if old is not ParameterError:
                ranks.setdefault(new.kind, set()).add(new.rank())
                for t in (1, 2, 3):
                    _assert_same_presentation(_scaled(new, t), _oracle_scaled(old, t),
                                              (group, size, ap, am, t))
    assert max(ranks["GL"]) == 2999 and max(ranks["SO_even_ext"]) == 1500
    assert max(ranks["SO_odd"]) == 1500 and 0 in ranks["SO_odd"]


def test_class_choices_match_the_sorted_square_scan():
    for type_plus, type_minus in itertools.product((False, True), repeat=2):
        cls = mpparams.InertialClass("c", self_dual=True, type_plus=type_plus, type_minus=type_minus)
        for m in range(301):
            assert _class_choices(cls, m) == _oracle_class_choices(cls, m), (type_plus, type_minus, m)


def _stored_forms(pres):
    values = pres.exponents + tuple(x for x in (pres.special, pres.qi) if x is not None)
    return {"int" if type(x) is int else (type(x).__name__, x.denominator) for x in values}


def test_presentations_store_an_int_when_integral():
    """The documented exponent types: an int, or a Fraction of denominator 2."""
    seen = set()
    for kind, t, m in itertools.product(CLASS_KINDS, (1, 2, 3), range(1, 13)):
        cls = mpparams.InertialClass("c", d=2 if kind["self_dual"] else 1, t=t, **kind)
        p0 = mpparams.NormedParameter(m, (cls,), (("c", m),))
        triples = _class_choices(cls, m) if cls.self_dual else [None]
        for triple in triples:
            seen |= _stored_forms(hecke_for_block(p0, SChoice(() if triple is None else (("c",) + triple,)), cls))
    for group, size, ap, am in itertools.product(("SO_odd", "O_even", "Sp", "U"), range(1, 14),
                                                 range(3), range(3)):
        classical = _outcome(classical_hecke, group, size, ap, am)
        if classical is not ParameterError:
            for t in (1, 2, 3):
                seen |= _stored_forms(classical) | _stored_forms(_scaled(classical, t))
    # t = 2 turns a half-integer into an integer, which _scaled stores as an int
    assert seen == {"int", ("Fraction", 2)}


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
