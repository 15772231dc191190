"""Command-line driver: enumeration, verification sweeps, JSON reports.

Exit codes: 0 success / all checks pass, 1 verification failure (the
failing cases are in the JSON), 2 malformed input.  All numeric input is
exact: integers or strings "p/q"; float literals are rejected.  Output is
deterministic (sorted keys, fixed seeds).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from fractions import Fraction

# The mp verbs' modules only: every other verb imports its own when it runs, so
# an mp-enumerate or mp-match process never loads the algebra modules.
from . import mpparams
from .jsonio import frac_to_json


class InputError(ValueError):
    pass


def _reject_float(s: str):
    raise InputError(f"float literal {s!r} rejected; use int or 'p/q'")


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    try:
        return json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at {e.pos}: {e.msg}")


def check_schema(data: dict, path: str):
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be an object")
    if data.get("schema", "v1") != "v1":
        raise InputError(f"{path}: unsupported schema {data.get('schema')!r}")


def parse_fraction(v) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise InputError(f"non-exact numeric literal {v!r}")
    try:
        return Fraction(v)
    except (ValueError, TypeError, ZeroDivisionError):
        raise InputError(f"cannot parse rational {v!r}")


def encode(obj, args, depth=0) -> str:
    """``obj`` as report JSON at nesting ``depth``.  A JSON string holds no raw
    newline, so indenting each newline moves an ``indent=2`` fragment to ``depth``."""
    if args.pretty:
        text = json.dumps(obj, sort_keys=True, default=_json_default, indent=2)
        return text.replace("\n", "\n" + "  " * depth)
    return json.dumps(obj, sort_keys=True, default=_json_default, separators=(",", ":"))


def _splice(parts, depth, args, brackets="[]") -> str:
    """``encode`` at ``depth`` of a list of encoded values; with ``brackets="{}"``,
    of an object whose ``_member`` strings are given in sorted-key order."""
    if not parts:
        return brackets
    nl, step = ("\n" + "  " * depth, "  ") if args.pretty else ("", "")
    return brackets[0] + nl + step + ("," + nl + step).join(parts) + nl + brackets[1]


def _member(key, value, args) -> str:
    """An object member from an encoded ``key`` and an encoded ``value``."""
    return key + (": " if args.pretty else ":") + value


def emit(text, args) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise InputError(f"cannot write {args.out}: {e}")
    sys.stdout.write(text + "\n")


def _json_default(x):
    if isinstance(x, Fraction):
        return frac_to_json(x)
    raise TypeError(f"not JSON serialisable: {x!r}")


# ---------------------------------------------------------------------------
# rankone-verify
# ---------------------------------------------------------------------------

# The most points a rankone-verify grid may have.  The sweep runs one
# quadratic_report per pair a >= b (about 13 ms each on a 2-core host), so
# its work grows as the square of the points: 140 points are 9 870 pairs,
# about two minutes.
GRID_GUARD = 140


def parse_grid(spec: str, step: Fraction) -> list[Fraction]:
    """lo, lo + step, ... up to hi; counted before it is built."""
    try:
        lo_s, hi_s = spec.split("..")
        lo, hi = Fraction(lo_s), Fraction(hi_s)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad grid {spec!r}; expected 'lo..hi'")
    if lo > hi or step <= 0:
        raise InputError("empty grid")
    count = (hi - lo) // step + 1
    if count > GRID_GUARD:
        raise InputError(f"grid of {count} points exceeds the grid guard of {GRID_GUARD}")
    return [lo + i * step for i in range(count)]

def cmd_rankone_verify(args) -> int:
    from . import rankone
    grid = parse_grid(args.grid, parse_fraction(args.step))
    rows = []
    for a in grid:
        for b in grid:
            if a >= b and a > 0:
                rows.extend(rankone.quadratic_report(a, b))
    ok = all(row["quadratic_ok"] for row in rows)
    emit(encode({"schema": "v1", "results": rows, "all_ok": ok}, args), args)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# hecke-check
# ---------------------------------------------------------------------------

def _hecke_test_data(max_rank: int):
    from .hecke import HeckeParams
    from .rootdata import build_O_datum, classical_datum
    out = []
    d, _ = classical_datum("GL", 2)
    out.append(("A1", d, HeckeParams(d, (Fraction(1),))))
    d, _ = classical_datum("GL", 3)
    out.append(("A2", d, HeckeParams(d, (Fraction(1), Fraction(1)))))
    d, _ = classical_datum("SO_odd", 5)
    out.append(("B2", d, HeckeParams(d, (Fraction(1), Fraction(2)), {0: Fraction(1)})))
    d = build_O_datum([("A1", 2, 1), ("A1", 2, 1)], 4)
    out.append(("A1xA1", d, HeckeParams(d, (Fraction(1), Fraction(3, 2)))))
    return [(name, d, p) for name, d, p in out if d.rank <= max_rank]


def _random_element(rng, d, p):
    from .hecke import HeckeElement
    from .laurent import GroupAlgebraElement, QLaurent
    from .rootdata import WeylElement
    ws = [d.simple_reflection(i) for i in range(d.num_simples())]
    ws.append(WeylElement.identity(d.rank))
    out = HeckeElement.zero(d, p)
    for _ in range(2):
        w = rng.choice(ws)
        vec = tuple(rng.randint(-2, 2) for _ in range(d.rank))
        coeff = QLaurent({4 * rng.randint(0, 1): Fraction(rng.randint(-3, 3))})
        ga = GroupAlgebraElement.monomial(vec, coeff)
        if not ga.is_zero():
            out = out + HeckeElement.from_u(d, p, w, ga)
    return out


def run_hecke_suite(max_rank: int = 4) -> dict:
    import random

    from .hecke import HeckeElement, he_mul as mul
    from .rootdata import braid_order
    rng, report = random.Random(20250809), []
    for name, d, p in _hecke_test_data(max_rank):
        one = HeckeElement.one(d, p)
        us = [HeckeElement.u_simple(d, p, i) for i in range(d.num_simples())]
        quad = [mul(u + one, u - one.scale(p.q_alpha(i))).is_zero() for i, u in enumerate(us)]
        braid = []
        for i, j in itertools.combinations(range(len(us)), 2):
            cur_l, cur_r = us[i], us[j]
            for k in range(1, braid_order(i, j, d)):
                cur_l = mul(cur_l, us[j] if k % 2 else us[i])
                cur_r = mul(cur_r, us[i] if k % 2 else us[j])
            braid.append(cur_l == cur_r)
        assoc = []
        for _ in range(25):
            x, y, z = (_random_element(rng, d, p) for _ in range(3))
            assoc.append(mul(mul(x, y), z) == mul(x, mul(y, z)))
        report.append({"datum": name, "quadratic": all(quad), "braid": all(braid),
                       "associativity": all(assoc), "ok": all(quad) and all(braid) and all(assoc)})
    return {"schema": "v1", "data": report, "all_ok": all(entry["ok"] for entry in report)}


def cmd_hecke_check(args) -> int:
    rep = run_hecke_suite(max_rank=args.max_rank)
    if not rep["data"]:
        raise InputError(f"--max-rank {args.max_rank} selects no datum")
    emit(encode(rep, args), args)
    return 0 if rep["all_ok"] else 1


# ---------------------------------------------------------------------------
# blocks-classify
# ---------------------------------------------------------------------------

def cmd_blocks_classify(args) -> int:
    from . import blocks
    data = load_json(args.input)
    check_schema(data, args.input)
    try:
        bd = blocks.BlockDescriptor.from_json(data)
        cb = blocks.classify(bd)
    except (blocks.DescriptorError, KeyError, TypeError) as e:
        raise InputError(f"descriptor invalid: {e}")
    emit(encode(cb.to_json(), args), args)
    return 0


# ---------------------------------------------------------------------------
# mp-enumerate / mp-match / weil-example
# ---------------------------------------------------------------------------

def _load_phi0(path: str) -> mpparams.NormedParameter:
    data = load_json(path)
    check_schema(data, path)
    try:
        return mpparams.NormedParameter.from_json(data)
    except (mpparams.ParameterError, KeyError, TypeError) as e:
        raise InputError(f"parameter spec invalid: {e}")


def cmd_mp_enumerate(args) -> int:
    table = mpparams.enumerate_blocks(_load_phi0(args.input))
    # json.dumps of the report, spliced from parts encoded once per call.  A row is fixed by S
    # but for "epsilon", one fragment per class in label order, and "epsilon_Z", the product of
    # the fragments' signs.  "\0" marks where varying parts go: encoded JSON never holds it raw.
    row = _splice([_member(key, value, args) for key, value in (
        ('"S"', "\0"), ('"classical_match"', encode(table.matches, args, 3)), ('"epsilon"', "\0"),
        ('"epsilon_Z"', "\0"), ('"hecke"', "\0"))], 2, args, "{}").split("\0")
    open_, sep, close = _splice(["\0", "\0"], 3, args).split("\0")

    def keyed(label, pres):   # a "hecke" member, with its key to sort by
        return label, _member(encode(label, args), encode(pres.to_json(), args, 4), args)
    fixed = [keyed(label, pres) for label, pres in table.fixed.items()]
    # per class and choice: the S entry, the "hecke" member, and each character's fragment and sign
    factors = [[(encode(entry, args, 4), keyed(c.label, pres),
                 [(sep.join(encode([e.label, e.minus, e.a, s], args, 4) for e, s in signs), sign)
                  for signs, sign in chars]) for entry, pres, chars in choices] for c, choices in table.factors]
    by_label = sorted(range(len(factors)), key=lambda i: table.factors[i][0].label)
    rows = []
    for options in itertools.product(*factors):
        head = row[0] + _splice([o[0] for o in options], 3, args) + row[1]
        hecke = _splice([text for _, text in sorted(fixed + [o[1] for o in options])], 3, args, "{}")
        frags = [options[i][2] for i in by_label if options[i][2][0][0]]   # the classes with blocks
        tails = {z: (close if frags else "[]") + row[2] + str(z) + row[3] + hecke + row[4] for z in (1, -1)}
        epsilons = [("", 1)]
        for k, chars in enumerate(frags):
            epsilons = [(e + (sep if k else open_) + f, z * y) for e, z in epsilons for f, y in chars]
        rows += [head + e + tails[z] for e, z in epsilons]
    report = (('"blocks"', _splice(rows, 1, args)), ('"count"', str(len(rows))), ('"schema"', '"v1"'))
    emit(_splice([_member(key, value, args) for key, value in report], 0, args, "{}"), args)
    return 0


def cmd_mp_match(args) -> int:
    p0 = _load_phi0(args.input)
    rep = mpparams.verify_match(p0)
    emit(encode(rep, args), args)
    return 0 if rep["mismatches"] == 0 else 1


def cmd_weil_example(args) -> int:
    if args.n < 1:
        raise InputError("--n must be >= 1")
    emit(encode(mpparams.weil_example(args.n), args), args)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _rankone_verify_args(p):
    p.add_argument("--grid", default="1/2..3", help="exponent grid 'lo..hi' (exact rationals)")
    p.add_argument("--step", default="1/2", help="grid step (exact rational)")


def _hecke_check_args(p):
    p.add_argument("--max-rank", type=int, default=4)


def _weil_example_args(p):
    p.add_argument("--n", type=int, required=True)


def _input_args(what):
    def add(p):
        p.add_argument("input", help=what)
    return add


# verb -> (help, its own arguments, handler), in the order of the usage line
VERBS = {
    "rankone-verify": ("sweep the rank-one quadratic relation", _rankone_verify_args,
                       cmd_rankone_verify),
    "hecke-check": ("quadratic/braid/associativity suite", _hecke_check_args, cmd_hecke_check),
    "blocks-classify": ("classify a block descriptor", _input_args("descriptor JSON"),
                        cmd_blocks_classify),
    "mp-enumerate": ("enumerate blocks of a normed parameter", _input_args("parameter JSON"),
                     cmd_mp_enumerate),
    "mp-match": ("compare emitted and classical presentations", _input_args("parameter JSON"),
                 cmd_mp_match),
    "weil-example": ("the two Weil-representation blocks", _weil_example_args, cmd_weil_example),
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser of every verb in ``VERBS``."""
    ap = argparse.ArgumentParser(prog="mphecke",
                                 description="exact Hecke-algebra and block-classification checks")
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb, (help_text, add_args, func) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        add_args(p)
        p.add_argument("--out", help="also write the JSON report to this path")
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        p.set_defaults(func=func)
    return ap


_process_parser = functools.cache(build_parser)


def parse_args(argv) -> argparse.Namespace:
    """Parse with the process's one parser, built on first use; parsing leaves it unchanged."""
    return _process_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except (InputError, mpparams.ParameterError) as e:
        # cmd_blocks_classify turns blocks.DescriptorError into InputError
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
