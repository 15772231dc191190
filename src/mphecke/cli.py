"""Command-line driver: enumeration, verification sweeps, JSON reports.

Exit codes: 0 success / all checks pass, 1 verification failure (the
failing cases are in the JSON), 2 malformed input.  All numeric input is
exact: integers or strings "p/q"; float literals are rejected.  Output is
deterministic (sorted keys, fixed seeds).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import blocks as blocks_mod
from . import hecke as hecke_mod
from . import mpparams, rankone
from .laurent import GroupAlgebraElement, QLaurent
from .rootdata import braid_order, build_O_datum, classical_datum


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
    except (ValueError, TypeError):
        raise InputError(f"cannot parse rational {v!r}")


def emit(payload, args) -> None:
    kwargs = {"sort_keys": True, "default": _json_default}
    if getattr(args, "pretty", False):
        kwargs["indent"] = 2
    else:
        kwargs["separators"] = (",", ":")
    text = json.dumps(payload, **kwargs)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    sys.stdout.write(text + "\n")


def _json_default(x):
    if isinstance(x, Fraction):
        return hecke_mod.frac_to_json(x)
    raise TypeError(f"not JSON serialisable: {x!r}")


# ---------------------------------------------------------------------------
# rankone-verify
# ---------------------------------------------------------------------------

def parse_grid(spec: str, step: Fraction) -> list[Fraction]:
    try:
        lo_s, hi_s = spec.split("..")
        lo, hi = Fraction(lo_s), Fraction(hi_s)
    except ValueError:
        raise InputError(f"bad grid {spec!r}; expected 'lo..hi'")
    if lo > hi or step <= 0:
        raise InputError("empty grid")
    out = []
    x = lo
    while x <= hi:
        out.append(x)
        x += step
    return out

def cmd_rankone_verify(args) -> int:
    grid = parse_grid(args.grid, parse_fraction(args.step))
    rows = []
    for a in grid:
        for b in grid:
            if a >= b and a > 0:
                rows.extend(rankone.quadratic_report(a, b))
    ok = all(row["quadratic_ok"] for row in rows)
    emit({"schema": "v1", "results": rows, "all_ok": ok}, args)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# hecke-check
# ---------------------------------------------------------------------------

def _hecke_test_data(max_rank: int):
    out = []
    d, _ = classical_datum("GL", 2)
    out.append(("A1", d, hecke_mod.HeckeParams(d, (Fraction(1),))))
    d, _ = classical_datum("GL", 3)
    out.append(("A2", d, hecke_mod.HeckeParams(d, (Fraction(1), Fraction(1)))))
    d, _ = classical_datum("SO_odd", 5)
    out.append(("B2", d, hecke_mod.HeckeParams(d, (Fraction(1), Fraction(2)),
                                               {0: Fraction(1)})))
    d = build_O_datum([("A1", 2, 1), ("A1", 2, 1)], 4)
    out.append(("A1xA1", d, hecke_mod.HeckeParams(d, (Fraction(1), Fraction(3, 2)))))
    return [(name, d, p) for name, d, p in out if d.rank <= max_rank]


def _random_element(rng, d, p, degree=2, nterms=2):
    terms = {}
    ws = [d.simple_reflection(i) for i in range(d.num_simples())]
    ws.append(hecke_mod.WeylElement.identity(d.rank))
    for _ in range(nterms):
        w = rng.choice(ws)
        vec = tuple(rng.randint(-degree, degree) for _ in range(d.rank))
        coeff = QLaurent({4 * rng.randint(0, 1): Fraction(rng.randint(-3, 3))})
        ga = GroupAlgebraElement.monomial(vec, coeff)
        if not ga.is_zero():
            h = hecke_mod.HeckeElement.from_u(d, p, w, ga)
            terms[w] = terms.get(w, hecke_mod.HeckeElement.zero(d, p)) + h
    out = hecke_mod.HeckeElement.zero(d, p)
    for h in terms.values():
        out = out + h
    return out


def run_hecke_suite(max_rank: int = 4, n_triples: int = 25, seed: int = 20250809) -> dict:
    rng = random.Random(seed)
    report = []
    ok = True
    for name, d, p in _hecke_test_data(max_rank):
        entry = {"datum": name}
        quad = []
        for i in range(d.num_simples()):
            u = hecke_mod.HeckeElement.u_simple(d, p, i)
            one = hecke_mod.HeckeElement.one(d, p)
            lhs = hecke_mod.he_mul(u + one, u - one.scale(p.q_alpha(i)))
            quad.append(lhs.is_zero())
        entry["quadratic"] = all(quad)
        braid = []
        for i in range(d.num_simples()):
            for j in range(i + 1, d.num_simples()):
                mij = braid_order(i, j, d)
                ui = hecke_mod.HeckeElement.u_simple(d, p, i)
                uj = hecke_mod.HeckeElement.u_simple(d, p, j)
                cur_l, cur_r = ui, uj
                for k in range(1, mij):
                    nxt = uj if k % 2 else ui
                    cur_l = hecke_mod.he_mul(cur_l, nxt)
                    nxt = ui if k % 2 else uj
                    cur_r = hecke_mod.he_mul(cur_r, nxt)
                braid.append(cur_l == cur_r)
        entry["braid"] = all(braid)
        assoc = []
        for _ in range(n_triples):
            x = _random_element(rng, d, p)
            y = _random_element(rng, d, p)
            z = _random_element(rng, d, p)
            lhs = hecke_mod.he_mul(hecke_mod.he_mul(x, y), z)
            rhs = hecke_mod.he_mul(x, hecke_mod.he_mul(y, z))
            assoc.append(lhs == rhs)
        entry["associativity"] = all(assoc)
        entry["ok"] = entry["quadratic"] and entry["braid"] and entry["associativity"]
        ok = ok and entry["ok"]
        report.append(entry)
    return {"schema": "v1", "data": report, "all_ok": ok}


def cmd_hecke_check(args) -> int:
    rep = run_hecke_suite(max_rank=args.max_rank)
    emit(rep, args)
    return 0 if rep["all_ok"] else 1


# ---------------------------------------------------------------------------
# blocks-classify
# ---------------------------------------------------------------------------

def cmd_blocks_classify(args) -> int:
    data = load_json(args.input)
    check_schema(data, args.input)
    try:
        bd = blocks_mod.BlockDescriptor.from_json(data)
        cb = blocks_mod.classify(bd)
    except (blocks_mod.DescriptorError, KeyError, TypeError) as e:
        raise InputError(f"descriptor invalid: {e}")
    emit(cb.to_json(), args)
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
    p0 = _load_phi0(args.input)
    rows = []
    for b in mpparams.enumerate_blocks(p0):
        rows.append({
            "S": b["S"].to_json(),
            "epsilon": b["epsilon"].to_json(),
            "epsilon_Z": b["epsilon_Z"],
            "hecke": {label: pres.to_json() for label, pres in b["hecke"].items()},
            "classical_match": {label: list(v) for label, v in b["classical_match"].items()},
        })
    emit({"schema": "v1", "blocks": rows, "count": len(rows)}, args)
    return 0


def cmd_mp_match(args) -> int:
    p0 = _load_phi0(args.input)
    rep = mpparams.verify_match(p0)
    emit(rep, args)
    return 0 if rep["mismatches"] == 0 else 1


def cmd_weil_example(args) -> int:
    if args.n < 1:
        raise InputError("--n must be >= 1")
    emit(mpparams.weil_example(args.n), args)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mphecke",
                                 description="exact Hecke-algebra and block-classification checks")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--out", help="also write the JSON report to this path")
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")

    p = sub.add_parser("rankone-verify", help="sweep the rank-one quadratic relation")
    p.add_argument("--grid", default="1/2..3", help="exponent grid 'lo..hi' (exact rationals)")
    p.add_argument("--step", default="1/2", help="grid step (exact rational)")
    common(p)
    p.set_defaults(func=cmd_rankone_verify)

    p = sub.add_parser("hecke-check", help="quadratic/braid/associativity suite")
    p.add_argument("--max-rank", type=int, default=4)
    common(p)
    p.set_defaults(func=cmd_hecke_check)

    p = sub.add_parser("blocks-classify", help="classify a block descriptor")
    p.add_argument("input", help="descriptor JSON")
    common(p)
    p.set_defaults(func=cmd_blocks_classify)

    p = sub.add_parser("mp-enumerate", help="enumerate blocks of a normed parameter")
    p.add_argument("input", help="parameter JSON")
    common(p)
    p.set_defaults(func=cmd_mp_enumerate)

    p = sub.add_parser("mp-match", help="compare emitted and classical presentations")
    p.add_argument("input", help="parameter JSON")
    common(p)
    p.set_defaults(func=cmd_mp_match)

    p = sub.add_parser("weil-example", help="the two Weil-representation blocks")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_weil_example)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except (mpparams.ParameterError, blocks_mod.DescriptorError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
