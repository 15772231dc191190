"""Self-test of the benchmark's checks: each must reject a planted wrong answer.

    python3 bench/selftest.py

Every benchmark run also calls ``selftest`` for its workload before it
starts timing, so no check can pass vacuously.  The planted answers are
a flipped verdict, a product with one coefficient changed and a block
count off by one, among others; the operations use fixed inputs and leave
the workload's seeded input stream untouched.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F


def _rankone(w) -> list[str]:
    from workloads import Op
    problems = []
    op = Op("verify", (F(3, 4), F(1, 2), 1, -1, None))
    out = w.run(op)
    if not w.check(op, out):
        problems.append("rankone: a true verdict was rejected")
    if w.check(op, not out):
        problems.append("rankone: a flipped verdict was accepted")
    control = Op("control", (F(3, 4), F(1, 2), 1, -1, (-1, -1)))
    out = w.run(control)
    if not w.check(control, out):
        problems.append("rankone: a negative control's false verdict was rejected")
    if w.check(control, True):
        problems.append("rankone: a negative control returning True was accepted")
    return problems


def _hecke(w) -> list[str]:
    from mphecke.laurent import GroupAlgebraElement, QLaurent
    from workloads import Op
    problems = []
    hk = w.hk
    d, p = w.fixed["B2"]
    s0, s1 = d.simple_reflection(0), d.simple_reflection(1)

    def elem(*terms):
        out = hk.HeckeElement.zero(d, p)
        for wel, lam, c in terms:
            out = out + hk.HeckeElement.from_u(d, p, wel, GroupAlgebraElement.monomial(lam, QLaurent.const(c)))
        return out

    x = elem((s0, (1, 0), 2), (s1, (0, -1), 1))
    y = elem((s1 * s0, (0, 1), -1))
    z = elem((s0, (-1, 1), 3))
    op = Op("assoc", ("B2", x, y, z))
    out = w.run(op)
    if not w.check(op, out):
        problems.append("hecke: a correct associativity check was rejected")
    if w.check(op, (False, out[1])):
        problems.append("hecke: a flipped verdict was accepted")
    (a, b, ab), *rest = out[1]
    term_w, term_ga = ab.terms()[0]
    lam, c = term_ga.terms()[0]
    bump = hk.HeckeElement.from_u(d, p, term_w, GroupAlgebraElement.monomial(lam, QLaurent.one()))
    if w.check(op, (True, [(a, b, ab + bump)] + rest)):
        problems.append("hecke: a product with one coefficient changed was accepted")

    dd, pd = w.fixed["D2"]
    e, flip = w.WE.identity(2), w.fixed["flip"]
    h = hk.HeckeElement.from_u(dd, pd, dd.simple_reflection(0),
                               GroupAlgebraElement.monomial((1, 0), QLaurent.const(2)))
    ext = hk.ExtendedHeckeElement(dd, pd, w.fixed["cocycle"], {e: h, flip: h})
    op = Op("ext-assoc", (ext, ext, ext))
    out = w.run(op)
    if not w.check(op, out):
        problems.append("hecke: a correct extended associativity check was rejected")
    (a, b, ab), *rest = out[1]
    r = ab.terms()[0][0]
    bumped = ab + hk.ExtendedHeckeElement(dd, pd, w.fixed["cocycle"], {r: hk.HeckeElement.one(dd, pd)})
    if w.check(op, (True, [(a, b, bumped)] + rest)):
        problems.append("hecke: an extended product with one coefficient changed was accepted")
    return problems


def _blocks(w) -> list[str]:
    from workloads import Op
    problems = []
    path = next(iter(w.params))
    for verb, field, delta in (("mp-enumerate", "count", 1), ("mp-match", "mismatches", 1)):
        op = Op(verb, (verb, path))
        code, stdout = w.run(op)
        if not w.check(op, (code, stdout)):
            problems.append(f"blocks: a correct {verb} output was rejected")
        data = json.loads(stdout)
        data[field] += delta
        if w.check(op, (code, json.dumps(data))):
            problems.append(f"blocks: {verb} with {field} off by {delta} was accepted")
        if w.check(op, (1, stdout)):
            problems.append(f"blocks: {verb} exiting 1 was accepted")
    op = Op("mp-match", ("mp-match", path))
    code, stdout = w.run(op)
    data = json.loads(stdout)
    data["rows"] = data["rows"][1:]
    if w.check(op, (code, json.dumps(data))):
        problems.append("blocks: mp-match missing a row was accepted")

    desc = {"schema": "v1", "ambient": "GL", "h_rank": 0, "lines": [
        {"d": 1, "k": 3, "gl_singular": False, "boundary_pole": False, "self_dual_T": False},
        {"d": 2, "k": 2, "gl_singular": True, "boundary_pole": False, "self_dual_T": False}]}
    dpath = w._write("selftest-descriptor.json", json.dumps(desc))
    w.descriptors[dpath] = desc
    op = Op("blocks-classify", ("blocks-classify", dpath))
    code, stdout = w.run(op)
    if not w.check(op, (code, stdout)):
        problems.append("blocks: a correct blocks-classify output was rejected")
    for field in ("w_o_order", "r_order", "wmo_order"):
        data = json.loads(stdout)
        data[field] += 1
        if w.check(op, (code, json.dumps(data))):
            problems.append(f"blocks: blocks-classify with {field} off by one was accepted")
    bad = Op("expect-2", w.malformed[0].args)
    if w.check(bad, (1, "")):
        problems.append("blocks: exit 1 on malformed input was accepted")
    return problems


def selftest(name: str, w) -> list[str]:
    return {"rankone-sweep": _rankone, "hecke-relations": _hecke, "block-calculus": _blocks}[name](w)


def main() -> int:
    import run
    run.import_program()
    run.OUT.mkdir(exist_ok=True)
    failures = 0
    for name in ("rankone-sweep", "hecke-relations", "block-calculus"):
        problems = selftest(name, run.make_workload(name, 0))
        for p in problems:
            print(p)
        print(f"{name}: {'FAIL' if problems else 'ok'}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
