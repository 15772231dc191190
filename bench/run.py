"""Benchmark of mphecke: rank-one sweeps, Hecke relation checks, block calculus.

    python3 bench/run.py --workload rankone-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; ``mphecke`` is imported from ``src/``.
``--workload all`` (the default) runs the three workloads one after the
other in this process.  Each run draws one round of operations from the
seed.  With ``--trace 0`` it times passes over that round for about
``--seconds`` seconds (at least three passes) and reports the end-to-end
metrics: the median pass and percentiles over every timed operation.
With ``--trace 1`` it runs the round plain, twice with every listed public
function wrapped, and plain again, and reports per-layer calls and self
time per round.  Every output is checked
against an independent computation outside the timed region.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Results and traces are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_PASSES = 3     # timed passes over the round in a plain run, at least
SETUP_PROBES = 15
TRACE_PASSES = 2   # and as many plain passes


def import_program():
    if not (SRC / "mphecke" / "__init__.py").is_file():
        sys.stderr.write(f"error: no mphecke package under {SRC}; run from a checkout of the repository\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import mphecke  # noqa: F401


def setup_seconds(name: str) -> float:
    """Median time from starting a fresh interpreter until the fixed objects exist."""
    from workloads import SETUP
    code = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{SETUP[name]}"
            "sys.stdout.write('ready\\n')\nsys.stdout.flush()\n")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=120)
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {name} exited {proc.returncode}")
        times.append(t1 - t0)
    return statistics.median(times)


class Tally:
    """Latencies, pass walls, counts and the digest of the first pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.digest = None


def run_pass(w, ops, tally: Tally, tracer=None):
    """Run every operation of the round once; time each alone and check it right after."""
    from workloads import Raised
    wall = 0.0
    sha = hashlib.sha256() if tally.digest is None else None
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out = w.run(op)
        except Exception as e:
            out = Raised(e)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op_span(i, op.kind, t0, dt)
        wall += dt
        tally.latencies.append(dt)
        tally.attempted += 1
        try:
            ok = w.check(op, out)
        except Exception as e:      # a malformed output is a wrong answer
            ok = False
            out = Raised(e)
        if not ok:
            tally.failed += 1
            if not op.known_fault:
                tally.unexpected.append(f"{op.kind} {op.args!r:.200}: {out!r:.200}")
        elif op.known_fault:
            tally.unexpected.append(f"known fault did not show: {op.kind} {op.args!r:.200}")
        if sha is not None:
            sha.update(json.dumps(w.record(op, out), sort_keys=True, default=str).encode() + b"\n")
    tally.walls.append(wall)
    if sha is not None:
        tally.digest = sha.hexdigest()


def make_workload(name: str, seed: int):
    from workloads import WORKLOADS, build_fixed
    fixed = build_fixed(name)
    rng = random.Random(f"{name}:{seed}")
    check_rng = random.Random(f"{name}:{seed}:check")
    return WORKLOADS[name](fixed, rng, check_rng, OUT)


def run_plain(name: str, seed: int, seconds: float):
    w = make_workload(name, seed)
    problems = selftest_problems(name, w)
    setup_s = setup_seconds(name)
    ops = w.make_round()
    tally = Tally()
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        run_pass(w, ops, tally)
        now = time.perf_counter()
        if len(tally.walls) >= MIN_PASSES and (now - start) + (now - t_pass) > seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(tally.walls), "s"),
        "op_p50_ms": (statistics.median(tally.latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(tally.latencies, n=10)[8] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    detail = {"operations": len(ops), "passes": len(tally.walls), "pass_walls_s": tally.walls,
              "digest": tally.digest}
    return tally, problems, metrics, detail


def run_traced(name: str, seed: int):
    """Run the round plain, traced, traced, plain: a steady drift in
    machine speed or a warm-up then cancels out of the overhead."""
    from tracing import Tracer
    w = make_workload(name, seed)
    problems = selftest_problems(name, w)
    ops = w.make_round()
    plain, traced, tracer = Tally(), Tally(), Tracer()
    run_pass(w, ops, plain)
    tracer.install()
    try:
        for _ in range(TRACE_PASSES):
            run_pass(w, ops, traced, tracer)
    finally:
        tracer.uninstall()
    run_pass(w, ops, plain)
    if plain.digest != traced.digest:
        problems.append("traced outputs differ from untraced outputs")
    metrics = tracer.metrics(TRACE_PASSES)
    metrics["trace.overhead_s"] = ((sum(traced.walls) - sum(plain.walls)) / TRACE_PASSES, "s")
    tally = Tally()
    tally.attempted = plain.attempted + traced.attempted
    tally.failed = plain.failed + traced.failed
    tally.unexpected = plain.unexpected + traced.unexpected
    tally.digest = plain.digest
    detail = {"digest": plain.digest, "untraced_walls_s": plain.walls,
              "traced_walls_s": traced.walls, "trace": tracer.dump()}
    return tally, problems, metrics, detail


def selftest_problems(name: str, w) -> list[str]:
    from selftest import selftest
    return [f"self-test: {p}" for p in selftest(name, w)]


def reference_digest(name: str, seed: int):
    path = BENCH / "digests.json"
    return json.loads(path.read_text()).get(name, {}).get(str(seed))


def main(argv=None) -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_program()
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        if args.trace:
            tally, problems, wmetrics, detail = run_traced(name, args.seed)
        else:
            tally, problems, wmetrics, detail = run_plain(name, args.seed, args.seconds)
        problems += tally.unexpected
        ok = not problems
        ref = reference_digest(name, args.seed)
        verdict = "no reference" if ref is None else ("matches reference" if ref == tally.digest else
                                                      f"MISMATCH, reference {ref}")
        print(f"{name}: digest of the round {tally.digest} ({verdict})")
        for p in problems:
            print(f"{name}: PROBLEM {p}")
        print(f"{name}: attempted {tally.attempted} failed {tally.failed} correct {str(ok).lower()}")
        for metric, (value, unit) in wmetrics.items():
            print(f"{name}: {metric} {value:.6g} {unit}")
        result = {"workload": name, "seed": args.seed, "trace": args.trace, "correct": ok,
                  "attempted": tally.attempted, "failed": tally.failed, "problems": problems,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in wmetrics.items()},
                  "python": sys.version.split()[0], **detail}
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
        correct = correct and ok
        attempted += tally.attempted
        failed += tally.failed
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in wmetrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
