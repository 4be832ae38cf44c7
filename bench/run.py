#!/usr/bin/env python3
"""stlcp benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; stlcp is imported from ./src.
Workloads: follower-reuse, temperature-search, follower-quant (see
bench/README.md).  The run sets up the workload (timed, repeated
`setup_reps` times), then repeats whole rounds of its operations until the
next round would end after --seconds, then checks every output against
computations made in bench/oracles.py.  With --trace 1 the stlcp layers are
wrapped in spans and the per-layer metrics are reported instead of the
end-to-end ones.  The last line of standard output is the JSON result;
details, including the environment, go to bench/out/.
"""

import os

# one BLAS thread, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
    }


def percentile(xs, q: float) -> float:
    return float(statistics.quantiles(xs, n=100, method="inclusive")[int(q) - 1]) if len(xs) > 1 else float(xs[0])


def run_window(wl, st, ops, seconds: float):
    """Whole rounds until another round would end after `seconds`, and at
    least the workload's `min_rounds` rounds."""
    from workloads import StepClock

    results = []  # (op index, start, end, step samples, outcome | error text)
    rounds = 0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            clock = StepClock()
            t0 = time.perf_counter()
            try:
                out = wl.run_op(st, op, clock)
            except Exception:
                out = traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            results.append((i, t0, t1, clock.samples(t1) if clock.stamps else [t1 - t0], out))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds and rounds >= wl.min_rounds:
            return results, rounds, elapsed


def judge(wl, st, ops, results):
    """Check the first round against the oracles; later rounds must repeat
    it bit for bit.  Returns (failed flag per result, messages per op of the
    round, global errors, check summary)."""
    import oracles
    from workloads import Outcome

    first = [r[4] for r in results[: len(ops)]]
    done = [i for i, out in enumerate(first) if isinstance(out, Outcome)]
    errs, glob, extras = wl.check(oracles, st, [first[i] for i in done], [ops[i] for i in done])
    per_op = [[f"raised: {out}"] for out in first]
    for i, e in zip(done, errs):
        per_op[i] = e
    failed = []
    for i, _, _, _, out in results:
        if isinstance(out, Outcome) and not per_op[i] and out.fingerprint() != first[i].fingerprint():
            per_op[i] = ["a later round gave a different output"]
        failed.append(bool(per_op[i]) or not isinstance(out, Outcome))
    return failed, per_op, glob, extras


def end_to_end(setup_times, results, rss_mb) -> dict:
    """Latencies and throughput pool the whole window.  On a shared machine
    other processes slow the program by up to 1.8x, in phases of seconds to
    minutes; a window of about a minute averages over most of them.  The
    fastest of many repeats of a step was also tried, and moved more from
    run to run: some windows hold no uncontended moment at all."""
    steps = [t for r in results for t in r[3]]
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "runs_per_s": {"value": len(results) / (results[-1][2] - results[0][1]), "unit": "1/s"},
        "step_p50_ms": {"value": 1e3 * statistics.median(steps), "unit": "ms"},
        "step_p95_ms": {"value": 1e3 * percentile(steps, 95), "unit": "ms"},
        "certify_p50_ms": {"value": 1e3 * statistics.median(r[2] - r[1] for r in results), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="stlcp benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stlcp", "synthesis.py")):
        print(f"stlcp sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # imports stlcp

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    setup_times = []
    for _ in range(1 if tracer else wl.setup_reps):
        t0 = time.perf_counter()
        st = wl.setup()
        ops = wl.ops(st)
        setup_times.append(time.perf_counter() - t0)
    mark = tracer.mark() if tracer else 0
    results, rounds, elapsed = run_window(wl, st, ops, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before scipy loads
    if tracer:
        tracer.uninstall()

    failed, per_op, glob, extras = judge(wl, st, ops, results)
    e2e = end_to_end(setup_times, results, rss_mb)
    doc = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "rounds": rounds, "ops_per_round": len(ops),
        "loop_s": elapsed, "setup_times_s": setup_times, "checks": extras,
        "global_errors": glob, "op_errors": {str(i): e for i, e in enumerate(per_op) if e},
        "end_to_end": e2e,
    }
    if tracer:
        from tracer import per_layer

        metrics, missing = per_layer(tracer, mark, rounds, wl.layers)
        glob += [f"layer {name} recorded no span" for name in missing]
        doc["per_layer"] = metrics
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.jsonl"))
    else:
        metrics = e2e
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(doc, fh, indent=1, default=str)

    env = doc["environment"]
    print(f"# {wl.name} seed={args.seed} trace={args.trace} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']} blas_threads={env['blas_threads']}")
    print(f"# {rounds} round(s) of {len(ops)} ops in {elapsed:.2f} s; setup {setup_times}; checks {extras}")
    print(f"# ops: runs_per_s={e2e['runs_per_s']['value']:.4f} "
          f"certify_p50_ms={e2e['certify_p50_ms']['value']:.2f}")
    for msg in glob:
        print(f"# CHECK FAILED: {msg}")
    for i, e in enumerate(per_op):
        for msg in e:
            print(f"# op {i} rejected: {msg}")
    print(json.dumps({
        "correct": not glob,
        "attempted": len(results),
        "failed": sum(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
