#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs each workload at a tiny size, confirms its checks accept the real
outputs, then corrupts one output per workload and confirms the matching
check rejects it:

- follower-reuse: one run's `satisfied` flag flipped (STL evaluator);
- temperature-search: one realized temperature moved by 1e-3 (plant replay);
- follower-quant: one certified root raised by 0.01 (HiGHS LP optimum).

Exits 0 when every case behaves, 1 otherwise.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402


def flip_satisfied(out):
    out.detail["satisfied"] = not out.detail["satisfied"]


def move_state(out):
    out.detail["xs"] = out.detail["xs"].copy()
    out.detail["xs"][1] += 1e-3


def raise_root(out):
    out.detail["root"] += 0.01


CASES = [
    # workload, tiny-size overrides, corruption
    (workloads.FollowerReuse, {"sizes": (10, 20, 2)}, flip_satisfied),
    (workloads.TemperatureSearch, {"runs": 2}, move_state),
    (workloads.FollowerQuant, {"sizes": (10, 20, 0), "certs": 1}, raise_root),
]


def main() -> int:
    ok = True
    for cls, overrides, corrupt in CASES:
        wl = cls(seed=0)
        for k, v in overrides.items():
            setattr(wl, k, v)
        st = wl.setup()
        ops = wl.ops(st)
        outs = [wl.run_op(st, op, workloads.StepClock()) for op in ops]
        clean, _, _ = wl.check(oracles, st, outs, ops)
        bad = copy.copy(outs[0])
        bad.detail = dict(outs[0].detail)
        corrupt(bad)
        dirty, _, _ = wl.check(oracles, st, [bad] + outs[1:], ops)
        accepted = not any(clean)
        rejected = bool(dirty[0])
        ok &= accepted and rejected
        print(f"{'PASS' if accepted and rejected else 'FAIL'} {wl.name}: clean outputs "
              f"{'accepted' if accepted else 'REJECTED: ' + '; '.join(sum(clean, []))}; "
              f"{corrupt.__name__} {'rejected: ' + dirty[0][0] if rejected else 'NOT rejected'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
