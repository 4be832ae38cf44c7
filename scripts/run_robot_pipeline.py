#!/usr/bin/env python3
"""Closed-loop follower experiment with the end-to-end guarantee check.

Generates leader trajectories, calibrates prediction regions at delta, runs
the follower on held-out leaders, and prints the binomial lower bound on
the satisfaction rate next to the 1 - delta target.  Leaves the shared
baseline plan as a CSV for inspection.
"""

import argparse
import os

from stlcp.casestudies import run_follower_experiment
from stlcp.synthesis import write_trajectory_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/robot")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--runs", type=int, default=300)
    ap.add_argument("--sizes", type=int, nargs=3, default=(50, 100, 300),
                    metavar=("TRAIN", "CAL", "TEST"))
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    exp = run_follower_experiment(n_runs=args.runs, seed=args.seed, sizes=tuple(args.sizes))
    stats = exp.gen_stats
    print(f"leader generation: {stats.kept} kept, {stats.discarded} discarded, "
          f"{stats.dives} replan dives, {stats.searches} searches")
    print(f"calibration: p={exp.radii.rank}/{exp.radii.n_cal} "
          f"C_OL={exp.radii.c_ol:.4f} C_CL={exp.radii.c_cl:.4f}")
    print(f"step solves: {exp.solved_by}, aborted runs: {exp.aborted}")
    if exp.report is not None:
        print(exp.report.line())
    print(f"runtime: {exp.runtime:.1f}s")

    base = exp.base
    write_trajectory_csv(os.path.join(args.out, "baseline_plan.csv"), base.xs, base.us)
    print(f"artifacts in {args.out}")
    return 0 if exp.report is None or exp.report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
