"""Acceptance suite: one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured numbers, so
`pytest tests/test_acceptance.py -v -s` reads as a checklist.  The
thresholds are contracts; a red line here means the library is wrong, not
that the tolerance needs loosening.
"""

import json
import math
import time

import numpy as np

from helpers import (
    brute_force_solve,
    grid_min_over_balls,
    kkt_certificate,
    oracle_quantile,
    oracle_robustness,
    random_formula,
    random_trajectory,
    simulate_temperature,
    solve_lp,
    temperature_step,
    tightened_offset,
)
from test_milp import random_milp

from stlcp import stl
from stlcp.casestudies.robot import (
    follower_hint,
    build_robot_specs,
    robot_system,
    run_follower_experiment,
)
from stlcp.casestudies.temperature import (
    TemperatureScenario,
    gen_temperature_dataset,
    temperature_reformulate,
)
from stlcp.cli import main as cli_main
from stlcp.conformal import (
    compute_normalizers,
    conformal_quantile,
    conformal_rank,
    radii_for_delta,
    validate_coverage,
)
from stlcp.encoding import suggest_assignment
from stlcp.milp import dive_solve, solve_bb
from stlcp.prediction import fit_predictor
from stlcp.synthesis import CostSpec, build_step_model, synthesize_open_loop


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_c01_conformal_rank_law():
    t0 = time.perf_counter()
    p = conformal_rank(500, 0.15)
    c = conformal_quantile([0.3, 0.1, 0.7, 0.2], 0.1)
    elapsed = time.perf_counter() - t0
    cases = [
        ([0.5, 0.2, 0.9], 0.2),
        (list(np.linspace(0.1, 2.0, 19)), 0.1),
        ([1.0], 0.5),
        ([0.4, 0.8], 0.05),
    ]
    cross = all(conformal_quantile(s, d) == oracle_quantile(s, d) for s, d in cases)
    ok = p == 426 and c == math.inf and cross and elapsed < 0.5
    verdict(
        1,
        ok,
        f"p(K=500, d=0.15)={p} (want 426), C(K=4, d=0.1)={c} (want inf), "
        f"rank-oracle cross-check={cross}, {elapsed * 1e3:.2f} ms",
    )


def test_c02_temperature_coverage():
    t0 = time.perf_counter()
    sc = TemperatureScenario()
    ds = gen_temperature_dataset(700, seed=0, scenario=sc, sizes=(100, 300, 300))
    predictor = fit_predictor(ds.subset("train"), "cv")
    sigma = compute_normalizers(ds.subset("train"), predictor, sc.t_phi)
    rep = validate_coverage(
        ds, predictor, sigma, sc.delta, mode="open", trials=1000, n_cal=50, n_test=50, seed=0
    )
    single = validate_coverage(
        ds, predictor, sigma, sc.delta, mode="open", trials=2000, n_cal=50, n_test=1, seed=1
    )
    elapsed = time.perf_counter() - t0
    lo, hi = rep.band()
    mean_ok = 0.85 <= rep.mean <= 0.90
    single_ok = lo - 0.03 <= single.mean <= hi + 0.03
    ok = mean_ok and single_ok and elapsed < 120.0
    verdict(
        2,
        ok,
        f"mean coverage {rep.mean:.4f} in [0.85, 0.90]={mean_ok}, single-test rate "
        f"{single.mean:.4f} within +-0.03 of [{lo:.4f}, {hi:.4f}]={single_ok}, {elapsed:.1f} s (< 120)",
    )


def test_c03_tightening_matches_grid():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    step = 2.5e-4
    for _ in range(100):
        dims = tuple(int(rng.integers(1, 3)) for _ in range(int(rng.integers(1, 3))))
        coeff_y = tuple(tuple(0.25 * rng.integers(-8, 9, size=d).astype(float)) for d in dims)
        pred = stl.AffinePredicate((1.0,), coeff_y, float(rng.normal()))
        centers = [rng.normal(size=d) for d in dims]
        radii = [float(rng.uniform(0.05, 0.25)) for _ in dims]
        closed = tightened_offset(pred, centers, radii)
        grid = pred.offset + grid_min_over_balls(coeff_y, centers, radii, step=step)
        worst = max(worst, abs(closed - grid))
    elapsed = time.perf_counter() - t0
    ok = worst <= 2e-3 and elapsed < 30.0
    verdict(
        3,
        ok,
        f"max |closed form - grid| = {worst:.2e} (<= 2e-3) over 100 predicates "
        f"at grid step {step}, {elapsed:.1f} s (< 30)",
    )


def test_c04_kkt_certificate():
    rng = np.random.default_rng(11)
    worst_res = worst_gap = 0.0
    for _ in range(100):
        dims = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4))))
        coeff_y = tuple(tuple(rng.normal(size=d)) for d in dims)
        pred = stl.AffinePredicate((0.5, -1.0), coeff_y, float(rng.normal()))
        centers = [2.0 * rng.normal(size=d) for d in dims]
        radii = [float(rng.uniform(0.1, 2.0)) for _ in dims]
        cert = kkt_certificate(pred, centers, radii)
        worst_res = max(worst_res, cert.max_residual())
        worst_gap = max(worst_gap, abs(cert.value - tightened_offset(pred, centers, radii)))
    ok = worst_res < 1e-10 and worst_gap < 1e-9
    verdict(
        4,
        ok,
        f"max KKT residual {worst_res:.2e} (< 1e-10), max |certificate - closed form| "
        f"{worst_gap:.2e} (< 1e-9), 100 instances",
    )


def test_c05_solver_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    gap_worst = 0.0
    relax_ok = True
    solved = 0
    while solved < 50:
        m = random_milp(rng, int(rng.integers(1, 11)))
        ref = brute_force_solve(m)
        got = solve_bb(m)
        assert got.status == ref.status
        if ref.status != "optimal":
            continue
        solved += 1
        gap_worst = max(gap_worst, abs(got.objective - ref.objective))
        lp = solve_lp(m)
        if not (lp.status == "optimal" and lp.objective <= ref.objective + 1e-6):
            relax_ok = False
    elapsed = time.perf_counter() - t0
    ok = gap_worst <= 1e-6 and relax_ok
    verdict(
        5,
        ok,
        f"50 MILPs (<= 10 binaries): max |bb - brute force| = {gap_worst:.2e} (<= 1e-6), "
        f"LP relaxation <= integer optimum: {relax_ok}, {elapsed:.1f} s",
    )


def test_c06_encoding_soundness(leader_bundle):
    b = leader_bundle
    sc = b.sc
    spec = build_robot_specs(sc)[0]
    cs = stl.compile_spec(spec)  # evaluated 8000 times below
    t_phi = sc.horizon
    table = b.predictor.table
    predictions = {(tau, 0): table.get(0, tau, 0) for tau in range(1, t_phi + 1)}
    y0 = np.asarray(b.dataset.subset("train")[0].ys[0][0], dtype=float)
    hint = follower_hint(sc)
    deltas = (0.05, 0.1, 0.15, 0.2)
    rng = np.random.default_rng(29)

    def sample_realizations(radius, n):
        # uniform in each ball, with a quarter of the draws on the boundary
        out = np.empty((n, t_phi + 1, 2))
        out[:, 0] = y0
        for tau in range(1, t_phi + 1):
            r = radius(tau, 0)
            ang = rng.uniform(0.0, 2.0 * math.pi, size=n)
            rad = r * np.sqrt(rng.uniform(0.0, 1.0, size=n))
            rad[: n // 4] = r
            out[:, tau] = predictions[(tau, 0)] + np.stack(
                [rad * np.cos(ang), rad * np.sin(ang)], axis=1
            )
        return out

    t0 = time.perf_counter()
    n_sat = 0
    min_margin = math.inf
    for j in range(20):
        rd = radii_for_delta(b.radii, b.cal_ol, b.cal_cl, deltas[j % 4])
        pos = rng.uniform(0.5, 1.5, size=2)
        sys_j = robot_system(sc, x0=(pos[0], 0.0, pos[1], 0.0))
        res = synthesize_open_loop(
            sys_j, spec, {0: y0}, predictions, rd.open_radius, mode="qual", hint_xs=hint
        )
        assert res.status == "optimal" and res.root_value == 1.0, f"instance {j}"
        for ys in sample_realizations(rd.open_radius, 200):
            n_sat += int(stl.eval_boolean(cs, stl.JointTrajectory(res.xs, (ys,)), 0))

        sm = build_step_model(
            sys_j, spec, 0, {0: sys_j.x0}, {(0, 0): y0}, predictions, rd.open_radius,
            mode="quant", cost=CostSpec("max-robustness"),
        )
        sol = dive_solve(sm.model, suggest_assignment(sm.ctx, sm.enc, hint))
        if sol.status != "optimal":
            # binary choices read off the qualitative plan instead
            sol = dive_solve(sm.model, suggest_assignment(sm.ctx, sm.enc, res.xs))
        assert sol.status == "optimal", f"instance {j}: no quantitative certificate"
        root = sol.x[sm.root]
        xs_q = sm.plan_states(sol.x)
        for ys in sample_realizations(rd.open_radius, 200):
            rho = stl.eval_robustness(cs, stl.JointTrajectory(xs_q, (ys,)), 0)
            min_margin = min(min_margin, rho - root)
    elapsed = time.perf_counter() - t0
    bool_ok = n_sat == 20 * 200
    quant_ok = min_margin >= -1e-6
    verdict(
        6,
        bool_ok and quant_ok,
        f"boolean: {n_sat}/4000 in-ball realizations satisfied ({bool_ok}), quantitative: "
        f"min(realized - certified root) = {min_margin:.3e} >= -1e-6 ({quant_ok}), {elapsed:.1f} s",
    )


def test_c07_probabilistic_guarantee():
    t0 = time.perf_counter()
    exp = run_follower_experiment(n_runs=300, seed=11, sizes=(50, 100, 300))
    elapsed = time.perf_counter() - t0
    rep = exp.report
    if rep is None:
        verdict(7, False, "experiment produced no guarantee report")
        return
    ok = rep.passed and rep.lower_bound >= 0.85 and elapsed < 900.0
    verdict(
        7,
        ok,
        f"{rep.successes}/{rep.n} runs satisfied, binomial 95% lower bound "
        f"{rep.lower_bound:.4f} >= 0.85: {rep.lower_bound >= 0.85}, "
        f"{elapsed:.1f} s (< 900)",
    )


def test_c08_reformulation_exactness():
    sc = TemperatureScenario()
    sys = temperature_reformulate(sc)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        us = rng.uniform(0.0, 1.0, size=25)
        xs_bilinear = simulate_temperature(sc, us)
        x = np.array([sc.x0])
        for k, u in enumerate(us):
            w = np.array([(sc.t_heater - float(x[0])) * u])
            x = sys.step(x, w)
            worst = max(worst, abs(float(x[0]) - xs_bilinear[k + 1]))
    hand_bilinear = temperature_step(sc, 5.0, 1.0)
    hand_linear = float(sys.step(np.array([5.0]), np.array([50.0]))[0])
    ok = worst <= 1e-9 and hand_bilinear == 13.0 and hand_linear == 13.0
    verdict(
        8,
        ok,
        f"max |bilinear - substituted| = {worst:.2e} (<= 1e-9) over 100 sequences, "
        f"x1 from (x0=5, u=1): bilinear {hand_bilinear}, linear {hand_linear} (want 13.0 exactly)",
    )


def test_c09_stl_semantics():
    rng = np.random.default_rng(3)
    worst = 0.0
    checked = 0
    for _ in range(1000):
        f = random_formula(rng, n_x=2, agent_dims=(1, 2), depth=3)
        need = int(stl.horizon(f))
        traj = random_trajectory(rng, need + int(rng.integers(0, 3)), n_x=2, agent_dims=(1, 2))
        got = stl.eval_robustness(f, traj, 0)
        want = oracle_robustness(f, traj, 0)
        if math.isinf(got) or math.isinf(want):
            assert got == want
        else:
            worst = max(worst, abs(got - want))
        checked += 1
    pi = stl.Pred(stl.AffinePredicate((1.0,), ((0.0,),), -1.0))
    t = stl.horizon(stl.Eventually(3, 8, stl.Always(1, 2, pi)))
    ok = worst <= 1e-12 and t == 10 and checked == 1000
    verdict(
        9,
        ok,
        f"max |robustness - oracle| = {worst:.2e} (<= 1e-12) over {checked} pairs, "
        f"horizon(F[3,8]G[1,2]pi) = {t} (want 10)",
    )


def test_c10_cli_reproducibility(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scenario": "temperature", "seed": 3, "sizes": [30, 50, 40]}))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        for sub in ("gen-data", "calibrate", "synth-open"):
            code = cli_main([sub, "--config", str(cfg), "--out", str(out)])
            assert code == 0, (tag, sub)
        outs.append(out)
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    same = [(outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names]
    ok = bool(names) and all(same)
    verdict(
        10,
        ok,
        f"two same-seed pipeline runs: {sum(same)}/{len(names)} csv artifacts byte-identical "
        f"({', '.join(names)})",
    )
