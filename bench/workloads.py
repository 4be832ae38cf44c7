"""The three workloads: set-up, one round of operations, and their checks.

Each workload drives stlcp only through public functions, called as module
attributes so that the tracer's wrappers are picked up.  An operation is one
closed-loop run (follower-reuse, temperature-search) or one certification
(follower-quant).  A round is the fixed, seed-determined list of operations;
the harness in run.py repeats whole rounds, so every round does exactly the
same work.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from stlcp import conformal, encoding, milp, prediction, synthesis
from stlcp.casestudies import robot, temperature

class StepClock:
    """Wraps the workload's predict(k) callback; a closed-loop step lasts
    from one predict call to the next, the last one until the run returns."""

    def __init__(self):
        self.stamps: list[float] = []

    def wrap(self, predict):
        def timed(k):
            self.stamps.append(time.perf_counter())
            return predict(k)

        return timed

    def samples(self, end: float) -> list[float]:
        ts = self.stamps + [end]
        return [b - a for a, b in zip(ts, ts[1:])]


@dataclass
class Outcome:
    """What one operation returned, as the checks and the counts need it."""

    status: str
    detail: dict = field(default_factory=dict)

    def fingerprint(self):
        """Exact summary compared across rounds: identical inputs must give
        bit-identical outputs."""
        return (self.status,) + tuple(np.asarray(self.detail.get(k, ())).tobytes() for k in ("xs", "us", "root"))


def follower_route(sc) -> np.ndarray:
    """Waypoint route for the follower: start, both staging regions, and the
    follower's goal corner, linearly interpolated with matching velocities.
    Seeds the base plan and the certification dives."""
    r1, r2, r3, r4 = sc.region1, sc.region2, sc.region3, sc.region4
    c1x, c1y, c2x = 0.5 * (r1[0] + r1[1]), 0.5 * (r1[2] + r1[3]), 0.5 * (r2[0] + r2[1])
    final_x = r4[1] - 0.3
    anchors = [
        (0, sc.x0[0], sc.x0[2]),
        (4, c1x, c1y - 0.4),
        (6, c1x, c1y + 0.4),
        (9, c2x - 0.2, r2[2] + 1.2),
        (13, c2x + 0.2, r2[2] + 0.35),
        (18, final_x, r3[2] + 1.5),
        (20, final_x, r3[2] + 1.0),
    ]
    t = np.arange(sc.horizon + 1)
    xs = np.zeros((sc.horizon + 1, 4))
    xs[:, 0] = np.interp(t, [a[0] for a in anchors], [a[1] for a in anchors])
    xs[:, 2] = np.interp(t, [a[0] for a in anchors], [a[2] for a in anchors])
    xs[:-1, 1] = np.diff(xs[:, 0])
    xs[:-1, 3] = np.diff(xs[:, 2])
    return xs


def _closed_loop_detail(res) -> dict:
    return {
        "xs": res.xs, "us": res.us, "ys": res.ys, "satisfied": res.satisfied,
        "rho": res.realized_robustness, "recovered": res.recovered_us,
        "steps": [(r.k, r.solved_by, r.status) for r in res.records],
    }


def _check_closed_loop(oracles, spec, out: Outcome, replay, score: float, c_cl: float, rebuild) -> list[str]:
    """Checks shared by both closed-loop workloads: plant replay, the
    satisfied flag and robustness against the benchmark's evaluator, the
    soundness property, and a HiGHS verdict on every step decided by dive
    or search and on the step a run aborted at."""
    d = out.detail
    errs = replay(d)
    for k, solved_by, status in d["steps"]:
        if solved_by != "reuse" and status == "optimal" and not oracles.highs_feasible(rebuild(k)):
            errs.append(f"step {k} solved by {solved_by} but HiGHS finds it infeasible")
    if out.status == "optimal":
        ys = tuple(np.asarray(y, dtype=float) for y in d["ys"])
        sat = oracles.holds(spec, d["xs"], ys)
        if sat != d["satisfied"]:
            errs.append(f"satisfied flag {d['satisfied']} but the benchmark's evaluator says {sat}")
        rho = float(oracles.robustness(spec, d["xs"], ys))
        if abs(rho - d["rho"]) > 1e-9 * max(1.0, abs(rho)):
            errs.append(f"robustness {d['rho']} but the benchmark's evaluator says {rho}")
        if score <= c_cl and not sat:
            errs.append(f"agents stayed in the one-step regions (score {score:.4f} <= {c_cl:.4f}) "
                        "but the task was violated")
    elif out.status == "infeasible":
        if oracles.highs_feasible(rebuild(d["steps"][-1][0])):
            errs.append(f"run aborted at k={d['steps'][-1][0]} but HiGHS finds the step feasible")
    else:
        errs.append(f"run ended in status {out.status}")
    return errs


def _rebuild(plant, spec, out: Outcome, k: int, preds, radius):
    """The step-k model the closed loop solved, rebuilt from its inputs."""
    d = out.detail
    ys_obs = {(tau, i): np.asarray(y)[tau] for tau in range(k + 1) for i, y in enumerate(d["ys"])}
    return synthesis.build_step_model(
        plant, spec, k, {tau: d["xs"][tau] for tau in range(k + 1)}, ys_obs, preds(k),
        lambda tau, i: radius(k, tau, i),
    ).model


# ---------------------------------------------------------------------------
# follower-reuse


class FollowerReuse:
    """Robot follower, qualitative mode, mean-path predictor, closed loop on
    held-out leaders; every step today is answered by plan reuse."""

    name = "follower-reuse"
    layers = ("stl", "prediction", "conformal", "encoding", "milp", "synthesis", "robot")
    sizes = (20, 40, 100)  # train, cal, held-out leaders
    min_rounds = 1
    setup_reps = 2  # a set-up takes 6-8 s
    slack = 0.05  # Wilson bound must reach 1 - delta - slack

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        sc = robot.RobotScenario()
        ds, stats = robot.gen_robot_leader_dataset(
            sum(self.sizes), self.seed, scenario=sc, sizes=self.sizes, return_stats=True,
        )
        train = ds.subset("train")
        pred = robot.mean_path_predictor(train, sc.horizon)
        sigma = conformal.compute_normalizers(train, pred, sc.horizon)
        radii = conformal.calibrate(ds.subset("cal"), pred, sigma, sc.delta)
        spec = robot.build_robot_specs(sc)[0]
        plant = robot.robot_system(sc)
        table = pred.table

        def preds_at(k):
            return {(tau, 0): table.get(k, tau, 0) for tau in range(k + 1, sc.horizon + 1)}

        base = synthesis.synthesize_open_loop(
            plant, spec, {0: sc.start_pos}, preds_at(0), lambda tau, i: radii.closed_radius(0, tau, i),
            hint_xs=follower_route(sc),
        )
        if not base.feasible:
            raise RuntimeError(f"base follower plan is {base.status}")
        return dict(sc=sc, ds=ds, stats=stats, radii=radii, spec=spec, plant=plant, preds=preds_at,
                    base=base, test=ds.subset("test"))

    def ops(self, st) -> list:
        return list(range(len(st["test"])))

    def run_op(self, st, j: int, clock: StepClock) -> Outcome:
        base, radii = st["base"], st["radii"]
        res = synthesis.run_closed_loop(
            st["plant"], st["spec"], (st["test"][j].ys[0],), clock.wrap(st["preds"]),
            lambda k, tau, i: radii.closed_radius(k, tau, i),
            hint_xs=base.xs, hint_us={tau: base.us[tau] for tau in range(len(base.us))},
        )
        return Outcome(res.status, _closed_loop_detail(res))

    def check(self, oracles, st, outs: list[Outcome], ops: list):
        sc, spec, ds = st["sc"], st["spec"], st["ds"]
        train = ds.subset("train")
        forecast = oracles.mean_forecast(train, sc.horizon)
        sigma = oracles.one_step_sigma(train, forecast, sc.horizon)
        cal_scores = [oracles.closed_loop_score(tr, forecast, sc.horizon, sigma) for tr in ds.subset("cal")]
        c_cl = oracles.conformal_quantile(cal_scores, sc.delta)
        glob = []
        if not math.isclose(c_cl, st["radii"].c_cl, rel_tol=1e-9):
            glob.append(f"calibrated C_CL {st['radii'].c_cl} but the benchmark computes {c_cl}")
        radii = st["radii"]
        errs = []
        sat = 0
        for j, out in zip(ops, outs):
            score = oracles.closed_loop_score(st["test"][j], forecast, sc.horizon, sigma)
            e = _check_closed_loop(
                oracles, spec, out, lambda d: oracles.replay_robot(d["xs"], d["us"]), score, c_cl,
                lambda k: _rebuild(st["plant"], spec, out, k, st["preds"], radii.closed_radius),
            )
            errs.append(e)
            sat += int(out.status == "optimal" and not e and out.detail["satisfied"])
        n = len(outs)
        if n < 100:
            glob.append(f"only {n} held-out runs; the Wilson check needs 100")
        else:
            lb = oracles.wilson_lower(sat, n)
            if lb < 1.0 - sc.delta - self.slack:
                glob.append(f"Wilson 95% lower bound {lb:.4f} below {1.0 - sc.delta - self.slack:.4f} ({sat}/{n})")
        return errs, glob, {"satisfied": sat, "c_cl": c_cl}


# ---------------------------------------------------------------------------
# temperature-search


class TemperatureSearch:
    """Hall temperature, qualitative mode, constant-velocity predictor,
    closed loop on held-out room trajectories; the branch-and-bound path.

    The rooms are fixed: the first `runs` held-out rooms of data seed 0, the
    split the controller is calibrated on; --seed seeds the coverage
    validation.  Per-room cost spans 0.2 s to 8 s (infeasibility proofs of up
    to ~1000 nodes), so a fresh random draw of 20 rooms moved throughput by a
    quarter between seeds."""

    name = "temperature-search"
    layers = ("stl", "prediction", "conformal", "encoding", "milp", "synthesis", "temperature")
    data_seed = 0
    sizes = (100, 300, 300)  # train, cal, held-out rooms
    runs = 7  # held-out rooms per round; two of them end in k = 0 proofs
    coverage_trials = 200
    coverage_tol = 0.03
    setup_reps = 3

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        sc = temperature.TemperatureScenario()
        ds = temperature.gen_temperature_dataset(sum(self.sizes), self.data_seed, scenario=sc, sizes=self.sizes)
        train = ds.subset("train")
        pred = prediction.fit_predictor(train, "cv")
        sigma = conformal.compute_normalizers(train, pred, sc.t_phi)
        radii = conformal.calibrate(ds.subset("cal"), pred, sigma, sc.delta)
        cov = conformal.validate_coverage(ds, pred, sigma, sc.delta, mode="closed",
                                          trials=self.coverage_trials, seed=self.seed)
        return dict(sc=sc, ds=ds, pred=pred, radii=radii, coverage=cov, held=ds.subset("test"),
                    plant=temperature.temperature_reformulate(sc),
                    spec=temperature.build_temperature_spec(sc.horizon, sc.comfort_gap))

    min_rounds = 3

    def ops(self, st) -> list:
        return list(range(self.runs))

    def run_op(self, st, j: int, clock: StepClock) -> Outcome:
        tr, sc, radii = st["held"][j], st["sc"], st["radii"]
        table = prediction.prediction_table(st["pred"], tr, sc.t_phi)
        res = synthesis.run_closed_loop(
            st["plant"], st["spec"], tr.ys, clock.wrap(table.row),
            lambda k, tau, i: radii.closed_radius(k, tau, i),
        )
        out = Outcome(res.status, _closed_loop_detail(res))
        out.detail["table"] = table
        return out

    def check(self, oracles, st, outs: list[Outcome], ops: list):
        sc, spec, ds, radii = st["sc"], st["spec"], st["ds"], st["radii"]
        train = ds.subset("train")
        sigma = oracles.one_step_sigma(train, oracles.cv_forecast, sc.t_phi)
        c_cl = oracles.conformal_quantile(
            [oracles.closed_loop_score(tr, oracles.cv_forecast, sc.t_phi, sigma) for tr in ds.subset("cal")],
            sc.delta,
        )
        glob = []
        if not math.isclose(c_cl, radii.c_cl, rel_tol=1e-9):
            glob.append(f"calibrated C_CL {radii.c_cl} but the benchmark computes {c_cl}")
        cov = st["coverage"]
        lo, hi = 1.0 - sc.delta, 1.0 - sc.delta + 1.0 / (cov.n_cal + 1)
        if not lo - self.coverage_tol <= cov.mean <= hi + self.coverage_tol:
            glob.append(f"closed-loop coverage {cov.mean:.4f} outside [{lo:.4f}, {hi:.4f}] +- {self.coverage_tol}")
        errs = []
        aborts = {}
        for j, out in zip(ops, outs):
            preds = out.detail["table"].row
            errs.append(_check_closed_loop(
                oracles, spec, out,
                lambda d: oracles.replay_temperature(d["xs"], d["us"], d["recovered"]),
                oracles.closed_loop_score(st["held"][j], oracles.cv_forecast, sc.t_phi, sigma), c_cl,
                lambda k: _rebuild(st["plant"], spec, out, k, preds, radii.closed_radius),
            ))
            if out.status == "infeasible":
                k = str(out.detail["steps"][-1][0])
                aborts[k] = aborts.get(k, 0) + 1
        return errs, glob, {"aborted_at_k": aborts}


# ---------------------------------------------------------------------------
# follower-quant


class FollowerQuant:
    """The c06 certification path swept over start positions and delta:
    qualitative step-0 plan, quantitative max-robustness step-0 model, and a
    dive on the waypoint route's assignment, falling back to the
    qualitative plan's."""

    name = "follower-quant"
    layers = ("stl", "prediction", "conformal", "encoding", "milp", "synthesis", "robot")
    cal_seed = 0  # leaders for the calibration; --seed draws the start positions
    sizes = (25, 50, 0)
    deltas = (0.05, 0.1, 0.15, 0.2)
    certs = 4  # per round, one per delta
    min_rounds = 1  # its large LPs time steadily, so the round need not repeat
    samples = 200  # in-ball realizations checked per certification
    setup_reps = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        sc = robot.RobotScenario()
        ds, stats = robot.gen_robot_leader_dataset(
            sum(self.sizes), self.cal_seed, scenario=sc, sizes=self.sizes, return_stats=True,
        )
        train = ds.subset("train")
        pred = robot.mean_path_predictor(train, sc.horizon)
        sigma = conformal.compute_normalizers(train, pred, sc.horizon)
        cal = ds.subset("cal")
        radii = conformal.calibrate(cal, pred, sigma, sc.delta)
        cal_ol, cal_cl = conformal.trajectory_scores(cal, pred, sigma)
        table = pred.table
        return dict(sc=sc, stats=stats, radii=radii, cal_ol=cal_ol, cal_cl=cal_cl,
                    spec=robot.build_robot_specs(sc)[0], hint=follower_route(sc),
                    preds={(tau, 0): table.get(0, tau, 0) for tau in range(1, sc.horizon + 1)},
                    y0=np.asarray(train[0].ys[0][0], dtype=float))

    def ops(self, st) -> list:
        rng = np.random.default_rng(self.seed)
        return [(self.deltas[j % len(self.deltas)], tuple(rng.uniform(0.5, 1.5, size=2))) for j in range(self.certs)]

    def run_op(self, st, op, clock: StepClock) -> Outcome:
        delta, pos = op
        sc, spec, preds, y0 = st["sc"], st["spec"], st["preds"], st["y0"]
        rd = conformal.radii_for_delta(st["radii"], st["cal_ol"], st["cal_cl"], delta)
        x0 = (pos[0], 0.0, pos[1], 0.0)
        plant = robot.robot_system(sc, x0=x0)
        qual = synthesis.synthesize_open_loop(plant, spec, {0: y0}, preds, rd.open_radius, mode="qual",
                                              hint_xs=st["hint"])
        if qual.status != "optimal":
            return Outcome(qual.status)
        sm = synthesis.build_step_model(
            plant, spec, 0, {0: plant.x0}, {(0, 0): y0}, preds, rd.open_radius,
            mode="quant", cost=synthesis.CostSpec("max-robustness"),
        )
        assign = encoding.suggest_assignment(sm.ctx, sm.enc, st["hint"])
        sol = milp.dive_solve(sm.model, assign)
        source = "route"
        if sol.status != "optimal":
            assign = encoding.suggest_assignment(sm.ctx, sm.enc, qual.xs)
            sol = milp.dive_solve(sm.model, assign)
            source = "qual-plan"
        if sol.status != "optimal":
            return Outcome("no-certificate")
        us = sm.plan_inputs(sol.x)
        return Outcome("optimal", {
            "x0": np.array(x0), "radius": [rd.open_radius(tau, 0) for tau in range(1, sc.horizon + 1)],
            "qual_xs": qual.xs, "qual_us": qual.us, "xs": sm.plan_states(sol.x),
            "us": np.stack([us[tau] for tau in range(sc.horizon)]), "root": float(sol.x[sm.root]),
            "objective": sol.objective, "model": sm.model, "assign": assign, "source": source,
        })

    def check(self, oracles, st, outs: list[Outcome], ops: list):
        sc, spec, preds = st["sc"], st["spec"], st["preds"]
        rng = np.random.default_rng(self.seed + 29)
        errs = []
        worst = math.inf
        for out in outs:
            d = out.detail
            if out.status != "optimal":
                errs.append([f"certification ended in {out.status}"])
                continue
            e = oracles.replay_robot(d["qual_xs"], d["qual_us"], x0=d["x0"])
            e += oracles.replay_robot(d["xs"], d["us"], x0=d["x0"])
            ys = _ball_samples(rng, st["y0"], preds, d["radius"], self.samples)
            if np.any(oracles.robustness(spec, d["qual_xs"], (ys,)) < 0.0):
                e.append("qualitative plan violated by an in-ball realization")
            margin = float(np.min(oracles.robustness(spec, d["xs"], (ys,)) - d["root"]))
            worst = min(worst, margin)
            if margin < -1e-6:
                e.append(f"realized robustness below the certified root by {-margin:.3e}")
            ref = oracles.highs_fixed_lp(d["model"], d["assign"])
            tol = 1e-6 * max(1.0, abs(d["root"]))
            if ref is None:
                e.append("HiGHS finds the dive LP infeasible")
            elif abs(ref - d["objective"]) > tol or abs(ref + d["root"]) > tol:
                e.append(f"dive optimum {d['objective']} (root {d['root']}) but HiGHS gives {ref}")
            errs.append(e)
        return errs, [], {"min_margin": worst}


def _ball_samples(rng, y0, preds, radius, n: int) -> np.ndarray:
    """n leader realizations uniform in every prediction ball, a quarter of
    them on the boundary; (n, T+1, 2)."""
    t_phi = len(radius)
    out = np.empty((n, t_phi + 1, 2))
    out[:, 0] = y0
    for tau in range(1, t_phi + 1):
        r = radius[tau - 1]
        ang = rng.uniform(0.0, 2.0 * math.pi, size=n)
        rad = r * np.sqrt(rng.uniform(0.0, 1.0, size=n))
        rad[: n // 4] = r
        out[:, tau] = preds[(tau, 0)] + np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    return out


WORKLOADS = {w.name: w for w in (FollowerReuse, TemperatureSearch, FollowerQuant)}
