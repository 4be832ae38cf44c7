"""Leader-follower motion planning for two planar double integrators.

The leader visits two staging regions on schedule, then settles into its
corner of a shared goal area; the follower must keep within communication
range of the leader the whole time, dodge the same obstacles, and occupy
the neighbouring goal corner.  Only the follower is ours to control: the
leader replans around random per-step position disturbances, so from the
follower's side it is an uncontrollable agent known through a trajectory
predictor and conformal prediction regions.

State convention for both robots: [p_x, v_x, p_y, v_y] with unit sampling
time, positions in [0,10], speeds within +-1.5, accelerations within +-1.
The follower task reads the leader through one 2-d agent signal (its
position); the leader task is written over the leader's own state and has
no agent signals at all.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..conformal import RegionRadii, calibrate, compute_normalizers
from ..prediction import (
    AgentTrajectory,
    FilePredictor,
    PredictionTable,
    split_dataset,
)
from ..stl import (
    AffinePredicate,
    Always,
    And,
    CompiledSpec,
    Eventually,
    Formula,
    JointTrajectory,
    Or,
    Pred,
    compile_spec,
    eval_boolean,
    to_pnf,
)
from ..synthesis import (
    ControlResult,
    CostSpec,
    GuaranteeReport,
    SystemModel,
    TrackingTerm,
    build_step_model,
    evaluate_guarantee,
    run_closed_loop,
    solve_step,
    synthesize_open_loop,
)

Box = tuple[float, float, float, float]  # x_lo, x_hi, y_lo, y_hi

_PX, _VX, _PY, _VY = 0, 1, 2, 3

# feedback gains used when replaying a reference plan from a disturbed state
_KP, _KV = 0.4, 1.0
# future atom margin a replayed plan must keep to be accepted without a solve
_CHECK_MARGIN = 0.2


@dataclass(frozen=True)
class RobotScenario:
    """Workspace geometry and task constants for both robots."""

    horizon: int = 20
    d_close: float = 2.0  # communication range, infinity norm
    disturbance: float = 0.15  # per-step uniform position offset on the leader
    delta: float = 0.1
    x0: tuple[float, float, float, float] = (1.0, 0.0, 1.0, 0.0)
    pos_lo: float = 0.0
    pos_hi: float = 10.0
    vel_lim: float = 1.5
    acc_lim: float = 1.0
    region1: Box = (0.0, 2.0, 4.0, 6.0)  # leader staging, hold during [4,6]
    region2: Box = (3.5, 6.5, 8.0, 10.0)  # leader staging, hold during [9,13]
    region3: Box = (8.5, 10.0, 0.0, 2.0)  # leader goal corner
    region4: Box = (7.0, 8.5, 0.0, 2.0)  # follower goal corner
    obstacles: tuple[Box, ...] = (
        (1.6, 2.6, 2.0, 3.0),
        (8.3, 9.3, 6.5, 7.5),
        (5.7, 6.7, 2.7, 3.7),
    )
    prefix_len: int = 2

    @property
    def a_mat(self) -> np.ndarray:
        return np.array(
            [[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]]
        )

    @property
    def b_mat(self) -> np.ndarray:
        return np.array([[0.5, 0.0], [1.0, 0.0], [0.0, 0.5], [0.0, 1.0]])

    @property
    def state_box(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return (
            (self.pos_lo, -self.vel_lim, self.pos_lo, -self.vel_lim),
            (self.pos_hi, self.vel_lim, self.pos_hi, self.vel_lim),
        )

    @property
    def input_box(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return ((-self.acc_lim, -self.acc_lim), (self.acc_lim, self.acc_lim))

    @property
    def start_pos(self) -> np.ndarray:
        return np.array([self.x0[_PX], self.x0[_PY]])


def robot_system(sc: RobotScenario, x0: Sequence[float] | None = None) -> SystemModel:
    """Double integrator plant shared by leader and follower."""
    return SystemModel(
        sc.a_mat,
        sc.b_mat,
        np.zeros(4),
        sc.x0 if x0 is None else x0,
        state_box=sc.state_box,
        input_box=sc.input_box,
    )


# ---------------------------------------------------------------------------
# specifications


def _own_atom(axis: int, sign: float, bound: float, name: str, n_agents: int) -> Pred:
    """sign * own_position_axis - sign * bound >= 0."""
    cx = [0.0] * 4
    cx[axis] = sign
    return Pred(AffinePredicate(tuple(cx), ((0.0, 0.0),) * n_agents, -sign * bound, name=name))


def _inside(box: Box, tag: str, n_agents: int) -> And:
    xl, xh, yl, yh = box
    return And(
        (
            _own_atom(_PX, 1.0, xl, f"{tag}:x>={xl}", n_agents),
            _own_atom(_PX, -1.0, xh, f"{tag}:x<={xh}", n_agents),
            _own_atom(_PY, 1.0, yl, f"{tag}:y>={yl}", n_agents),
            _own_atom(_PY, -1.0, yh, f"{tag}:y<={yh}", n_agents),
        )
    )


def _outside(box: Box, tag: str, n_agents: int) -> Or:
    xl, xh, yl, yh = box
    return Or(
        (
            _own_atom(_PX, -1.0, xl, f"{tag}:x<={xl}", n_agents),
            _own_atom(_PX, 1.0, xh, f"{tag}:x>={xh}", n_agents),
            _own_atom(_PY, -1.0, yl, f"{tag}:y<={yl}", n_agents),
            _own_atom(_PY, 1.0, yh, f"{tag}:y>={yh}", n_agents),
        )
    )


def _close_atom(axis: int, sign: float, d: float, name: str) -> Pred:
    """d - sign*(P_axis - p_axis) >= 0 linking leader position to follower."""
    cx = [0.0] * 4
    cx[axis] = sign
    cy = [0.0, 0.0]
    cy[_PX if axis == _PX else 1] = -sign
    return Pred(AffinePredicate(tuple(cx), (tuple(cy),), d, name=name))


def build_robot_specs(sc: RobotScenario = RobotScenario()) -> tuple[Formula, Formula]:
    """(follower task, leader task), both already in positive normal form.

    The follower keeps the leader within the box distance d_close at every
    step, avoids the obstacles, and parks in its goal corner for 3 steps
    starting somewhere in [16,18].  The leader holds the two staging regions
    on schedule, parks in its own corner, and avoids the same obstacles.
    """
    close = And(
        (
            _close_atom(_PX, 1.0, sc.d_close, "close:dx<=D"),
            _close_atom(_PX, -1.0, sc.d_close, "close:dx>=-D"),
            _close_atom(_PY, 1.0, sc.d_close, "close:dy<=D"),
            _close_atom(_PY, -1.0, sc.d_close, "close:dy>=-D"),
        )
    )
    obs1 = And(tuple(_outside(b, f"obs{j+1}", 1) for j, b in enumerate(sc.obstacles)))
    obs2 = And(tuple(_outside(b, f"obs{j+1}", 0) for j, b in enumerate(sc.obstacles)))
    follower = And(
        (
            Eventually(16, 18, Always(0, 2, _inside(sc.region4, "goal1", 1))),
            Always(0, sc.horizon, And((close, obs1))),
        )
    )
    leader = And(
        (
            Always(4, 6, _inside(sc.region1, "stage1", 0)),
            Always(9, 13, _inside(sc.region2, "stage2", 0)),
            Eventually(16, 18, Always(0, 2, _inside(sc.region3, "goal2", 0))),
            Always(0, sc.horizon, obs2),
        )
    )
    return to_pnf(follower), to_pnf(leader)


# ---------------------------------------------------------------------------
# route hints: coarse waypoint paths used to seed solver dives and as
# tracking targets; the LP reconciles kinematics, these just fix which side
# of each obstacle and which witness time the plan commits to.


def _route_anchors(sc: RobotScenario, final_x: float) -> list[tuple[int, float, float]]:
    r1, r2, r3 = sc.region1, sc.region2, sc.region3
    c1x = 0.5 * (r1[0] + r1[1])
    c1y = 0.5 * (r1[2] + r1[3])
    c2x = 0.5 * (r2[0] + r2[1])
    return [
        (0, sc.x0[_PX], sc.x0[_PY]),
        (4, c1x, c1y - 0.4),
        (6, c1x, c1y + 0.4),
        (9, c2x - 0.2, r2[2] + 1.2),
        (13, c2x + 0.2, r2[2] + 0.35),
        (18, final_x, r3[2] + 1.5),
        (20, final_x, r3[2] + 1.0),
    ]


def _hint_states(anchors: list[tuple[int, float, float]], t_phi: int) -> np.ndarray:
    xs = np.zeros((t_phi + 1, 4))
    times = [a[0] for a in anchors]
    xs[:, _PX] = np.interp(np.arange(t_phi + 1), times, [a[1] for a in anchors])
    xs[:, _PY] = np.interp(np.arange(t_phi + 1), times, [a[2] for a in anchors])
    xs[:-1, _VX] = np.diff(xs[:, _PX])
    xs[:-1, _VY] = np.diff(xs[:, _PY])
    return xs


def _leader_hint(sc: RobotScenario) -> np.ndarray:
    return _hint_states(_route_anchors(sc, sc.region3[0] + 0.4), sc.horizon)


def follower_hint(sc: RobotScenario) -> np.ndarray:
    return _hint_states(_route_anchors(sc, sc.region4[1] - 0.3), sc.horizon)


# ---------------------------------------------------------------------------
# leader dataset


@dataclass
class LeaderGenStats:
    """Bookkeeping from gen_robot_leader_dataset."""

    kept: int = 0
    discarded: int = 0
    checks: int = 0  # replayed plans checked
    dives: int = 0  # replans: steps whose replayed plan failed its check
    searches: int = 0  # replans whose dive failed, so search found the plan

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _zero_radius(tau: int, i: int) -> float:
    return 0.0


def _tracking_terms(ref_xs: np.ndarray, first: int, t_phi: int) -> tuple[TrackingTerm, ...]:
    return tuple(
        TrackingTerm(tau, d, float(ref_xs[tau, d]))
        for tau in range(first, t_phi + 1)
        for d in (_PX, _PY)
    )


def _solve_leader_nominal(sys: SystemModel, spec: CompiledSpec, sc: RobotScenario):
    """Undisturbed leader plan, pulled toward the waypoint route."""
    hint = _leader_hint(sc)
    sm = build_step_model(
        sys, spec, 0, {0: sys.x0}, {}, {}, _zero_radius,
        cost=CostSpec("l1-tracking", tracking=_tracking_terms(hint, 1, sc.horizon)),
    )
    plan, _ = solve_step(sm, hint)
    if plan.status != "optimal":
        raise RuntimeError(f"leader nominal plan is {plan.status}")
    return plan.xs, plan.us


def _feedback_replay(
    sys: SystemModel,
    sc: RobotScenario,
    ref_xs: np.ndarray,
    ref_us: dict[int, np.ndarray],
    xs_obs: np.ndarray,
    k: int,
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Replay the reference plan from the observed state with proportional
    position/velocity feedback, saturated to keep inputs and speeds legal."""
    out_xs = ref_xs.copy()
    out_xs[: k + 1] = xs_obs[: k + 1]
    out_us = dict(ref_us)
    x = xs_obs[k].copy()
    for tau in range(k, sc.horizon):
        u = (
            ref_us[tau]
            + _KP * (ref_xs[tau, [_PX, _PY]] - x[[_PX, _PY]])
            + _KV * (ref_xs[tau, [_VX, _VY]] - x[[_VX, _VY]])
        )
        u = np.clip(u, -sc.acc_lim, sc.acc_lim)
        v = x[[_VX, _VY]]
        u = np.clip(u, -sc.vel_lim - v, sc.vel_lim - v)
        out_us[tau] = u
        x = sys.step(x, u)
        out_xs[tau + 1] = x
    return out_xs, out_us


def _plan_margin(spec: CompiledSpec, xs: np.ndarray, now: int) -> float:
    """Least margin the plan keeps on atoms at or after `now`, provided all
    atom instances before `now` (already realized) hold; -inf when some
    needed past instance is violated.  Mirrors the step MILP, which folds
    the observed prefix and demands a positive margin only of the future:
    past leaves are +-inf by sign, later ones the predicate values."""
    mu = spec.predicate_values(xs)
    mu[:, :now] = np.where(mu[:, :now] >= 0.0, math.inf, -math.inf)
    return float(spec.fold(mu)[spec.root, 0])


def _plan_ok(spec: CompiledSpec, sc: RobotScenario, xs: np.ndarray, k: int, margin: float) -> bool:
    lo, hi = sc.state_box
    future = xs[k:]
    if np.any(future < np.asarray(lo) - 1e-9) or np.any(future > np.asarray(hi) + 1e-9):
        return False
    return _plan_margin(spec, xs, k) >= margin


def _rollout_leader(
    sys: SystemModel,
    spec: CompiledSpec,
    sc: RobotScenario,
    nominal_xs: np.ndarray,
    nominal_us: dict[int, np.ndarray],
    rng: np.random.Generator,
    stats: LeaderGenStats,
) -> np.ndarray | None:
    """One disturbed closed-loop leader run.

    Each step first tries a feedback-corrected replay of the current
    reference plan; that candidate is accepted when it provably satisfies
    the step MILP (boxes, dynamics by construction, folded prefix plus
    future margin), which is the usual case and costs no solve.  Otherwise
    the step MILP is built and solve_step dives on the candidate's binary
    pattern, tracking the nominal route, and searches if that fails.  Any
    infeasible step aborts the run; the caller discards and regenerates.
    """
    t_phi = sc.horizon
    xs = np.zeros((t_phi + 1, sys.n_x))
    xs[0] = sys.x0
    ref_xs, ref_us = nominal_xs, nominal_us
    for k in range(t_phi):
        cand_xs, cand_us = _feedback_replay(sys, sc, ref_xs, ref_us, xs, k)
        stats.checks += 1
        if _plan_ok(spec, sc, cand_xs, k, _CHECK_MARGIN):
            ref_xs, ref_us = cand_xs, cand_us
        else:
            sm = build_step_model(
                sys, spec, k, {tau: xs[tau] for tau in range(k + 1)}, {}, {}, _zero_radius,
                cost=CostSpec("l1-tracking", tracking=_tracking_terms(nominal_xs, k + 1, t_phi)),
            )
            plan, solved_by = solve_step(sm, cand_xs)
            stats.dives += 1
            stats.searches += solved_by == "search"
            if plan.status != "optimal":
                return None
            ref_xs, ref_us = plan.xs, plan.us
        nxt = sys.step(xs[k], ref_us[k])
        nxt[_PX] += rng.uniform(-sc.disturbance, sc.disturbance)
        nxt[_PY] += rng.uniform(-sc.disturbance, sc.disturbance)
        xs[k + 1] = nxt
    return xs


def gen_robot_leader_dataset(
    n: int,
    seed: int,
    scenario: RobotScenario = RobotScenario(),
    sizes: tuple[int, int, int] | None = None,
    return_stats: bool = False,
):
    """n leader position trajectories, replanned around disturbances.

    Every kept trajectory satisfies the leader task on the Boolean oracle;
    runs that hit an infeasible step or get bumped across a constraint by
    the last disturbance are discarded, counted, and regenerated.  The
    recorded agent signal is the leader position [P_x, P_y] per step, with
    a short constant warm-start prefix.  Deterministic in seed.
    """
    if n < 1:
        raise ValueError("need at least one trajectory")
    sc = scenario
    sys = robot_system(sc)
    spec = compile_spec(build_robot_specs(sc)[1])
    nominal_xs, nominal_us = _solve_leader_nominal(sys, spec, sc)
    master = np.random.default_rng(seed)
    stats = LeaderGenStats()
    raw: list[AgentTrajectory] = []
    attempts = 0
    while len(raw) < n:
        attempts += 1
        if attempts > 20 * n:
            raise RuntimeError(f"leader generation stuck: {len(raw)}/{n} after {attempts} attempts")
        rng = np.random.default_rng(master.integers(2**63))
        xs = _rollout_leader(sys, spec, sc, nominal_xs, nominal_us, rng, stats)
        if xs is None or not eval_boolean(spec, JointTrajectory(xs, ()), 0):
            stats.discarded += 1
            continue
        pos = xs[:, [_PX, _PY]]
        prefix = np.repeat(pos[:1], sc.prefix_len, axis=0)
        raw.append(AgentTrajectory((pos,), prefix=(prefix,)))
        stats.kept += 1
    if sizes is None:
        sizes = (n // 4, n // 4, n - 2 * (n // 4))
    ds = split_dataset(raw, sizes, seed=seed)
    return (ds, stats) if return_stats else ds


# ---------------------------------------------------------------------------
# prediction


def mean_path_predictor(train: Sequence[AgentTrajectory], t_phi: int) -> FilePredictor:
    """Training-mean route served as a fixed prediction table.

    The leader repeats one planned route up to disturbance, so the training
    average at time tau is a strong history-free prediction.  Packaged as a
    FilePredictor (the injection point for externally computed tables), and
    since the prediction for tau does not depend on the query step k, the
    normalizers sigma_{tau|k} lose their k dependence too; the closed-loop
    follower exploits that by reusing its plan between steps.
    """
    if not train:
        raise ValueError("no training trajectories")
    n_agents = train[0].n_agents
    means = [np.mean([tr.ys[i] for tr in train], axis=0) for i in range(n_agents)]
    if len(means[0]) < t_phi + 1:
        raise ValueError("training trajectories shorter than the horizon")
    table = PredictionTable(t_phi, train[0].dims)
    for k in range(t_phi):
        for i in range(n_agents):
            table.set_rows(k, i, means[i][k + 1 : t_phi + 1])
    return FilePredictor(table)


# ---------------------------------------------------------------------------
# closed-loop follower experiment


@dataclass
class FollowerExperiment:
    """Everything the end-to-end guarantee check needs to report."""

    report: GuaranteeReport | None  # None below the 100-run floor of the binomial check
    outcomes: list[bool]
    aborted: int
    solved_by: dict[str, int]
    radii: RegionRadii
    gen_stats: LeaderGenStats
    base: ControlResult
    runtime: float


def run_follower_experiment(
    n_runs: int = 300,
    seed: int = 11,
    sizes: tuple[int, int, int] = (50, 100, 300),
) -> FollowerExperiment:
    """Generate leaders, calibrate regions, run the closed-loop follower on
    held-out leaders, and grade the satisfaction rate against 1 - delta.

    The follower replans each step with the calibrated step-k radii; runs
    abort on infeasibility and count as failures.  A single baseline solve
    seeds every run: with the mean-path predictor the per-step models only
    differ through the observations, so the baseline plan stays feasible
    until the leader actually leaves a prediction region.
    """
    t0 = time.monotonic()
    sc = RobotScenario()
    t_phi = sc.horizon
    ds, gen_stats = gen_robot_leader_dataset(sum(sizes), seed, scenario=sc, sizes=sizes, return_stats=True)
    train = ds.subset("train")
    predictor = mean_path_predictor(train, t_phi)
    sigma = compute_normalizers(train, predictor, t_phi)
    radii = calibrate(ds.subset("cal"), predictor, sigma, sc.delta)

    spec, _ = build_robot_specs(sc)
    sys = robot_system(sc)
    table = predictor.table

    def preds_at(k: int) -> dict[tuple[int, int], np.ndarray]:
        return {(tau, 0): table.get(k, tau, 0) for tau in range(k + 1, t_phi + 1)}

    base = synthesize_open_loop(
        sys, spec, {0: sc.start_pos}, preds_at(0),
        lambda tau, i: radii.closed_radius(0, tau, i),
        hint_xs=follower_hint(sc),
    )
    if not base.feasible:
        raise RuntimeError(f"baseline follower plan is {base.status}")
    hint_us = {tau: base.us[tau] for tau in range(t_phi)}

    test = ds.subset("test")
    if len(test) < n_runs:
        raise ValueError(f"test split has {len(test)} < {n_runs} trajectories")
    outcomes: list[bool] = []
    aborted = 0
    solved_by = {"reuse": 0, "dive": 0, "search": 0}
    for tr in test[:n_runs]:
        res = run_closed_loop(
            sys, spec, (tr.ys[0],), preds_at,
            lambda k, tau, i: radii.closed_radius(k, tau, i),
            hint_xs=base.xs, hint_us=hint_us,
        )
        outcomes.append(bool(res.feasible and res.satisfied))
        aborted += 0 if res.feasible else 1
        for rec in res.records:
            solved_by[rec.solved_by] = solved_by.get(rec.solved_by, 0) + 1
    report = evaluate_guarantee(outcomes, sc.delta) if len(outcomes) >= 100 else None
    return FollowerExperiment(
        report=report,
        outcomes=outcomes,
        aborted=aborted,
        solved_by=solved_by,
        radii=radii,
        gen_stats=gen_stats,
        base=base,
        runtime=time.monotonic() - t0,
    )
