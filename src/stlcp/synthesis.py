"""Control synthesis against calibrated prediction regions.

One MILP per planning step: affine dynamics and input/state boxes as rows,
the specification encoded over tightened atoms, observed history folded to
constants.  The open-loop plan is step k = 0 of that problem; the
shrinking-horizon closed loop re-solves at every step with whatever the
agents actually did so far.

solve_step is the one place a plan is found.  It tries three things in
order, cheapest first: reuse the hinted plan verbatim if it still satisfies
the step model (always true in the closed loop when predictions did not
move), dive on the binary assignment the hinted states suggest, and only
then run branch and bound.  A step with no feasible plan aborts the run;
there is no fallback controller, because any fallback would void the
coverage argument behind the regions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .encoding import (
    EncodingContext,
    candidate_values,
    encode,
    require,
    suggest_assignment,
)
from .milp import MilpModel, Solution, dive_solve, solve_bb
from .stl import CompiledSpec, JointTrajectory, compile_spec, eval_boolean, eval_robustness, to_pnf

WILSON_Z = 1.959963984540054  # two-sided 95%
#: Allowance below 1 - delta for the binomial noise of a finite test set.
GUARANTEE_SLACK = 0.05


class SynthesisError(ValueError):
    pass


class MilpConsistencyError(RuntimeError):
    """A plan violates its own step model, or its states disagree with
    simulating its inputs by more than the model's feasibility_tol()."""


# ---------------------------------------------------------------------------
# plant description


@dataclass(frozen=True)
class MixedRow:
    """Affine constraint coupling state and input at one step:
    coeff_x . x_tau + coeff_u . u_tau  (sense)  rhs."""

    coeff_x: tuple[float, ...]
    coeff_u: tuple[float, ...]
    sense: str
    rhs: float
    name: str = "mixed"

    def __post_init__(self):
        if self.sense not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {self.sense!r}")


class SystemModel:
    """Discrete-time affine plant x_{tau+1} = A_tau x_tau + B_tau u_tau + c_tau.

    a, b, c are either a single matrix/vector (time invariant) or a sequence
    with one entry per step.  state_box/input_box are (lo, hi) arrays and
    become variable bounds.  mixed_rows are enforced at every step.
    input_recover maps a solved (step, state, model input) back to the
    physical actuation when the model is an exact reformulation of
    input-affine dynamics; it never feeds back into the MILP.
    """

    def __init__(
        self,
        a,
        b,
        c,
        x0,
        state_box: tuple[Sequence[float], Sequence[float]],
        input_box: tuple[Sequence[float], Sequence[float]],
        mixed_rows: Sequence[MixedRow] = (),
        input_recover: Callable[[int, np.ndarray, np.ndarray], np.ndarray] | None = None,
    ):
        self._a = self._norm_seq(a, 2)
        self._b = self._norm_seq(b, 2)
        self._c = self._norm_seq(c, 1)
        self.x0 = np.asarray(x0, dtype=float)
        self.state_lo = np.asarray(state_box[0], dtype=float)
        self.state_hi = np.asarray(state_box[1], dtype=float)
        self.input_lo = np.asarray(input_box[0], dtype=float)
        self.input_hi = np.asarray(input_box[1], dtype=float)
        self.mixed_rows = tuple(mixed_rows)
        self.input_recover = input_recover
        a0, b0, _ = self.mats(0)
        self.n_x = a0.shape[0]
        self.n_u = b0.shape[1]
        self._validate()

    @staticmethod
    def _norm_seq(m, ndim: int):
        arr = np.asarray(m, dtype=float)
        if arr.ndim == ndim:
            return arr
        return [np.asarray(one, dtype=float) for one in m]

    def _validate(self) -> None:
        a0, b0, c0 = self.mats(0)
        if a0.shape != (self.n_x, self.n_x):
            raise SynthesisError(f"A must be {self.n_x}x{self.n_x}, got {a0.shape}")
        if b0.shape != (self.n_x, self.n_u):
            raise SynthesisError(f"B must be {self.n_x}x{self.n_u}, got {b0.shape}")
        if c0.shape != (self.n_x,):
            raise SynthesisError(f"c must have length {self.n_x}, got {c0.shape}")
        for name, arr, want in (
            ("x0", self.x0, self.n_x),
            ("state_box lo", self.state_lo, self.n_x),
            ("state_box hi", self.state_hi, self.n_x),
            ("input_box lo", self.input_lo, self.n_u),
            ("input_box hi", self.input_hi, self.n_u),
        ):
            if arr.shape != (want,):
                raise SynthesisError(f"{name} must have length {want}")
        if np.any(self.state_lo > self.state_hi) or np.any(self.input_lo > self.input_hi):
            raise SynthesisError("box lower bounds exceed upper bounds")
        if np.any(self.x0 < self.state_lo - 1e-9) or np.any(self.x0 > self.state_hi + 1e-9):
            raise SynthesisError("x0 lies outside the state box")
        for row in self.mixed_rows:
            if len(row.coeff_x) != self.n_x or len(row.coeff_u) != self.n_u:
                raise SynthesisError(f"mixed row {row.name!r} has wrong arity")

    def mats(self, tau: int):
        def pick(m):
            if isinstance(m, np.ndarray):
                return m
            if tau >= len(m):
                raise SynthesisError(f"system matrices do not cover step {tau}")
            return m[tau]

        return pick(self._a), pick(self._b), pick(self._c)

    def step(self, tau: int, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        a, b, c = self.mats(tau)
        return a @ np.asarray(x, dtype=float) + b @ np.asarray(u, dtype=float) + c

    def simulate(self, us, x0=None, noise: Callable[[int, np.ndarray], np.ndarray] | None = None) -> np.ndarray:
        us = np.atleast_2d(np.asarray(us, dtype=float))
        xs = np.zeros((len(us) + 1, self.n_x))
        xs[0] = self.x0 if x0 is None else np.asarray(x0, dtype=float)
        for tau in range(len(us)):
            xs[tau + 1] = self.step(tau, xs[tau], us[tau])
            if noise is not None:
                xs[tau + 1] = np.asarray(noise(tau, xs[tau + 1]), dtype=float)
        return xs


# ---------------------------------------------------------------------------
# costs


@dataclass(frozen=True)
class TrackingTerm:
    tau: int
    dim: int
    target: float
    weight: float = 1.0


@dataclass(frozen=True)
class CostSpec:
    """zero: any feasible plan.  l1-tracking: weighted L1 deviation of chosen
    state coordinates from targets.  input-l1: weighted L1 input magnitude.
    max-robustness: maximize the quantitative root (quant mode only)."""

    kind: str = "zero"
    tracking: tuple[TrackingTerm, ...] = ()
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "l1-tracking", "input-l1", "max-robustness"):
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if self.tracking and self.kind != "l1-tracking":
            raise ValueError("tracking terms only apply to the l1-tracking cost")


# ---------------------------------------------------------------------------
# one planning step


@dataclass
class StepModel:
    """MILP for one planning step plus the bookkeeping to read plans off it."""

    model: MilpModel
    ctx: EncodingContext
    enc: object
    root: int | None
    sys: SystemModel
    k: int
    t_phi: int
    x_vars: dict[int, list[int]]
    u_vars: dict[int, list[int]]
    aux_defs: list[tuple] = field(default_factory=list)
    insufficient: bool = False

    def plan_states(self, x_full: np.ndarray) -> np.ndarray:
        xs = np.zeros((self.t_phi + 1, self.sys.n_x))
        for tau in range(self.t_phi + 1):
            if tau <= self.k:
                xs[tau] = self.ctx.observed_x[tau]
            else:
                xs[tau] = [x_full[v] for v in self.x_vars[tau]]
        return xs

    def plan_inputs(self, x_full: np.ndarray) -> dict[int, np.ndarray]:
        return {tau: np.array([x_full[v] for v in vids]) for tau, vids in self.u_vars.items()}

    def candidate_solution(self, xs: np.ndarray, us: dict[int, np.ndarray]) -> np.ndarray | None:
        """Full solution vector realizing a candidate plan, or None if the
        plan does not pin down every variable."""
        vec = np.full(self.model.n_vars, np.nan)
        for tau, vids in self.x_vars.items():
            for d, v in enumerate(vids):
                vec[v] = xs[tau, d]
        for tau, vids in self.u_vars.items():
            if tau not in us:
                return None
            for j, v in enumerate(vids):
                vec[v] = us[tau][j]
        assign, extras = candidate_values(self.ctx, self.enc, xs)
        for v, val in assign.items():
            vec[v] = float(val)
        for v, val in extras.items():
            vec[v] = val
        for vid, kind, data in self.aux_defs:
            if kind == "absdev":
                tau, d, target = data
                vec[vid] = abs(xs[tau, d] - target)
            else:  # absu
                tau, j = data
                vec[vid] = abs(us[tau][j])
        if np.isnan(vec).any():
            return None
        return vec


def build_step_model(
    sys: SystemModel,
    spec,
    k: int,
    xs_obs: dict[int, np.ndarray],
    ys_obs: dict[tuple[int, int], np.ndarray],
    predictions: dict[tuple[int, int], np.ndarray],
    radius: Callable[[int, int], float],
    *,
    mode: str = "qual",
    cost: CostSpec = CostSpec(),
) -> StepModel:
    """Assemble the step-k MILP: dynamics/box/mixed rows plus the encoded
    specification with the observed prefix folded out.  spec is a formula or
    the compile_spec of a PNF one; loops that build many steps pass the
    latter."""
    cs = spec if isinstance(spec, CompiledSpec) else compile_spec(to_pnf(spec))
    t_phi = cs.horizon
    if t_phi < 1:
        raise SynthesisError("specification horizon must be a positive integer")
    if not 0 <= k < t_phi:
        raise SynthesisError(f"step {k} outside 0..{t_phi - 1}")
    for tau in range(k + 1):
        if tau not in xs_obs:
            raise SynthesisError(f"missing observed state for time {tau}")

    for i, times in enumerate(cs.agent_times):
        for tau in times:
            if tau <= k and (tau, i) not in ys_obs:
                raise SynthesisError(f"missing observed agent {i} at time {tau}")
    future = sorted((tau, i) for i, times in enumerate(cs.agent_times) for tau in times if tau > k)
    for tau, i in future:
        if (tau, i) not in predictions:
            raise SynthesisError(f"missing prediction for agent {i} at time {tau}")
    insufficient = any(math.isinf(float(radius(tau, i))) for tau, i in future)

    model = MilpModel(name=f"step{k}")
    x_vars = {
        tau: [model.add_continuous(f"x{tau}_{d}", sys.state_lo[d], sys.state_hi[d]) for d in range(sys.n_x)]
        for tau in range(k + 1, t_phi + 1)
    }
    u_vars = {
        tau: [model.add_continuous(f"u{tau}_{j}", sys.input_lo[j], sys.input_hi[j]) for j in range(sys.n_u)]
        for tau in range(k, t_phi)
    }

    for tau in range(k, t_phi):
        a, b, c = sys.mats(tau)
        for d in range(sys.n_x):
            row = {x_vars[tau + 1][d]: 1.0}
            rhs = float(c[d])
            if tau == k:
                rhs += float(a[d] @ xs_obs[k])
            else:
                for j in range(sys.n_x):
                    if a[d, j] != 0.0:
                        row[x_vars[tau][j]] = row.get(x_vars[tau][j], 0.0) - a[d, j]
            for j in range(sys.n_u):
                if b[d, j] != 0.0:
                    row[u_vars[tau][j]] = row.get(u_vars[tau][j], 0.0) - b[d, j]
            model.add_constraint(row, "=", rhs, name=f"dyn{tau}_{d}")
        for m_i, mrow in enumerate(sys.mixed_rows):
            row = {}
            rhs = mrow.rhs
            if tau == k:
                rhs -= float(np.dot(mrow.coeff_x, xs_obs[k]))
            else:
                for d, cx in enumerate(mrow.coeff_x):
                    if cx != 0.0:
                        row[x_vars[tau][d]] = row.get(x_vars[tau][d], 0.0) + cx
            for j, cu in enumerate(mrow.coeff_u):
                if cu != 0.0:
                    row[u_vars[tau][j]] = row.get(u_vars[tau][j], 0.0) + cu
            model.add_constraint(row, mrow.sense, rhs, name=f"{mrow.name}{tau}_{m_i}")

    ctx = EncodingContext(
        model=model,
        t_phi=t_phi,
        k=k,
        state_vars=x_vars,
        observed_x={tau: np.asarray(xs_obs[tau], dtype=float) for tau in range(k + 1)},
        predicted_y=predictions,
        observed_y=ys_obs,
        radius=radius,
        mode=mode,
    )
    enc = encode(ctx, cs)
    root = require(ctx, enc)

    sm = StepModel(
        model=model, ctx=ctx, enc=enc, root=root, sys=sys, k=k, t_phi=t_phi,
        x_vars=x_vars, u_vars=u_vars, insufficient=insufficient,
    )
    _apply_cost(sm, cost, xs_obs)
    return sm


def _apply_cost(sm: StepModel, cost: CostSpec, xs_obs: dict[int, np.ndarray]) -> None:
    model, sys = sm.model, sm.sys
    obj: dict[int, float] = {}
    obj_const = 0.0
    if cost.kind == "l1-tracking":
        for term in cost.tracking:
            if not 0 <= term.tau <= sm.t_phi or not 0 <= term.dim < sys.n_x:
                raise SynthesisError(f"tracking term out of range: {term}")
            if term.tau <= sm.k:
                obj_const += term.weight * abs(float(xs_obs[term.tau][term.dim]) - term.target)
                continue
            xv = sm.x_vars[term.tau][term.dim]
            span = max(abs(sys.state_lo[term.dim] - term.target), abs(sys.state_hi[term.dim] - term.target))
            t = model.add_continuous(f"dev{term.tau}_{term.dim}", 0.0, span)
            model.add_constraint({xv: 1.0, t: -1.0}, "<=", term.target, name=f"devp{term.tau}_{term.dim}")
            model.add_constraint({xv: -1.0, t: -1.0}, "<=", -term.target, name=f"devn{term.tau}_{term.dim}")
            obj[t] = obj.get(t, 0.0) + term.weight
            sm.aux_defs.append((t, "absdev", (term.tau, term.dim, term.target)))
    elif cost.kind == "input-l1":
        for tau, vids in sm.u_vars.items():
            for j, uv in enumerate(vids):
                span = max(abs(sys.input_lo[j]), abs(sys.input_hi[j]))
                s = model.add_continuous(f"mag{tau}_{j}", 0.0, span)
                model.add_constraint({uv: 1.0, s: -1.0}, "<=", 0.0, name=f"magp{tau}_{j}")
                model.add_constraint({uv: -1.0, s: -1.0}, "<=", 0.0, name=f"magn{tau}_{j}")
                obj[s] = cost.weight
                sm.aux_defs.append((s, "absu", (tau, j)))
    elif cost.kind == "max-robustness":
        if sm.ctx.mode != "quant":
            raise SynthesisError("max-robustness cost needs quantitative mode")
        if sm.root is not None:
            obj[sm.root] = -1.0
    model.set_objective(obj, obj_const)


# ---------------------------------------------------------------------------
# results


@dataclass
class StepRecord:
    k: int
    status: str
    solved_by: str
    objective: float | None
    u: list[float] | None
    x: list[float]
    y: dict[str, list[float]]
    radii: dict[str, float]
    nodes: int
    iterations: int
    n_binaries: int
    gap: float | None  # the search's optimality gap when a plan was applied

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


@dataclass
class ControlResult:
    status: str  # optimal (every step applied a checked plan) | infeasible | limit | calibration-insufficient
    us: np.ndarray | None = None
    xs: np.ndarray | None = None
    objective: float | None = None
    root_value: float | None = None  # 1.0 (qualitative) or the plan's tightened robustness
    nodes: int = 0
    iterations: int = 0
    records: list[StepRecord] = field(default_factory=list)
    satisfied: bool | None = None
    realized_robustness: float | None = None
    recovered_us: np.ndarray | None = None
    ys: tuple[np.ndarray, ...] | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"


def _root_value(sm: StepModel, sol: Solution) -> float:
    """1.0 in qualitative mode, else the plan's tightened robustness, folded
    from its atom values: the root variable is only a lower bound on it."""
    if sm.ctx.mode == "qual":
        return 1.0
    atoms = sm.enc.atoms
    return float(atoms.fold(atoms.values(sm.plan_states(sol.x)))[atoms.spec.root, 0])


def _checked(sm: StepModel, sol: Solution, source: str) -> Solution:
    """Every dive or search plan, a node-limited search's incumbent
    included, is checked against its step model before it is applied, as
    reused plans are, within the row tolerance the LP core itself accepts."""
    if sol.x is not None:
        viol = sm.model.check_solution(sol.x, sm.model.feasibility_tol())
        if viol:
            worst = max(viol, key=lambda v: v["amount"])
            raise MilpConsistencyError(
                f"{source} plan at step {sm.k} violates {worst['kind']} {worst['name']} by {worst['amount']:.3e}"
            )
    return sol


def solve_step(
    sm: StepModel,
    hint_xs: np.ndarray | None = None,
    hint_us: dict[int, np.ndarray] | None = None,
    node_limit: int | None = None,
) -> tuple[Solution, str]:
    """A plan for one step model and how it was found: "reuse", "dive" or
    "search".  The hinted plan (states and inputs) is reused if it passes
    the model's check; else the states' suggested binary assignment is
    dived on; else branch and bound runs, its iterations counting those of
    a failed dive.  A model without binaries has nothing to dive on, and its
    one LP is the search.  Every dive and search plan is _checked."""
    if hint_xs is not None and hint_us is not None:
        vec = sm.candidate_solution(hint_xs, hint_us)
        if vec is not None and not sm.model.check_solution(vec, sm.model.feasibility_tol()):
            return Solution("optimal", vec, sm.model.objective_value(vec)), "reuse"
    dive_iters = 0
    hint = suggest_assignment(sm.ctx, sm.enc, hint_xs) if hint_xs is not None else None
    if hint:
        sol = _checked(sm, dive_solve(sm.model, hint), "dive")
        if sol.status == "optimal":
            return sol, "dive"
        dive_iters = sol.iterations
    sol = _checked(sm, solve_bb(sm.model, node_limit=node_limit), "search")
    sol.iterations += dive_iters
    return sol, "search"


def _failure_status(sm: StepModel, sol: Solution) -> str:
    if sol.status == "infeasible" and sm.insufficient:
        return "calibration-insufficient"
    return sol.status


# ---------------------------------------------------------------------------
# open loop


def synthesize_open_loop(
    sys: SystemModel,
    spec,
    agents_now: dict[int, np.ndarray],
    predictions: dict[tuple[int, int], np.ndarray],
    radius: Callable[[int, int], float],
    *,
    mode: str = "qual",
    cost: CostSpec = CostSpec(),
    hint_xs: np.ndarray | None = None,
) -> ControlResult:
    """One plan at k = 0 covering the whole horizon, sound for every agent
    realization inside the open-loop prediction balls: step 0 of
    solve_step, diving first on the assignment hint_xs suggests."""
    ys_obs = {(0, i): np.asarray(y, dtype=float) for i, y in agents_now.items()}
    sm = build_step_model(sys, spec, 0, {0: sys.x0}, ys_obs, predictions, radius, mode=mode, cost=cost)
    sol, _ = solve_step(sm, hint_xs)
    if sol.status != "optimal":
        return ControlResult(status=_failure_status(sm, sol), nodes=sol.nodes, iterations=sol.iterations)
    xs = sm.plan_states(sol.x)
    us_map = sm.plan_inputs(sol.x)
    us = np.stack([us_map[tau] for tau in range(sm.t_phi)])
    recovered = None
    if sys.input_recover is not None:
        recovered = np.stack([np.atleast_1d(sys.input_recover(tau, xs[tau], us[tau])) for tau in range(sm.t_phi)])
    return ControlResult(
        status="optimal", us=us, xs=xs, objective=sol.objective,
        root_value=_root_value(sm, sol), nodes=sol.nodes, iterations=sol.iterations,
        recovered_us=recovered,
    )


# ---------------------------------------------------------------------------
# closed loop


def run_closed_loop(
    sys: SystemModel,
    spec,
    playback: Sequence[np.ndarray],
    predict: Callable[[int], dict[tuple[int, int], np.ndarray]],
    radius: Callable[[int, int, int], float],
    *,
    mode: str = "qual",
    cost: CostSpec = CostSpec(),
    node_limit: int | None = None,
    process_noise: Callable[[int, np.ndarray], np.ndarray] | None = None,
    hint_xs: np.ndarray | None = None,
    hint_us: dict[int, np.ndarray] | None = None,
    log_path: str | None = None,
) -> ControlResult:
    """Shrinking-horizon loop: observe, re-plan with step-k radii, apply the
    first input, repeat; then judge the realized trajectory.

    playback holds what each agent will actually do (revealed step by step;
    the result's ys keeps it through t_phi, whether the run completed or
    aborted); predict(k) returns centers for every future (tau, agent); radius(k, tau,
    agent) the matching ball radius.  process_noise perturbs the simulated
    next state, for generation-style uses.  hint_xs/hint_us let step 0 start
    from an externally solved plan exactly as later steps start from the
    previous one.  A search that hits the node limit holding an incumbent
    applies that checked plan, and its step keeps status "limit" with the
    search's gap.  Aborts on the first step without a plan: a fallback
    control would void the guarantee.
    """
    cs = compile_spec(to_pnf(spec))
    t_phi = cs.horizon
    if t_phi < 1:
        raise SynthesisError("specification horizon must be a positive integer")
    playback = tuple(np.asarray(y, dtype=float) for y in playback)
    for i, y in enumerate(playback):
        if len(y) < t_phi + 1:
            raise SynthesisError(f"playback for agent {i} shorter than horizon {t_phi}")
    playback = tuple(y[: t_phi + 1] for y in playback)

    xs = np.zeros((t_phi + 1, sys.n_x))
    xs[0] = sys.x0
    us = np.zeros((t_phi, sys.n_u))
    records: list[StepRecord] = []
    prev_xs = hint_xs
    prev_us = None if hint_us is None else {t: np.asarray(u, dtype=float) for t, u in hint_us.items()}
    ys_obs: dict[tuple[int, int], np.ndarray] = {}
    status, k_done = "optimal", t_phi

    for k in range(t_phi):
        for i, y in enumerate(playback):
            ys_obs[(k, i)] = y[k]
        preds = predict(k)
        sm = build_step_model(
            sys, cs, k, {tau: xs[tau] for tau in range(k + 1)}, dict(ys_obs), preds,
            lambda tau, i, _k=k: radius(_k, tau, i), mode=mode, cost=cost,
        )
        if prev_xs is not None:
            hint_states = np.asarray(prev_xs, dtype=float).copy()
            hint_states[: k + 1] = xs[: k + 1]
        else:
            hint_states = None
        sol, solved_by = solve_step(sm, hint_states, prev_us, node_limit)
        applied = sol.x is not None
        if applied:
            plan_xs = sm.plan_states(sol.x)
            plan_us = sm.plan_inputs(sol.x)
            u_k = plan_us[k]
            stepped = sys.step(k, xs[k], u_k)
            miss = float(np.max(np.abs(plan_xs[k + 1] - stepped)))
            if miss > sm.model.feasibility_tol():  # the tolerance solve_step accepted its dyn rows within
                raise MilpConsistencyError(
                    f"planned state at {k + 1} diverges from simulated dynamics by {miss:.3e}"
                )
        records.append(StepRecord(
            k=k, status=sol.status, solved_by=solved_by,
            objective=float(sol.objective) if applied and sol.objective is not None else None,
            u=[float(v) for v in u_k] if applied else None, x=[float(v) for v in xs[k]],
            y={str(i): [float(v) for v in playback[i][k]] for i in range(len(playback))},
            radii={f"{tau},{i}": float(radius(k, tau, i)) for (tau, i) in sorted(preds)},
            nodes=sol.nodes, iterations=sol.iterations,
            n_binaries=len(sm.model.binary_ids()), gap=float(sol.gap) if applied else None,
        ))
        if not applied:
            status, k_done = _failure_status(sm, sol), k
            break
        us[k] = u_k
        xs[k + 1] = stepped
        if process_noise is not None:
            xs[k + 1] = np.asarray(process_noise(k, xs[k + 1]), dtype=float)
        prev_xs, prev_us = plan_xs, plan_us

    satisfied, rho, recovered = False, None, None
    if status == "optimal":
        traj = JointTrajectory(xs, playback)
        satisfied = eval_boolean(cs, traj, 0)
        rho = eval_robustness(cs, traj, 0)
        if sys.input_recover is not None:
            recovered = np.stack([np.atleast_1d(sys.input_recover(k, xs[k], us[k])) for k in range(t_phi)])
    _flush_log(log_path, records)
    return ControlResult(
        status=status, us=us[:k_done], xs=xs[: k_done + 1],
        objective=records[-1].objective, root_value=None,
        nodes=sum(r.nodes for r in records), iterations=sum(r.iterations for r in records),
        records=records, satisfied=satisfied, realized_robustness=rho,
        recovered_us=recovered, ys=playback,
    )


# ---------------------------------------------------------------------------
# guarantee accounting and artifacts


@dataclass(frozen=True)
class GuaranteeReport:
    n: int
    successes: int
    rate: float
    lower_bound: float
    target: float
    passed: bool

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict}: {self.successes}/{self.n} satisfied (rate {self.rate:.4f}), "
            f"95% lower bound {self.lower_bound:.4f} vs target {self.target:.4f}"
        )


def evaluate_guarantee(outcomes: Sequence[bool], delta: float) -> GuaranteeReport:
    """Wilson 95% lower confidence bound on the satisfaction rate, compared
    against 1 - delta - GUARANTEE_SLACK.  The slack absorbs the binomial
    noise a finite test set adds on top of the coverage guarantee."""
    n = len(outcomes)
    if n < 100:
        raise ValueError(f"guarantee evaluation needs at least 100 runs, got {n}")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be inside (0, 1)")
    s = int(sum(bool(o) for o in outcomes))
    z = WILSON_Z
    phat = s / n
    denom = 1.0 + z * z / n
    center = phat + z * z / (2.0 * n)
    rad = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
    lb = (center - rad) / denom
    target = 1.0 - delta - GUARANTEE_SLACK
    return GuaranteeReport(n=n, successes=s, rate=phat, lower_bound=lb, target=target, passed=lb >= target)


def _flush_log(log_path: str | None, records: list[StepRecord]) -> None:
    if log_path is None:
        return
    with open(log_path, "w") as f:
        for rec in records:
            f.write(rec.to_json() + "\n")


def write_trajectory_csv(path: str, xs: np.ndarray, us: np.ndarray | None = None, ys: Sequence[np.ndarray] = ()) -> None:
    """Realized run as CSV, one row per time step.  Floats go through repr so
    identical runs produce identical bytes."""
    xs = np.asarray(xs, dtype=float)
    cols = ["k"] + [f"x{d}" for d in range(xs.shape[1])]
    if us is not None:
        us = np.asarray(us, dtype=float)
        cols += [f"u{j}" for j in range(us.shape[1])]
    for i, y in enumerate(ys):
        cols += [f"y{i}_{d}" for d in range(np.asarray(y).shape[1])]
    lines = [",".join(cols)]
    for t in range(len(xs)):
        row = [str(t)] + [repr(float(v)) for v in xs[t]]
        if us is not None:
            row += [repr(float(v)) for v in us[t]] if t < len(us) else [""] * us.shape[1]
        for y in ys:
            y = np.asarray(y, dtype=float)
            row += [repr(float(v)) for v in y[t]] if t < len(y) else [""] * y.shape[1]
        lines.append(",".join(row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
