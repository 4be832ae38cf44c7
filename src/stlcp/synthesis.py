"""Control synthesis against calibrated prediction regions.

One MILP per planning step: affine dynamics and input/state boxes as rows,
the specification encoded over tightened atoms, observed history folded to
constants.  The open-loop plan is step k = 0 of that problem; the
shrinking-horizon closed loop re-solves at every step with whatever the
agents actually did so far.

solve_step is the one place a plan is found.  It tries three things in
order, cheapest first: reuse the hinted plan verbatim if it still satisfies
the step (always true in the closed loop when predictions did not move),
dive on the binary assignment the hinted states suggest, and only then run
branch and bound.  Reuse is decided on the plan itself, without a solution
vector: the plant's rows and boxes by array arithmetic, and the spec by
folding the step's tightened atom table over the planned states, as an
online monitor folds an observed prefix.  A step with no feasible plan
aborts the run; there is no fallback controller, because any fallback would
void the coverage argument behind the regions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .encoding import EPS_ROBUST, EncodingContext, encode, require, suggest_assignment
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
    """Discrete-time affine plant x_{tau+1} = A x_tau + B u_tau + c.

    state_box/input_box are (lo, hi) arrays and become variable bounds.
    mixed_rows are enforced at every step.  input_recover maps a solved
    (state, model input) back to the physical actuation when the model is an
    exact reformulation of input-affine dynamics; it never feeds back into
    the MILP.
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
        input_recover: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    ):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.x0 = np.asarray(x0, dtype=float)
        self.state_lo = np.asarray(state_box[0], dtype=float)
        self.state_hi = np.asarray(state_box[1], dtype=float)
        self.input_lo = np.asarray(input_box[0], dtype=float)
        self.input_hi = np.asarray(input_box[1], dtype=float)
        self.mixed_rows = tuple(mixed_rows)
        self.input_recover = input_recover
        self.n_x = self.a.shape[0]
        self.n_u = self.b.shape[1]
        self._validate()

    def _validate(self) -> None:
        if self.a.shape != (self.n_x, self.n_x):
            raise SynthesisError(f"A must be {self.n_x}x{self.n_x}, got {self.a.shape}")
        if self.b.shape != (self.n_x, self.n_u):
            raise SynthesisError(f"B must be {self.n_x}x{self.n_u}, got {self.b.shape}")
        if self.c.shape != (self.n_x,):
            raise SynthesisError(f"c must have length {self.n_x}, got {self.c.shape}")
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

    def step(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.a @ np.asarray(x, dtype=float) + self.b @ np.asarray(u, dtype=float) + self.c


# ---------------------------------------------------------------------------
# costs


@dataclass(frozen=True)
class TrackingTerm:
    tau: int
    dim: int
    target: float


@dataclass(frozen=True)
class CostSpec:
    """Objective of one step model.  zero: any feasible plan, the only cost
    the open and closed loops plan with.  l1-tracking: L1 deviation of
    chosen state coordinates from targets (the robot leader).
    max-robustness: maximize the quantitative root (quant mode only)."""

    kind: str = "zero"
    tracking: tuple[TrackingTerm, ...] = ()

    def __post_init__(self):
        if self.kind not in ("zero", "l1-tracking", "max-robustness"):
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

    a, b, c = sys.a, sys.b, sys.c
    for tau in range(k, t_phi):
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
                obj_const += abs(float(xs_obs[term.tau][term.dim]) - term.target)
                continue
            xv = sm.x_vars[term.tau][term.dim]
            span = max(abs(sys.state_lo[term.dim] - term.target), abs(sys.state_hi[term.dim] - term.target))
            t = model.add_continuous(f"dev{term.tau}_{term.dim}", 0.0, span)
            model.add_constraint({xv: 1.0, t: -1.0}, "<=", term.target, name=f"devp{term.tau}_{term.dim}")
            model.add_constraint({xv: -1.0, t: -1.0}, "<=", -term.target, name=f"devn{term.tau}_{term.dim}")
            obj[t] = obj.get(t, 0.0) + 1.0
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
    gap: float | None  # None without a plan; the zero-cost loops' plans all read 0.0

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


@dataclass
class ControlResult:
    # optimal (every step applied a checked plan) | infeasible | calibration-insufficient
    # | limit (a search hit milp.NODE_LIMIT without a plan)
    status: str
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


@dataclass
class StepPlan:
    """What solve_step found for one step: its status, the plan (states at
    rows 0..t_phi, the observed prefix included, and inputs for tau =
    k..t_phi-1; both None without a plan) and the solver's counters."""

    status: str
    xs: np.ndarray | None = None
    us: dict[int, np.ndarray] | None = None
    objective: float | None = None
    iterations: int = 0
    nodes: int = 0
    gap: float = 0.0


def _root_value(sm: StepModel, plan: StepPlan) -> float:
    """1.0 in qualitative mode, else the plan's tightened robustness, folded
    from its atom values: the root variable is only a lower bound on it."""
    if sm.ctx.mode == "qual":
        return 1.0
    atoms = sm.enc.atoms
    return float(atoms.fold(atoms.values(plan.xs))[atoms.spec.root, 0])


def _checked(sm: StepModel, sol: Solution, source: str) -> StepPlan:
    """A dive or search result as a StepPlan.  Every plan, a node-limited
    search's incumbent included, is first checked against its step model,
    within the row tolerance the LP core itself accepts."""
    if sol.x is None:
        return StepPlan(sol.status, objective=sol.objective, iterations=sol.iterations, nodes=sol.nodes, gap=sol.gap)
    viol = sm.model.check_solution(sol.x, sm.model.feasibility_tol())
    if viol:
        worst = max(viol, key=lambda v: v["amount"])
        raise MilpConsistencyError(
            f"{source} plan at step {sm.k} violates {worst['kind']} {worst['name']} by {worst['amount']:.3e}"
        )
    return StepPlan(sol.status, sm.plan_states(sol.x), sm.plan_inputs(sol.x), sol.objective,
                    sol.iterations, sol.nodes, sol.gap)


def _reusable(sm: StepModel, xs: np.ndarray, us: dict[int, np.ndarray]) -> bool:
    """Whether the plan (xs with the observed prefix, us for tau = k..t_phi-1)
    satisfies the step as it stands, decided without a solution vector and
    within sm.model.feasibility_tol(), the tolerance dives and searches are
    held to: the dynamics from the observed x_k on, the state box after k,
    the input box and the mixed rows from k on, and the spec on the step's
    atom table as require() pins it."""
    sys, tol = sm.sys, sm.model.feasibility_tol()
    x, u = xs[sm.k:], np.stack([us[tau] for tau in range(sm.k, sm.t_phi)])
    if not (
        np.all(np.abs(x[1:] - (x[:-1] @ sys.a.T + u @ sys.b.T + sys.c)) <= tol)
        and np.all(x[1:] >= sys.state_lo - tol) and np.all(x[1:] <= sys.state_hi + tol)
        and np.all(u >= sys.input_lo - tol) and np.all(u <= sys.input_hi + tol)
    ):
        return False
    for row in sys.mixed_rows:
        excess = x[:-1] @ np.asarray(row.coeff_x) + u @ np.asarray(row.coeff_u) - row.rhs
        if not np.all({"<=": excess, ">=": -excess, "=": np.abs(excess)}[row.sense] <= tol):
            return False
    atoms, root = sm.enc.atoms, sm.enc.atoms.spec.root
    if sm.ctx.mode == "qual":  # the fold suggest_assignment reads; a decided root folds the same way
        return bool(atoms.fold(np.where(atoms.holds(xs), 1.0, -1.0))[root, 0] > 0.0)
    if isinstance(sm.enc.root, float):  # decided by the observed prefix: require's sign test
        return sm.enc.root >= 0.0
    return bool(atoms.fold(atoms.values(xs))[root, 0] >= EPS_ROBUST - tol)


def solve_step(
    sm: StepModel,
    hint_xs: np.ndarray | None = None,
    hint_us: dict[int, np.ndarray] | None = None,
) -> tuple[StepPlan, str]:
    """A plan for one step model and how it was found: "reuse", "dive" or
    "search".  If the model's objective is constant (the zero cost), a
    hinted plan (states, whose observed prefix is replaced by the step's,
    and inputs for every tau = k..t_phi-1) is reused verbatim when it passes
    _reusable.  Else the states' suggested binary assignment is dived on;
    else branch and bound runs, its iterations counting those of a failed
    dive.  A model without binaries has nothing to dive on, and its one LP
    is the search.  Every dive and search plan is _checked."""
    k, t_phi = sm.k, sm.t_phi
    if (hint_xs is not None and hint_us is not None and not sm.model.obj
            and all(tau in hint_us for tau in range(k, t_phi))):
        xs = np.array(hint_xs, dtype=float)
        xs[: k + 1] = [sm.ctx.observed_x[tau] for tau in range(k + 1)]
        us = {tau: np.array(hint_us[tau], dtype=float) for tau in range(k, t_phi)}
        if _reusable(sm, xs, us):
            return StepPlan("optimal", xs, us, sm.model.obj_const), "reuse"
    dive_iters = 0
    hint = suggest_assignment(sm.ctx, sm.enc, hint_xs) if hint_xs is not None else None
    if hint:
        plan = _checked(sm, dive_solve(sm.model, hint), "dive")
        if plan.status == "optimal":
            return plan, "dive"
        dive_iters = plan.iterations
    plan = _checked(sm, solve_bb(sm.model), "search")
    plan.iterations += dive_iters
    return plan, "search"


def _failure_status(sm: StepModel, plan: StepPlan) -> str:
    if plan.status == "infeasible" and sm.insufficient:
        return "calibration-insufficient"
    return plan.status


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
    hint_xs: np.ndarray | None = None,
) -> ControlResult:
    """One plan at k = 0 covering the whole horizon, sound for every agent
    realization inside the open-loop prediction balls: step 0 of
    solve_step on the zero cost, diving first on the assignment hint_xs
    suggests.  Any feasible plan carries the guarantee, so none is
    preferred; a search that hits milp.NODE_LIMIT has no plan and fails
    with status "limit"."""
    ys_obs = {(0, i): np.asarray(y, dtype=float) for i, y in agents_now.items()}
    sm = build_step_model(sys, spec, 0, {0: sys.x0}, ys_obs, predictions, radius, mode=mode)
    plan, _ = solve_step(sm, hint_xs)
    if plan.status != "optimal":
        return ControlResult(status=_failure_status(sm, plan), nodes=plan.nodes, iterations=plan.iterations)
    us = np.stack([plan.us[tau] for tau in range(sm.t_phi)])
    recovered = None
    if sys.input_recover is not None:
        recovered = np.stack([np.atleast_1d(sys.input_recover(plan.xs[tau], us[tau])) for tau in range(sm.t_phi)])
    return ControlResult(
        status="optimal", us=us, xs=plan.xs, objective=plan.objective,
        root_value=_root_value(sm, plan), nodes=plan.nodes, iterations=plan.iterations,
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
    hint_xs: np.ndarray | None = None,
    hint_us: dict[int, np.ndarray] | None = None,
    log_path: str | None = None,
) -> ControlResult:
    """Shrinking-horizon loop: observe, re-plan with step-k radii, apply the
    first input, repeat; then judge the realized trajectory.

    playback holds what each agent will actually do (revealed step by step;
    the result's ys keeps it through t_phi, whether the run completed or
    aborted); predict(k) returns centers for every future (tau, agent);
    radius(k, tau, agent) the matching ball radius.  The plant is
    deterministic: the next state is sys.step of the applied input.
    hint_xs/hint_us let step 0 start from an externally solved plan exactly
    as later steps start from the previous one.  Every step plans with the
    zero cost: any feasible plan carries the guarantee, and the search stops
    at its first one.  A search that hits milp.NODE_LIMIT therefore has no
    plan.  Aborts on the first step without a plan: a fallback control
    would void the guarantee.
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
    prev_xs, prev_us = hint_xs, hint_us
    ys_obs: dict[tuple[int, int], np.ndarray] = {}
    status, k_done = "optimal", t_phi

    for k in range(t_phi):
        for i, y in enumerate(playback):
            ys_obs[(k, i)] = y[k]
        preds = predict(k)
        sm = build_step_model(
            sys, cs, k, {tau: xs[tau] for tau in range(k + 1)}, dict(ys_obs), preds,
            lambda tau, i, _k=k: radius(_k, tau, i), mode=mode,
        )
        plan, solved_by = solve_step(sm, prev_xs, prev_us)
        applied = plan.xs is not None
        if applied:
            u_k = plan.us[k]
            stepped = sys.step(xs[k], u_k)
            miss = float(np.max(np.abs(plan.xs[k + 1] - stepped)))
            if miss > sm.model.feasibility_tol():  # the tolerance solve_step accepted its dyn rows within
                raise MilpConsistencyError(
                    f"planned state at {k + 1} diverges from simulated dynamics by {miss:.3e}"
                )
        records.append(StepRecord(
            k=k, status=plan.status, solved_by=solved_by,
            objective=float(plan.objective) if applied and plan.objective is not None else None,
            u=[float(v) for v in u_k] if applied else None, x=[float(v) for v in xs[k]],
            y={str(i): [float(v) for v in playback[i][k]] for i in range(len(playback))},
            radii={f"{tau},{i}": float(radius(k, tau, i)) for (tau, i) in sorted(preds)},
            nodes=plan.nodes, iterations=plan.iterations,
            n_binaries=len(sm.model.binary_ids()), gap=float(plan.gap) if applied else None,
        ))
        if not applied:
            status, k_done = _failure_status(sm, plan), k
            break
        us[k] = u_k
        xs[k + 1] = stepped
        prev_xs, prev_us = plan.xs, plan.us

    satisfied, rho, recovered = False, None, None
    if status == "optimal":
        traj = JointTrajectory(xs, playback)
        satisfied = eval_boolean(cs, traj, 0)
        rho = eval_robustness(cs, traj, 0)
        if sys.input_recover is not None:
            recovered = np.stack([np.atleast_1d(sys.input_recover(xs[k], us[k])) for k in range(t_phi)])
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
