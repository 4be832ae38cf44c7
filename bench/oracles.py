"""Checks written apart from the program, run after the timed window.

Nothing here calls stlcp's evaluators, simulators, calibration or solvers.
The formula AST and the MILP models are read as data; the STL semantics,
plant dynamics, nonconformity scores, conformal quantile and Wilson bound
are recomputed here, and scipy's HiGHS solves the MILPs and LPs that need
a solver.  Each check returns a list of messages, empty when it passes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from stlcp import stl

WILSON_Z = 1.959963984540054  # two-sided 95%
REPLAY_TOL = 1e-9
SIGMA_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# STL semantics over arrays; ys entries are (T+1, d) or a batch (n, T+1, d).
# The specifications are in positive normal form, where Boolean satisfaction
# is exactly robustness >= 0, so one evaluator serves both semantics.


def _atom(p, xs, ys, t):
    acc = p.offset + sum(c * xs[t, d] for d, c in enumerate(p.coeff_x))
    for cy, y in zip(p.coeff_y, ys):
        acc = acc + y[..., t, :] @ np.asarray(cy)
    return acc


def robustness(f, xs, ys, t=0, memo=None):
    """Quantitative semantics; vectorised over a batch of agent signals."""
    memo = {} if memo is None else memo
    key = (id(f), t)
    if key in memo:
        return memo[key]
    if isinstance(f, stl.TrueNode):
        v = math.inf
    elif isinstance(f, stl.Pred):
        v = _atom(f.predicate, xs, ys, t)
    elif isinstance(f, (stl.And, stl.Or, stl.Always, stl.Eventually)):
        if isinstance(f, (stl.And, stl.Or)):
            parts = [robustness(c, xs, ys, t, memo) for c in f.children]
        else:
            parts = [robustness(f.child, xs, ys, s, memo) for s in range(t + f.a, t + f.b + 1)]
        pick = np.minimum if isinstance(f, (stl.And, stl.Always)) else np.maximum
        v = parts[0]
        for q in parts[1:]:
            v = pick(v, q)
    else:
        raise TypeError(f"benchmark evaluator expects positive normal form, got {type(f).__name__}")
    memo[key] = v
    return v


def holds(f, xs, ys) -> bool:
    return bool(robustness(f, xs, ys) >= 0.0)


# ---------------------------------------------------------------------------
# plants


ROBOT_A = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]])
ROBOT_B = np.array([[0.5, 0.0], [1.0, 0.0], [0.0, 0.5], [0.0, 1.0]])
ROBOT_X0 = np.array([1.0, 0.0, 1.0, 0.0])
ROBOT_LO = np.array([0.0, -1.5, 0.0, -1.5])
ROBOT_HI = np.array([10.0, 1.5, 10.0, 1.5])
ROBOT_ACC = 1.0

# hall temperature: sampling 2 min, heater 55 C, outside 5 C, start 5 C
TEMP_TS, TEMP_TH, TEMP_TE, TEMP_AE, TEMP_AH, TEMP_X0 = 2.0, 55.0, 5.0, 0.06, 0.08, 5.0


def replay_robot(xs, us, x0=ROBOT_X0, tol=REPLAY_TOL) -> list[str]:
    """Double-integrator replay of the applied accelerations from x0."""
    xs, us = np.asarray(xs, dtype=float), np.asarray(us, dtype=float)
    errs = []
    if np.max(np.abs(xs[0] - x0)) > tol:
        errs.append("initial state differs from the scenario start")
    if np.any(np.abs(us) > ROBOT_ACC + 1e-7):
        errs.append("acceleration outside [-1, 1]")
    x = np.asarray(x0, dtype=float)
    for k, u in enumerate(us):
        x = ROBOT_A @ x + ROBOT_B @ u
        if np.max(np.abs(x - xs[k + 1])) > tol:
            errs.append(f"state at t={k + 1} differs from the double-integrator replay")
            break
        if np.any(x < ROBOT_LO - 1e-7) or np.any(x > ROBOT_HI + 1e-7):
            errs.append(f"state at t={k + 1} leaves the state box")
            break
    return errs


def replay_temperature(xs, ws, recovered=None, tol=REPLAY_TOL) -> list[str]:
    """Recover the valve u = w / (T_h - x), require u in [0, 1], and replay
    the bilinear plant on it."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ws = np.asarray(ws, dtype=float).reshape(-1)
    errs = []
    if abs(xs[0] - TEMP_X0) > tol:
        errs.append("initial temperature differs from the scenario start")
    x = TEMP_X0
    for k, w in enumerate(ws):
        u = w / (TEMP_TH - xs[k])
        if not -1e-9 <= u <= 1.0 + 1e-9:
            errs.append(f"valve setting {u:.6f} at k={k} outside [0, 1]")
            break
        if recovered is not None and abs(float(np.ravel(recovered[k])[0]) - u) > 1e-9:
            errs.append(f"recovered valve at k={k} differs from w / (T_h - x)")
            break
        x = x + TEMP_TS * (TEMP_AE * (TEMP_TE - x) + TEMP_AH * (TEMP_TH - x) * u)
        if abs(x - xs[k + 1]) > tol:
            errs.append(f"temperature at t={k + 1} differs from the bilinear replay")
            break
    return errs


# ---------------------------------------------------------------------------
# conformal quantities


def conformal_rank(n: int, delta: float) -> int:
    v = (n + 1) * (1.0 - delta)
    return int(round(v)) if abs(v - round(v)) < 1e-9 else math.ceil(v)


def conformal_quantile(scores, delta: float) -> float:
    p = conformal_rank(len(scores), delta)
    return math.inf if p > len(scores) else float(sorted(scores)[p - 1])


def cv_forecast(tr, horizon: int) -> np.ndarray:
    """One-step constant-velocity forecasts: (horizon, agents, dim) array of
    yhat_{k+1|k} = 2 y_k - y_{k-1}, with y_{-1} from the prefix."""
    out = []
    for pre, y in zip(tr.prefix, tr.ys):
        h = np.vstack([pre, y])
        off = len(pre)
        last = h[off : off + horizon]
        prev = h[off - 1 : off + horizon - 1] if off else np.vstack([last[:1], last[:-1]])
        out.append(2.0 * last - prev)
    return np.stack(out, axis=1)


def mean_forecast(train, horizon: int):
    """Training-mean route as a one-step forecast, independent of k."""
    means = np.stack([np.mean([np.asarray(tr.ys[i])[1 : horizon + 1] for tr in train], axis=0)
                      for i in range(len(train[0].ys))], axis=1)
    return lambda tr, h: means[:h]


def one_step_errors(tr, forecast, horizon: int) -> np.ndarray:
    real = np.stack([np.asarray(y)[1 : horizon + 1] for y in tr.ys], axis=1)
    return np.linalg.norm(real - forecast(tr, horizon), axis=2)


def one_step_sigma(train, forecast, horizon: int) -> np.ndarray:
    """Worst training error of each one-step forecast, floored."""
    worst = np.max([one_step_errors(tr, forecast, horizon) for tr in train], axis=0)
    return np.maximum(worst, SIGMA_FLOOR)


def closed_loop_score(tr, forecast, horizon: int, sigma: np.ndarray) -> float:
    """max over k, i of ||Y_{k+1,i} - yhat_{k+1|k,i}|| / sigma[k, i]."""
    return float(np.max(one_step_errors(tr, forecast, horizon) / sigma))


def wilson_lower(successes: int, n: int, z: float = WILSON_Z) -> float:
    phat = successes / n
    centre = phat + z * z / (2 * n)
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return (centre - half) / (1 + z * z / n)


# ---------------------------------------------------------------------------
# HiGHS


def _dense(model):
    """(c, A, row_lo, row_hi, lb, ub, integrality) read off the model's
    variable and row lists."""
    n = len(model.vars)
    A = np.zeros((len(model.rows), n))
    lo = np.full(len(model.rows), -np.inf)
    hi = np.full(len(model.rows), np.inf)
    for r, row in enumerate(model.rows):
        for v, c in row.coeffs.items():
            A[r, v] = c
        if row.sense in ("<=", "="):
            hi[r] = row.rhs
        if row.sense in (">=", "="):
            lo[r] = row.rhs
    c = np.zeros(n)
    for v, coef in model.obj.items():
        c[v] = coef
    lb = np.array([v.lb for v in model.vars])
    ub = np.array([v.ub for v in model.vars])
    integ = np.array([1 if v.is_binary else 0 for v in model.vars])
    return c, A, lo, hi, lb, ub, integ


def _highs(model, fixed: dict[int, int] | None = None):
    """HiGHS optimum of the model, with the given variables fixed and the
    binaries kept integral unless fixed; None if infeasible."""
    c, A, lo, hi, lb, ub, integ = _dense(model)
    for v, val in (fixed or {}).items():
        lb[v] = ub[v] = float(val)
        integ[v] = 0
    res = milp(c, constraints=LinearConstraint(A, lo, hi), bounds=Bounds(lb, ub), integrality=integ)
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS gave no verdict: {res.message}")
    return None if res.status == 2 else float(res.fun) + model.obj_const


def highs_feasible(model) -> bool:
    return _highs(model) is not None


def highs_fixed_lp(model, assignment: dict[int, int]) -> float | None:
    """Optimum of the model's LP with every binary fixed; None if infeasible."""
    return _highs(model, assignment)
