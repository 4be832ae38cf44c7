"""Shared oracles and generators for the test suite.

Everything here is written directly against the mathematical definitions and
deliberately avoids reusing library internals, so tests compare two
independent routes to the same answer.
"""

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from stlcp import encoding, stl
from stlcp.conformal import SIGMA_MIN
from stlcp.encoding import EncodingError
from stlcp.milp import GAP_TOL, INTEGRALITY_TOL, NODE_LIMIT, MilpModel, Solution, _Arrays, _solve_fixed
from stlcp.prediction import PredictionTable, pair_row, prediction_table


# ---------------------------------------------------------------------------
# brute-force STL semantics (dict-dispatch, no memoization, no shortcuts)


def predicate_value(pred, x, ys):
    """mu(s) = coeff_x . x + sum_i coeff_y[i] . y_i + offset, summed term by
    term from the offset; a dimension either side lacks is skipped."""
    acc = pred.offset
    for c, v in zip(pred.coeff_x, x):
        acc += c * v
    for cy, y in zip(pred.coeff_y, ys):
        for c, v in zip(cy, y):
            acc += c * v
    return acc


def oracle_robustness(f, traj, k):
    mu = lambda p, t: predicate_value(p, traj.xs[t], [y[t] for y in traj.ys])
    if isinstance(f, stl.TrueNode):
        return math.inf
    if isinstance(f, stl.Pred):
        return mu(f.predicate, k)
    if isinstance(f, stl.Not):
        return -oracle_robustness(f.child, traj, k)
    if isinstance(f, stl.And):
        return min([oracle_robustness(c, traj, k) for c in f.children])
    if isinstance(f, stl.Or):
        return max([oracle_robustness(c, traj, k) for c in f.children])
    if isinstance(f, stl.Always):
        return min([oracle_robustness(f.child, traj, t) for t in range(k + f.a, k + f.b + 1)])
    if isinstance(f, stl.Eventually):
        return max([oracle_robustness(f.child, traj, t) for t in range(k + f.a, k + f.b + 1)])
    if isinstance(f, stl.Until):
        best = -math.inf
        for kp in range(k + f.a, k + f.b + 1):
            inner = oracle_robustness(f.right, traj, kp)
            for kpp in range(k, kp + 1):
                inner = min(inner, oracle_robustness(f.left, traj, kpp))
            best = max(best, inner)
        return best
    raise TypeError(f)


def oracle_boolean(f, traj, k):
    if isinstance(f, stl.TrueNode):
        return True
    if isinstance(f, stl.Pred):
        return predicate_value(f.predicate, traj.xs[k], [y[k] for y in traj.ys]) >= 0.0
    if isinstance(f, stl.Not):
        return not oracle_boolean(f.child, traj, k)
    if isinstance(f, stl.And):
        return all([oracle_boolean(c, traj, k) for c in f.children])
    if isinstance(f, stl.Or):
        return any([oracle_boolean(c, traj, k) for c in f.children])
    if isinstance(f, stl.Always):
        return all([oracle_boolean(f.child, traj, t) for t in range(k + f.a, k + f.b + 1)])
    if isinstance(f, stl.Eventually):
        return any([oracle_boolean(f.child, traj, t) for t in range(k + f.a, k + f.b + 1)])
    if isinstance(f, stl.Until):
        for kp in range(k + f.a, k + f.b + 1):
            if oracle_boolean(f.right, traj, kp) and all(
                [oracle_boolean(f.left, traj, t) for t in range(k, kp + 1)]
            ):
                return True
        return False
    raise TypeError(f)


def oracle_split_margin(f, xs, now, tau):
    """Least margin a state plan xs keeps on atoms at or after `now`,
    provided every atom instance before `now` holds; -inf when a needed past
    instance is violated.  Walks a PNF formula over the system state only;
    the plan check of the robot leader is checked against it."""
    if isinstance(f, stl.TrueNode):
        return math.inf
    if isinstance(f, stl.Pred):
        v = predicate_value(f.predicate, xs[tau], ())
        if tau < now:
            return math.inf if v >= 0.0 else -math.inf
        return v
    if isinstance(f, stl.And):
        return min(oracle_split_margin(c, xs, now, tau) for c in f.children)
    if isinstance(f, stl.Or):
        return max(oracle_split_margin(c, xs, now, tau) for c in f.children)
    if isinstance(f, stl.Always):
        return min(oracle_split_margin(f.child, xs, now, tau + d) for d in range(f.a, f.b + 1))
    if isinstance(f, stl.Eventually):
        return max(oracle_split_margin(f.child, xs, now, tau + d) for d in range(f.a, f.b + 1))
    raise TypeError(f"unsupported node {type(f).__name__}")


# ---------------------------------------------------------------------------
# formula builders only the tests use


def atom(cx, cy, off, name="p"):
    """Pred leaf for the affine atom cx . x + sum_i cy[i] . y_i + off >= 0."""
    return stl.Pred(stl.AffinePredicate(tuple(cx), tuple(tuple(c) for c in cy), float(off), name=name))


# ---------------------------------------------------------------------------
# formula queries only the tests use


def is_pnf(f) -> bool:
    if isinstance(f, stl.Not):
        return False
    if isinstance(f, (stl.And, stl.Or)):
        return all(is_pnf(c) for c in f.children)
    if isinstance(f, (stl.Always, stl.Eventually)):
        return is_pnf(f.child)
    if isinstance(f, stl.Until):
        return is_pnf(f.left) and is_pnf(f.right)
    return True


def collect_predicates(f, base_time=0):
    """Distinct predicates of a PNF formula with their occurrence times, read
    off its compile_spec.

    Returns pairs in first-visit order; times are absolute, assuming the
    formula is applied at base_time.
    """
    if not is_pnf(f):
        raise ValueError("collect_predicates expects positive normal form")
    cs = stl.compile_spec(f)
    return [(p, tuple((base_time + cs.atom_tau[cs.atom_pred == i]).tolist())) for i, p in enumerate(cs.predicates)]


# ---------------------------------------------------------------------------
# random formula / trajectory generators (granular values keep atom values
# far from the 1e-9 negation margin unless exactly zero)


def random_predicate(rng, n_x, agent_dims, granularity=0.25):
    draw = lambda n: granularity * rng.integers(-8, 9, size=n)
    cx = draw(n_x)
    cy = tuple(draw(d) for d in agent_dims)
    return stl.AffinePredicate(tuple(cx), tuple(tuple(c) for c in cy), float(draw(1)[0]))


def random_formula(rng, n_x=1, agent_dims=(1,), depth=3, max_interval=3):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.05:
            return stl.TrueNode()
        return stl.Pred(random_predicate(rng, n_x, agent_dims))
    kind = rng.integers(0, 6)
    sub = lambda: random_formula(rng, n_x, agent_dims, depth - 1, max_interval)
    if kind == 0:
        return stl.Not(sub())
    if kind == 1:
        return stl.And(tuple(sub() for _ in range(rng.integers(2, 4))))
    if kind == 2:
        return stl.Or(tuple(sub() for _ in range(rng.integers(2, 4))))
    a = int(rng.integers(0, max_interval))
    b = a + int(rng.integers(0, max_interval))
    if kind == 3:
        return stl.Always(a, b, sub())
    if kind == 4:
        return stl.Eventually(a, b, sub())
    return stl.Until(a, b, sub(), sub())


def random_trajectory(rng, length, n_x=1, agent_dims=(1,), granularity=0.25):
    xs = granularity * rng.integers(-8, 9, size=(length + 1, n_x))
    ys = tuple(granularity * rng.integers(-8, 9, size=(length + 1, d)) for d in agent_dims)
    return stl.JointTrajectory(xs.astype(float), tuple(y.astype(float) for y in ys))


# ---------------------------------------------------------------------------
# per-k prediction oracles: each predictor rebuilt as a function of the
# history observed at one time k, and the table filled one k at a time


def oracle_history(traj, k):
    """Prefix plus observations through time k, per agent."""
    return [np.vstack([p, y[: k + 1]]) for p, y in zip(traj.prefix, traj.ys)]


def oracle_cv_predict(history, k, t_phi):
    """Constant velocity from each agent's last two observations; one
    observation holds still."""
    out = []
    for h in history:
        last = h[-1]
        vel = last - h[-2] if h.shape[0] >= 2 else np.zeros_like(last)
        steps = np.arange(1, t_phi - k + 1)[:, None]
        out.append(last[None, :] + steps * vel[None, :])
    return out


def oracle_ar_predict(order, coeffs, history, k, t_phi):
    """AR(order) per agent and dimension, feeding predictions back."""
    p = order
    out = []
    for i, h in enumerate(history):
        if h.shape[0] < p:
            raise ValueError(f"ar({p}) needs {p} observations, agent {i} has {h.shape[0]}")
        d = h.shape[1]
        window = h[-p:].copy()  # rows: oldest..newest
        rows = np.empty((t_phi - k, d))
        for j in range(t_phi - k):
            nxt = np.empty(d)
            for dd in range(d):
                c = coeffs[i][dd]
                nxt[dd] = float(np.dot(c[:p], window[::-1, dd]) + c[p])
            rows[j] = nxt
            window = np.vstack([window[1:], nxt[None, :]])
        out.append(rows)
    return out


def oracle_file_predict(table, history, k, t_phi):
    """The stored table's entries for the pairs (k, tau <= t_phi)."""
    if t_phi > table.t_phi:
        raise ValueError("table horizon too short")
    return [np.array([table.get(k, tau, i) for tau in range(k + 1, t_phi + 1)]) for i in range(len(table.dims))]


def oracle_table(predict, traj, t_phi):
    """predict(history(k), k, t_phi) at every k < t_phi, placed entry by entry at pair_row."""
    start = np.cumsum((0,) + traj.dims)
    values = np.zeros((t_phi * (t_phi + 1) // 2, start[-1]))
    for k in range(t_phi):
        for i, rows in enumerate(predict(oracle_history(traj, k), k, t_phi)):
            for j, y in enumerate(rows):
                values[pair_row(t_phi, k, k + 1 + j), start[i] : start[i + 1]] = y
    return PredictionTable(t_phi, traj.dims, values)


# ---------------------------------------------------------------------------
# conformal oracles


def oracle_quantile(scores, delta):
    """Smallest z in the inf-augmented multiset with rank >= p."""
    k = len(scores)
    p = math.ceil((k + 1) * (1.0 - delta))
    aug = sorted(list(scores) + [math.inf])
    for z in aug:
        if sum(1 for s in aug if s <= z) >= p:
            return z
    return math.inf


def oracle_normalizers(train, predictor, t_phi):
    """sigma_{tau|k,i} one entry at a time, keyed (k, tau, i): the worst
    training error ||Y_{tau,i} - yhat_{tau|k,i}||, floored at SIGMA_MIN."""
    worst = {}
    for tr in train:
        pt = prediction_table(predictor, tr, t_phi)
        for k in range(t_phi):
            for tau in range(k + 1, t_phi + 1):
                for i in range(tr.n_agents):
                    err = float(np.linalg.norm(tr.ys[i][tau] - pt.get(k, tau, i)))
                    key = (k, tau, i)
                    if err > worst.get(key, -1.0):
                        worst[key] = err
    return {key: max(v, SIGMA_MIN) for key, v in worst.items()}


def oracle_score(traj, table, sigma, pairs):
    """max over (k, tau) in pairs, agents i of ||Y_{tau,i} - yhat_{tau|k,i}|| / sigma_{tau|k,i};
    sigma is anything with get(k, tau, i)."""
    best = 0.0
    for k, tau in pairs:
        for i in range(traj.n_agents):
            err = float(np.linalg.norm(traj.ys[i][tau] - table.get(k, tau, i)))
            best = max(best, err / sigma.get(k, tau, i))
    return best


# ---------------------------------------------------------------------------
# grid minimizer for tightening checks


def grid_min_over_balls(coeff_y, centers, radii, step=1e-3):
    """min over y in product of Euclidean balls of sum_i a_i . y_i, by grid."""
    total = 0.0
    for a, c, r in zip(coeff_y, centers, radii):
        a = np.asarray(a, float)
        c = np.asarray(c, float)
        d = len(c)
        axes = [np.arange(c[j] - r, c[j] + r + step / 2, step) for j in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        keep = np.sum((pts - c) ** 2, axis=1) <= r * r + 1e-12
        pts = pts[keep]
        if len(pts) == 0:
            pts = c[None, :]
        total += float(np.min(pts @ a))
    return total


# ---------------------------------------------------------------------------
# KKT certificate of the closed-form tightening


@dataclass(frozen=True)
class TighteningCertificate:
    """KKT witness that the closed-form tightening is the exact ball minimum."""

    value: float
    witnesses: tuple
    multipliers: tuple
    stationarity: float
    feasibility: float
    complementarity: float

    def max_residual(self) -> float:
        return max(self.stationarity, self.feasibility, self.complementarity)


def kkt_certificate(pred, centers, radii) -> TighteningCertificate:
    """Optimality certificate for min of the atom's agent part over the balls.

    Each ball constraint ||y_i - c_i||^2 <= r_i^2 gets multiplier
    lambda_i = ||a_i|| / (2 r_i); the minimizer sits on the boundary along
    -a_i.  Radii must be positive wherever the atom actually depends on the
    agent.
    """
    ys, lams = [], []
    stat = feas = comp = 0.0
    value = pred.offset
    for a, c, r in zip(pred.coeff_y, centers, radii):
        a = np.asarray(a, dtype=float)
        c = np.asarray(c, dtype=float)
        nrm = float(np.linalg.norm(a))
        if nrm == 0.0:
            ys.append(c.copy())
            lams.append(0.0)
            continue
        if not r > 0.0:
            raise EncodingError("kkt certificate needs a positive radius where the atom depends on the agent")
        y = c - r * a / nrm
        lam = nrm / (2.0 * r)
        ys.append(y)
        lams.append(lam)
        value += float(np.dot(a, y))
        stat = max(stat, float(np.linalg.norm(a + 2.0 * lam * (y - c))))
        feas = max(feas, max(0.0, float(np.dot(y - c, y - c)) - r * r))
        comp = max(comp, abs(lam * (float(np.dot(y - c, y - c)) - r * r)))
    return TighteningCertificate(value, tuple(ys), tuple(lams), stat, feas, comp)


# ---------------------------------------------------------------------------
# plant simulators: the closed loop's applied plans and the temperature
# reformulation are checked against these


def simulate(sys, us, x0=None):
    """Roll a SystemModel forward from x0 (default sys.x0) under inputs us."""
    us = np.atleast_2d(np.asarray(us, dtype=float))
    xs = np.zeros((len(us) + 1, sys.n_x))
    xs[0] = sys.x0 if x0 is None else np.asarray(x0, dtype=float)
    for tau in range(len(us)):
        xs[tau + 1] = sys.step(xs[tau], us[tau])
    return xs


def temperature_step(sc, x, u):
    """One step of the bilinear hall-temperature plant,
    x + tau_s.(alpha_e.(T_e - x) + alpha_h.(T_h - x).u)."""
    return x + sc.tau_s * (sc.alpha_e * (sc.t_outside - x) + sc.alpha_h * (sc.t_heater - x) * u)


def simulate_temperature(sc, us, x0=None):
    """Roll the bilinear plant directly; the oracle for the linear form."""
    us = np.asarray(us, dtype=float).reshape(-1)
    xs = np.empty(len(us) + 1)
    xs[0] = sc.x0 if x0 is None else float(x0)
    for k, u in enumerate(us):
        xs[k + 1] = temperature_step(sc, xs[k], float(u))
    return xs


# ---------------------------------------------------------------------------
# brute-force MILP reference


def solve_lp(model: MilpModel) -> Solution:
    """LP relaxation of a model (binaries relaxed to [0, 1]) through the LP
    core: the bound every branch-and-bound optimum must respect."""
    c, A, eq, b, lb, ub = model.arrays()
    status, x, obj, iters = _solve_fixed(_Arrays(c, A, eq, b, lb, ub), {})
    if status != "optimal":
        return Solution(status, iterations=iters)
    return Solution("optimal", x, obj + model.obj_const, iterations=iters)


def brute_force_solve(model: MilpModel, max_binaries: int = 20) -> Solution:
    """Enumerate every binary assignment and solve the remaining LPs.

    Oracle-grade reference for solve_bb; guarded to small instances.
    """
    binaries = model.binary_ids()
    if len(binaries) > max_binaries:
        raise ValueError(f"{len(binaries)} binaries exceed brute-force guard of {max_binaries}")
    c, A, eq, b, lb, ub = model.arrays()
    arr = _Arrays(c, A, eq, b, lb, ub)
    best = None
    best_obj = math.inf
    iters = 0
    saw_unbounded = False
    for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
        fixed = dict(zip(binaries, bits))
        if any(not (model.vars[j].lb <= v <= model.vars[j].ub) for j, v in fixed.items()):
            continue
        status, x, obj, it = _solve_fixed(arr, fixed)
        iters += it
        if status == "unbounded":
            saw_unbounded = True
        if status == "optimal" and obj < best_obj - 1e-12:
            best, best_obj = x, obj
    if best is None:
        return Solution("unbounded" if saw_unbounded else "infeasible", iterations=iters)
    return Solution("optimal", best, best_obj + model.obj_const, iterations=iters, nodes=2 ** len(binaries))


def oracle_solve_bb(
    model: MilpModel,
    gap_tol: float = GAP_TOL,
    int_tol: float = INTEGRALITY_TOL,
    node_limit: int | None = None,
    hint: dict[int, int] | None = None,
    log: list | None = None,
) -> Solution:
    """Cold best-first branch and bound: every node re-solves its LP from
    scratch with its binaries substituted out (one _solve_fixed per node).
    The reference the warm-started solve_bb is checked against.

    hint: a full 0/1 assignment of the binaries to try first ("dive"); if the
    resulting LP is feasible it becomes the starting incumbent, and with a
    constant objective the solve finishes without touching the relaxation.
    """
    if node_limit is None:
        node_limit = NODE_LIMIT
    c, A, eq, b, lb, ub = model.arrays()
    arr = _Arrays(c, A, eq, b, lb, ub)
    binaries = model.binary_ids()
    tied_down = {j for j in binaries if model.vars[j].lb == model.vars[j].ub}
    zero_obj = not np.any(c != 0.0)

    best_x = None
    best_obj = math.inf
    total_iters = 0
    nodes = 0

    def record(event: str, **kw):
        if log is not None:
            log.append({"event": event, "node": nodes, "incumbent": None if best_x is None else best_obj, **kw})

    def dive(assign: dict[int, int]):
        nonlocal best_x, best_obj, total_iters
        fixed = {j: float(assign[j]) for j in binaries if j in assign}
        if len(fixed) != len(binaries):
            return False
        status, x, obj, iters = _solve_fixed(arr, fixed)
        total_iters += iters
        if status == "optimal" and obj < best_obj - 1e-12:
            best_x, best_obj = x, obj
            record("incumbent", bound=obj, source="dive")
            return True
        return False

    if hint is not None:
        merged = dict(hint)
        for j in tied_down:
            merged[j] = int(model.vars[j].lb)
        dive(merged)
        if best_x is not None and zero_obj:
            return Solution("optimal", best_x, best_obj + model.obj_const, total_iters, nodes, 0.0)

    if not binaries:
        status, x, obj, iters = _solve_fixed(arr, {})
        if status != "optimal":
            return Solution(status, iterations=iters)
        return Solution("optimal", x, obj + model.obj_const, iters, 1, 0.0)

    seq = itertools.count()
    heap: list = []

    def push(bound, fixed):
        heapq.heappush(heap, (bound, next(seq), fixed))

    push(-math.inf, {j: float(model.vars[j].lb) for j in tied_down})
    status_out = "optimal"
    while heap:
        bound, _, fixed = heapq.heappop(heap)
        if best_x is not None and bound >= best_obj - gap_tol:
            heap.clear()
            break
        if nodes >= node_limit:
            status_out = "limit"
            break
        nodes += 1
        status, x, obj, iters = _solve_fixed(arr, fixed)
        total_iters += iters
        if status == "limit":
            status_out = "limit"
            break
        if status == "unbounded":
            return Solution("unbounded", iterations=total_iters, nodes=nodes)
        if status != "optimal":
            record("pruned-infeasible")
            continue
        if best_x is not None and obj >= best_obj - gap_tol:
            record("pruned-bound", bound=obj)
            continue
        frac = [j for j in binaries if j not in fixed and min(x[j], 1.0 - x[j]) > int_tol]
        if not frac:
            cand = x.copy()
            for j in binaries:
                cand[j] = round(cand[j])
            if obj < best_obj - 1e-12:
                best_x, best_obj = cand, obj
                record("incumbent", bound=obj, source="node")
            if zero_obj:
                break
            continue
        # most fractional, lowest id on ties
        scores = [(abs(x[j] - 0.5), j) for j in frac]
        _, jb = min(scores)
        first = int(round(x[jb]))
        for v in (first, 1 - first):
            child = dict(fixed)
            child[jb] = float(v)
            push(obj, child)
        record("branched", var=jb, bound=obj)

    if best_x is None:
        return Solution("infeasible" if status_out == "optimal" else status_out, iterations=total_iters, nodes=nodes)
    open_bounds = [bound for bound, _, _ in heap]
    gap = max(0.0, best_obj - min(open_bounds)) if open_bounds else 0.0
    return Solution(status_out, best_x, best_obj + model.obj_const, total_iters, nodes, gap)


# ---------------------------------------------------------------------------
# one-atom-at-a-time tightening helpers, no longer used by the package since
# the encoder's atom table tightens every atom instance at once


class LinExpr(encoding.LinExpr):
    """The encoder's affine expression plus term-by-term building."""

    __slots__ = ()

    def add_term(self, vid: int, coef: float) -> None:
        if coef == 0.0:
            return
        new = self.coeffs.get(vid, 0.0) + coef
        if new == 0.0:
            self.coeffs.pop(vid, None)
        else:
            self.coeffs[vid] = new

    @property
    def is_const(self) -> bool:
        return not self.coeffs


def select_big_m(ctx, formula) -> float:
    """Bound on |tightened atom value| across a PNF formula, doubled; see
    _AtomTable.big_m."""
    return encoding._AtomTable(ctx, stl.compile_spec(formula)).big_m(ctx)


def tightened_offset(pred, centers, radii) -> float:
    """Worst case of the agent part of an atom over the prediction balls:
    min over y_i in Ball(centers[i], radii[i]) of sum_i a_i . y_i, plus the
    predicate offset."""
    total = pred.offset
    for a, c, r in zip(pred.coeff_y, centers, radii):
        a = np.asarray(a, dtype=float)
        nrm = float(np.linalg.norm(a))
        if nrm == 0.0:
            continue
        total += float(np.dot(a, c)) - r * nrm
    return total


# ---------------------------------------------------------------------------
# direct tightening and folding over the formula AST: the encoder's atom
# table and its three-valued fold are checked against these


def oracle_collect_predicates(f, base_time=0):
    """Distinct predicates of a PNF formula with their sorted occurrence
    times, in first-visit order of an unmemoized walk."""
    order, times = [], {}

    def visit(g, t):
        if isinstance(g, stl.Pred):
            if g.predicate not in times:
                order.append(g.predicate)
                times[g.predicate] = set()
            times[g.predicate].add(t)
        elif isinstance(g, (stl.And, stl.Or)):
            for c in g.children:
                visit(c, t)
        elif isinstance(g, (stl.Always, stl.Eventually)):
            for tp in range(t + g.a, t + g.b + 1):
                visit(g.child, tp)
        elif isinstance(g, stl.Until):
            for tp in range(t + g.a, t + g.b + 1):
                visit(g.right, tp)
                for tpp in range(t, tp + 1):
                    visit(g.left, tpp)

    visit(f, base_time)
    return [(p, tuple(sorted(times[p]))) for p in order]


def oracle_atom_expr(ctx, pred, tau):
    """Tightened value of an atom at absolute time tau, one atom at a time:
    a float if fully observed or agent-only, else a LinExpr over the state
    variables."""
    expr = LinExpr(const=pred.offset)
    if pred.coeff_x:
        if tau <= ctx.k:
            xs = ctx.observed_x[tau]
            expr.const += float(np.dot(pred.coeff_x, xs[: len(pred.coeff_x)]))
        else:
            try:
                vids = ctx.state_vars[tau]
            except KeyError:
                raise EncodingError(f"no state variables registered for time {tau}") from None
            for d, coef in enumerate(pred.coeff_x):
                expr.add_term(vids[d], coef)
    for i, a in enumerate(pred.coeff_y):
        a = np.asarray(a, dtype=float)
        nrm = float(np.linalg.norm(a))
        if nrm == 0.0:
            continue
        if tau <= ctx.k:
            expr.const += float(np.dot(a, ctx.observed_y[(tau, i)]))
        else:
            center = ctx.predicted_y[(tau, i)]
            r = float(ctx.radius(tau, i))
            expr.const += float(np.dot(a, center))
            if math.isinf(r):
                expr.const = -math.inf
                break
            expr.const -= r * nrm
    if expr.const == -math.inf:
        return -math.inf
    if expr.is_const:
        return expr.const
    return expr


def oracle_until_witness(f, d2):
    parts = [stl.Always(d2, d2, f.right)] + [stl.Always(d, d, f.left) for d in range(d2 + 1)]
    return stl.And(tuple(parts))


def oracle_children(f, tau):
    """(kind, [(child, time), ...]) of one layer; until expands to its
    witnesses, as the encoder does."""
    if isinstance(f, stl.Until):
        return "or", [(oracle_until_witness(f, d2), tau) for d2 in range(f.a, f.b + 1)]
    if isinstance(f, (stl.And, stl.Or)):
        return ("and" if isinstance(f, stl.And) else "or"), [(c, tau) for c in f.children]
    kind = "and" if isinstance(f, stl.Always) else "or"
    return kind, [(f.child, t) for t in range(tau + f.a, tau + f.b + 1)]


def oracle_known_truth(ctx, f, tau):
    """Three-valued fold: True/False when the observed prefix (or an
    agent-only tightened constant) decides f at tau, None otherwise."""
    if isinstance(f, stl.TrueNode):
        return True
    if isinstance(f, stl.Pred):
        e = oracle_atom_expr(ctx, f.predicate, tau)
        return e >= 0.0 if isinstance(e, float) else None
    kind, pairs = oracle_children(f, tau)
    bits = [oracle_known_truth(ctx, c, t) for c, t in pairs]
    decisive = kind == "or"
    if any(b is decisive for b in bits):
        return decisive
    return (not decisive) if all(b is not None for b in bits) else None


def oracle_tightened_robustness(ctx, f, tau, xs):
    """Robustness of a PNF formula at tau with every atom at its tightened
    value (oracle_atom_expr) for state trajectory xs, by a direct walk."""
    if isinstance(f, stl.TrueNode):
        return math.inf
    if isinstance(f, stl.Pred):
        e = oracle_atom_expr(ctx, f.predicate, tau)
        if isinstance(e, float):
            return e
        return e.value({v: float(xs[tau, d]) for d, v in enumerate(ctx.state_vars[tau])})
    kind, pairs = oracle_children(f, tau)
    vals = [oracle_tightened_robustness(ctx, c, t, xs) for c, t in pairs]
    return min(vals) if kind == "and" else max(vals)


# ---------------------------------------------------------------------------
# plan reuse decided on the step model


def oracle_reusable(sm, xs, us, tol=None) -> bool:
    """Whether a hinted plan passes its step model's own check: one solution
    vector holding the plan's future states and its inputs, the binaries
    encoding.suggest_assignment reads off the states, every gate at its
    exact min/max and require's root variable at its defining row, checked
    row by row within tol (default sm.model.feasibility_tol()).  A plan
    that leaves a variable unset (an input missing, a cost auxiliary)
    fails."""
    model = sm.model
    vec = np.full(model.n_vars, np.nan)
    for tau, vids in sm.x_vars.items():
        vec[vids] = np.asarray(xs[tau], dtype=float)[: len(vids)]
    for tau, vids in sm.u_vars.items():
        if tau not in us:
            return False
        vec[vids] = np.asarray(us[tau], dtype=float)
    for v, val in encoding.suggest_assignment(sm.ctx, sm.enc, xs).items():
        vec[v] = val
    for entry in sm.enc.registry:  # children are registered before their parents
        if entry[0] == "sel":
            _, op, rbar, _, exprs = entry
            scores = [e.const + sum(c * vec[v] for v, c in e.coeffs.items()) for e in exprs]
            vec[rbar] = min(scores) if op == "min" else max(scores)
    for row in model.rows:
        if row.name == "root_value":  # r_root - e = e.const
            vec[sm.root] = row.rhs - sum(c * vec[v] for v, c in row.coeffs.items() if v != sm.root)
    if np.isnan(vec).any():
        return False
    return not model.check_solution(vec, model.feasibility_tol() if tol is None else tol)
