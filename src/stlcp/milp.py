"""Small dense mixed-integer linear programming layer.

The LP core is a two-phase primal simplex on a dense tableau with bounded
variables (nonbasic variables may sit at either bound, so variable bounds
never become extra rows).  Dantzig pricing switches to Bland's rule after a
long degenerate streak to rule out cycling.  Binaries are handled by
best-first branch and bound on the most fractional variable with
deterministic tie-breaking (lowest variable id), plus an optional "dive"
that fixes a caller-suggested assignment of all binaries and solves the
remaining LP; on structured instances this finds an incumbent in one shot.

Instances here are small (hundreds of variables), so simplicity and
auditability beat sparse-matrix performance.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

FEASIBILITY_TOL = 1e-7
INTEGRALITY_TOL = 1e-7
GAP_TOL = 1e-6
_PIVOT_TOL = 1e-9

#: Environment variable capping branch-and-bound nodes.
NODE_LIMIT_ENV = "STLCP_NODE_LIMIT"


class MilpError(RuntimeError):
    pass


@dataclass
class _Var:
    name: str
    lb: float
    ub: float
    is_binary: bool


@dataclass
class _Row:
    coeffs: dict[int, float]
    sense: str  # '<=', '>=', '='
    rhs: float
    name: str


@dataclass
class Solution:
    status: str  # optimal | infeasible | unbounded | limit
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    nodes: int = 0
    gap: float = 0.0

    def value(self, vid: int) -> float:
        return float(self.x[vid])


class MilpModel:
    def __init__(self, name: str = "model"):
        self.name = name
        self.vars: list[_Var] = []
        self.rows: list[_Row] = []
        self.obj: dict[int, float] = {}
        self.obj_const: float = 0.0

    # -- construction ------------------------------------------------------

    def add_continuous(self, name: str, lb: float, ub: float) -> int:
        if not lb <= ub:
            raise ValueError(f"variable {name}: empty bound range [{lb}, {ub}]")
        self.vars.append(_Var(name, float(lb), float(ub), False))
        return len(self.vars) - 1

    def add_binary(self, name: str) -> int:
        self.vars.append(_Var(name, 0.0, 1.0, True))
        return len(self.vars) - 1

    def fix_var(self, vid: int, value: float) -> None:
        self.vars[vid].lb = self.vars[vid].ub = float(value)

    def add_constraint(self, coeffs: dict[int, float], sense: str, rhs: float, name: str = "") -> int:
        if sense not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {sense!r}")
        clean = {int(v): float(c) for v, c in coeffs.items() if c != 0.0}
        self.rows.append(_Row(clean, sense, float(rhs), name or f"c{len(self.rows)}"))
        return len(self.rows) - 1

    def set_objective(self, coeffs: dict[int, float], const: float = 0.0) -> None:
        self.obj = {int(v): float(c) for v, c in coeffs.items()}
        self.obj_const = float(const)

    @property
    def n_vars(self) -> int:
        return len(self.vars)

    def binary_ids(self) -> list[int]:
        return [j for j, v in enumerate(self.vars) if v.is_binary]

    # -- dense form ---------------------------------------------------------

    def arrays(self):
        n, m = len(self.vars), len(self.rows)
        A = np.zeros((m, n))
        b = np.empty(m)
        eq = np.zeros(m, dtype=bool)
        for i, row in enumerate(self.rows):
            sgn = -1.0 if row.sense == ">=" else 1.0
            for v, c in row.coeffs.items():
                A[i, v] = sgn * c
            b[i] = sgn * row.rhs
            eq[i] = row.sense == "="
        c = np.zeros(n)
        for v, coef in self.obj.items():
            c[v] = coef
        lb = np.array([v.lb for v in self.vars])
        ub = np.array([v.ub for v in self.vars])
        return c, A, eq, b, lb, ub

    # -- reporting ----------------------------------------------------------

    def check_solution(self, x: Sequence[float], tol: float = FEASIBILITY_TOL) -> list[dict]:
        x = np.asarray(x, dtype=float)
        out = []
        for j, v in enumerate(self.vars):
            if x[j] < v.lb - tol or x[j] > v.ub + tol:
                out.append({"kind": "bound", "name": v.name, "amount": float(max(v.lb - x[j], x[j] - v.ub))})
            if v.is_binary and min(abs(x[j]), abs(x[j] - 1.0)) > INTEGRALITY_TOL:
                out.append({"kind": "integrality", "name": v.name, "amount": float(min(abs(x[j]), abs(x[j] - 1)))})
        for row in self.rows:
            lhs = sum(c * x[v] for v, c in row.coeffs.items())
            viol = 0.0
            if row.sense == "<=":
                viol = lhs - row.rhs
            elif row.sense == ">=":
                viol = row.rhs - lhs
            else:
                viol = abs(lhs - row.rhs)
            if viol > tol:
                out.append({"kind": "row", "name": row.name, "amount": float(viol)})
        return out

    def objective_value(self, x: Sequence[float]) -> float:
        return float(sum(c * x[v] for v, c in self.obj.items()) + self.obj_const)


# ---------------------------------------------------------------------------
# LP core


def _lp_bounded(c, A, eq, b, lb, ub, maxiter: int | None = None):
    """Two-phase bounded-variable dense tableau simplex.

    Inequality rows must already be in '<=' form (eq marks equalities).
    Returns (status, x, objective, iterations).
    """
    m, n = A.shape
    if np.any(np.isinf(lb) & np.isinf(ub)):
        raise MilpError("fully unbounded variables are not supported")

    # slacks for inequality rows
    n_slack = int(np.sum(~eq))
    n1 = n + n_slack
    cols = np.zeros((m, n1))
    cols[:, :n] = A
    slack_of = -np.ones(m, dtype=int)
    si = n
    for i in range(m):
        if not eq[i]:
            cols[i, si] = 1.0
            slack_of[i] = si
            si += 1
    lo = np.concatenate([lb, np.zeros(n_slack)])
    hi = np.concatenate([ub, np.full(n_slack, np.inf)])

    # nonbasic start at a finite bound
    stat = np.zeros(n1, dtype=np.int8)  # 0 at-lb, 1 at-ub, 2 basic
    xval = np.where(np.isfinite(lo), lo, hi)
    stat[~np.isfinite(lo)] = 1
    resid = b - cols @ xval

    basis = np.empty(m, dtype=int)
    need_art = []
    for i in range(m):
        if slack_of[i] >= 0 and resid[i] >= 0.0:
            basis[i] = slack_of[i]
        else:
            need_art.append(i)
    n_art = len(need_art)
    T = np.zeros((m, n1 + n_art))
    T[:, :n1] = cols
    for a, i in enumerate(need_art):
        if resid[i] < 0:
            T[i, :] *= -1.0
            resid[i] *= -1.0
        T[i, n1 + a] = 1.0
        basis[i] = n1 + a
    lo = np.concatenate([lo, np.zeros(n_art)])
    hi = np.concatenate([hi, np.full(n_art, np.inf)])
    xval = np.concatenate([xval, np.zeros(n_art)])
    stat = np.concatenate([stat, np.full(n_art, 2, dtype=np.int8)])
    stat[basis] = 2
    xB = resid.copy()
    xB[xB < 0] = 0.0  # slack-basic rows had resid >= 0; artificials are |resid|

    n_tot = n1 + n_art
    if maxiter is None:
        maxiter = max(2000, 40 * (m + n_tot))
    iters = 0
    scale = 1.0 + float(np.max(np.abs(b))) if m else 1.0

    def run(cvec, allow_unbounded):
        nonlocal iters, T, xB
        zrow = cvec - cvec[basis] @ T
        zrow[basis] = 0.0
        bland = False
        degen_streak = 0
        refresh = 0
        while True:
            if iters >= maxiter:
                return "limit"
            iters += 1
            refresh += 1
            if refresh >= 700:
                zrow[:] = cvec - cvec[basis] @ T
                zrow[basis] = 0.0
                refresh = 0
            movable = hi > lo
            down = (stat == 0) & (zrow < -_PIVOT_TOL) & movable
            up = (stat == 1) & (zrow > _PIVOT_TOL) & movable
            cand = np.flatnonzero(down | up)
            if cand.size == 0:
                return "optimal"
            if bland:
                j = int(cand[0])
            else:
                j = int(cand[np.argmax(np.abs(zrow[cand]))])
            d = 1.0 if stat[j] == 0 else -1.0
            w = T[:, j]
            dw = d * w
            limits = np.full(m, np.inf)
            dec = dw > _PIVOT_TOL
            if np.any(dec):
                limits[dec] = (xB[dec] - lo[basis[dec]]) / dw[dec]
            inc = dw < -_PIVOT_TOL
            if np.any(inc):
                ubb = hi[basis[inc]]
                limits[inc] = np.where(np.isfinite(ubb), (ubb - xB[inc]) / (-dw[inc]), np.inf)
            np.clip(limits, 0.0, None, out=limits)
            t_basic = float(np.min(limits)) if m else np.inf
            t_bound = hi[j] - lo[j]
            if t_basic == np.inf and t_bound == np.inf:
                if allow_unbounded:
                    return "unbounded"
                raise MilpError("phase-1 ray; numerical failure")
            if t_bound <= t_basic:
                # bound flip, no pivot
                xB -= dw * t_bound
                stat[j] ^= 1
                xval[j] = hi[j] if stat[j] == 1 else lo[j]
                degen_streak = 0
                continue
            ties = np.flatnonzero(limits <= t_basic + 1e-9)
            r = int(ties[np.argmin(basis[ties])])
            t = t_basic
            degen_streak = degen_streak + 1 if t <= 1e-12 else 0
            if degen_streak > 2 * (m + n_tot) + 50:
                bland = True
            leave = int(basis[r])
            enter_val = (lo[j] if d > 0 else hi[j]) + d * t
            xB -= dw * t
            if dw[r] > 0:
                stat[leave] = 0
                xval[leave] = lo[leave]
            else:
                stat[leave] = 1
                xval[leave] = hi[leave]
            piv = T[r, j]
            T[r] /= piv
            colj = T[:, j].copy()
            colj[r] = 0.0
            T -= np.outer(colj, T[r])
            T[:, j] = 0.0
            T[r, j] = 1.0
            zrow -= zrow[j] * T[r]
            zrow[j] = 0.0
            basis[r] = j
            stat[j] = 2
            xB[r] = enter_val

    if n_art:
        c1 = np.zeros(n_tot)
        c1[n1:] = 1.0
        st = run(c1, allow_unbounded=False)
        if st == "limit":
            return "limit", None, None, iters
        art_sum = float(np.sum(xB[np.flatnonzero(basis >= n1)])) if m else 0.0
        if art_sum > FEASIBILITY_TOL * scale:
            return "infeasible", None, None, iters
        hi[n1:] = 0.0  # artificials may stay basic at zero but can never rise

    c2 = np.zeros(n_tot)
    c2[:n] = c
    nb = stat != 2
    xval[nb & (stat == 1)] = hi[nb & (stat == 1)]
    st = run(c2, allow_unbounded=True)
    if st == "limit":
        return "limit", None, None, iters
    if st == "unbounded":
        return "unbounded", None, None, iters
    x_full = xval.copy()
    x_full[stat == 2] = 0.0
    x_full[basis] = xB
    x = x_full[:n]
    return "optimal", x, float(c @ x), iters


def _quick_row_screen(A, eq, b, lb, ub):
    """Drop '<=' rows that no point in the bound box can violate; detect rows
    no point can satisfy.  Returns (keep_mask, feasible)."""
    if A.shape[0] == 0:
        return np.zeros(0, dtype=bool), True
    pos = np.clip(A, 0.0, None)
    neg = np.clip(A, None, 0.0)
    with np.errstate(invalid="ignore"):
        hi_act = pos @ np.where(np.isfinite(ub), ub, 0.0) + neg @ np.where(np.isfinite(lb), lb, 0.0)
        hi_act[np.any((pos > 0) & ~np.isfinite(ub)[None, :], axis=1)] = np.inf
        hi_act[np.any((neg < 0) & ~np.isfinite(lb)[None, :], axis=1)] = np.inf
        lo_act = pos @ np.where(np.isfinite(lb), lb, 0.0) + neg @ np.where(np.isfinite(ub), ub, 0.0)
        lo_act[np.any((pos > 0) & ~np.isfinite(lb)[None, :], axis=1)] = -np.inf
        lo_act[np.any((neg < 0) & ~np.isfinite(ub)[None, :], axis=1)] = -np.inf
    tol = FEASIBILITY_TOL
    if np.any(lo_act > b + tol):
        return None, False
    if np.any(eq & (hi_act < b - tol)):
        return None, False
    keep = eq | (hi_act > b + tol)
    return keep, True


@dataclass
class _Arrays:
    c: np.ndarray
    A: np.ndarray
    eq: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray


def _solve_fixed(arr: _Arrays, fixed: dict[int, float]):
    """LP with some variables pinned; pinned columns are substituted out and
    rows made redundant by the remaining bound box are dropped."""
    n = arr.c.shape[0]
    if fixed:
        fid = np.fromiter(fixed.keys(), dtype=int)
        fval = np.fromiter((fixed[j] for j in fid), dtype=float)
        free = np.ones(n, dtype=bool)
        free[fid] = False
        shift = arr.A[:, fid] @ fval
        b2 = arr.b - shift
        A2 = arr.A[:, free]
        const = float(arr.c[fid] @ fval)
    else:
        free = np.ones(n, dtype=bool)
        A2, b2, const = arr.A, arr.b, 0.0
    lbf, ubf = arr.lb[free], arr.ub[free]
    keep, ok = _quick_row_screen(A2, arr.eq, b2, lbf, ubf)
    if not ok:
        return "infeasible", None, None, 0
    A3, b3, eq3 = A2[keep], b2[keep], arr.eq[keep]
    status, xf, obj, iters = _lp_bounded(arr.c[free], A3, eq3, b3, lbf, ubf)
    if status != "optimal":
        return status, None, None, iters
    x = np.empty(n)
    x[free] = xf
    if fixed:
        x[fid] = fval
    return "optimal", x, obj + const, iters


def solve_lp(model: MilpModel) -> Solution:
    """LP relaxation (binaries relaxed to [0,1])."""
    c, A, eq, b, lb, ub = model.arrays()
    status, x, obj, iters = _solve_fixed(_Arrays(c, A, eq, b, lb, ub), {})
    if status != "optimal":
        return Solution(status, iterations=iters)
    return Solution("optimal", x, obj + model.obj_const, iterations=iters)


def dive_solve(model: MilpModel, assignment: dict[int, int]) -> Solution:
    """Single LP with every binary pinned to the given 0/1 value.

    "optimal" means the assignment extends to a feasible point (optimal over
    the continuous variables); no tree search happens and infeasibility says
    nothing about other assignments.
    """
    binaries = model.binary_ids()
    missing = [j for j in binaries if j not in assignment]
    if missing:
        raise MilpError(f"dive assignment misses {len(missing)} of {len(binaries)} binaries")
    for j in binaries:
        v = model.vars[j]
        if not v.lb - 1e-12 <= assignment[j] <= v.ub + 1e-12:
            return Solution("infeasible")
    c, A, eq, b, lb, ub = model.arrays()
    fixed = {j: float(assignment[j]) for j in binaries}
    status, x, obj, iters = _solve_fixed(_Arrays(c, A, eq, b, lb, ub), fixed)
    if status != "optimal":
        return Solution("infeasible" if status == "infeasible" else status, iterations=iters)
    return Solution("optimal", x, obj + model.obj_const, iterations=iters)


# ---------------------------------------------------------------------------
# branch and bound


def solve_bb(
    model: MilpModel,
    gap_tol: float = GAP_TOL,
    int_tol: float = INTEGRALITY_TOL,
    node_limit: int | None = None,
    hint: dict[int, int] | None = None,
    heuristic: Callable[[np.ndarray], dict[int, int] | None] | None = None,
    log: list | None = None,
) -> Solution:
    """Best-first branch and bound.

    hint: a full 0/1 assignment of the binaries to try first ("dive"); if the
    resulting LP is feasible it becomes the starting incumbent, and with a
    constant objective the solve finishes without touching the relaxation.
    heuristic: callback mapping a node's fractional LP solution to a candidate
    assignment to dive on (or None).
    """
    if node_limit is None:
        node_limit = int(os.environ.get(NODE_LIMIT_ENV, "200000"))
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
        if heuristic is not None:
            sugg = heuristic(x)
            if sugg is not None:
                merged = dict(fixed)
                for j, v in sugg.items():
                    merged.setdefault(j, v)
                got = dive({j: int(v) for j, v in merged.items()})
                if got and zero_obj:
                    break
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
# LP-format export


def _lp_term(c: float, name: str) -> str:
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    return f"{sign} {mag:.12g} {name}"


def write_lp(model: MilpModel) -> str:
    """Render the model in LP file format (external-solver escape hatch)."""
    names = []
    seen = set()
    for j, v in enumerate(model.vars):
        nm = "".join(ch if ch.isalnum() or ch in "_" else "_" for ch in v.name) or f"v{j}"
        if nm[0].isdigit():
            nm = "v_" + nm
        if nm in seen:
            nm = f"{nm}_{j}"
        seen.add(nm)
        names.append(nm)
    out = [f"\\ {model.name}", "Minimize"]
    terms = " ".join(_lp_term(c, names[v]) for v, c in sorted(model.obj.items()) if c != 0.0)
    out.append(f" obj: {terms.lstrip('+ ') if terms else '0 ' + (names[0] if names else 'x')}")
    out.append("Subject To")
    op = {"<=": "<=", ">=": ">=", "=": "="}
    for row in model.rows:
        body = " ".join(_lp_term(c, names[v]) for v, c in sorted(row.coeffs.items()))
        out.append(f" {row.name}: {body.lstrip('+ ')} {op[row.sense]} {row.rhs:.12g}")
    out.append("Bounds")
    for j, v in enumerate(model.vars):
        lo = "-inf" if math.isinf(v.lb) else f"{v.lb:.12g}"
        hi = "+inf" if math.isinf(v.ub) else f"{v.ub:.12g}"
        out.append(f" {lo} <= {names[j]} <= {hi}")
    bins = [names[j] for j in model.binary_ids()]
    if bins:
        out.append("Binaries")
        out.append(" " + " ".join(bins))
    out.append("End")
    return "\n".join(out) + "\n"
