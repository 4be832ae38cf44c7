"""Small dense mixed-integer linear programming layer.

The LP core, _LP, is one dense simplex tableau over [A | I] with bounded
variables: one slack per row, fixed at zero on equality rows, and nonbasic
variables at either bound, so variable bounds never become extra rows.  Two
pricing rules share it.  primal() is a two-phase primal simplex that solves
an LP from scratch, with artificial columns appended for phase 1 only;
dual() is a bounded dual simplex that restores primal feasibility from a
dual-feasible basis after bounds change.  Both pivot through one update
that touches only the rows the entering column reaches.  Dantzig pricing
switches to Bland's rule after a long degenerate streak to rule out
cycling.

Binaries are handled by branch and bound on the most fractional variable
with deterministic tie-breaking (lowest variable id).  Before the root LP a
presolve propagates activity bounds over the rows to a fixpoint: it refutes
a root that no point of the box satisfies within the LP core's row
tolerance, and fixes every binary the rows imply.  The primal simplex
solves the root.  Every other node is warm-started from its parent's basis:
a child fixes one binary through its bounds, so the parent basis stays dual
feasible and the dual simplex restores primal feasibility in a few pivots.
The search plunges depth first on one tableau whose shape never changes; an
open node stores a basis (basic column per row plus at-bound status), not a
tableau, and is refactorized when popped.  Apart from the search,
dive_solve fixes a caller-suggested assignment of all binaries and solves
the remaining LP; on structured instances this finds a plan in one shot.
synthesis.solve_step is the one caller that tries a dive before a search.

Instances here are small (hundreds of variables), so simplicity and
auditability beat sparse-matrix performance.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

FEASIBILITY_TOL = 1e-7
INTEGRALITY_TOL = 1e-7
GAP_TOL = 1e-6
_PIVOT_TOL = 1e-9

#: Branch-and-bound nodes per solve_bb call.
NODE_LIMIT = 200000


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

    def feasibility_tol(self) -> float:
        """Row violation the LP core accepts as feasible: FEASIBILITY_TOL
        scaled by one plus the largest |rhs|, as its phase 1 does."""
        return _row_tol([r.rhs for r in self.rows])


# ---------------------------------------------------------------------------
# LP core


_PRIMAL_TOL = 1e-9  # dual simplex: largest bound violation a basic value may keep
_DUAL_TOL = 1e-9  # Harris ratio test: reduced-cost slack a pivot may spend
_REFACTOR_EVERY = 200  # dual pivots between refactorizations of a plunge
_PIVOT_SHARE = 0.1  # ratio-test ties: smallest pivot kept, relative to the largest


def _row_tol(b) -> float:
    """Row violation the LP core accepts as feasible: FEASIBILITY_TOL scaled
    by one plus the largest |rhs|."""
    return FEASIBILITY_TOL * (1.0 + float(np.max(np.abs(b), initial=0.0)))


class _LP:
    """One dense tableau T = B^-1 [A | I] with bounded variables: every
    structural column plus one slack per row, fixed at zero on equality
    rows.  Nonbasic columns sit at either bound, so variable bounds never
    become extra rows.  Inequality rows must already be in '<=' form (eq
    marks equalities).  row_tol is the row violation both simplex methods
    accept as feasible, the model's feasibility_tol().

    primal() solves from scratch; load() refactorizes a stored basis under
    the current bounds, and dual() then restores primal feasibility after
    bound changes.  Both simplex methods pivot through _pivot, and fixed
    columns, the equality slacks among them, are never priced.

    Among the dual's ratio-test ties, continuous columns enter first, then
    slacks, and binaries last: a binary left nonbasic sits at 0 or 1, so
    fewer binaries come out fractional and the tree stays small.  With a
    constant objective every candidate ties.  On the searches of a
    temperature closed-loop round (7 rooms) the rule took about 200 nodes
    where picking the largest pivot alone took about 1400."""

    def __init__(self, c, A, eq, b, lb, ub, row_tol, binary=None):
        m, n = A.shape
        self.n = n
        self.eq = eq
        self.row_tol = row_tol
        binary = np.zeros(n, dtype=bool) if binary is None else binary
        self.enter_order = np.concatenate([np.where(binary, 2, 0), np.ones(m, dtype=int)])
        self.M = np.hstack([A, np.eye(m)])
        self.b = b
        self.cost = np.concatenate([c, np.zeros(m)])
        self.lo = np.concatenate([lb, np.zeros(m)])
        self.hi = np.concatenate([ub, np.where(eq, 0.0, np.inf)])
        self.iters = 0  # primal pricing passes and dual pivots, all calls

    def load(self, basis: np.ndarray, stat: np.ndarray) -> None:
        """Refactorize T, the basic values and the reduced costs for a stored
        basis under the current bounds (one LU of B)."""
        self.basis, self.stat = basis.copy(), stat.copy()
        self.xval = np.where(stat == 1, self.hi, self.lo)
        self.xval[basis] = 0.0
        rhs = self.b - self.M @ self.xval
        sol = np.linalg.solve(self.M[:, basis], np.column_stack([self.M, rhs]))
        self.T, self.xB = sol[:, :-1], sol[:, -1]
        self.z = self.cost - self.cost[basis] @ self.T
        self.z[basis] = 0.0
        self.since_load = 0

    def fix(self, j: int, v: float) -> None:
        """Pin column j to v; a nonbasic column that moves shifts xB."""
        self.lo[j] = self.hi[j] = v
        if self.stat[j] != 2 and self.xval[j] != v:
            self.xB -= self.T[:, j] * (v - self.xval[j])
            self.xval[j] = v

    def x(self) -> np.ndarray:
        full = self.xval.copy()
        full[self.basis] = self.xB
        return full[: self.n]

    def _pivot(self, r: int, j: int) -> None:
        """Column j enters the basis on row r.  Only the rows column j
        reaches are updated: most tableau rows miss a given column."""
        T, z = self.T, self.z
        T[r] /= T[r, j]
        colj = T[:, j].copy()
        colj[r] = 0.0
        rows = np.flatnonzero(colj)
        T[rows] -= np.outer(colj[rows], T[r])
        T[:, j] = 0.0
        T[r, j] = 1.0
        z -= z[j] * T[r]
        z[j] = 0.0
        self.basis[r] = j
        self.stat[j] = 2

    def primal(self) -> str:
        """Two-phase primal simplex from scratch under the current bounds:
        "optimal", "infeasible", "unbounded" or "limit".  Phase 1 appends an
        artificial column to every row whose slack cannot start basic and
        feasible, equality rows included, and accepts rows violated within
        row_tol.  Dantzig pricing switches to Bland's rule after a long
        degenerate streak to rule out cycling.

        On "optimal", x() reads the point, and basis and stat hold the
        basis over [A | I]: an artificial left basic at zero is a unit
        column on its own row, parallel to that row's slack, so the slack
        takes its place (same point, basis matrix equal up to sign).  T is
        valid again only after load(basis, stat)."""
        M, eq = self.M, self.eq
        m, n = M.shape[0], self.n
        if np.any(np.isinf(self.lo[:n]) & np.isinf(self.hi[:n])):
            raise MilpError("fully unbounded variables are not supported")
        N = n + m
        # nonbasic start at a finite bound
        stat = np.where(np.isfinite(self.lo), 0, 1).astype(np.int8)  # 0 at-lb, 1 at-ub, 2 basic
        xval = np.where(np.isfinite(self.lo), self.lo, self.hi)
        resid = self.b - M @ xval
        flip = resid < 0.0
        art = np.flatnonzero(eq | flip)
        n_art = art.size
        T = np.zeros((m, N + n_art))
        T[:, :N] = M
        T[flip] *= -1.0
        T[art, N + np.arange(n_art)] = 1.0
        basis = n + np.arange(m)
        basis[art] = N + np.arange(n_art)
        lo = np.concatenate([self.lo, np.zeros(n_art)])
        hi = np.concatenate([self.hi, np.full(n_art, np.inf)])
        xval = np.concatenate([xval, np.zeros(n_art)])
        stat = np.concatenate([stat, np.zeros(n_art, dtype=np.int8)])
        stat[basis] = 2
        xB = np.where(flip, -resid, resid)
        self.T, self.basis, self.stat = T, basis, stat

        # caps count structural columns, inequality slacks and artificials
        n_cols = n + int(np.sum(~eq)) + n_art
        maxiter = max(2000, 40 * (m + n_cols))
        iters = 0

        def run(cvec, allow_unbounded):
            nonlocal iters, xB
            self.z = zrow = cvec - cvec[basis] @ T
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
                dw = d * T[:, j]
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
                if degen_streak > 2 * (m + n_cols) + 50:
                    bland = True
                leave = int(basis[r])
                enter_val = (lo[j] if d > 0 else hi[j]) + d * t
                xB -= dw * t
                stat[leave] = 0 if dw[r] > 0 else 1
                xval[leave] = lo[leave] if dw[r] > 0 else hi[leave]
                self._pivot(r, j)
                xB[r] = enter_val

        st = "optimal"
        if n_art:
            st = run(np.where(np.arange(N + n_art) < N, 0.0, 1.0), allow_unbounded=False)
            if st == "optimal" and float(np.sum(xB[basis >= N])) > self.row_tol:
                st = "infeasible"
            hi[N:] = 0.0  # artificials may stay basic at zero but can never rise
        if st == "optimal":
            xval[stat == 1] = hi[stat == 1]
            st = run(np.concatenate([self.cost, np.zeros(n_art)]), allow_unbounded=True)
        self.iters += iters
        if st == "optimal":
            arts = basis >= N
            basis[arts] = n + art[basis[arts] - N]
            self.stat = stat[:N]
            self.stat[basis] = 2
            self.xval, self.xB = xval[:N], xB
        return st

    def dual(self, maxiter: int) -> str:
        """Bounded dual simplex from a dual-feasible basis: "optimal",
        "infeasible" (a leaving row with no entering candidate is a dual ray),
        "limit", or "cold" when only primal() can judge the node.
        Dantzig pricing on the largest bound violation and a Harris two-pass
        ratio test; Bland's rule after a long degenerate streak rules out
        cycling.

        primal()'s phase 1 accepts rows violated within row_tol.  So a dual
        ray on a slack violated within row_tol, which proves that violation
        minimal, accepts the row as it stands.  A ray on a structural column
        violated within row_tol asks for primal(): its phase 1 may still fit
        the column inside its bounds by violating rows a little."""
        if self.since_load >= _REFACTOR_EVERY:
            self.load(self.basis, self.stat)
        T, basis, stat, xval, lo, hi = self.T, self.basis, self.stat, self.xval, self.lo, self.hi
        m = basis.size
        movable = hi > lo
        at_lb = movable & (stat == 0)
        at_ub = movable & (stat == 1)
        bland = False
        degen_streak = 0
        soft = np.zeros(stat.size, dtype=bool)  # slacks accepted within row_tol
        for _ in range(maxiter):
            xB = self.xB
            viol = np.maximum(lo[basis] - xB, xB - hi[basis])
            viol[soft[basis] & (viol <= self.row_tol)] = 0.0
            if bland:
                rows = np.flatnonzero(viol > _PRIMAL_TOL)
                if rows.size == 0:
                    return "optimal"
                r = int(rows[np.argmin(basis[rows])])
            else:
                r = int(np.argmax(viol)) if m else 0
                if not m or viol[r] <= _PRIMAL_TOL:
                    return "optimal"
            up = xB[r] < lo[basis[r]]  # leaving value must rise to its lower bound
            alpha = T[r]
            sa = alpha if up else -alpha
            cand = np.flatnonzero((at_lb & (sa < -_PIVOT_TOL)) | (at_ub & (sa > _PIVOT_TOL)))
            if cand.size == 0:
                if viol[r] > self.row_tol:
                    return "infeasible"
                if basis[r] < self.n:
                    return "cold"
                soft[basis[r]] = True
                continue
            z = self.z
            room = np.clip(np.where(stat[cand] == 0, z[cand], -z[cand]), 0.0, None)
            mag = np.abs(alpha[cand])
            ratio = room / mag
            if bland:
                j = int(cand[np.flatnonzero(ratio <= ratio.min())[0]])
            else:
                ok = ratio <= np.min((room + _DUAL_TOL) / mag)
                ties, tmag = cand[ok], mag[ok]
                ties = ties[tmag >= _PIVOT_SHARE * tmag.max()]
                j = int(ties[np.argmin(self.enter_order[ties])])
            step = ratio.min()
            degen_streak = degen_streak + 1 if step <= 1e-12 else 0
            if degen_streak > 2 * (m + T.shape[1]) + 50:
                bland = True
            self.iters += 1
            self.since_load += 1
            leave = int(basis[r])
            target = lo[leave] if up else hi[leave]
            dx = (xB[r] - target) / alpha[j]
            enter_val = xval[j] + dx
            xB -= T[:, j] * dx
            xB[r] = enter_val
            stat[leave] = 0 if up else 1
            xval[leave] = target
            at_lb[leave], at_ub[leave] = movable[leave] and up, movable[leave] and not up
            self._pivot(r, j)
            at_lb[j] = at_ub[j] = False
        return "limit"


def _activity(A, lb, ub):
    """Smallest and largest value of each row's A x over the box [lb, ub];
    -inf or +inf where a column with an infinite bound can push it."""
    pos = np.clip(A, 0.0, None)
    neg = np.clip(A, None, 0.0)
    lo_fin, hi_fin = np.isfinite(lb), np.isfinite(ub)
    lo, hi = np.where(lo_fin, lb, 0.0), np.where(hi_fin, ub, 0.0)
    lo_act = pos @ lo + neg @ hi
    hi_act = pos @ hi + neg @ lo
    if not (lo_fin.all() and hi_fin.all()):
        lo_inf, hi_inf = (~lo_fin).astype(float), (~hi_fin).astype(float)
        lo_act[(pos @ lo_inf > 0.0) | (neg @ hi_inf < 0.0)] = -np.inf
        hi_act[(pos @ hi_inf > 0.0) | (neg @ lo_inf < 0.0)] = np.inf
    return lo_act, hi_act


def _quick_row_screen(A, eq, b, lb, ub, tol):
    """Drop '<=' rows that no point in the bound box can violate by more
    than FEASIBILITY_TOL; detect rows no point can satisfy within tol, the
    row tolerance of the model.  Returns (keep_mask, feasible)."""
    if A.shape[0] == 0:
        return np.zeros(0, dtype=bool), True
    lo_act, hi_act = _activity(A, lb, ub)
    if np.any(lo_act > b + tol) or np.any(eq & (hi_act < b - tol)):
        return None, False
    return eq | (hi_act > b + FEASIBILITY_TOL), True


_PROPAGATION_ROUNDS = 50  # presolve passes at most; each tightens every column at once
_MIN_TIGHTEN = 1e-2  # share of a continuous column's range a new bound must cut off
_ROUND_EPS = 1e-9  # floating-point allowance before rounding or calling bounds crossed


def _propagate(A, eq, b, lb, ub, binary, tol):
    """Activity-bound propagation (Savelsbergh 1994; Achterberg 2007).

    Every row is A x <= b, and an equality row also -A x <= -b.  A row's
    smallest activity over the box, plus tol, leaves each of its columns
    room for an implied bound; a binary's implied bound is rounded to an
    integer.  Rounds repeat to a fixpoint, at most _PROPAGATION_ROUNDS.
    Every bound derived this way holds for each point of the box that
    violates no row by more than tol, which is the row violation the LP
    core accepts, so no point that it could return is cut off.

    Returns the box with every binary the rows imply fixed, and every other
    bound as given: a derived continuous bound carries the row tolerance,
    and the LP could settle on it, past its row.  None when some row's
    smallest activity exceeds its right-hand side by more than tol, or a
    column's bounds cross."""
    G = np.vstack([A, -A[eq]])
    h = np.concatenate([b, -b[eq]])
    up, down = G > 0.0, G < 0.0
    inv = np.zeros_like(G)
    inv[up | down] = 1.0 / G[up | down]
    lo, hi = lb.copy(), ub.copy()
    for _ in range(_PROPAGATION_ROUNDS):
        lo_act, _ = _activity(G, lo, hi)
        room = h + tol - lo_act  # +inf where an infinite bound leaves a row open
        if np.any(room < 0.0):
            return None
        with np.errstate(invalid="ignore"):
            q = room[:, None] * inv
            new_hi = lo + np.min(np.where(up, q, np.inf), axis=0)
            new_lo = hi + np.max(np.where(down, q, -np.inf), axis=0)
        new_hi[binary] = np.floor(new_hi[binary] + _ROUND_EPS)
        new_lo[binary] = np.ceil(new_lo[binary] - _ROUND_EPS)
        width = hi - lo
        cut = np.where(binary | np.isinf(width), 0.0, _MIN_TIGHTEN * width)
        lower, lift = new_hi < hi - cut, new_lo > lo + cut
        if not (lower.any() or lift.any()):
            break
        hi[lower], lo[lift] = new_hi[lower], new_lo[lift]
        if np.any(lo > hi + _ROUND_EPS * (1.0 + np.abs(hi))):
            return None
    fixed = binary & (lo == hi)
    lb, ub = lb.copy(), ub.copy()
    lb[fixed], ub[fixed] = lo[fixed], hi[fixed]
    return lb, ub


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
    row_tol = _row_tol(arr.b)
    keep, ok = _quick_row_screen(A2, arr.eq, b2, lbf, ubf, row_tol)
    if not ok:
        return "infeasible", None, None, 0
    lp = _LP(arr.c[free], A2[keep], arr.eq[keep], b2[keep], lbf, ubf, row_tol)
    status = lp.primal()
    if status != "optimal":
        return status, None, None, lp.iters
    xf = lp.x()
    x = np.empty(n)
    x[free] = xf
    if fixed:
        x[fid] = fval
    return "optimal", x, float(arr.c[free] @ xf) + const, lp.iters


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


def solve_bb(model: MilpModel) -> Solution:
    """Branch and bound on the most fractional binary, warm-started.

    Presolve first runs _propagate over the rows within
    model.feasibility_tol().  If some row cannot be met anywhere in the box,
    or a binary's implied bounds cross, the root is refuted: "infeasible"
    after 1 node and no pivot.  Otherwise every binary the rows imply is
    fixed, and the search runs on that box; continuous bounds are never
    tightened.  One _LP tableau serves the whole search.  Its primal
    simplex solves the root LP once.  Every later node re-uses its parent's
    final basis: the child's one bound change leaves that basis dual
    feasible, and the dual simplex restores primal feasibility in a few
    pivots.  A node the dual gives up on ("cold" or "limit") is re-solved
    from scratch by the primal simplex.  The search plunges depth first:
    the child rounded toward the LP value is solved in place on the hot
    tableau, and its sibling goes on a heap ordered by (parent bound, deeper
    first, creation order) carrying only its bound fixings, basis indices
    and at-bound status.  A popped node refactorizes its tableau from that
    basis.  An incumbent read off the warm tableau is re-solved cold before
    it is accepted if it fails check_solution.  A node is pruned once its
    bound comes within GAP_TOL of the incumbent, and a binary within
    INTEGRALITY_TOL of 0 or 1 counts as integral.  With a constant
    objective the first incumbent ends the search.  A search that has
    solved NODE_LIMIT nodes stops with status "limit", keeping its
    incumbent, if any, and its gap.  A model without binaries is one LP,
    solved once.
    """
    c, A, eq, b, lb, ub = model.arrays()
    arr = _Arrays(c, A, eq, b, lb, ub)
    binaries = model.binary_ids()
    zero_obj = not np.any(c != 0.0)

    best_x = None
    best_obj = math.inf
    total_iters = 0

    if not binaries:
        status, x, obj, iters = _solve_fixed(arr, {})
        if status != "optimal":
            return Solution(status, iterations=iters)
        return Solution("optimal", x, obj + model.obj_const, iters, 1, 0.0)

    # Presolve: propagation refutes the root or fixes the binaries it
    # implies.  Rows that no point of the presolved box can violate stay
    # slack in every node's smaller box, so the screen runs once.
    nodes = 1
    bins = np.asarray(binaries)
    is_bin = np.zeros(len(c), dtype=bool)
    is_bin[bins] = True
    row_tol = model.feasibility_tol()
    status = "infeasible"
    lp = None
    box = _propagate(A, eq, b, lb, ub, is_bin, row_tol)
    if box is not None:
        lb, ub = box
        keep, ok = _quick_row_screen(A, eq, b, lb, ub, row_tol)
        if ok:
            lp = _LP(c, A[keep], eq[keep], b[keep], lb, ub, row_tol, is_bin)
            status = lp.primal()
    if status == "unbounded":
        return Solution("unbounded", iterations=lp.iters, nodes=nodes)
    status_out = "limit" if status == "limit" else "optimal"
    heap: list = []
    open_bound = []  # bound of a node the node limit left unsolved
    if status == "optimal":
        lp.load(lp.basis, lp.stat)
        maxiter = max(2000, 40 * sum(lp.T.shape))
        root_lo, root_hi = lb[bins], ub[bins]
        fix = np.where(root_lo == root_hi, root_lo, -1.0)  # a node's binary fixings; -1 is free
        depth = 0
        seq = itertools.count()
        hot = None  # (bound, var, value): the child solved next, in place
        solved = True  # lp holds the optimal LP of the current node
        while True:
            if solved:
                solved = False
                x = lp.x()
                obj = float(c @ x)
                if best_x is not None and obj >= best_obj - GAP_TOL:
                    continue
                xb = x[bins]
                frac = np.flatnonzero((fix < 0) & (np.minimum(xb, 1.0 - xb) > INTEGRALITY_TOL))
                if frac.size == 0:
                    cand = x.copy()
                    cand[bins] = np.round(xb)
                    if obj < best_obj - 1e-12 and model.check_solution(cand, row_tol):
                        st, cand, obj, iters = _solve_fixed(arr, dict(zip(binaries, cand[bins])))
                        total_iters += iters
                        if st != "optimal":
                            continue
                    if obj < best_obj - 1e-12:
                        best_x, best_obj = cand, obj
                    if zero_obj:
                        break
                    continue
                # most fractional, lowest id on ties
                i = frac[np.argmin(np.abs(xb[frac] - 0.5))]
                jb, first = int(bins[i]), float(round(xb[i]))
                sibling = fix.copy()
                sibling[i] = 1.0 - first
                heapq.heappush(heap, (obj, -(depth + 1), next(seq), sibling, lp.basis.copy(), lp.stat.copy()))
                fix[i] = first
                depth += 1
                hot = (obj, jb, first)

            if hot is not None:
                bound, jb, first = hot
                hot, stored = None, None
                if best_x is not None and bound >= best_obj - GAP_TOL:
                    continue
            else:
                if not heap:
                    break
                bound, neg_depth, _, fix, *stored = heapq.heappop(heap)
                if best_x is not None and bound >= best_obj - GAP_TOL:
                    heap.clear()
                    break
                depth = -neg_depth
            if nodes >= NODE_LIMIT:
                status_out = "limit"
                open_bound.append(bound)
                break
            nodes += 1
            if stored is None:
                lp.fix(jb, first)
            else:
                lp.lo[bins] = np.where(fix < 0, root_lo, fix)
                lp.hi[bins] = np.where(fix < 0, root_hi, fix)
                lp.load(*stored)
            st = lp.dual(maxiter)
            if st in ("limit", "cold"):  # solve this node from scratch
                st = lp.primal()
                if st == "limit":
                    status_out = "limit"
                    open_bound.append(bound)
                    break
                if st == "optimal":
                    lp.load(lp.basis, lp.stat)
            solved = st == "optimal"
    if lp is not None:
        total_iters += lp.iters

    if best_x is None:
        return Solution("infeasible" if status_out == "optimal" else status_out, iterations=total_iters, nodes=nodes)
    open_bounds = [e[0] for e in heap] + open_bound
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
