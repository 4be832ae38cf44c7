"""MILP encoding of temporal-logic specifications over predicted agent regions.

Atoms are affine in the controlled state and the agent positions.  For steps
that are still in the future, the agent part is replaced by its worst case
over the calibrated prediction balls; for an affine function that minimum has
the closed form

    sum_i ( a_i . yhat_i  -  C_i ||a_i||_2 )

so no extra variables or rows are needed per ball, and the encoding stays
sound for every realization the regions cover.  Steps at or before the
current time are folded into constants (both the controlled state and the
agent positions are observed), which shrinks the shrinking-horizon MILPs as
the mission progresses.

Qualitative mode is polarity-aware: the root must hold, so conjunctive paths
emit their atom rows directly and binaries appear only where a disjunction
forces a choice (one indicator per distinct disjunct occurrence, shared via a
cache).  An indicator z carries the one-sided meaning [z = 1 implies the
subformula holds with margin EPS], which is sufficient because PNF formulas
are monotone in their leaves.  Quantitative mode carries the worst-case
robustness as a linear expression and bounds each min/max gate from above
only: the root is monotone in every gate, so root >= EPS_ROBUST (or maximising
the root) needs no rows from below.  Min gates need no binaries; max gates
get one selector per operand and a cover row.  A gate variable is then a
certified lower bound on the robustness it stands for, not its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .milp import MilpModel
from .stl import CompiledSpec, compile_spec

#: Margin of every strict atom row: the qualitative encoding demands
#: mu >= EPS, and the warm-start reader counts an atom as held from the same
#: margin.  The LP core accepts a row violated within
#: MilpModel.feasibility_tol(), FEASIBILITY_TOL * (1 + max |rhs|), which
#: exceeds EPS once the model's largest |rhs| passes about 9.  Strictness
#: then holds only to that tolerance: a plan may meet a strict atom with
#: equality (in test_disturbance_replan_uses_observed_agent the k = 0 plan
#: misses mu >= EPS by 1e-6 under a tolerance of 1.6e-6).
EPS = 1e-6
#: Lower bound require() puts on a quantitative root: robustness >= EPS_ROBUST.
EPS_ROBUST = 1e-4


class EncodingError(ValueError):
    pass


class LinExpr:
    """Affine expression over model variables: sum coeffs[v] * v + const."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: dict[int, float] | None = None, const: float = 0.0):
        self.coeffs = dict(coeffs) if coeffs else {}
        self.const = float(const)

    def value(self, assignment: dict[int, float]) -> float:
        return self.const + sum(c * assignment[v] for v, c in self.coeffs.items())


def _as_expr(h) -> LinExpr:
    if isinstance(h, LinExpr):
        return h
    if isinstance(h, (int, np.integer)):  # variable id
        return LinExpr({int(h): 1.0})
    return LinExpr(const=float(h))


@dataclass
class EncodingContext:
    """Everything the encoder needs to know about one synthesis step.

    state_vars maps future times (tau > k) to the model variable ids of the
    controlled state; observed_x / observed_y hold the constants for
    tau <= k.  radius(tau, agent) returns the prediction-ball radius around
    predicted_y[(tau, agent)] for future steps.
    """

    model: MilpModel
    t_phi: int
    k: int
    state_vars: dict[int, Sequence[int]]
    observed_x: dict[int, np.ndarray]
    predicted_y: dict[tuple[int, int], np.ndarray]
    observed_y: dict[tuple[int, int], np.ndarray]
    radius: Callable[[int, int], float]
    mode: str = "qual"

    def __post_init__(self):
        if self.mode not in ("qual", "quant"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class Encoding:
    root: object  # bool | var id (qual); float | LinExpr | var id (quant)
    mode: str
    big_m: float
    registry: list = field(default_factory=list)
    n_binaries: int = 0
    atoms: _AtomTable | None = None  # the step's tightened atom instances


# ---------------------------------------------------------------------------
# atom tightening


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products.  The batched matmul rounds each row exactly
    like np.dot; a plain sum of elementwise products would not."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


class _AtomTable:
    """Every atom instance of a compiled spec, tightened once for one step:
    const[j] folds the observed prefix in (tau <= k) and takes future agent
    parts at their worst case a . yhat - r ||a|| (-inf for r = inf).
    linear[j] marks instances still affine in the state (coefficients
    spec.x_terms).
    """

    def __init__(self, ctx: EncodingContext, cs: CompiledSpec):
        self.spec = cs
        pidx, tau = cs.atom_pred, cs.atom_tau
        past = tau <= ctx.k
        const = cs.offsets[pidx]
        seen_x = past & cs.has_x[pidx]
        xs = np.zeros((cs.horizon + 1, cs.coeff_x.shape[1]))
        for t in sorted(set(tau[cs.has_x[pidx]].tolist())):
            if t <= ctx.k:
                xs[t] = ctx.observed_x[t][: xs.shape[1]]
            elif t not in ctx.state_vars:
                raise EncodingError(f"no state variables registered for time {t}")
        const[seen_x] += _rowdot(cs.coeff_x[pidx[seen_x]], xs[tau[seen_x]])
        for i, times in enumerate(cs.agent_times):
            ys = np.zeros((cs.horizon + 1, cs.coeff_y[i].shape[1]))
            r = np.zeros(cs.horizon + 1)
            for t in times:
                if t <= ctx.k:
                    ys[t] = ctx.observed_y[(t, i)]
                else:
                    ys[t] = ctx.predicted_y[(t, i)]
                    r[t] = float(ctx.radius(t, i))
            nrm = cs.norm_y[pidx, i]
            use = nrm != 0.0
            const[use] += _rowdot(cs.coeff_y[i][pidx[use]], ys[tau[use]])
            ahead = use & ~past
            const[ahead] -= r[tau[ahead]] * nrm[ahead]
        self._const = const
        self._linear = ~past & (cs.coeff_x != 0.0).any(axis=1)[pidx] & (const != -math.inf)
        self.const = const.tolist()
        self.linear = self._linear.tolist()

    def fold(self, values: np.ndarray) -> np.ndarray:
        """The spec's node table (CompiledSpec.fold) with leaf values[j] at
        atom instance j."""
        cs = self.spec
        leaves = np.zeros((len(cs.predicates), cs.horizon + 1))
        leaves[cs.atom_pred, cs.atom_tau] = values
        return cs.fold(leaves)

    def known(self) -> np.ndarray:
        """Three-valued (Kleene) node table: +1 / 0 / -1 where the folded
        constants decide a node True / leave it undecided / decide it False."""
        return self.fold(np.where(self._linear, 0.0, np.where(self._const >= 0.0, 1.0, -1.0)))

    def _accumulate(self, acc: np.ndarray, term) -> np.ndarray:
        """acc[j] += term(c, tau, d) over the nonzero state coefficients c of
        linear instance j, in dimension order (the order LinExpr sums in)."""
        cs = self.spec
        pidx, tau = cs.atom_pred[self._linear], cs.atom_tau[self._linear]
        for d in range(cs.coeff_x.shape[1]):
            c = cs.coeff_x[pidx, d]
            nz = c != 0.0
            acc[nz] += term(c[nz], tau[nz], d)
        return acc

    def big_m(self, ctx: EncodingContext) -> float:
        """Twice the largest finite |tightened atom value|, at least 2, by
        interval arithmetic over the model's variable bounds."""
        lb, ub = np.zeros((2, self.spec.horizon + 1, self.spec.coeff_x.shape[1]))
        for t, vids in ctx.state_vars.items():
            for d, v in enumerate(vids[: lb.shape[1]] if t < len(lb) else ()):
                lb[t, d], ub[t, d] = ctx.model.vars[v].lb, ctx.model.vars[v].ub
        base = self._const[self._linear]
        lo = self._accumulate(base.copy(), lambda c, t, d: np.minimum(c * lb[t, d], c * ub[t, d]))
        hi = self._accumulate(base.copy(), lambda c, t, d: np.maximum(c * lb[t, d], c * ub[t, d]))
        cand = np.abs(self._const)
        cand[self._linear] = np.maximum(np.abs(lo), np.abs(hi))
        return 2.0 * float(np.max(cand[np.isfinite(cand)], initial=1.0))

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Per instance, its tightened value at state trajectory xs (rows
        0..t_phi): the constant, plus the state part of linear instances."""
        out = self._const.copy()
        out[self._linear] += self._accumulate(np.zeros(int(self._linear.sum())), lambda c, t, d: c * xs[t, d])
        return out

    def holds(self, xs: np.ndarray) -> np.ndarray:
        """Per instance, whether state trajectory xs satisfies it: linear
        instances by the row margin EPS, less a 1e-9 slack for float echo
        when xs sits exactly on an active row; constants by their sign."""
        value = self.values(xs)
        return np.where(self._linear, value >= EPS - 1e-9, value >= 0.0)


# ---------------------------------------------------------------------------
# encoding proper


def _compiled(formula) -> CompiledSpec:
    cs = formula if isinstance(formula, CompiledSpec) else compile_spec(formula)
    if any(node.op == "not" for node in cs.nodes):
        raise EncodingError("encoder expects positive normal form; call to_pnf first")
    return cs


def encode(ctx: EncodingContext, formula) -> Encoding:
    """Encode a PNF formula, or a compiled spec, rooted at absolute time 0
    into ctx.model, with a big-M fitted to this formula's atoms."""
    cs = _compiled(formula)
    if cs.horizon > ctx.t_phi:
        raise EncodingError(f"formula horizon {cs.horizon} exceeds available window {ctx.t_phi}")
    atoms = _AtomTable(ctx, cs)
    enc = Encoding(root=None, mode=ctx.mode, big_m=atoms.big_m(ctx), atoms=atoms)
    if ctx.mode == "qual":
        state = _QualState(atoms)
        v = state.known[cs.root][0]
        enc.root = None if v == 0.0 else v > 0.0
        if enc.root is None:
            _encode_qual(ctx, enc, state, cs.root, 0, None)
    else:
        enc.root = _encode_quant(ctx, enc, {}, cs.root, 0)
    return enc


class _QualState:
    """The atom table, its three-valued node table known[nid][tau] (+1 / 0 /
    -1 for True / undecided / False), and caches of indicator binaries and
    emitted rows."""

    __slots__ = ("spec", "atoms", "known", "indicators", "emitted")

    def __init__(self, atoms: _AtomTable):
        self.spec = atoms.spec
        self.atoms = atoms
        self.known = atoms.known().tolist()
        self.indicators: dict = {}
        self.emitted: set = set()


def _encode_qual(ctx, enc, state: _QualState, nid: int, tau: int, guard: int | None) -> None:
    """Emit rows so that guard = 1 (or unconditionally when guard is None)
    forces node nid at tau.  Caller guarantees the fold is undecided."""
    key = (nid, tau, guard)
    if key in state.emitted:
        return
    state.emitted.add(key)
    cs = state.spec
    node = cs.nodes[nid]
    if node.op == "pred":
        vids = ctx.state_vars[tau]
        row = {vids[d]: -c for d, c in cs.x_terms[node.pred]}
        rhs = state.atoms.const[cs.atom_index[node.pred, tau]] - EPS
        name = f"sat_{cs.predicates[node.pred].name}_t{tau}"
        if guard is not None:
            # e >= eps - M (1 - z)
            row[guard] = enc.big_m
            rhs += enc.big_m
            name += f"_g{guard}"
        ctx.model.add_constraint(row, "<=", rhs, name=name)
        return
    live, seen = [], set()
    for child, dt in node.pairs:
        t = tau + dt
        if state.known[child][t] == 0.0 and (child, t) not in seen:
            seen.add((child, t))
            live.append((child, t))
    if node.op == "and":
        for child, t in live:
            _encode_qual(ctx, enc, state, child, t, guard)
        return
    if len(live) == 1:  # single undecided disjunct must hold outright
        _encode_qual(ctx, enc, state, live[0][0], live[0][1], guard)
        return
    zs = [_ensure_indicator(ctx, enc, state, child, t) for child, t in live]
    label = f"cover_{node.name}_t{tau}"
    if guard is None:
        ctx.model.add_constraint({z: 1.0 for z in zs}, ">=", 1.0, name=label)
    else:
        ctx.model.add_constraint({guard: 1.0, **{z: -1.0 for z in zs}}, "<=", 0.0, name=f"{label}_g{guard}")


def _ensure_indicator(ctx, enc, state: _QualState, nid: int, tau: int) -> int:
    """Binary z with the one-sided meaning [z = 1 implies node nid at tau],
    shared across every disjunction that mentions this occurrence."""
    key = (nid, tau)
    if key in state.indicators:
        return state.indicators[key]
    z = ctx.model.add_binary(f"z{enc.n_binaries}_{state.spec.nodes[nid].name}_t{tau}")
    enc.n_binaries += 1
    state.indicators[key] = z
    enc.registry.append(("ind", z, nid, tau))
    _encode_qual(ctx, enc, state, nid, tau, z)
    return z


def _encode_quant(ctx, enc, cache, nid: int, tau: int):
    key = (nid, tau)
    if key in cache:
        return cache[key]
    cs = enc.atoms.spec
    node = cs.nodes[nid]
    if node.op == "true":
        out = math.inf
    elif node.op == "pred":
        j = cs.atom_index[node.pred, tau]
        out = enc.atoms.const[j]
        if enc.atoms.linear[j]:
            vids = ctx.state_vars[tau]
            out = LinExpr({vids[d]: c for d, c in cs.x_terms[node.pred]}, out)
    else:
        handles = [_encode_quant(ctx, enc, cache, c, tau + dt) for c, dt in node.pairs]
        out = _quant_gate(ctx, enc, "min" if node.op == "and" else "max", handles, f"{node.op}_t{tau}")
    cache[key] = out
    return out


def _quant_gate(ctx, enc, op: str, handles: list, label: str):
    """Upper bound r on the min/max of affine robustness terms.  The root of
    a PNF formula is monotone in every gate, so r <= min/max is all that
    certifying root >= eps_r, or maximising it, needs: a min gate gets rows
    r <= e_i and no binaries, a max gate r <= e_i + M2 (1 - p_i) and one
    cover row sum p_i >= 1."""
    neutral = math.inf if op == "min" else -math.inf
    pick = min if op == "min" else max
    kids = []
    const_fold = neutral
    for h in handles:
        if isinstance(h, LinExpr) or isinstance(h, (int, np.integer)):
            if not any(_same_handle(h, other) for other in kids):
                kids.append(h)
        else:
            const_fold = pick(const_fold, float(h))
    if const_fold == -neutral:
        return const_fold  # an infinitely bad (good) branch dominates
    if math.isfinite(const_fold):
        kids.append(const_fold)
    if not kids:
        return neutral
    if len(kids) == 1:
        return kids[0]
    M2 = 2.0 * enc.big_m
    rbar = ctx.model.add_continuous(f"r_{label}", -enc.big_m, enc.big_m)
    sels = [ctx.model.add_binary(f"p_{label}_{i}") for i in range(len(kids))] if op == "max" else []
    enc.n_binaries += len(sels)
    exprs = [_as_expr(h) for h in kids]
    for i, e in enumerate(exprs):
        # rbar <= e_i, relaxed by M2 (1 - p_i) in a max gate
        row = {rbar: 1.0}
        for v, c in e.coeffs.items():
            row[v] = row.get(v, 0.0) - c
        rhs = e.const
        if sels:
            row[sels[i]] = M2
            rhs += M2
        ctx.model.add_constraint(row, "<=", rhs, name=f"{label}_dom{i}")
    if sels:
        ctx.model.add_constraint({p: 1.0 for p in sels}, ">=", 1.0, name=f"{label}_cover")
    enc.registry.append(("sel", op, rbar, sels, exprs))
    return rbar


def _same_handle(a, b) -> bool:
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        return int(a) == int(b)
    return a is b


# ---------------------------------------------------------------------------
# pinning the root and warm-start assignments


def require(ctx: EncodingContext, enc: Encoding) -> int | None:
    """Constrain ctx.model so the encoded formula holds; returns the root
    robustness variable in quantitative mode, None otherwise.

    Qualitative encodings pin the root during encode (the root rows are
    emitted unguarded), so only a fold to False needs a row here."""
    r = enc.root
    if enc.mode == "qual":
        if r is False:
            ctx.model.add_constraint({}, ">=", 1.0, name="spec_unsat")
        return None
    if isinstance(r, float):
        # fully observed robustness: plain sign test, no margin
        if not r >= 0.0:
            ctx.model.add_constraint({}, ">=", 1.0, name="spec_unsat")
        return None
    e = _as_expr(r)
    if len(e.coeffs) == 1 and e.const == 0.0:
        (vid, coef), = e.coeffs.items()
        if coef == 1.0 and not ctx.model.vars[vid].is_binary:
            ctx.model.vars[vid].lb = max(ctx.model.vars[vid].lb, EPS_ROBUST)
            return vid
    rbar = ctx.model.add_continuous("r_root", -enc.big_m, enc.big_m)
    row = {rbar: 1.0}
    for v, c in e.coeffs.items():
        row[v] = row.get(v, 0.0) - c
    ctx.model.add_constraint(row, "=", e.const, name="root_value")
    ctx.model.vars[rbar].lb = EPS_ROBUST
    return rbar


def suggest_assignment(ctx: EncodingContext, enc: Encoding, xs: np.ndarray) -> dict[int, int]:
    """Candidate 0/1 assignment of every encoding binary, read off a candidate
    state trajectory (rows 0..t_phi).  An indicator is 1 where the atoms'
    held/failed signs (_AtomTable.holds) fold its node true; a max gate
    selects its argmax operand, evaluating nested gates at their exact
    min/max on the way.  Atoms use the same tightened values the rows
    enforce, so a feasible trajectory yields a feasible dive."""
    xs = np.asarray(xs, dtype=float)
    vals: dict[int, float] = {}
    for tau, vids in ctx.state_vars.items():
        for d, vid in enumerate(vids):
            vals[vid] = float(xs[tau, d])
    plan = enc.atoms.fold(np.where(enc.atoms.holds(xs), 1.0, -1.0))
    out: dict[int, int] = {}
    for entry in enc.registry:
        if entry[0] == "ind":
            _, z, nid, tau = entry
            out[z] = 1 if plan[nid, tau] > 0.0 else 0
        else:
            _, op, rbar, sels, exprs = entry
            scores = [e.value(vals) for e in exprs]
            best = min(range(len(scores)), key=lambda i: (scores[i] if op == "min" else -scores[i], i))
            for i, p in enumerate(sels):
                out[p] = 1 if i == best else 0
            vals[rbar] = scores[best]
    return out
