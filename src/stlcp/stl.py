"""Signal temporal logic over joint system/agent trajectories.

Formulas are trees built in code from affine predicates mu(s) >= 0, where
s = (x, y_1..y_N) stacks the controllable system state with the states of N
uncontrollable agents: Pred(AffinePredicate(...)) leaves under TrueNode,
Not, And, Or, Always G[a,b], Eventually F[a,b] and Until U[a,b].  Semantics
follow the discrete time convention where U[a,b] requires the right operand
at some k' in [k+a, k+b] and the left operand at every k'' in [k, k'].

Every reading of a formula goes through one representation and one
evaluator: compile_spec interns the formula into a node table (true, pred,
not, and, or; temporal operators unroll to time offsets, until to its
witnesses), and CompiledSpec.fold computes every node's signal over time
from a leaf array leaves[predicate, time] with 'and' = min, 'or' = max,
'not' = negation and 'true' = +inf.  The leaves alone choose the semantics:
the predicate values mu give robustness, +-1 by mu >= 0 gives Boolean
satisfaction (the formula holds where the result is > 0), and the encoder's
three-valued fold and plan readers use +1/0/-1 for True/undecided/False.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

#: Margin subtracted when a negated atom is rewritten in positive normal
#: form: !(mu >= 0) becomes (-mu - NEGATION_MARGIN >= 0).
NEGATION_MARGIN = 1e-9


class TrajectoryTooShortError(ValueError):
    """Evaluation at k requires k + horizon(phi) <= T."""


# ---------------------------------------------------------------------------
# predicates


def _as_tuple(v) -> tuple[float, ...]:
    return tuple(float(a) for a in np.atleast_1d(np.asarray(v, dtype=float)))


@dataclass(frozen=True)
class AffinePredicate:
    """mu(s) = coeff_x . x + sum_i coeff_y[i] . y_i + offset.

    Coefficients are stored as plain tuples so predicates are hashable and
    compare by value; formula nodes containing the same predicate are then
    shared automatically by the MILP encoder.
    """

    coeff_x: tuple[float, ...]
    coeff_y: tuple[tuple[float, ...], ...]
    offset: float
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "coeff_x", _as_tuple(self.coeff_x))
        object.__setattr__(
            self, "coeff_y", tuple(_as_tuple(cy) for cy in self.coeff_y)
        )
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def n_agents(self) -> int:
        return len(self.coeff_y)

    def value(self, x: Sequence[float], ys: Sequence[Sequence[float]]) -> float:
        acc = self.offset
        for c, v in zip(self.coeff_x, x):
            acc += c * v
        for cy, y in zip(self.coeff_y, ys):
            for c, v in zip(cy, y):
                acc += c * v
        return acc

    def negated(self) -> "AffinePredicate":
        """Strict complement with the PNF margin: -mu - eta >= 0."""
        return AffinePredicate(
            tuple(-c for c in self.coeff_x),
            tuple(tuple(-c for c in cy) for cy in self.coeff_y),
            -self.offset - NEGATION_MARGIN,
            name=f"neg({self.name})" if self.name else "",
        )


# ---------------------------------------------------------------------------
# formula AST


@dataclass(frozen=True)
class TrueNode:
    pass


@dataclass(frozen=True)
class Pred:
    predicate: AffinePredicate


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    children: tuple["Formula", ...]

    def __post_init__(self):
        if len(self.children) < 1:
            raise ValueError("And requires at least one child")


@dataclass(frozen=True)
class Or:
    children: tuple["Formula", ...]

    def __post_init__(self):
        if len(self.children) < 1:
            raise ValueError("Or requires at least one child")


def _check_interval(a: int, b: int) -> None:
    if a < 0 or b < 0 or a > b:
        raise ValueError(f"bad temporal interval [{a},{b}]")


@dataclass(frozen=True)
class Always:
    a: int
    b: int
    child: "Formula"

    def __post_init__(self):
        _check_interval(self.a, self.b)


@dataclass(frozen=True)
class Eventually:
    a: int
    b: int
    child: "Formula"

    def __post_init__(self):
        _check_interval(self.a, self.b)


@dataclass(frozen=True)
class Until:
    a: int
    b: int
    left: "Formula"
    right: "Formula"

    def __post_init__(self):
        _check_interval(self.a, self.b)


Formula = Union[TrueNode, Pred, Not, And, Or, Always, Eventually, Until]

#: Predicate that is false everywhere; stands in for the missing bottom
#: constant (e.g. when negating `true` during PNF rewriting).
FALSE_PREDICATE = AffinePredicate((), (), -1.0, name="false")


# ---------------------------------------------------------------------------
# structural operations


def horizon(f: Formula) -> int:
    """Length of the lookahead window needed to evaluate f at time 0."""
    if isinstance(f, (TrueNode, Pred)):
        return 0
    if isinstance(f, Not):
        return horizon(f.child)
    if isinstance(f, (And, Or)):
        return max(horizon(c) for c in f.children)
    if isinstance(f, (Always, Eventually)):
        return f.b + horizon(f.child)
    if isinstance(f, Until):
        return f.b + max(horizon(f.left), horizon(f.right))
    raise TypeError(f"not a formula: {f!r}")


def _shift(t: int, f: Formula) -> Formula:
    # G[t,t] pins a subformula to a fixed offset; used when unrolling !U.
    return f if t == 0 else Always(t, t, f)


def to_pnf(f: Formula, negate: bool = False) -> Formula:
    """Positive normal form: negations pushed into the atoms.

    Negated atoms pick up the NEGATION_MARGIN eta so that the complement
    stays representable as a closed affine constraint.  Negated until is
    unrolled into a conjunction over witnesses since the grammar has no
    release operator; interval bounds keep the horizon unchanged.
    """
    if isinstance(f, TrueNode):
        return Pred(FALSE_PREDICATE) if negate else f
    if isinstance(f, Pred):
        return Pred(f.predicate.negated()) if negate else f
    if isinstance(f, Not):
        return to_pnf(f.child, not negate)
    if isinstance(f, And):
        kids = tuple(to_pnf(c, negate) for c in f.children)
        return Or(kids) if negate else And(kids)
    if isinstance(f, Or):
        kids = tuple(to_pnf(c, negate) for c in f.children)
        return And(kids) if negate else Or(kids)
    if isinstance(f, Always):
        child = to_pnf(f.child, negate)
        return Eventually(f.a, f.b, child) if negate else Always(f.a, f.b, child)
    if isinstance(f, Eventually):
        child = to_pnf(f.child, negate)
        return Always(f.a, f.b, child) if negate else Eventually(f.a, f.b, child)
    if isinstance(f, Until):
        if not negate:
            return Until(f.a, f.b, to_pnf(f.left), to_pnf(f.right))
        nl = to_pnf(f.left, True)
        nr = to_pnf(f.right, True)
        clauses = []
        for j in range(f.a, f.b + 1):
            opts = [_shift(j, nr)] + [_shift(i, nl) for i in range(0, j + 1)]
            clauses.append(Or(tuple(opts)))
        return And(tuple(clauses))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# compilation for repeated encoding


@dataclass(frozen=True, slots=True)
class Node:
    """An interned subformula: op "true", "pred", "not", "and" or "or",
    operands as (child id, time offset) pairs (temporal operators unroll to
    offsets, until to its witnesses), and the type name that labels rows and
    binaries."""

    op: str
    name: str
    pairs: tuple[tuple[int, int], ...] = ()
    pred: int = -1


@dataclass(frozen=True, eq=False)
class CompiledSpec:
    """A formula compiled once, for evaluation and for encoding at every
    planning step.

    Equal subformulas share one node, and a node's children have lower ids.
    The distinct predicates come in first-visit order with stacked,
    zero-padded coefficients.  Atom instance j is predicate atom_pred[j] at
    time atom_tau[j], by predicate and then time; atom_index[p, tau] = j.
    agent_times[i] lists when atoms read agent i.
    """

    formula: Formula
    horizon: int
    root: int
    nodes: tuple[Node, ...]
    predicates: tuple[AffinePredicate, ...]
    offsets: np.ndarray  # (P,)
    has_x: np.ndarray  # (P,) whether the predicate has a system part
    coeff_x: np.ndarray  # (P, n_x)
    x_terms: tuple[tuple[tuple[int, float], ...], ...]  # nonzero (dim, coeff) per predicate
    coeff_y: tuple[np.ndarray, ...]  # agent i: (P, d_i)
    norm_y: np.ndarray  # (P, n_agents), ||a_i||
    atom_pred: np.ndarray
    atom_tau: np.ndarray
    atom_index: dict[tuple[int, int], int]
    agent_times: tuple[tuple[int, ...], ...]

    def predicate_values(self, xs: np.ndarray, ys: Sequence[np.ndarray] = ()) -> np.ndarray:
        """mu[p, t] for states xs[t] (rows) and agent states ys[i][t],
        summed in AffinePredicate.value's order so the values agree bit for
        bit; dimensions either side lacks are skipped, as zip does there."""
        mu = np.repeat(self.offsets[:, None], len(xs), axis=1)
        for d in range(min(self.coeff_x.shape[1], xs.shape[1])):
            mu += self.coeff_x[:, d, None] * xs[:, d]
        for a, y in zip(self.coeff_y, ys):
            for d in range(min(a.shape[1], y.shape[1])):
                mu += a[:, d, None] * y[:, d]
        return mu

    def fold(self, leaves: np.ndarray) -> np.ndarray:
        """Every node's signal over time: out[n, t] from the leaf signals
        leaves[p, t] (predicate p at time t), visiting nodes in id order.
        'and' is the min over a node's (child, offset) pairs, 'or' the max,
        'not' the negation of its child, 'true' +inf.  Node n is defined at
        the times t that leave room for its lookahead; later entries are
        NaN."""
        out = np.full((len(self.nodes), leaves.shape[1]), np.nan)
        width = []
        for nid, node in enumerate(self.nodes):
            if node.op == "pred":
                w, v = leaves.shape[1], leaves[node.pred]
            elif node.op == "true":
                w, v = leaves.shape[1], np.inf
            elif node.op == "not":
                (c, _), = node.pairs
                w, v = width[c], -out[c, : width[c]]
            else:
                w = min(width[c] - dt for c, dt in node.pairs)
                v = (np.minimum if node.op == "and" else np.maximum).reduce([out[c, dt : dt + w] for c, dt in node.pairs])
            width.append(w)
            out[nid, :w] = v
        return out


def compile_spec(formula: Formula) -> CompiledSpec:
    """Intern every subformula by value, including each until witness
    G[d2,d2] right & G[0,0] left & .. & G[d2,d2] left, and stack the
    predicates and their atom instances.  Negations stay exact "not" nodes;
    callers that encode pass to_pnf(formula)."""
    nodes: list[Node] = []
    ids: dict = {}
    pred_ids: dict[AffinePredicate, int] = {}

    def node(key, op: str, name: str, pairs=(), pred: int = -1) -> int:
        if key not in ids:
            ids[key] = len(nodes)
            nodes.append(Node(op, name, tuple(pairs), pred))
        return ids[key]

    def temporal(kind: str, a: int, b: int, child: int) -> int:
        op = "and" if kind == "Always" else "or"
        return node((kind, a, b, child), op, kind.lower(), [(child, d) for d in range(a, b + 1)])

    def conj(kind: str, kids: tuple[int, ...]) -> int:
        return node((kind, kids), kind.lower(), kind.lower(), [(c, 0) for c in kids])

    def intern(f: Formula) -> int:
        if isinstance(f, TrueNode):
            return node(("TrueNode",), "true", "truenode")
        if isinstance(f, Pred):
            p = pred_ids.setdefault(f.predicate, len(pred_ids))
            return node(("Pred", p), "pred", "pred", pred=p)
        if isinstance(f, Not):
            c = intern(f.child)
            return node(("Not", c), "not", "not", [(c, 0)])
        if isinstance(f, (And, Or)):
            return conj(type(f).__name__, tuple(intern(c) for c in f.children))
        if isinstance(f, (Always, Eventually)):
            return temporal(type(f).__name__, f.a, f.b, intern(f.child))
        if isinstance(f, Until):
            right, left = intern(f.right), intern(f.left)  # first-visit order
            wits = [conj("And", tuple([temporal("Always", d2, d2, right)] + [temporal("Always", d, d, left) for d in range(d2 + 1)]))
                    for d2 in range(f.a, f.b + 1)]
            return node(("Until", f.a, f.b, left, right), "or", "until", [(w, 0) for w in wits])
        raise TypeError(f"not a formula: {f!r}")

    root = intern(formula)
    preds = tuple(pred_ids)
    times: list[set[int]] = [set() for _ in preds]
    seen: set[tuple[int, int]] = set()

    def visit(nid: int, t: int) -> None:
        seen.add((nid, t))
        if nodes[nid].pred >= 0:
            times[nodes[nid].pred].add(t)
        for c, dt in nodes[nid].pairs:
            if (c, t + dt) not in seen:
                visit(c, t + dt)

    visit(root, 0)
    atoms = [(p, t) for p in range(len(preds)) for t in sorted(times[p])]
    dims = [max(len(p.coeff_y[i]) for p in preds if i < p.n_agents) for i in range(max((p.n_agents for p in preds), default=0))]
    coeff_x = np.zeros((len(preds), max((len(p.coeff_x) for p in preds), default=0)))
    coeff_y = tuple(np.zeros((len(preds), d)) for d in dims)
    norm_y = np.zeros((len(preds), len(dims)))
    for p, pred in enumerate(preds):
        coeff_x[p, : len(pred.coeff_x)] = pred.coeff_x
        for i, a in enumerate(pred.coeff_y):
            coeff_y[i][p, : len(a)] = a
            norm_y[p, i] = float(np.linalg.norm(np.asarray(a, dtype=float)))
    return CompiledSpec(
        formula=formula, horizon=horizon(formula), root=root, nodes=tuple(nodes), predicates=preds,
        offsets=np.array([p.offset for p in preds], dtype=float),
        has_x=np.array([len(p.coeff_x) > 0 for p in preds], dtype=bool),
        coeff_x=coeff_x,
        x_terms=tuple(tuple((d, c) for d, c in enumerate(p.coeff_x) if c != 0.0) for p in preds),
        coeff_y=coeff_y, norm_y=norm_y,
        atom_pred=np.array([p for p, _ in atoms], dtype=int),
        atom_tau=np.array([t for _, t in atoms], dtype=int),
        atom_index={a: j for j, a in enumerate(atoms)},
        agent_times=tuple(tuple(sorted({t for p, t in atoms if norm_y[p, i] != 0.0})) for i in range(len(dims))),
    )


# ---------------------------------------------------------------------------
# trajectories and semantics


@dataclass(frozen=True)
class JointTrajectory:
    """System states xs[t] and agent states ys[i][t] for t = 0..T."""

    xs: np.ndarray
    ys: tuple[np.ndarray, ...]

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writeable
        xs = np.array(self.xs, dtype=float)
        if xs.ndim == 1:
            xs = xs[:, None]
        ys = tuple(np.array(y, dtype=float) for y in self.ys)
        ys = tuple(y[:, None] if y.ndim == 1 else y for y in ys)
        for y in ys:
            if y.shape[0] != xs.shape[0]:
                raise ValueError("system and agent trajectories must share length")
        xs.flags.writeable = False
        for y in ys:
            y.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def length(self) -> int:
        """Index of the final state (number of steps)."""
        return self.xs.shape[0] - 1


def _evaluable(f: Formula | CompiledSpec, traj: JointTrajectory, k: int) -> CompiledSpec:
    cs = f if isinstance(f, CompiledSpec) else compile_spec(f)
    if k < 0:
        raise ValueError(f"negative evaluation time {k}")
    need = k + cs.horizon
    if need > traj.length:
        raise TrajectoryTooShortError(
            f"evaluation at k={k} needs states through t={need}, trajectory ends at t={traj.length}"
        )
    return cs


def eval_boolean(f: Formula | CompiledSpec, traj: JointTrajectory, k: int = 0) -> bool:
    """Boolean satisfaction (phi, traj, k) |= phi of a formula or its
    compile_spec: the fold of +-1 leaves (mu >= 0) is positive."""
    cs = _evaluable(f, traj, k)
    signs = np.where(cs.predicate_values(traj.xs, traj.ys) >= 0.0, 1.0, -1.0)
    return bool(cs.fold(signs)[cs.root, k] > 0.0)


def eval_robustness(f: Formula | CompiledSpec, traj: JointTrajectory, k: int = 0) -> float:
    """Quantitative semantics rho(phi, traj, k) of a formula or its
    compile_spec: the fold of the predicate values; rho(true) = +inf."""
    cs = _evaluable(f, traj, k)
    return float(cs.fold(cs.predicate_values(traj.xs, traj.ys))[cs.root, k])
