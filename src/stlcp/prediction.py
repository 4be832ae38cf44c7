"""Agent trajectory datasets and trajectory predictors.

A predictor fills one trajectory's whole prediction table in one call: the
point predictions yhat_{tau|k,i} every agent i gets at each time k from its
observations through k, for every later time tau up to the horizon.
Prediction quality only affects how conservative the downstream conformal
regions are, never their validity, so simple models are acceptable here: a
constant velocity extrapolator, a per-dimension autoregressive least-squares
fit, and a file-backed table for predictions computed by an external model.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class AgentTrajectory:
    """Observed agent states; ys[i][t] is agent i at time t = 0..T.

    prefix[i] holds warm-start observations from before t=0 (oldest first)
    so predictors have history available already at k=0.
    """

    ys: tuple[np.ndarray, ...]
    prefix: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writeable
        ys = tuple(np.array(y, dtype=float, order="C") for y in self.ys)
        ys = tuple(y[:, None] if y.ndim == 1 else y for y in ys)
        T = ys[0].shape[0]
        if any(y.shape[0] != T for y in ys):
            raise ValueError("agents must share trajectory length")
        pre = self.prefix
        if not pre:
            pre = tuple(np.zeros((0, y.shape[1])) for y in ys)
        pre = tuple(np.array(p, dtype=float, order="C") for p in pre)
        pre = tuple(p[:, None] if p.ndim == 1 else p for p in pre)
        if len(pre) != len(ys):
            raise ValueError("prefix must cover every agent")
        h = pre[0].shape[0]
        for p, y in zip(pre, ys):
            if p.shape[0] != h or p.shape[1] != y.shape[1]:
                raise ValueError("prefix shape mismatch")
        for a in ys + pre:
            a.flags.writeable = False
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "prefix", pre)

    @property
    def n_agents(self) -> int:
        return len(self.ys)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(y.shape[1] for y in self.ys)

    @property
    def length(self) -> int:
        return self.ys[0].shape[0] - 1

    @property
    def prefix_len(self) -> int:
        return self.prefix[0].shape[0]


@dataclass(frozen=True)
class TrajectoryDataset:
    trajectories: tuple[AgentTrajectory, ...]
    split: tuple[str, ...]
    seed: int
    dt: float = 1.0

    def __post_init__(self):
        if len(self.split) != len(self.trajectories):
            raise ValueError("one split tag per trajectory required")
        bad = set(self.split) - {"train", "cal", "test"}
        if bad:
            raise ValueError(f"unknown split tags {sorted(bad)}")

    def subset(self, tag: str) -> list[AgentTrajectory]:
        return [t for t, s in zip(self.trajectories, self.split) if s == tag]

    def counts(self) -> dict[str, int]:
        return {tag: self.split.count(tag) for tag in ("train", "cal", "test")}


def split_dataset(
    raw: Sequence[AgentTrajectory], sizes: tuple[int, int, int], seed: int, dt: float = 1.0
) -> TrajectoryDataset:
    """Random disjoint train/cal/test partition; deterministic in seed."""
    n_train, n_cal, n_test = sizes
    if n_train + n_cal + n_test > len(raw):
        raise ValueError(
            f"requested {n_train}+{n_cal}+{n_test} trajectories, only {len(raw)} available"
        )
    perm = np.random.default_rng(seed).permutation(len(raw))
    order = [raw[int(j)] for j in perm[: n_train + n_cal + n_test]]
    tags = ["train"] * n_train + ["cal"] * n_cal + ["test"] * n_test
    return TrajectoryDataset(tuple(order), tuple(tags), seed=seed, dt=dt)


# ---------------------------------------------------------------------------
# prediction tables


def pair_row(t_phi: int, k: int, tau: int) -> int:
    """Row of (k, tau) among the pairs 0 <= k < tau <= t_phi in (k, tau) order,
    the layout of PredictionTable, its errors and sigma.  Block k starts with (k, k+1)."""
    if not 0 <= k < tau <= t_phi:
        raise KeyError((k, tau))
    return k * t_phi - k * (k - 1) // 2 + tau - k - 1


def row_pairs(t_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """(ks, taus): the pair (k, tau) of every row in row order, the inverse of pair_row."""
    return np.triu_indices(t_phi + 1, 1)


class PredictionTable:
    """Point predictions yhat_{tau|k,i} for 0 <= k < tau <= t_phi.

    One array holds them all, a row per pair k < tau (see pair_row):
    values[row] concatenates the agents' predictions, and known[row, i]
    marks the entries set.  A closed-loop run keeps its table, and a dict of
    one small array per entry cost about twenty times the memory."""

    def __init__(self, t_phi: int, dims: tuple[int, ...]):
        self.t_phi = t_phi
        self.dims = tuple(dims)
        self._start = [0] + np.cumsum(self.dims).tolist()
        n_rows = t_phi * (t_phi + 1) // 2
        self.values = np.zeros((n_rows, self._start[-1]))
        self.known = np.zeros((n_rows, len(self.dims)), dtype=bool)

    @classmethod
    def full(cls, t_phi: int, dims: tuple[int, ...], values) -> PredictionTable:
        """The complete table whose values are given, one row per pair in row order."""
        table = cls(t_phi, dims)
        if np.shape(values) != table.values.shape:
            raise ValueError("prediction dimension mismatch")
        table.values[:] = values
        table.known[:] = True
        return table

    def set(self, k: int, tau: int, agent: int, value) -> None:
        v = np.asarray(value, dtype=float).reshape(-1)
        if v.shape[0] != self.dims[agent]:
            raise ValueError("prediction dimension mismatch")
        r = pair_row(self.t_phi, k, tau)
        self.values[r, self._start[agent] : self._start[agent + 1]] = v
        self.known[r, agent] = True

    def get(self, k: int, tau: int, agent: int) -> np.ndarray:
        r = pair_row(self.t_phi, k, tau)
        if not self.known[r, agent]:
            raise KeyError((k, tau, agent))
        return self.values[r, self._start[agent] : self._start[agent + 1]]

    def row(self, k: int) -> dict[tuple[int, int], np.ndarray]:
        """Predictions made at time k, keyed by (tau, agent)."""
        block = slice(pair_row(self.t_phi, k, k + 1), pair_row(self.t_phi, k, self.t_phi) + 1)
        values, known = self.values[block], self.known[block].tolist()
        return {
            (k + 1 + j, i): values[j, self._start[i] : self._start[i + 1]]
            for j in range(self.t_phi - k)
            for i in range(len(self.dims))
            if known[j][i]
        }

    def is_complete(self) -> bool:
        return bool(self.known.all())

    def errors(self, traj: AgentTrajectory) -> np.ndarray:
        """err[row, i] = ||Y_{tau,i} - yhat_{tau|k,i}||, the prediction error
        of every entry against the realized trajectory."""
        if traj.dims != self.dims or not self.is_complete():
            raise ValueError("errors need a complete table of the trajectory's agents")
        diff = (np.hstack(traj.ys)[row_pairs(self.t_phi)[1]] - self.values)[:, None, :]
        # one dot product per entry, the one np.linalg.norm of the entry takes
        sq = [diff[..., a:b] @ diff[..., a:b].transpose(0, 2, 1) for a, b in zip(self._start, self._start[1:])]
        return np.sqrt(np.concatenate(sq, axis=2)[:, 0])


def prediction_table(predictor, traj: AgentTrajectory, t_phi: int) -> PredictionTable:
    """The predictor's complete table for one trajectory: yhat_{tau|k,i}
    for every pair k < tau <= t_phi, made from observations through k."""
    if traj.length < t_phi:
        raise ValueError(f"trajectory of length {traj.length} too short for horizon {t_phi}")
    return predictor.table_for(traj, t_phi)


def _series(traj: AgentTrajectory) -> np.ndarray:
    """Prefix then observations, agents side by side: row prefix_len + t is time t."""
    return np.vstack([np.hstack(traj.prefix), np.hstack(traj.ys)])


# ---------------------------------------------------------------------------
# predictors: table_for(traj, t_phi) fills the table of a long enough trajectory


class ConstantVelocityPredictor:
    """Extrapolates each agent linearly from its last two observations."""

    def table_for(self, traj: AgentTrajectory, t_phi: int) -> PredictionTable:
        series, h = _series(traj), traj.prefix_len
        last = series[h : h + t_phi]  # last[k]: the observation at time k
        # vel[k] = last[k] - the observation before it; with no prefix, k = 0 keeps zero velocity
        vel = np.diff(np.vstack([series[max(h - 1, 0)], last]), axis=0)
        ks, taus = row_pairs(t_phi)
        return PredictionTable.full(t_phi, traj.dims, last[ks] + (taus - ks)[:, None] * vel[ks])


class ArPredictor:
    """Per-agent, per-dimension autoregressive model of fixed order.

    coeffs[i][d] = (a_1..a_p, b) predicting y_{t+1} = sum a_j y_{t-j+1} + b.
    Multi-step predictions feed earlier predictions back recursively.
    """

    def __init__(self, order: int, coeffs: list[list[np.ndarray]]):
        if order < 1:
            raise ValueError("ar order must be >= 1")
        self.order = order
        self.coeffs = coeffs

    def table_for(self, traj: AgentTrajectory, t_phi: int) -> PredictionTable:
        p = self.order
        series, h = _series(traj), traj.prefix_len
        table = PredictionTable(t_phi, traj.dims)
        for k in range(t_phi):
            seen = h + k + 1  # observations through time k
            for i, (a, b) in enumerate(zip(table._start, table._start[1:])):
                if seen < p:
                    raise ValueError(f"ar({p}) needs {p} observations, agent {i} has {seen}")
                window = series[seen - p : seen, a:b].copy()  # rows: oldest..newest
                for j in range(t_phi - k):
                    nxt = np.empty(b - a)
                    for dd in range(b - a):
                        c = self.coeffs[i][dd]
                        nxt[dd] = float(np.dot(c[:p], window[::-1, dd]) + c[p])
                    table.values[pair_row(t_phi, k, k + 1 + j), a:b] = nxt
                    window = np.vstack([window[1:], nxt[None, :]])
        table.known[:] = True
        return table


class FilePredictor:
    """Replays a fixed PredictionTable; lets externally computed predictions
    (e.g. from a learned sequence model) drive the rest of the pipeline."""

    def __init__(self, table: PredictionTable):
        if not table.is_complete():
            raise ValueError("prediction table is incomplete")
        self.table = table

    def table_for(self, traj: AgentTrajectory, t_phi: int) -> PredictionTable:
        """The stored table itself at its own horizon, callers only read it;
        a shorter horizon gets the rows of its pairs, tau <= t_phi."""
        if t_phi > self.table.t_phi:
            raise ValueError("table horizon too short")
        if traj.dims != self.table.dims:
            raise ValueError("prediction dimension mismatch")
        if t_phi == self.table.t_phi:
            return self.table
        return PredictionTable.full(t_phi, traj.dims, self.table.values[row_pairs(self.table.t_phi)[1] <= t_phi])


def fit_predictor(train: Sequence[AgentTrajectory], kind: str):
    """Fit a predictor on training trajectories.

    kind: 'constant-velocity' (alias 'cv') or 'ar', an AR(2) model.  A
    rank-deficient AR fit falls back to constant velocity with a warning.
    """
    if kind in ("constant-velocity", "cv"):
        return ConstantVelocityPredictor()
    if kind != "ar":
        raise ValueError(f"unknown predictor kind {kind!r}")
    if not train:
        raise ValueError("no training trajectories")
    p = 2
    n_agents = train[0].n_agents
    dims = train[0].dims
    coeffs: list[list[np.ndarray]] = []
    for i in range(n_agents):
        per_dim = []
        for d in range(dims[i]):
            rows, targets = [], []
            for tr in train:
                series = np.vstack([tr.prefix[i], tr.ys[i]])[:, d]
                for t in range(p - 1, len(series) - 1):
                    rows.append(np.concatenate([series[t - p + 1 : t + 1][::-1], [1.0]]))
                    targets.append(series[t + 1])
            if len(rows) < p + 1:
                warnings.warn(
                    f"agent {i} dim {d}: too few transitions for ar({p}); "
                    "falling back to constant velocity"
                )
                return ConstantVelocityPredictor()
            A = np.array(rows)
            b = np.array(targets)
            sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
            if rank < p + 1:
                warnings.warn(
                    f"agent {i} dim {d}: degenerate ar({p}) normal equations; "
                    "falling back to constant velocity"
                )
                return ConstantVelocityPredictor()
            per_dim.append(sol)
        coeffs.append(per_dim)
    return ArPredictor(p, coeffs)


# ---------------------------------------------------------------------------
# serialization

_DATASET_SCHEMA = "stlcp-dataset-v1"
_TABLE_SCHEMA = "stlcp-predtable-v1"


def save_dataset(ds: TrajectoryDataset, path) -> None:
    doc = {
        "schema": _DATASET_SCHEMA,
        "meta": {
            "seed": ds.seed,
            "dt": ds.dt,
            "agent_dims": list(ds.trajectories[0].dims) if ds.trajectories else [],
            "prefix_len": ds.trajectories[0].prefix_len if ds.trajectories else 0,
            "split_counts": ds.counts(),
        },
        "trajectories": [
            {
                "split": tag,
                "agents": [y.tolist() for y in tr.ys],
                "prefix": [p.tolist() for p in tr.prefix],
            }
            for tr, tag in zip(ds.trajectories, ds.split)
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_dataset(path) -> TrajectoryDataset:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != _DATASET_SCHEMA:
        raise ValueError(f"not a dataset file (schema={doc.get('schema')!r})")
    trs, tags = [], []
    for rec in doc["trajectories"]:
        trs.append(
            AgentTrajectory(
                tuple(np.array(a, dtype=float) for a in rec["agents"]),
                tuple(np.array(p, dtype=float) for p in rec["prefix"]),
            )
        )
        tags.append(rec["split"])
    return TrajectoryDataset(tuple(trs), tuple(tags), seed=doc["meta"]["seed"], dt=doc["meta"]["dt"])


def export_dataset_csv(ds: TrajectoryDataset, path) -> None:
    """One row per (trajectory, time, agent); prefix times are negative."""
    max_dim = max((max(tr.dims) for tr in ds.trajectories), default=0)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["traj", "split", "t", "agent"] + [f"v{d}" for d in range(max_dim)])
        for j, (tr, tag) in enumerate(zip(ds.trajectories, ds.split)):
            h = tr.prefix_len
            for i in range(tr.n_agents):
                for t in range(-h, tr.length + 1):
                    row = tr.prefix[i][t + h] if t < 0 else tr.ys[i][t]
                    w.writerow([j, tag, t, i] + [repr(float(v)) for v in row])


def save_prediction_table(table: PredictionTable, path) -> None:
    doc = {
        "schema": _TABLE_SCHEMA,
        "t_phi": table.t_phi,
        "dims": list(table.dims),
        "entries": [
            {"k": k, "tau": tau, "agent": i, "y": y.tolist()}
            for k in range(table.t_phi)
            for (tau, i), y in table.row(k).items()
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_prediction_table(path) -> PredictionTable:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != _TABLE_SCHEMA:
        raise ValueError(f"not a prediction table file (schema={doc.get('schema')!r})")
    table = PredictionTable(int(doc["t_phi"]), tuple(int(d) for d in doc["dims"]))
    for rec in doc["entries"]:
        table.set(int(rec["k"]), int(rec["tau"]), int(rec["agent"]), rec["y"])
    return table
