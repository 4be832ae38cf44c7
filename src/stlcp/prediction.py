"""Agent trajectory datasets and trajectory predictors.

A predictor fills one trajectory's whole prediction table in one call: the
point predictions yhat_{tau|k,i} every agent i gets at each time k from its
observations through k, for every later time tau up to the horizon.
Prediction quality only affects how conservative the downstream conformal
regions are, never their validity, so simple models are acceptable here: a
constant velocity extrapolator, a per-dimension autoregressive least-squares
fit, and a file-backed table for predictions computed by an external model.
A table is built whole, and the file loaders raise ValueError on bad input.
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
        if not ys:
            raise ValueError("a trajectory needs at least one agent")
        T = ys[0].shape[0]
        if any(y.shape[0] != T for y in ys):
            raise ValueError("agents must share trajectory length")
        pre = tuple(np.array(p, dtype=float, order="C") for p in self.prefix or [np.zeros((0, y.shape[1])) for y in ys])
        pre = tuple(p[:, None] if p.ndim == 1 else p for p in pre)
        if len(pre) != len(ys):
            raise ValueError("prefix must cover every agent")
        if any(p.shape != (pre[0].shape[0], y.shape[1]) for p, y in zip(pre, ys)):
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
        bad = [tag for tag in self.split if tag not in ("train", "cal", "test")]
        if bad:
            raise ValueError(f"unknown split tag {bad[0]!r}")
        if len({tr.dims for tr in self.trajectories}) > 1:
            raise ValueError("the trajectories must share their agents and dims")

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
    """Point predictions yhat_{tau|k,i} for 0 <= k < tau <= t_phi, all of them.

    One array holds them, a row per pair k < tau (see pair_row): values[row]
    concatenates the agents' predictions.  A table is built whole from that
    array, so every entry is set.  A closed-loop run keeps its table, and a
    dict of one small array per entry cost about twenty times the memory."""

    def __init__(self, t_phi: int, dims: tuple[int, ...], values):
        self.t_phi = t_phi
        self.dims = tuple(dims)
        self._start = [0] + np.cumsum(self.dims).tolist()
        if np.shape(values) != (t_phi * (t_phi + 1) // 2, self._start[-1]):
            raise ValueError("prediction dimension mismatch")
        self.values = np.array(values, dtype=float, order="C")

    def get(self, k: int, tau: int, agent: int) -> np.ndarray:
        return self.values[pair_row(self.t_phi, k, tau), self._start[agent] : self._start[agent + 1]]

    def row(self, k: int) -> dict[tuple[int, int], np.ndarray]:
        """Predictions made at time k, keyed by (tau, agent)."""
        block = self.values[pair_row(self.t_phi, k, k + 1) :]
        agents = list(enumerate(zip(self._start, self._start[1:])))
        return {(k + 1 + j, i): block[j, a:b] for j in range(self.t_phi - k) for i, (a, b) in agents}

    def errors(self, traj: AgentTrajectory) -> np.ndarray:
        """err[row, i] = ||Y_{tau,i} - yhat_{tau|k,i}||, the prediction error
        of every entry against the realized trajectory."""
        if traj.dims != self.dims:
            raise ValueError("errors need a table of the trajectory's agents")
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
        return PredictionTable(t_phi, traj.dims, last[ks] + (taus - ks)[:, None] * vel[ks])


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
        start = [0] + np.cumsum(traj.dims).tolist()
        values = np.zeros((t_phi * (t_phi + 1) // 2, start[-1]))
        for k in range(t_phi):
            seen = h + k + 1  # observations through time k
            for i, (a, b) in enumerate(zip(start, start[1:])):
                if seen < p:
                    raise ValueError(f"ar({p}) needs {p} observations, agent {i} has {seen}")
                window = series[seen - p : seen, a:b].copy()  # rows: oldest..newest
                for j in range(t_phi - k):
                    nxt = np.array([float(np.dot(c[:p], window[::-1, dd]) + c[p]) for dd, c in enumerate(self.coeffs[i])])
                    values[pair_row(t_phi, k, k + 1 + j), a:b] = nxt
                    window = np.vstack([window[1:], nxt[None, :]])
        return PredictionTable(t_phi, traj.dims, values)


class FilePredictor:
    """Replays a fixed PredictionTable; lets externally computed predictions
    (e.g. from a learned sequence model) drive the rest of the pipeline."""

    def __init__(self, table: PredictionTable):
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
        return PredictionTable(t_phi, traj.dims, self.table.values[row_pairs(self.table.t_phi)[1] <= t_phi])


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
    p, dims = 2, train[0].dims
    series = [_series(tr) for tr in train]
    coeffs: list[list[np.ndarray]] = [[] for _ in dims]
    for c, (i, d) in enumerate((i, d) for i, n in enumerate(dims) for d in range(n)):
        rows = [np.concatenate([s[t - p + 1 : t + 1, c][::-1], [1.0]]) for s in series for t in range(p - 1, len(s) - 1)]
        targets = [s[t + 1, c] for s in series for t in range(p - 1, len(s) - 1)]
        if len(rows) < p + 1:
            warnings.warn(f"agent {i} dim {d}: too few transitions for ar({p}); falling back to constant velocity")
            return ConstantVelocityPredictor()
        sol, _, rank, _ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)
        if rank < p + 1:
            warnings.warn(f"agent {i} dim {d}: degenerate ar({p}) normal equations; falling back to constant velocity")
            return ConstantVelocityPredictor()
        coeffs[i].append(sol)
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
    """The dataset a file of save_dataset holds, or a ValueError naming the first fault."""
    records, meta = _read(path, _DATASET_SCHEMA, "dataset", "trajectories[]", "meta")
    seed, dt = _keys(meta, "dataset meta", "seed", "dt")
    trs, tags = [], []
    for j, rec in enumerate(records):
        what = f"dataset trajectory {j}"
        tag, agents, prefix = _keys(rec, what, "split", "agents[]", "prefix[]")
        trs.append(AgentTrajectory(
            tuple(_numbers(a, f"{what} agent {i}") for i, a in enumerate(agents)),
            tuple(_numbers(p, f"{what} prefix {i}") for i, p in enumerate(prefix)),
        ))
        tags.append(tag)
    return TrajectoryDataset(tuple(trs), tuple(tags), seed=seed, dt=dt)


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
            {"k": k, "tau": tau, "agent": i, "y": table.get(k, tau, i).tolist()}
            for k, tau in zip(*(a.tolist() for a in row_pairs(table.t_phi)))
            for i in range(len(table.dims))
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_prediction_table(path) -> PredictionTable:
    """The complete table a predictions file holds, or a ValueError naming the
    first missing key, bad t_phi, dims, pair, agent or y, or repeated or missing entry."""
    t_phi, dims, entries = _read(path, _TABLE_SCHEMA, "prediction table", "t_phi", "dims", "entries[]")
    if not (type(t_phi) is int and t_phi >= 1 and isinstance(dims, list) and dims and all(type(d) is int and d >= 1 for d in dims)):
        raise ValueError(f"prediction table: t_phi and dims must be positive integers, got {t_phi!r} and {dims!r}")
    found: dict[tuple[int, int, int], np.ndarray] = {}
    for rec in entries:
        k, tau, i, y = _keys(rec, "prediction table entry", "k", "tau", "agent", "y")
        where = f"prediction table entry (k={k!r}, tau={tau!r}, agent={i!r})"
        if not (type(k) is type(tau) is int and 0 <= k < tau <= t_phi):
            raise ValueError(f"{where}: pair outside 0 <= k < tau <= {t_phi}")
        if not (type(i) is int and 0 <= i < len(dims)):
            raise ValueError(f"{where}: agent out of range for {len(dims)} agents")
        if (k, tau, i) in found:
            raise ValueError(f"{where}: duplicate entry")
        found[k, tau, i] = y = _numbers(y, where)
        if y.shape != (dims[i],):
            raise ValueError(f"prediction dimension mismatch: {where} holds {y.size} values for {dims[i]}")
    n = t_phi * (t_phi + 1) // 2 * len(dims)
    if len(found) < n:  # each entry found is in range and new, so fewer than n leaves one out
        raise ValueError(f"prediction table is incomplete: {len(found)} of {n} entries")
    ks, taus = (a.tolist() for a in row_pairs(t_phi))
    return PredictionTable(t_phi, tuple(dims), [np.concatenate([found[k, tau, i] for i in range(len(dims))]) for k, tau in zip(ks, taus)])


def _read(path, schema: str, what: str, *keys: str) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    given = doc.get("schema") if isinstance(doc, dict) else None
    if given != schema:
        raise ValueError(f"not a {what} file (schema={given!r})")
    return _keys(doc, what, *keys)


def _keys(rec, what: str, *keys: str) -> list:
    """rec's values at keys, where a key ending in [] holds a list, or a
    ValueError naming what lacks which key."""
    if not isinstance(rec, dict):
        raise ValueError(f"{what}: expected an object with keys {', '.join(keys)}")
    for key in keys:
        if key.removesuffix("[]") not in rec:
            raise ValueError(f"{what}: missing key {key.removesuffix('[]')!r}")
        if key.endswith("[]") and not isinstance(rec[key[:-2]], list):
            raise ValueError(f"{what}: {key[:-2]} must be a list")
    return [rec[key.removesuffix("[]")] for key in keys]


def _numbers(v, what: str) -> np.ndarray:
    """v, a 1-d or 2-d list of finite numbers, as a float array, or a ValueError."""
    try:
        a = np.array(v, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what}: not an array of numbers") from None
    if a.ndim not in (1, 2):
        raise ValueError(f"{what}: not a 1-d or 2-d array but {a.ndim}-d")
    if not np.isfinite(a).all():
        raise ValueError(f"{what}: not every value is a finite number")
    return a
