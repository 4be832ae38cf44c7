"""Split conformal prediction regions for agent trajectories.

Calibration follows the normalized max-score construction: each calibration
trajectory contributes a single score, the maximum over a set of the
prediction table's (k, tau) rows and over agents of its error array
(PredictionTable.errors) divided by sigma, the running maximum of the
training split's error arrays.  The open loop takes block k = 0, the closed
loop the first row of each block k, the one-step pair (k, k+1).  The
(1-delta) empirical quantile of the scores, with the multiset augmented by
+inf, then scales back into per-time, per-agent region radii with a joint
coverage guarantee over all times and agents at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .prediction import AgentTrajectory, pair_row, prediction_table

#: Lower floor applied to every normalization constant so that scores stay
#: finite when the training errors vanish (e.g. a perfect predictor).
SIGMA_MIN = 1e-8


def conformal_rank(n_cal: int, delta: float) -> int:
    """p = ceil((K+1)(1-delta)); the rank of the conformal quantile.

    Exact-integer products are snapped before taking the ceiling so that
    floating point noise cannot shift the rank by one.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if n_cal < 1:
        raise ValueError("need at least one calibration score")
    v = (n_cal + 1) * (1.0 - delta)
    nearest = round(v)
    if abs(v - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(v))


def conformal_quantile(scores: Sequence[float], delta: float) -> float:
    """Empirical (1-delta) quantile of scores augmented with +inf.

    Returns +inf when the rank exceeds the number of scores, i.e. when the
    calibration set is too small for the requested miscoverage delta.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1:
        raise ValueError("scores must be a flat sequence")
    if np.any(np.isnan(scores)):
        raise ValueError("scores contain NaN")
    p = conformal_rank(len(scores), delta)
    if p > len(scores):
        return math.inf
    return float(np.sort(scores)[p - 1])


# ---------------------------------------------------------------------------
# normalization


class NormalizationTable:
    """sigma_{tau|k,i}: worst training prediction error, floored at SIGMA_MIN;
    values[row, i] in the rows of prediction.pair_row."""

    def __init__(self, t_phi: int, values):
        self.t_phi = t_phi
        self.values = np.asarray(values, dtype=float)

    @property
    def n_agents(self) -> int:
        return self.values.shape[1]

    def get(self, k: int, tau: int, agent: int) -> float:
        return float(self.values[pair_row(self.t_phi, k, tau), agent])

    def __eq__(self, other):
        if not isinstance(other, NormalizationTable):
            return NotImplemented
        return self.t_phi == other.t_phi and np.array_equal(self.values, other.values)


def compute_normalizers(train: Sequence[AgentTrajectory], predictor, t_phi: int) -> NormalizationTable:
    if not train:
        raise ValueError("no training trajectories")
    worst = None
    for tr in train:
        err = prediction_table(predictor, tr, t_phi).errors(tr)
        worst = err if worst is None else np.maximum(worst, err, out=worst)
    return NormalizationTable(t_phi, np.maximum(worst, SIGMA_MIN))


# ---------------------------------------------------------------------------
# scores


def trajectory_scores(
    trajs: Sequence[AgentTrajectory], predictor, sigma: NormalizationTable
) -> tuple[np.ndarray, np.ndarray]:
    """Open-loop and closed-loop scores for each trajectory: the open loop
    scores every prediction made at k = 0, the closed loop every one-step
    prediction (k, k+1)."""
    t_phi = sigma.t_phi
    open_rows = [pair_row(t_phi, 0, tau) for tau in range(1, t_phi + 1)]
    closed_rows = [pair_row(t_phi, k, k + 1) for k in range(t_phi)]
    r_ol, r_cl = np.empty(len(trajs)), np.empty(len(trajs))
    for j, tr in enumerate(trajs):
        r = prediction_table(predictor, tr, t_phi).errors(tr) / sigma.values
        r_ol[j] = r[open_rows].max()
        r_cl[j] = r[closed_rows].max()
    return r_ol, r_cl


# ---------------------------------------------------------------------------
# radii


@dataclass
class RegionRadii:
    """Scaled prediction region radii C_{tau|k,i}.

    open_radius covers predictions made at k=0 jointly over all tau and i
    with probability >= 1-delta.  closed_radius carries the same guarantee
    only for one-step-ahead predictions (tau = k+1); for tau > k+1 it reuses
    the one-step quantile with the multi-step normalization, a heuristic
    without a coverage statement of its own.
    """

    delta: float
    n_cal: int
    rank: int
    c_ol: float
    c_cl: float
    sigma: NormalizationTable

    def open_radius(self, tau: int, agent: int) -> float:
        return self.c_ol * self.sigma.get(0, tau, agent)

    def closed_radius(self, k: int, tau: int, agent: int) -> float:
        return self.c_cl * self.sigma.get(k, tau, agent)

    @property
    def finite(self) -> bool:
        return math.isfinite(self.c_ol) and math.isfinite(self.c_cl)


def _radii(scores_ol, scores_cl, sigma: NormalizationTable, delta: float) -> RegionRadii:
    """Region radii from the calibration scores at miscoverage delta."""
    n_cal = len(scores_ol)
    return RegionRadii(
        delta=delta,
        n_cal=n_cal,
        rank=conformal_rank(n_cal, delta),
        c_ol=conformal_quantile(scores_ol, delta),
        c_cl=conformal_quantile(scores_cl, delta),
        sigma=sigma,
    )


def calibrate(
    cal: Sequence[AgentTrajectory], predictor, sigma: NormalizationTable, delta: float
) -> RegionRadii:
    return _radii(*trajectory_scores(cal, predictor, sigma), sigma, delta)


def radii_for_delta(radii: RegionRadii, cal_scores_ol, cal_scores_cl, delta: float) -> RegionRadii:
    """Re-quantile cached calibration scores at a different delta."""
    return _radii(cal_scores_ol, cal_scores_cl, radii.sigma, delta)


# ---------------------------------------------------------------------------
# coverage validation


@dataclass
class CoverageReport:
    mode: str
    delta: float
    n_cal: int
    n_test: int
    trials: int
    rank: int
    ratios: np.ndarray
    c_full: float

    @property
    def mean(self) -> float:
        return float(np.mean(self.ratios))

    def histogram(self):
        """Counts of the per-trial coverage ratios in 20 bins over [0.5, 1]."""
        return np.histogram(self.ratios, bins=20, range=(0.5, 1.0))

    def band(self) -> tuple[float, float]:
        """Exact marginal coverage band [1-delta, 1-delta + 1/(K+1)]."""
        return 1.0 - self.delta, 1.0 - self.delta + 1.0 / (self.n_cal + 1)

    def to_json(self) -> str:
        lo, hi = self.band()
        return json.dumps(
            {
                "mode": self.mode,
                "delta": self.delta,
                "n_cal": self.n_cal,
                "n_test": self.n_test,
                "trials": self.trials,
                "p": self.rank,
                # null, as calibration.json writes it: JSON has no Infinity
                "C_OL" if self.mode == "open" else "C_CL": self.c_full if math.isfinite(self.c_full) else None,
                "band": [lo, hi],
                "mean": self.mean,
                "per_trial_ratios": [float(r) for r in self.ratios],
            }
        )


def validate_coverage(
    ds,
    predictor,
    sigma: NormalizationTable,
    delta: float,
    mode: str = "open",
    trials: int = 1000,
    n_cal: int = 50,
    n_test: int = 50,
    seed: int = 0,
) -> CoverageReport:
    """Monte Carlo check of the marginal coverage of the calibrated regions.

    Each trial samples fresh calibration/test subsets from the dataset's cal
    and test splits, recalibrates, and records the fraction of test scores
    inside the region.  With exchangeable data the expected fraction lies in
    [1-delta, 1-delta + 1/(n_cal+1)].
    """
    if mode not in ("open", "closed"):
        raise ValueError(f"mode must be 'open' or 'closed', got {mode!r}")
    cal_pool = ds.subset("cal")
    test_pool = ds.subset("test")
    if len(cal_pool) < n_cal:
        raise ValueError(f"cal split has {len(cal_pool)} < {n_cal} trajectories")
    if len(test_pool) < n_test:
        raise ValueError(f"test split has {len(test_pool)} < {n_test} trajectories")
    pick = 0 if mode == "open" else 1
    cal_scores = trajectory_scores(cal_pool, predictor, sigma)[pick]
    test_scores = trajectory_scores(test_pool, predictor, sigma)[pick]

    rng = np.random.default_rng(seed)
    ratios = np.empty(trials)
    for t in range(trials):
        ci = rng.choice(len(cal_scores), size=n_cal, replace=False)
        ti = rng.choice(len(test_scores), size=n_test, replace=False)
        c = conformal_quantile(cal_scores[ci], delta)
        ratios[t] = 1.0 if math.isinf(c) else float(np.mean(test_scores[ti] <= c))
    return CoverageReport(
        mode=mode,
        delta=delta,
        n_cal=n_cal,
        n_test=n_test,
        trials=trials,
        rank=conformal_rank(n_cal, delta),
        ratios=ratios,
        c_full=conformal_quantile(cal_scores, delta),
    )
