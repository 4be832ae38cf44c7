import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlcp.conformal import (
    SIGMA_MIN,
    CoverageReport,
    NormalizationTable,
    RegionRadii,
    calibrate,
    compute_normalizers,
    conformal_quantile,
    conformal_rank,
    radii_for_delta,
    score,
    trajectory_scores,
    validate_coverage,
)
from stlcp.prediction import (
    AgentTrajectory,
    ConstantVelocityPredictor,
    TrajectoryDataset,
    prediction_table,
    split_dataset,
)

import helpers


class ZeroPredictor:
    """Predicts 0 everywhere; handy for making errors equal the data."""

    def predict(self, history, k, t_phi):
        return [np.zeros((t_phi - k, h.shape[1])) for h in history]


def mono(values):
    return AgentTrajectory((np.array(values, float),))


class TestQuantile:
    def test_median_like_example(self):
        assert conformal_quantile([1.0, 2.0, 3.0, 4.0], delta=0.5) == 3.0

    def test_paper_rank_500(self):
        assert conformal_rank(500, 0.15) == 426

    def test_small_sample_infinite(self):
        assert conformal_quantile([1.0, 2.0, 3.0, 4.0], delta=0.1) == math.inf

    def test_rank_exact_integer_product(self):
        # (19+1) * 0.95 = 19 exactly: rank stays 19, quantile is the max
        assert conformal_rank(19, 0.05) == 19
        scores = list(range(1, 20))
        assert conformal_quantile(scores, 0.05) == 19.0

    def test_delta_out_of_range(self):
        for d in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                conformal_quantile([1.0], d)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            conformal_quantile([1.0, float("nan")], 0.5)

    def test_matches_rank_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            scores = rng.normal(size=n).tolist()
            delta = float(rng.uniform(0.01, 0.99))
            assert conformal_quantile(scores, delta) == helpers.oracle_quantile(scores, delta)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=50),
        st.floats(0.01, 0.5),
        st.floats(0.01, 0.5),
    )
    def test_monotone_in_delta(self, scores, d1, d2):
        lo, hi = min(d1, d2), max(d1, d2)
        assert conformal_quantile(scores, lo) >= conformal_quantile(scores, hi)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=50),
        st.floats(0.05, 0.95),
        st.floats(0.1, 10),
    )
    def test_scaling_equivariance(self, scores, delta, scale):
        c = conformal_quantile(scores, delta)
        cs = conformal_quantile([scale * s for s in scores], delta)
        if math.isinf(c):
            assert math.isinf(cs)
        else:
            assert cs == pytest.approx(scale * c, rel=1e-9)


class TestNormalizers:
    def test_max_over_training(self):
        # zero predictor: errors are |values|; sigma is the max across trajs
        trajs = [mono([0.0, 0.5, 0.2]), mono([0.0, 0.7, 0.1])]
        sigma = compute_normalizers(trajs, ZeroPredictor(), t_phi=2)
        assert sigma.get(0, 1, 0) == 0.7
        assert sigma.get(0, 2, 0) == 0.2
        assert sigma.get(1, 2, 0) == 0.2

    def test_floor_applies(self):
        trajs = [mono([0.0, 0.0, 0.0])]
        sigma = compute_normalizers(trajs, ZeroPredictor(), t_phi=2)
        assert sigma.get(0, 1, 0) == SIGMA_MIN


OPEN_PAIRS_2 = [(0, 1), (0, 2)]  # {0} x 1..T at T = 2
CLOSED_PAIRS_2 = [(0, 1), (1, 2)]  # (k, k+1)


class TestScores:
    def test_open_loop_max(self):
        sigma = NormalizationTable(2, 1, {(0, 1, 0): 1.0, (0, 2, 0): 2.0, (1, 2, 0): 1.0})
        tr = mono([0.0, 1.0, 3.0])
        pt = prediction_table(ZeroPredictor(), tr, 2)
        assert score(tr, pt, sigma, OPEN_PAIRS_2) == max(1.0 / 1.0, 3.0 / 2.0)
        assert trajectory_scores([tr], ZeroPredictor(), sigma)[0].tolist() == [1.5]

    def test_closed_loop_uses_one_step(self):
        sigma = NormalizationTable(2, 1, {(0, 1, 0): 1.0, (0, 2, 0): 100.0, (1, 2, 0): 1.0})
        tr = mono([0.0, 1.0, 3.0])
        pt = prediction_table(ZeroPredictor(), tr, 2)
        assert score(tr, pt, sigma, CLOSED_PAIRS_2) == 3.0
        assert trajectory_scores([tr], ZeroPredictor(), sigma)[1].tolist() == [3.0]

    def test_perfect_prediction_zero_score(self):
        tr = AgentTrajectory((np.array([1.0, 2.0, 3.0]),), (np.array([[0.0]]),))
        pt = prediction_table(ConstantVelocityPredictor(), tr, 2)
        sigma = compute_normalizers([tr], ConstantVelocityPredictor(), 2)
        assert score(tr, pt, sigma, OPEN_PAIRS_2) == 0.0


class TestCalibrate:
    def make(self, n, seed, drift=1.0):
        rng = np.random.default_rng(seed)
        return [
            mono(np.cumsum(rng.normal(0, drift, size=4)))
            for _ in range(n)
        ]

    def test_radii_scale_with_sigma(self):
        train = self.make(20, 0)
        cal = self.make(30, 1)
        sigma = compute_normalizers(train, ZeroPredictor(), t_phi=3)
        radii = calibrate(cal, ZeroPredictor(), sigma, delta=0.2)
        assert radii.open_radius(2, 0) == pytest.approx(radii.c_ol * sigma.get(0, 2, 0))
        assert radii.closed_radius(1, 2, 0) == pytest.approx(radii.c_cl * sigma.get(1, 2, 0))
        assert radii.rank == conformal_rank(30, 0.2)

    def test_zero_scores_give_zero_radii(self):
        trajs = [
            AgentTrajectory((np.array([1.0, 2.0, 3.0]),), (np.array([[0.0]]),))
            for _ in range(10)
        ]
        sigma = compute_normalizers(trajs, ConstantVelocityPredictor(), 2)
        radii = calibrate(trajs, ConstantVelocityPredictor(), sigma, delta=0.2)
        assert radii.c_ol == 0.0 and radii.open_radius(1, 0) == 0.0

    def test_requantile_at_the_same_delta_is_calibrate(self):
        train = self.make(20, 0)
        cal = self.make(30, 1)
        pred = ZeroPredictor()
        sigma = compute_normalizers(train, pred, t_phi=3)
        radii = calibrate(cal, pred, sigma, delta=0.2)
        assert radii_for_delta(radii, *trajectory_scores(cal, pred, sigma), radii.delta) == radii
        looser = radii_for_delta(radii, *trajectory_scores(cal, pred, sigma), 0.4)
        assert looser.sigma is sigma and (looser.n_cal, looser.rank) == (30, conformal_rank(30, 0.4))
        assert looser.c_ol <= radii.c_ol and looser.c_cl <= radii.c_cl

    def test_insufficient_calibration_infinite(self):
        trajs = self.make(4, 2)
        sigma = compute_normalizers(trajs, ZeroPredictor(), 3)
        radii = calibrate(trajs, ZeroPredictor(), sigma, delta=0.1)
        assert math.isinf(radii.c_ol) and not radii.finite

    def test_max_equals_conjunction(self):
        # R = max errors <= C  iff  every error <= its scaled bound
        rng = np.random.default_rng(9)
        train = self.make(10, 5)
        sigma = compute_normalizers(train, ZeroPredictor(), t_phi=3)
        for _ in range(50):
            tr = mono(np.cumsum(rng.normal(0, 1, 4)))
            pt = prediction_table(ZeroPredictor(), tr, 3)
            c = float(rng.uniform(0.1, 3.0))
            lhs = score(tr, pt, sigma, [(0, tau) for tau in range(1, 4)]) <= c
            rhs = all(
                abs(tr.ys[0][tau, 0] - pt.get(0, tau, 0)[0]) <= c * sigma.get(0, tau, 0)
                for tau in range(1, 4)
            )
            assert lhs == rhs


def _synthetic_dataset(n_train, n_cal, n_test, seed):
    rng = np.random.default_rng(seed)
    raw = [
        AgentTrajectory((np.cumsum(rng.normal(0, 1, size=5)),))
        for _ in range(n_train + n_cal + n_test)
    ]
    return split_dataset(raw, (n_train, n_cal, n_test), seed=seed)


class TestCoverage:
    def test_marginal_band_synthetic_scores(self):
        # 2000 trials with fresh exchangeable scores per trial, K=50:
        # mean coverage within the exact band +/- 0.02
        rng = np.random.default_rng(17)
        delta, k = 0.15, 50
        hits = []
        for _ in range(2000):
            cal = rng.exponential(size=k)
            test = rng.exponential(size=25)
            c = conformal_quantile(cal, delta)
            hits.append(float(np.mean(test <= c)))
        mean = float(np.mean(hits))
        lo, hi = 1 - delta, 1 - delta + 1.0 / (k + 1)
        assert lo - 0.02 <= mean <= hi + 0.02

    def test_marginal_band_dataset_pools(self):
        # resampling cal/test subsets from one finite dataset adds pool-level
        # luck on top of the exact band, so the tolerance is wider here
        ds = _synthetic_dataset(30, 150, 300, seed=4)
        sigma = compute_normalizers(ds.subset("train"), ZeroPredictor(), t_phi=4)
        rep = validate_coverage(
            ds, ZeroPredictor(), sigma, delta=0.15, mode="open",
            trials=2000, n_cal=50, n_test=50, seed=10,
        )
        lo, hi = rep.band()
        assert lo - 0.06 <= rep.mean <= hi + 0.06

    def test_bad_predictor_still_covers(self):
        # validity is predictor-agnostic: a terrible predictor inflates the
        # radii but the empirical coverage stays in the band
        class Bad:
            def predict(self, history, k, t_phi):
                return [np.full((t_phi - k, h.shape[1]), 999.0) for h in history]

        ds = _synthetic_dataset(30, 150, 300, seed=6)
        sigma = compute_normalizers(ds.subset("train"), Bad(), t_phi=4)
        rep = validate_coverage(
            ds, Bad(), sigma, delta=0.15, mode="closed",
            trials=1000, n_cal=50, n_test=50, seed=3,
        )
        lo, hi = rep.band()
        assert lo - 0.03 <= rep.mean <= hi + 0.03

    def test_single_test_trajectory_mode(self):
        ds = _synthetic_dataset(20, 100, 200, seed=8)
        sigma = compute_normalizers(ds.subset("train"), ZeroPredictor(), t_phi=4)
        rep = validate_coverage(
            ds, ZeroPredictor(), sigma, delta=0.15, mode="open",
            trials=500, n_cal=50, n_test=1, seed=1,
        )
        assert set(np.unique(rep.ratios)).issubset({0.0, 1.0})

    def test_report_json_fields(self):
        ds = _synthetic_dataset(10, 60, 60, seed=2)
        sigma = compute_normalizers(ds.subset("train"), ZeroPredictor(), t_phi=4)
        rep = validate_coverage(ds, ZeroPredictor(), sigma, 0.2, "open", 20, 30, 30, seed=0)
        import json

        doc = json.loads(rep.to_json())
        assert doc["p"] == conformal_rank(30, 0.2)
        assert len(doc["per_trial_ratios"]) == 20
        assert "C_OL" in doc

    def test_pool_too_small(self):
        ds = _synthetic_dataset(5, 10, 10, seed=0)
        sigma = compute_normalizers(ds.subset("train"), ZeroPredictor(), t_phi=4)
        with pytest.raises(ValueError, match="cal split"):
            validate_coverage(ds, ZeroPredictor(), sigma, 0.2, "open", 10, 50, 5)
