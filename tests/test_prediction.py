import numpy as np
import pytest

from stlcp.prediction import (
    AgentTrajectory,
    ArPredictor,
    ConstantVelocityPredictor,
    FilePredictor,
    PredictionTable,
    TrajectoryDataset,
    export_dataset_csv,
    fit_predictor,
    load_dataset,
    load_prediction_table,
    prediction_table,
    save_dataset,
    save_prediction_table,
    split_dataset,
)


def mono_traj(values, prefix=()):
    return AgentTrajectory((np.array(values, float),), (np.array(prefix, float).reshape(-1, 1),) if len(prefix) else ())


class TestAgentTrajectory:
    def test_construction_leaves_the_callers_arrays_writeable(self):
        y, p = np.zeros((3, 2)), np.ones((1, 2))
        tr = AgentTrajectory((y,), prefix=(p,))
        y[0, 0], p[0, 0] = 5.0, 7.0  # the caller's arrays stay its own
        assert tr.ys[0][0, 0] == 0.0 and tr.prefix[0][0, 0] == 1.0
        assert not tr.ys[0].flags.writeable and not tr.prefix[0].flags.writeable


class TestSplit:
    def test_sizes_and_disjointness(self):
        raw = [mono_traj([float(i)] * 3) for i in range(20)]
        ds = split_dataset(raw, (5, 5, 8), seed=1)
        assert ds.counts() == {"train": 5, "cal": 5, "test": 8}
        seen = [tr.ys[0][0, 0] for tr in ds.trajectories]
        assert len(set(seen)) == 18

    def test_deterministic(self):
        raw = [mono_traj([float(i)] * 3) for i in range(10)]
        a = split_dataset(raw, (3, 3, 4), seed=7)
        b = split_dataset(raw, (3, 3, 4), seed=7)
        assert all(np.array_equal(x.ys[0], y.ys[0]) for x, y in zip(a.trajectories, b.trajectories))

    def test_insufficient(self):
        raw = [mono_traj([0.0, 0.0])] * 4
        with pytest.raises(ValueError, match="only 4 available"):
            split_dataset(raw, (2, 2, 2), seed=0)


class TestConstantVelocity:
    def test_linear_extrapolation(self):
        # spec example: last two states 0,1 -> yhat_{k+j} = 1 + j
        tr = mono_traj([0.0, 1.0, 9.0, 9.0, 9.0])
        pred = ConstantVelocityPredictor()
        rows = pred.predict(tr.history(1), k=1, t_phi=4)[0]
        assert rows[:, 0].tolist() == [2.0, 3.0, 4.0]

    def test_single_observation_holds(self):
        tr = mono_traj([5.0, 0.0, 0.0])
        rows = ConstantVelocityPredictor().predict(tr.history(0), 0, 2)[0]
        assert rows[:, 0].tolist() == [5.0, 5.0]

    def test_horizon_zero_steps(self):
        tr = mono_traj([1.0, 2.0])
        rows = ConstantVelocityPredictor().predict(tr.history(1), 1, 1)[0]
        assert rows.shape == (0, 1)


class TestAr:
    def test_exact_recovery(self):
        # y_{t+1} = 0.5 y_t + 0.25 y_{t-1} is ar(2); the fit must recover it
        def series(y0, y1):
            ys = [y0, y1]
            while len(ys) < 8:
                ys.append(0.5 * ys[-1] + 0.25 * ys[-2])
            return np.array(ys)

        raw = [AgentTrajectory((series(*v),)) for v in ((1.0, -1.0), (2.0, 0.5), (-1.5, 0.7), (0.3, 2.0))]
        pred = fit_predictor(raw, "ar")
        assert isinstance(pred, ArPredictor) and pred.order == 2
        assert abs(pred.coeffs[0][0][0] - 0.5) <= 1e-9
        assert abs(pred.coeffs[0][0][1] - 0.25) <= 1e-9
        assert abs(pred.coeffs[0][0][2]) <= 1e-8
        rows = pred.predict([np.array([[1.0], [2.0]])], 0, 3)[0]
        assert np.allclose(rows[:, 0], [1.25, 1.125, 0.875], atol=1e-8)

    def test_insufficient_history_raises(self):
        pred = ArPredictor(3, [[np.array([0.0, 0.0, 0.0, 0.0])]])
        with pytest.raises(ValueError, match="needs 3 observations"):
            pred.predict([np.array([[1.0], [2.0]])], 0, 3)

    def test_degenerate_falls_back(self):
        # constant series: column of ones collinear with lag columns
        raw = [AgentTrajectory((np.full(6, 3.0),)) for _ in range(3)]
        with pytest.warns(UserWarning, match="constant velocity"):
            pred = fit_predictor(raw, "ar")
        assert isinstance(pred, ConstantVelocityPredictor)

    def test_prefix_supplies_history_at_k0(self):
        pred = ArPredictor(2, [[np.array([2.0, -1.0, 0.0])]])
        tr = mono_traj([3.0, 0.0], prefix=[2.0])
        rows = pred.predict(tr.history(0), 0, 1)[0]
        # 2*3 - 1*2 = 4
        assert rows[0, 0] == pytest.approx(4.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown predictor kind"):
            fit_predictor([mono_traj([0.0, 1.0])], "lstm")


class TestTables:
    def test_complete_table(self):
        tr = mono_traj([0.0, 1.0, 2.0, 3.0], prefix=[-1.0])
        table = prediction_table(ConstantVelocityPredictor(), tr, t_phi=3)
        assert table.is_complete()
        # at k=0 velocity comes from the prefix
        assert table.get(0, 2, 0)[0] == pytest.approx(2.0)

    def test_file_predictor_roundtrip(self, tmp_path):
        tr = mono_traj([0.0, 1.0, 2.0, 3.0], prefix=[-1.0])
        table = prediction_table(ConstantVelocityPredictor(), tr, t_phi=3)
        path = tmp_path / "table.json"
        save_prediction_table(table, path)
        loaded = load_prediction_table(path)
        fp = FilePredictor(loaded)
        rows = fp.predict(tr.history(1), 1, 3)[0]
        assert np.allclose(rows[:, 0], [table.get(1, 2, 0)[0], table.get(1, 3, 0)[0]])

    def test_incomplete_table_rejected(self):
        t = PredictionTable(2, (1,))
        t.set(0, 1, 0, [1.0])
        with pytest.raises(ValueError, match="incomplete"):
            FilePredictor(t)

    def test_table_holds_exactly_the_pairs_k_below_tau(self):
        tr = AgentTrajectory((np.arange(8.0).reshape(-1, 1), np.ones((8, 2))), (np.zeros((1, 1)), np.ones((1, 2))))
        table = prediction_table(ConstantVelocityPredictor(), tr, t_phi=5)
        assert table.values.shape == (15, 3) and table.is_complete()
        for k in range(5):
            row = table.row(k)
            assert sorted(row) == [(tau, i) for tau in range(k + 1, 6) for i in range(2)]
            for (tau, i), y in row.items():
                assert y.shape == (tr.dims[i],)
                assert np.array_equal(y, table.get(k, tau, i))
        assert table.get(2, 4, 0)[0] == pytest.approx(4.0)  # last value 2, velocity 1
        with pytest.raises(KeyError):
            table.get(3, 3, 0)
        with pytest.raises(KeyError):
            table.set(5, 6, 0, [0.0])

    def test_too_short_trajectory(self):
        tr = mono_traj([0.0, 1.0])
        with pytest.raises(ValueError, match="too short"):
            prediction_table(ConstantVelocityPredictor(), tr, t_phi=5)


class TestSerialization:
    def test_dataset_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        raw = [
            AgentTrajectory(
                (rng.normal(size=(5, 2)), rng.normal(size=(5, 1))),
                (rng.normal(size=(2, 2)), rng.normal(size=(2, 1))),
            )
            for _ in range(6)
        ]
        ds = split_dataset(raw, (2, 2, 2), seed=11, dt=2.0)
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.seed == 11 and back.dt == 2.0
        assert back.split == ds.split
        for a, b in zip(ds.trajectories, back.trajectories):
            for ya, yb in zip(a.ys, b.ys):
                assert np.array_equal(ya, yb)
            for pa, pb in zip(a.prefix, b.prefix):
                assert np.array_equal(pa, pb)

    def test_wrong_schema(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"schema": "other"}')
        with pytest.raises(ValueError, match="not a dataset"):
            load_dataset(p)

    def test_csv_export(self, tmp_path):
        ds = split_dataset([mono_traj([0.0, 1.0], prefix=[9.0]) for _ in range(2)], (1, 1, 0), seed=0)
        path = tmp_path / "ds.csv"
        export_dataset_csv(ds, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "traj,split,t,agent,v0"
        assert len(lines) == 1 + 2 * 3  # header + 2 trajectories x 3 times

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share trajectory length"):
            AgentTrajectory((np.zeros((3, 1)), np.zeros((4, 1))))
        with pytest.raises(ValueError, match="prefix shape"):
            AgentTrajectory((np.zeros((3, 1)),), (np.zeros((2, 2)),))


def test_generation_determinism():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    a = rng1.normal(size=(4, 1))
    b = rng2.normal(size=(4, 1))
    assert np.array_equal(a, b)
