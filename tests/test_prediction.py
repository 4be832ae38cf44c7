import functools
import json

import numpy as np
import pytest

import helpers
from stlcp.prediction import (
    AgentTrajectory,
    ArPredictor,
    ConstantVelocityPredictor,
    FilePredictor,
    PredictionTable,
    TrajectoryDataset,
    export_dataset_csv,
    pair_row,
    fit_predictor,
    row_pairs,
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
        table = prediction_table(ConstantVelocityPredictor(), tr, t_phi=4)
        assert [table.get(1, tau, 0)[0] for tau in (2, 3, 4)] == [2.0, 3.0, 4.0]

    def test_single_observation_holds(self):
        tr = mono_traj([5.0, 0.0, 0.0])
        table = prediction_table(ConstantVelocityPredictor(), tr, t_phi=2)
        assert [table.get(0, tau, 0)[0] for tau in (1, 2)] == [5.0, 5.0]

    def test_horizon_zero_steps(self):
        # k = t_phi predicts nothing: the table's only row is (0, 1)
        tr = mono_traj([1.0, 2.0])
        table = prediction_table(ConstantVelocityPredictor(), tr, t_phi=1)
        assert table.values.shape == (1, 1) and table.get(0, 1, 0)[0] == 1.0
        with pytest.raises(KeyError):
            table.get(1, 2, 0)


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
        table = prediction_table(pred, mono_traj([2.0, 0.0, 0.0, 0.0], prefix=[1.0]), t_phi=3)
        assert np.allclose([table.get(0, tau, 0)[0] for tau in (1, 2, 3)], [1.25, 1.125, 0.875], atol=1e-8)

    def test_insufficient_history_raises(self):
        pred = ArPredictor(3, [[np.array([0.0, 0.0, 0.0, 0.0])]])
        with pytest.raises(ValueError, match="needs 3 observations, agent 0 has 2"):
            prediction_table(pred, mono_traj([2.0, 0.0, 0.0, 0.0], prefix=[1.0]), t_phi=3)

    def test_degenerate_falls_back(self):
        # constant series: column of ones collinear with lag columns
        raw = [AgentTrajectory((np.full(6, 3.0),)) for _ in range(3)]
        with pytest.warns(UserWarning, match="constant velocity"):
            pred = fit_predictor(raw, "ar")
        assert isinstance(pred, ConstantVelocityPredictor)

    def test_prefix_supplies_history_at_k0(self):
        pred = ArPredictor(2, [[np.array([2.0, -1.0, 0.0])]])
        tr = mono_traj([3.0, 0.0], prefix=[2.0])
        table = prediction_table(pred, tr, t_phi=1)
        # 2*3 - 1*2 = 4
        assert table.get(0, 1, 0)[0] == pytest.approx(4.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown predictor kind"):
            fit_predictor([mono_traj([0.0, 1.0])], "lstm")


class TestTables:
    def test_complete_table(self):
        tr = mono_traj([0.0, 1.0, 2.0, 3.0], prefix=[-1.0])
        table = prediction_table(ConstantVelocityPredictor(), tr, t_phi=3)
        # at k=0 velocity comes from the prefix
        assert table.get(0, 2, 0)[0] == pytest.approx(2.0)

    def test_file_predictor_roundtrip(self, tmp_path):
        tr = mono_traj([0.0, 1.0, 2.0, 3.0], prefix=[-1.0])
        table = prediction_table(ConstantVelocityPredictor(), tr, t_phi=3)
        path = tmp_path / "table.json"
        save_prediction_table(table, path)
        loaded = load_prediction_table(path)
        fp = FilePredictor(loaded)
        assert prediction_table(fp, tr, t_phi=3) is loaded
        assert np.array_equal(loaded.values, table.values)
        short = prediction_table(fp, tr, t_phi=2)
        assert [short.get(1, 2, 0)[0], short.get(0, 2, 0)[0]] == [table.get(1, 2, 0)[0], table.get(0, 2, 0)[0]]

    def test_file_predictor_errors(self):
        tr = mono_traj([0.0, 1.0, 2.0, 3.0])
        fp = FilePredictor(prediction_table(ConstantVelocityPredictor(), tr, t_phi=2))
        with pytest.raises(ValueError, match="table horizon too short"):
            prediction_table(fp, tr, t_phi=3)
        with pytest.raises(ValueError, match="prediction dimension mismatch"):
            prediction_table(fp, AgentTrajectory((np.zeros((4, 2)),)), t_phi=2)
        with pytest.raises(ValueError, match="prediction dimension mismatch"):
            PredictionTable(2, (1,), np.zeros((3, 2)))

    def test_incomplete_table_rejected(self, tmp_path):
        tr = mono_traj([0.0, 1.0, 2.0])
        path = tmp_path / "table.json"
        save_prediction_table(prediction_table(ConstantVelocityPredictor(), tr, t_phi=2), path)
        doc = json.loads(path.read_text())
        del doc["entries"][1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="prediction table is incomplete: 2 of 3 entries"):
            load_prediction_table(path)

    def test_table_holds_exactly_the_pairs_k_below_tau(self):
        tr = AgentTrajectory((np.arange(8.0).reshape(-1, 1), np.ones((8, 2))), (np.zeros((1, 1)), np.ones((1, 2))))
        table = prediction_table(ConstantVelocityPredictor(), tr, t_phi=5)
        assert table.values.shape == (15, 3)
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
            table.get(5, 6, 0)

    def test_pair_rows_enumerate_the_pairs_in_k_tau_order(self):
        for t_phi in range(1, 7):
            pairs = [(k, tau) for k in range(t_phi) for tau in range(k + 1, t_phi + 1)]
            assert [pair_row(t_phi, k, tau) for k, tau in pairs] == list(range(len(pairs)))
            assert len(pairs) == t_phi * (t_phi + 1) // 2
        for k, tau in ((0, 0), (2, 1), (-1, 1), (0, 4)):
            with pytest.raises(KeyError):
                pair_row(3, k, tau)

    def test_row_pairs_invert_pair_row(self):
        for t_phi in range(0, 7):
            ks, taus = row_pairs(t_phi)
            assert len(ks) == t_phi * (t_phi + 1) // 2
            assert [pair_row(t_phi, int(k), int(tau)) for k, tau in zip(ks, taus)] == list(range(len(ks)))

    def test_errors_are_the_entrywise_norms(self):
        rng = np.random.default_rng(3)
        tr = AgentTrajectory((rng.normal(size=(6, 1)), rng.normal(size=(6, 3))), (rng.normal(size=(2, 1)), rng.normal(size=(2, 3))))
        table = prediction_table(ConstantVelocityPredictor(), tr, t_phi=4)
        err = table.errors(tr)
        assert err.shape == (10, 2)
        for k in range(4):
            for tau in range(k + 1, 5):
                for i in range(2):
                    want = np.linalg.norm(tr.ys[i][tau] - table.get(k, tau, i))
                    assert err[pair_row(4, k, tau), i] == pytest.approx(want, rel=1e-15, abs=0)

    def test_errors_need_a_complete_matching_table(self):
        tr = mono_traj([0.0, 1.0, 2.0])
        full = prediction_table(ConstantVelocityPredictor(), tr, t_phi=2)
        with pytest.raises(ValueError, match="trajectory's agents"):
            full.errors(AgentTrajectory((np.zeros((3, 2)),)))

    def test_too_short_trajectory(self):
        tr = mono_traj([0.0, 1.0])
        with pytest.raises(ValueError, match="too short"):
            prediction_table(ConstantVelocityPredictor(), tr, t_phi=5)


def random_trajectory(rng, prefix_len, dims, length):
    return AgentTrajectory(
        tuple(rng.normal(size=(length + 1, d)) for d in dims),
        tuple(rng.normal(size=(prefix_len, d)) for d in dims) if prefix_len else (),
    )


def random_cases(seed, n=30):
    """(trajectory, t_phi): prefix lengths 0, 1, 3, one to three agents of
    one to three dims, t_phi 1..6, trajectories up to two steps longer."""
    rng = np.random.default_rng(seed)
    for j in range(n):
        dims = tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(1, 4))))
        t_phi = int(rng.integers(1, 7))
        yield random_trajectory(rng, (0, 1, 3)[j % 3], dims, t_phi + int(rng.integers(0, 3))), t_phi


class TestAgainstPerKOracle:
    """Each predictor's one-call table equals, bit for bit, the table filled
    one k at a time from the history observed at k."""

    def test_constant_velocity(self):
        for tr, t_phi in random_cases(0):
            want = helpers.oracle_table(helpers.oracle_cv_predict, tr, t_phi)
            got = prediction_table(ConstantVelocityPredictor(), tr, t_phi)
            assert np.array_equal(got.values, want.values)

    def test_fitted_ar(self):
        for tr, t_phi in random_cases(1):
            rng = np.random.default_rng(t_phi)
            train = [random_trajectory(rng, tr.prefix_len, tr.dims, 8) for _ in range(4)]
            pred = fit_predictor(train, "ar")
            assert isinstance(pred, ArPredictor)
            oracle = functools.partial(helpers.oracle_ar_predict, pred.order, pred.coeffs)
            if tr.prefix_len == 0:  # a single observation at k = 0: both refuse alike
                for fill in (functools.partial(helpers.oracle_table, oracle), functools.partial(prediction_table, pred)):
                    with pytest.raises(ValueError, match=r"ar\(2\) needs 2 observations, agent 0 has 1"):
                        fill(tr, t_phi)
                continue
            assert np.array_equal(prediction_table(pred, tr, t_phi).values, helpers.oracle_table(oracle, tr, t_phi).values)

    def test_file_predictor_at_every_shorter_horizon(self):
        for tr, t_phi in random_cases(2):
            stored = prediction_table(ConstantVelocityPredictor(), tr, t_phi)
            fp = FilePredictor(stored)
            for h in range(1, t_phi + 1):
                want = helpers.oracle_table(functools.partial(helpers.oracle_file_predict, stored), tr, h)
                got = prediction_table(fp, tr, h)
                assert got.t_phi == h
                assert np.array_equal(got.values, want.values)
            assert prediction_table(fp, tr, t_phi) is stored


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

    def test_malformed_dataset_file_is_a_value_error(self, tmp_path):
        ds = split_dataset([mono_traj([0.0, 1.0], prefix=[9.0]) for _ in range(2)], (1, 1, 0), seed=0)
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        doc = json.loads(path.read_text())
        for j, (bad, message) in enumerate([
            ({**doc, "trajectories": [{"split": "train"}]}, "dataset trajectory 0: missing key 'agents'"),
            ({k: v for k, v in doc.items() if k != "meta"}, "dataset: missing key 'meta'"),
            ({**doc, "meta": {"seed": 0}}, "dataset meta: missing key 'dt'"),
            ({**doc, "trajectories": [{**doc["trajectories"][0], "agents": []}]}, "a trajectory needs at least one agent"),
            ({**doc, "trajectories": [{**doc["trajectories"][0], "agents": [[[[0.0]]]]}]}, "not a 1-d or 2-d array but 3-d"),
            ({**doc, "trajectories": [{**doc["trajectories"][0], "agents": [["x", 1.0]]}]}, "agent 0: not an array of numbers"),
            ({**doc, "trajectories": [{**doc["trajectories"][0], "split": ["train"]}]}, "unknown split tag \\['train'\\]"),
            ({**doc, "trajectories": doc["trajectories"][:1] + [{**doc["trajectories"][1], "agents": [[[0.0, 1.0]] * 2], "prefix": []}]},
             "share their agents and dims"),
        ]):
            (tmp_path / f"bad{j}.json").write_text(json.dumps(bad))
            with pytest.raises(ValueError, match=message):
                load_dataset(tmp_path / f"bad{j}.json")

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share trajectory length"):
            AgentTrajectory((np.zeros((3, 1)), np.zeros((4, 1))))
        with pytest.raises(ValueError, match="prefix shape"):
            AgentTrajectory((np.zeros((3, 1)),), (np.zeros((2, 2)),))


class TestPredictionsFileGate:
    """load_prediction_table builds a complete table or raises ValueError."""

    @staticmethod
    def load(tmp_path, doc):
        path = tmp_path / f"t{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps(doc))
        return load_prediction_table(path)

    @staticmethod
    def doc(t_phi=2, dims=(1, 2)):
        """The file of the table whose values, row after row, count up from 0."""
        start = np.cumsum((0,) + dims)
        values = np.arange(t_phi * (t_phi + 1) // 2 * start[-1], dtype=float).reshape(-1, start[-1])
        return {
            "schema": "stlcp-predtable-v1", "t_phi": t_phi, "dims": list(dims),
            "entries": [{"k": k, "tau": tau, "agent": i, "y": values[pair_row(t_phi, k, tau), start[i] : start[i + 1]].tolist()}
                        for k in range(t_phi) for tau in range(k + 1, t_phi + 1) for i in range(len(dims))],
        }

    def test_the_complete_document_loads(self, tmp_path):
        doc = self.doc()
        assert np.array_equal(self.load(tmp_path, doc).values, np.arange(9.0).reshape(3, 3))
        # entries in any order
        assert np.array_equal(self.load(tmp_path, {**doc, "entries": doc["entries"][::-1]}).values, np.arange(9.0).reshape(3, 3))

    def test_missing_key(self, tmp_path):
        doc = self.doc()
        for key in ("t_phi", "dims", "entries"):
            with pytest.raises(ValueError, match=f"prediction table: missing key '{key}'"):
                self.load(tmp_path, {k: v for k, v in doc.items() if k != key})
        for key in ("k", "tau", "agent", "y"):
            entry = {k: v for k, v in doc["entries"][0].items() if k != key}
            with pytest.raises(ValueError, match=f"prediction table entry: missing key '{key}'"):
                self.load(tmp_path, {**doc, "entries": [entry] + doc["entries"][1:]})

    def test_horizon_and_dims_are_positive_integers(self, tmp_path):
        doc = self.doc()
        for t_phi in (0, -1, 2.0, "2", True, None):
            with pytest.raises(ValueError, match="t_phi and dims must be positive integers"):
                self.load(tmp_path, {**doc, "t_phi": t_phi})
        for dims in ([], [1, 0], [1, 2.0], [1, True], "12", None):
            with pytest.raises(ValueError, match="t_phi and dims must be positive integers"):
                self.load(tmp_path, {**doc, "dims": dims})

    def test_pair_outside_the_horizon(self, tmp_path):
        doc = self.doc()
        for k, tau in ((1, 1), (2, 1), (-1, 1), (0, 3), (0.0, 1), (0, "1")):
            entries = doc["entries"] + [{"k": k, "tau": tau, "agent": 0, "y": [0.0]}]
            with pytest.raises(ValueError, match=r"\(k=.*, tau=.*, agent=0\): pair outside 0 <= k < tau <= 2"):
                self.load(tmp_path, {**doc, "entries": entries})

    def test_agent_out_of_range(self, tmp_path):
        doc = self.doc()
        for agent in (2, 3, -1, 0.0, True):
            entries = [{**doc["entries"][0], "agent": agent}] + doc["entries"][1:]
            with pytest.raises(ValueError, match="agent out of range for 2 agents"):
                self.load(tmp_path, {**doc, "entries": entries})

    def test_wrong_y(self, tmp_path):
        doc = self.doc()
        for y, message in (([0.0, 1.0], "prediction dimension mismatch"), ([], "prediction dimension mismatch"),
                           (0.0, "not a 1-d or 2-d array"), ([[0.0]], "prediction dimension mismatch"),
                           (["a"], "not an array of numbers"), ([None], "not every value is a finite number")):
            entries = [{**doc["entries"][0], "y": y}] + doc["entries"][1:]
            with pytest.raises(ValueError, match=message):
                self.load(tmp_path, {**doc, "entries": entries})

    def test_duplicate_entry(self, tmp_path):
        doc = self.doc()
        again = {**doc["entries"][3], "y": [7.0, 7.0]}
        with pytest.raises(ValueError, match=r"\(k=0, tau=2, agent=1\): duplicate entry"):
            self.load(tmp_path, {**doc, "entries": doc["entries"] + [again]})

    def test_random_tables_round_trip_to_equal_values_and_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        for j in range(30):
            t_phi = int(rng.integers(1, 7))
            dims = tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(1, 4))))
            table = PredictionTable(t_phi, dims, rng.normal(size=(t_phi * (t_phi + 1) // 2, sum(dims))))
            first, second = tmp_path / f"a{j}.json", tmp_path / f"b{j}.json"
            save_prediction_table(table, first)
            back = load_prediction_table(first)
            assert (back.t_phi, back.dims) == (t_phi, dims)
            assert np.array_equal(back.values, table.values)
            save_prediction_table(back, second)
            assert second.read_bytes() == first.read_bytes()


def test_generation_determinism():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    a = rng1.normal(size=(4, 1))
    b = rng2.normal(size=(4, 1))
    assert np.array_equal(a, b)
