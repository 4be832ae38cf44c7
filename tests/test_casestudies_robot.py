"""Leader-follower robot scenario: geometry, dataset generation, follower loop."""

import math

import numpy as np
import pytest

from helpers import oracle_split_margin
from stlcp.casestudies import (
    RobotScenario,
    build_robot_specs,
    gen_robot_leader_dataset,
    mean_path_predictor,
    robot_system,
    run_follower_experiment,
)
from stlcp.casestudies.robot import _plan_margin
from stlcp.conformal import compute_normalizers, trajectory_scores
from stlcp.stl import JointTrajectory, compile_spec, eval_boolean, eval_robustness, horizon


SC = RobotScenario()


def state_traj(points, n_agents=0):
    """Lift a list of (p_x, p_y) into 4-d states with zero velocities."""
    xs = np.zeros((len(points), 4))
    xs[:, 0] = [p[0] for p in points]
    xs[:, 2] = [p[1] for p in points]
    return xs


def leader_joint(ys):
    """Positions-only leader signal lifted to the 4-d frame of its own task;
    the task only reads positions, so zero velocities are inert."""
    xs = np.zeros((len(ys), 4))
    xs[:, 0] = ys[:, 0]
    xs[:, 2] = ys[:, 1]
    return JointTrajectory(xs, ())


class TestScenarioConstants:
    def test_dynamics_matrices(self):
        assert np.array_equal(
            SC.a_mat,
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
        )
        assert np.array_equal(SC.b_mat, [[0.5, 0], [1, 0], [0, 0.5], [0, 1]])

    def test_boxes_and_limits(self):
        assert SC.state_box == ((0.0, -1.5, 0.0, -1.5), (10.0, 1.5, 10.0, 1.5))
        assert SC.input_box == ((-1.0, -1.0), (1.0, 1.0))
        assert SC.x0 == (1.0, 0.0, 1.0, 0.0)
        assert SC.d_close == 2.0
        assert SC.delta == 0.1
        assert SC.horizon == 20
        assert SC.disturbance == 0.15

    def test_regions(self):
        assert SC.region1 == (0.0, 2.0, 4.0, 6.0)
        assert SC.region2 == (3.5, 6.5, 8.0, 10.0)
        assert SC.region3 == (8.5, 10.0, 0.0, 2.0)
        assert SC.region4 == (7.0, 8.5, 0.0, 2.0)
        assert SC.obstacles == (
            (1.6, 2.6, 2.0, 3.0),
            (8.3, 9.3, 6.5, 7.5),
            (5.7, 6.7, 2.7, 3.7),
        )

    def test_system_model(self):
        sys = robot_system(SC)
        assert np.array_equal(sys.a, SC.a_mat)
        assert np.array_equal(sys.b, SC.b_mat)
        assert np.array_equal(sys.c, np.zeros(4))
        assert np.array_equal(sys.x0, [1, 0, 1, 0])


class TestSpecs:
    def test_horizons(self):
        follower, leader = build_robot_specs(SC)
        assert horizon(follower) == 20
        assert horizon(leader) == 20

    def test_goal_region_membership(self):
        follower, _ = build_robot_specs(SC)
        # hold the goal corner and the leader nearby the whole horizon
        pts = [(7.5, 1.0)] * 21
        ys = np.full((21, 2), [8.0, 1.5])
        assert eval_boolean(follower, JointTrajectory(state_traj(pts), (ys,)), 0)

    def test_obstacle_interior_violates(self):
        follower, _ = build_robot_specs(SC)
        pts = [(7.5, 1.0)] * 21
        pts[3] = (2.1, 2.5)  # inside the first obstacle
        ys = np.full((21, 2), [8.0, 1.5])
        traj = JointTrajectory(state_traj(pts), (ys,))
        assert not eval_boolean(follower, traj, 0)
        assert eval_robustness(follower, traj, 0) < 0

    def test_proximity_boundary_counts_as_close(self):
        follower, _ = build_robot_specs(SC)
        pts = [(7.5, 1.0)] * 21
        ys = np.full((21, 2), [9.5, 1.0])  # exactly d_close away in x
        traj = JointTrajectory(state_traj(pts), (ys,))
        assert eval_boolean(follower, traj, 0)
        assert eval_robustness(follower, traj, 0) == pytest.approx(0.0, abs=1e-12)
        ys_far = np.full((21, 2), [9.6, 1.0])
        assert not eval_boolean(follower, JointTrajectory(state_traj(pts), (ys_far,)), 0)

    def test_leader_task_requires_schedule(self):
        _, leader = build_robot_specs(SC)
        # parked at the staging region misses the later goal window
        ys = np.full((21, 2), [1.0, 5.0])
        assert not eval_boolean(leader, leader_joint(ys), 0)


class TestLeaderGeneration:
    def test_every_kept_run_satisfies_task(self):
        ds = gen_robot_leader_dataset(8, seed=3)
        _, leader = build_robot_specs(SC)
        for tr in ds.trajectories:
            assert tr.dims == (2,)
            assert tr.length == SC.horizon
            assert tr.prefix_len == SC.prefix_len
            assert eval_boolean(leader, leader_joint(np.asarray(tr.ys[0])), 0)

    def test_positions_stay_in_workspace_and_reachable(self):
        ds = gen_robot_leader_dataset(8, seed=3)
        for tr in ds.trajectories:
            ys = np.asarray(tr.ys[0])
            assert np.all(ys >= SC.pos_lo - 1e-9)
            assert np.all(ys <= SC.pos_hi + 1e-9)
            # one step moves at most v_max + u_max/2 plus the disturbance
            step = np.abs(np.diff(ys, axis=0)).max()
            assert step <= SC.vel_lim + 0.5 * SC.acc_lim + SC.disturbance + 1e-9

    def test_deterministic_in_seed(self):
        a = gen_robot_leader_dataset(5, seed=12)
        b = gen_robot_leader_dataset(5, seed=12)
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert np.array_equal(ta.ys[0], tb.ys[0])

    def test_zero_disturbance_collapses_to_one_path(self):
        sc = RobotScenario(disturbance=0.0)
        ds = gen_robot_leader_dataset(3, seed=4, scenario=sc)
        ref = np.asarray(ds.trajectories[0].ys[0])
        for tr in ds.trajectories[1:]:
            assert np.allclose(ref, tr.ys[0], atol=1e-12)

    def test_plan_margin_matches_oracle(self):
        """The replay check's fold equals the recursive split margin at every
        step k, on leader rollouts and on one that leaves its first staging
        region mid-hold, where every later k must see -inf."""
        _, leader = build_robot_specs(SC)
        cs = compile_spec(leader)
        runs = [leader_joint(np.asarray(tr.ys[0])).xs for tr in gen_robot_leader_dataset(4, seed=3).trajectories]
        strayed = runs[0].copy()
        strayed[5, 0] = SC.region1[1] + 1.0  # hold window [4,6]
        runs.append(strayed)
        ks = range(SC.horizon + 1)
        got = [[_plan_margin(cs, xs, k) for k in ks] for xs in runs]
        assert got == [[oracle_split_margin(leader, xs, k, 0) for k in ks] for xs in runs]
        assert got[-1][6:] == [-math.inf] * (SC.horizon - 5)
        assert all(math.isfinite(m) for m in got[-1][:6])

    def test_stats_reported(self):
        ds, stats = gen_robot_leader_dataset(5, seed=6, return_stats=True)
        assert stats.kept == 5
        assert stats.checks >= 5 * SC.horizon
        assert stats.discarded >= 0


@pytest.fixture(scope="module")
def small():
    ds = gen_robot_leader_dataset(40, seed=5, sizes=(15, 20, 5))
    train = ds.subset("train")
    pred = mean_path_predictor(train, SC.horizon)
    sigma = compute_normalizers(train, pred, SC.horizon)
    return ds, train, pred, sigma


class TestMeanPathPredictor:
    def test_table_is_training_mean(self, small):
        ds, train, pred, _ = small
        mean = np.mean([tr.ys[0] for tr in train], axis=0)
        for k in (0, 7, 19):
            for tau in range(k + 1, 21):
                assert np.allclose(pred.table.get(k, tau, 0), mean[tau], atol=1e-12)

    def test_predictions_independent_of_query_step(self, small):
        _, _, pred, sigma = small
        assert np.array_equal(pred.table.get(0, 15, 0), pred.table.get(9, 15, 0))
        assert sigma.get(0, 15, 0) == sigma.get(9, 15, 0)

    def test_open_and_closed_scores_coincide(self, small):
        """With k-independent predictions the closed-loop score (max one-step
        normalized error) ranges over exactly the same terms as the open-loop
        score, so the two must agree trajectory by trajectory."""
        ds, _, pred, sigma = small
        r_ol, r_cl = trajectory_scores(ds.subset("cal"), pred, sigma)
        assert np.allclose(r_ol, r_cl, atol=1e-12)

    def test_short_training_rejected(self, small):
        _, train, _, _ = small
        with pytest.raises(ValueError):
            mean_path_predictor(train, SC.horizon + 5)
        with pytest.raises(ValueError):
            mean_path_predictor([], SC.horizon)


class TestFollowerExperiment:
    def test_small_run_reuses_base_plan(self):
        exp = run_follower_experiment(n_runs=8, seed=11, sizes=(15, 30, 10))
        assert len(exp.outcomes) == 8
        assert exp.report is None  # below the floor of the binomial check
        assert exp.base.feasible
        assert exp.radii.finite
        counts = exp.solved_by
        assert counts["reuse"] > counts["dive"] + counts["search"]
        assert sum(exp.outcomes) >= 6  # delta = 0.1, small-sample slack

    def test_test_split_must_cover_requested_runs(self):
        with pytest.raises(ValueError):
            run_follower_experiment(n_runs=50, seed=11, sizes=(15, 30, 10))
