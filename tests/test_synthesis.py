import json
import math

import numpy as np
import pytest

from helpers import atom, oracle_boolean, oracle_robustness, simulate
from stlcp import milp, stl, synthesis
from stlcp.casestudies import (
    RobotScenario,
    TemperatureScenario,
    build_robot_specs,
    build_temperature_spec,
    robot_system,
    temperature_reformulate,
)
from stlcp.casestudies.robot import follower_hint
from stlcp.milp import Solution
from stlcp.synthesis import (
    ControlResult,
    CostSpec,
    GuaranteeReport,
    MilpConsistencyError,
    MixedRow,
    SynthesisError,
    SystemModel,
    TrackingTerm,
    build_step_model,
    evaluate_guarantee,
    run_closed_loop,
    synthesize_open_loop,
    write_trajectory_csv,
)


def integrator(x0=0.0, xlo=-10.0, xhi=10.0, ulo=-1.0, uhi=1.0):
    return SystemModel(
        a=[[1.0]], b=[[1.0]], c=[0.0], x0=[x0],
        state_box=([xlo], [xhi]), input_box=([ulo], [uhi]),
    )


def const_predict(table):
    return lambda k: dict(table)


class TestSystemModel:
    def test_simulate_hand_example(self):
        sys = integrator(x0=1.0)
        xs = simulate(sys, [[0.5], [-0.25]])
        assert np.allclose(xs[:, 0], [1.0, 1.5, 1.25])

    def test_step_is_one_affine_map(self):
        sys = SystemModel(
            a=[[2.0]], b=[[1.0]], c=[3.0], x0=[1.0],
            state_box=([-50.0], [50.0]), input_box=([-1.0], [1.0]),
        )
        assert (sys.a.tolist(), sys.b.tolist(), sys.c.tolist()) == ([[2.0]], [[1.0]], [3.0])
        assert sys.step(np.array([1.0]), np.array([1.0])).tolist() == [6.0]
        assert np.allclose(simulate(sys, [[1.0], [0.0]])[:, 0], [1.0, 6.0, 15.0])
        with pytest.raises(SynthesisError, match="A must be"):  # a per-step sequence is no plant
            SystemModel(a=[[[1.0]], [[2.0]]], b=[[1.0]], c=[0.0], x0=[0.0],
                        state_box=([-1.0], [1.0]), input_box=([-1.0], [1.0]))

    def test_validation_errors(self):
        with pytest.raises(SynthesisError, match="outside the state box"):
            integrator(x0=20.0)
        with pytest.raises(SynthesisError, match="B must be"):
            SystemModel(a=[[1.0]], b=[[1.0], [1.0]], c=[0.0], x0=[0.0],
                        state_box=([-1.0], [1.0]), input_box=([-1.0], [1.0]))
        with pytest.raises(SynthesisError, match="lower bounds exceed"):
            SystemModel(a=[[1.0]], b=[[1.0]], c=[0.0], x0=[0.0],
                        state_box=([1.0], [-1.0]), input_box=([-1.0], [1.0]))
        with pytest.raises(SynthesisError, match="wrong arity"):
            SystemModel(a=[[1.0]], b=[[1.0]], c=[0.0], x0=[0.0],
                        state_box=([-1.0], [1.0]), input_box=([-1.0], [1.0]),
                        mixed_rows=(MixedRow((1.0, 2.0), (1.0,), "<=", 0.0),))

    def test_mixed_row_sense_validated(self):
        with pytest.raises(ValueError, match="sense"):
            MixedRow((1.0,), (1.0,), "<", 0.0)


class TestOpenLoop:
    def test_integrator_ball_example(self):
        # brute force over a u0 grid and a ball grid fixes the threshold
        ys = np.linspace(0.5 - 0.2, 0.5 + 0.2, 401)
        feasible_u = [u for u in np.linspace(-1, 1, 2001) if all(0.0 + u - y >= 0 for y in ys)]
        assert min(feasible_u) == pytest.approx(0.7, abs=2e-3)

        sys = integrator()
        spec = stl.Always(1, 1, atom([1.0], [(-1.0,)], 0.0))
        res = synthesize_open_loop(
            sys, spec, {0: np.array([0.0])}, {(1, 0): np.array([0.5])}, lambda tau, i: 0.2,
        )
        assert res.status == "optimal" and res.feasible
        assert res.us.shape == (1, 1)
        assert res.us[0, 0] >= 0.7 - 1e-9
        assert res.xs[1, 0] == pytest.approx(res.us[0, 0], abs=1e-9)
        assert res.root_value == 1.0

    def test_integrator_forced_down_infeasible(self):
        sys = integrator(ulo=-1.0, uhi=-1.0)  # u0 pinned to -1
        spec = stl.Always(1, 1, atom([1.0], [(-1.0,)], 0.0))
        res = synthesize_open_loop(
            sys, spec, {0: np.array([0.0])}, {(1, 0): np.array([0.5])}, lambda tau, i: 0.2,
        )
        assert res.status == "infeasible"
        assert res.us is None

    def test_unsatisfiable_conjunction_infeasible(self):
        sys = integrator()
        spec = stl.Always(1, 1, stl.And((atom([1.0], [], -1.0), atom([-1.0], [], 0.0))))
        res = synthesize_open_loop(sys, spec, {}, {}, lambda tau, i: 0.0)
        assert res.status == "infeasible"

    def test_zero_radius_quant_bound_equals_realized(self):
        sys = integrator()
        spec = stl.Always(1, 3, atom([1.0], [(-1.0,)], 0.0))
        centers = {(t, 0): np.array([0.1 * t]) for t in range(1, 4)}
        sm = build_step_model(
            sys, spec, 0, {0: sys.x0}, {(0, 0): np.array([0.0])}, centers, lambda tau, i: 0.0,
            mode="quant", cost=CostSpec(kind="max-robustness"),
        )
        sol, _ = synthesis.solve_step(sm)
        assert sol.status == "optimal"
        ys = (np.array([[0.0]] + [[0.1 * t] for t in range(1, 4)]),)
        rho = oracle_robustness(stl.to_pnf(spec), stl.JointTrajectory(sm.plan_states(sol.x), ys), 0)
        root_value = synthesis._root_value(sm, sol)
        assert root_value == pytest.approx(rho, abs=1e-9)
        # |u| <= 1 binds: x1 <= 1, so max-min robustness is x1 - y1 = 0.9
        assert root_value == pytest.approx(0.9, abs=1e-6)
        assert -sol.objective == pytest.approx(0.9, abs=1e-6)

    def test_infinite_radius_reported_as_calibration_insufficient(self):
        sys = integrator()
        spec = stl.Always(1, 1, atom([1.0], [(-1.0,)], 0.0))
        res = synthesize_open_loop(
            sys, spec, {0: np.array([0.0])}, {(1, 0): np.array([0.5])}, lambda tau, i: math.inf,
        )
        assert res.status == "calibration-insufficient"

    def test_missing_prediction_raises(self):
        sys = integrator()
        spec = stl.Always(1, 2, atom([1.0], [(-1.0,)], 0.0))
        with pytest.raises(SynthesisError, match="missing prediction for agent 0 at time 2"):
            synthesize_open_loop(sys, spec, {0: np.array([0.0])}, {(1, 0): np.array([0.5])}, lambda tau, i: 0.2)

    def test_open_loop_sound_on_in_ball_realizations(self):
        rng = np.random.default_rng(424)
        solved = 0
        for _ in range(20):
            sys = integrator(x0=float(rng.uniform(-1, 1)))
            a, b = sorted(rng.integers(1, 4, size=2).tolist())
            spec = stl.Always(a, b, stl.Or((
                atom([1.0], [(-1.0,)], 0.0, name="ge"),
                atom([-1.0], [(1.0,)], 1.5, name="le"),
            )))
            t_phi = stl.horizon(spec)
            centers = {(t, 0): rng.uniform(-2, 2, size=1) for t in range(1, t_phi + 1)}
            radii = {t: float(rng.uniform(0.1, 0.8)) for t in range(1, t_phi + 1)}
            y0 = rng.uniform(-2, 2, size=1)
            res = synthesize_open_loop(sys, spec, {0: y0}, centers, lambda tau, i: radii[tau])
            if res.status != "optimal":
                continue
            solved += 1
            assert np.allclose(simulate(sys, res.us), res.xs, atol=1e-9)
            pnf = stl.to_pnf(spec)
            for _ in range(50):
                y = np.zeros((t_phi + 1, 1))
                y[0] = y0
                for t in range(1, t_phi + 1):
                    y[t] = centers[(t, 0)] + rng.uniform(-1, 1) * radii[t]
                assert oracle_boolean(pnf, stl.JointTrajectory(res.xs, (y,)), 0)
        assert solved >= 8


class TestCosts:
    def test_l1_tracking_hits_target(self):
        sys = integrator()
        spec = stl.Always(1, 1, atom([1.0], [(-1.0,)], 0.0))
        sm = build_step_model(
            sys, spec, 0, {0: sys.x0}, {(0, 0): np.array([0.0])}, {(1, 0): np.array([0.5])}, lambda tau, i: 0.2,
            cost=CostSpec(kind="l1-tracking", tracking=(TrackingTerm(tau=1, dim=0, target=0.9),)),
        )
        sol, _ = synthesis.solve_step(sm)
        assert sol.status == "optimal"
        assert sm.plan_inputs(sol.x)[0][0] == pytest.approx(0.9, abs=1e-7)
        assert sol.objective == pytest.approx(0.0, abs=1e-7)

    def test_cost_validation(self):
        for kind in ("quadratic", "input-l1"):
            with pytest.raises(ValueError, match="unknown cost kind"):
                CostSpec(kind=kind)
        with pytest.raises(ValueError, match="tracking terms"):
            CostSpec(kind="zero", tracking=(TrackingTerm(1, 0, 0.0),))
        sys = integrator()
        spec = stl.Always(1, 1, atom([1.0], [], 0.0))
        with pytest.raises(SynthesisError, match="quantitative mode"):
            build_step_model(sys, spec, 0, {0: sys.x0}, {}, {}, lambda tau, i: 0.0,
                             cost=CostSpec(kind="max-robustness"))


class TestClosedLoop:
    def test_equals_open_loop_under_perfect_predictions(self):
        sys = integrator()
        spec = stl.Always(1, 4, atom([1.0], [(-1.0,)], 0.0))
        y_true = np.array([[0.0], [0.3], [0.1], [0.4], [0.2]])
        preds = {(t, 0): y_true[t] for t in range(1, 5)}
        open_res = synthesize_open_loop(sys, spec, {0: y_true[0]}, preds, lambda tau, i: 0.0)
        assert open_res.status == "optimal"
        closed = run_closed_loop(
            sys, spec, (y_true,),
            lambda k: {(t, 0): y_true[t] for t in range(k + 1, 5)},
            lambda k, tau, i: 0.0,
        )
        assert closed.status == "optimal"
        assert np.array_equal(closed.us, open_res.us)
        assert closed.satisfied is True
        assert closed.realized_robustness >= 0.0
        assert [r.solved_by for r in closed.records] == ["search", "reuse", "reuse", "reuse"]

    def test_dynamics_consistency_on_closed_loop_runs(self):
        rng = np.random.default_rng(77)
        done = 0
        for _ in range(12):
            sys = integrator(x0=float(rng.uniform(-0.5, 0.5)))
            spec = stl.Always(1, 4, stl.Or((
                atom([1.0], [(-1.0,)], 0.0),
                atom([-1.0], [(1.0,)], 2.0),
            )))
            y_true = np.cumsum(rng.uniform(-0.3, 0.3, size=(5, 1)), axis=0)
            res = run_closed_loop(
                sys, spec, (y_true,),
                lambda k: {(t, 0): y_true[min(k, t - 1)] for t in range(k + 1, 5)},
                lambda k, tau, i: 0.6 + 0.2 * (tau - k),
            )
            if res.status != "optimal":
                continue
            done += 1
            assert np.allclose(simulate(sys, res.us), res.xs, atol=1e-9)
        assert done >= 8

    def test_abort_on_midrun_infeasibility_keeps_partial_trace(self):
        # the agent jump at t = 2 only becomes visible once observed, at which
        # point the folded past atom is False and the step model infeasible
        sys = integrator(xlo=-1.0, xhi=1.0)
        spec = stl.Always(1, 3, atom([1.0], [(-1.0,)], 0.0))
        y_true = np.array([[0.0], [0.0], [5.0], [5.0]])
        res = run_closed_loop(
            sys, spec, (y_true,),
            lambda k: {(t, 0): np.array([0.0]) for t in range(k + 1, 4)},  # blind predictor
            lambda k, tau, i: 0.0,
        )
        assert res.status == "infeasible"
        assert res.satisfied is False
        assert len(res.records) == 3 and res.records[-1].status == "infeasible"
        assert res.records[-1].u is None
        assert res.records[0].status == "optimal" and res.records[1].status == "optimal"
        assert res.xs.shape == (3, 1) and res.us.shape == (2, 1)

    def test_aborted_run_trims_playback_to_horizon(self):
        # same abort as above, with a playback that runs past the horizon:
        # an aborted run reports ys through t_phi, as a completed run does
        sys = integrator(xlo=-1.0, xhi=1.0)
        spec = stl.Always(1, 3, atom([1.0], [(-1.0,)], 0.0))
        y_true = np.array([[0.0], [0.0], [5.0], [5.0], [5.0], [5.0]])
        res = run_closed_loop(
            sys, spec, (y_true,),
            lambda k: {(t, 0): np.array([0.0]) for t in range(k + 1, 4)},
            lambda k, tau, i: 0.0,
        )
        assert res.status == "infeasible" and len(res.records) == 3
        assert len(res.ys) == 1 and np.array_equal(res.ys[0], y_true[:4])

    def test_disturbance_replan_uses_observed_agent(self):
        # agent follows the zero prediction until a jump at t = 4; the k = 4
        # re-solve must fold the observed value and drop the past binaries
        sys = integrator(xlo=-5.0, xhi=5.0)
        spec = stl.Always(0, 5, stl.Or((
            atom([1.0], [(-1.0,)], 0.0, name="ahead"),
            atom([-1.0], [(1.0,)], -2.0, name="far_behind"),
        )))
        y_true = np.zeros((6, 1))
        y_true[4, 0] = 0.9  # inside the radius-1 ball, so the guarantee holds
        res = run_closed_loop(
            sys, spec, (y_true,),
            lambda k: {(t, 0): np.array([0.0]) for t in range(k + 1, 6)},  # blind to the jump
            lambda k, tau, i: 1.0,
        )
        assert res.status == "optimal"
        assert res.records[4].y["0"] == [0.9]
        assert res.records[4].n_binaries < res.records[3].n_binaries
        assert np.allclose(simulate(sys, res.us), res.xs, atol=1e-9)
        traj = stl.JointTrajectory(res.xs, (y_true,))
        assert res.satisfied == oracle_boolean(stl.to_pnf(spec), traj, 0)

    def test_shrinking_horizon_strictly_fewer_binaries(self):
        sys = integrator()
        spec = stl.Always(0, 5, stl.Or((
            atom([1.0], [(-1.0,)], 3.0),
            atom([1.0], [(1.0,)], 3.0),
        )))
        y_true = 0.1 * np.arange(6).reshape(-1, 1)
        res = run_closed_loop(
            sys, spec, (y_true,),
            lambda k: {(t, 0): y_true[t] for t in range(k + 1, 6)},
            lambda k, tau, i: 0.5,
        )
        assert res.status == "optimal"
        counts = [r.n_binaries for r in res.records]
        assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_process_noise_triggers_replan_dives(self):
        # the plant is deterministic, so moving predictions stand in for the
        # noise this test once injected: the agent drifts up 0.1 per step and
        # each step predicts it stays where it was last seen.  The previous
        # plan keeps x one EPS_ROBUST above the old ball, so its robustness
        # turns negative and reuse fails, while a dive on the same branch
        # (x >= y) lifts the plan back above the moved ball
        sys = integrator()
        spec = stl.Always(1, 4, stl.Or((
            atom([1.0], [(-1.0,)], 0.0),
            atom([-1.0], [(1.0,)], -2.0),
        )))
        y_true = 0.1 * np.arange(5).reshape(-1, 1)
        res = run_closed_loop(
            sys, spec, (y_true,),
            lambda k: {(t, 0): y_true[k] for t in range(k + 1, 5)},
            lambda k, tau, i: 0.3,
            mode="quant",
        )
        assert res.status == "optimal"
        kinds = [r.solved_by for r in res.records]
        assert kinds[0] == "search"
        assert "dive" in kinds[1:]  # moved predictions broke exact plan reuse
        assert "search" not in kinds[1:]

    def test_monotone_conservatism(self):
        rng = np.random.default_rng(99)
        found = 0
        for _ in range(40):
            sys = integrator(x0=float(rng.uniform(-1, 1)))
            spec = stl.Always(1, 3, atom([1.0], [(-1.0,)], float(rng.uniform(-1, 0))))
            centers = {(t, 0): rng.uniform(-3, 3, size=1) for t in range(1, 4)}
            base = float(rng.uniform(0.1, 2.0))
            statuses = []
            for scale in (1.0, 1.5, 10.0):
                res = synthesize_open_loop(
                    sys, spec, {0: np.array([0.0])}, centers, lambda tau, i, s=scale: base * s,
                )
                statuses.append(res.status)
            if statuses[0] != "optimal":
                found += 1
                assert statuses[1] != "optimal" and statuses[2] != "optimal"
        assert found >= 5

    def test_node_limited_step_without_a_plan_aborts(self, monkeypatch):
        # the zero-cost search stops at its first incumbent, so a search cut
        # by the node limit holds none: a one-node search ends at the root
        # without a plan and the run aborts
        sys = integrator(xlo=-3.0, xhi=3.0)
        spec = stl.Always(2, 3, stl.Or((atom([1.0], [(-1.0,)], -1.0), atom([-1.0], [(1.0,)], -1.0))))
        y = np.zeros((4, 1))

        def run():
            return run_closed_loop(
                sys, spec, (y,), lambda k: {(t, 0): y[t] for t in range(k + 1, 4)}, lambda k, tau, i: 0.0,
            )

        full = run()
        assert full.status == "optimal" and full.satisfied is True
        assert [(r.objective, r.gap) for r in full.records] == [(0.0, 0.0)] * 3
        monkeypatch.setattr(milp, "NODE_LIMIT", 1)
        aborted = run()
        assert aborted.status == "limit" and len(aborted.records) == 1
        first = aborted.records[0]
        assert (first.status, first.solved_by) == ("limit", "search")
        assert first.u is None and first.gap is None and first.objective is None
        assert aborted.us.shape == (0, 1) and aborted.xs.tolist() == [[0.0]]

    def test_failed_dive_is_solved_once(self, monkeypatch):
        # x2 = 1 misses the strict atom, so the step-0 dive fails and the
        # search must not re-solve the same fixed-binary LP as its hint
        solved = []  # per step, the binary fixings of every LP solved
        real = milp._solve_fixed
        monkeypatch.setattr(milp, "_solve_fixed", lambda arr, fixed: solved[-1].append(dict(fixed)) or real(arr, fixed))
        sys = integrator(xlo=-3.0, xhi=3.0)
        spec = stl.Always(2, 3, stl.Or((atom([1.0], [(-1.0,)], -1.0), atom([-1.0], [(1.0,)], -1.0))))
        y = np.zeros((4, 1))

        def predict(k):
            solved.append([])
            return {(t, 0): y[t] for t in range(k + 1, 4)}

        res = run_closed_loop(
            sys, spec, (y,), predict, lambda k, tau, i: 0.0,
            hint_xs=np.array([[0.0], [1.0], [1.0], [1.0]]),
            hint_us={0: np.array([1.0]), 1: np.array([0.0]), 2: np.array([0.0])},
        )
        assert res.status == "optimal" and res.records[0].solved_by == "search"
        assert solved[0] and all(solved[0])  # the step-0 dive was tried
        for k, fixings in enumerate(solved):
            assert all(a != b for i, a in enumerate(fixings) for b in fixings[:i]), f"step {k}"

    @pytest.mark.parametrize("bound", [0.5, 5.0])  # x1 >= 0.5 is reachable, x1 >= 5 is not
    @pytest.mark.parametrize("cost", ["zero", "l1-tracking"])
    def test_model_without_binaries_is_solved_once(self, monkeypatch, bound, cost):
        solved = []
        real = milp._solve_fixed
        monkeypatch.setattr(milp, "_solve_fixed", lambda arr, fixed: solved.append(dict(fixed)) or real(arr, fixed))
        sys = integrator()
        tracking = (TrackingTerm(1, 0, 0.0),) if cost == "l1-tracking" else ()
        sm = build_step_model(sys, stl.Always(1, 1, atom([1.0], [], -bound)), 0, {0: sys.x0}, {}, {},
                              lambda tau, i: 0.0, cost=CostSpec(cost, tracking))
        assert sm.model.binary_ids() == []
        sol, solved_by = synthesis.solve_step(sm, np.array([[0.0], [1.0]]))  # hinted, but nothing to dive on
        assert (sol.status, solved_by) == ("optimal" if bound < 1.0 else "infeasible", "search")
        assert solved == [{}]

    def test_reuse_accepts_a_plan_within_the_model_tolerance(self):
        # the hinted plan misses its dynamics row by 1e-6: above the absolute
        # FEASIBILITY_TOL, inside the model's feasibility_tol() (max |rhs| is
        # about 50), which dives and searches are held to as well
        sys = integrator(x0=50.0, xlo=-100.0, xhi=100.0)
        sm = build_step_model(sys, stl.Always(1, 1, atom([1.0], [], -40.0)), 0, {0: sys.x0}, {}, {},
                              lambda tau, i: 0.0)
        hint_xs, hint_us = np.array([[50.0], [50.5 + 1e-6]]), {0: np.array([0.5])}
        vec = sm.candidate_solution(hint_xs, hint_us)
        assert milp.FEASIBILITY_TOL < 1e-6 < sm.model.feasibility_tol()
        assert sm.model.check_solution(vec) and not sm.model.check_solution(vec, sm.model.feasibility_tol())
        sol, solved_by = synthesis.solve_step(sm, hint_xs, hint_us)
        assert (sol.status, solved_by) == ("optimal", "reuse")
        assert np.array_equal(sol.x, vec)

    def test_closed_loop_applies_a_reused_plan_within_the_model_tolerance(self):
        # the same hinted plan, end to end: step 0 reuses it and the closed
        # loop's dynamics check holds it to the same tolerance, so the run
        # completes on the simulated state rather than raising
        sys = integrator(x0=50.0, xlo=-100.0, xhi=100.0)
        res = run_closed_loop(
            sys, stl.Always(1, 1, atom([1.0], [], -40.0)), (), lambda k: {}, lambda k, tau, i: 0.0,
            hint_xs=np.array([[50.0], [50.5 + 1e-6]]), hint_us={0: np.array([0.5])},
        )
        assert res.status == "optimal" and res.satisfied
        assert [r.solved_by for r in res.records] == ["reuse"]
        assert res.us.tolist() == [[0.5]] and res.xs.tolist() == [[50.0], [50.5]]

    def test_playback_too_short_raises(self):
        sys = integrator()
        spec = stl.Always(1, 3, atom([1.0], [(-1.0,)], 0.0))
        with pytest.raises(SynthesisError, match="shorter than horizon"):
            run_closed_loop(sys, spec, (np.zeros((2, 1)),), lambda k: {}, lambda k, tau, i: 0.0)

    def test_input_recovery_passthrough(self):
        sys = SystemModel(
            a=[[1.0]], b=[[2.0]], c=[0.0], x0=[0.0],
            state_box=([-10.0], [10.0]), input_box=([-1.0], [1.0]),
            input_recover=lambda x, w: np.array([w[0] / 2.0]),
        )
        spec = stl.Always(1, 1, atom([1.0], [], -1.0))  # x1 >= 1
        res = synthesize_open_loop(sys, spec, {}, {}, lambda tau, i: 0.0)
        assert res.status == "optimal"
        assert np.allclose(res.recovered_us, res.us / 2.0)

    def test_step_log_and_csv_artifacts(self, tmp_path):
        sys = integrator()
        spec = stl.Always(1, 3, atom([1.0], [(-1.0,)], 0.0))
        y_true = 0.05 * np.arange(4).reshape(-1, 1)
        log = tmp_path / "steps.jsonl"
        res = run_closed_loop(
            sys, spec, (y_true,),
            lambda k: {(t, 0): y_true[t] for t in range(k + 1, 4)},
            lambda k, tau, i: 0.1,
            log_path=str(log),
        )
        assert res.status == "optimal"
        lines = log.read_text().strip().split("\n")
        assert len(lines) == 3
        rec = json.loads(lines[0])
        assert rec["k"] == 0 and rec["status"] == "optimal"
        assert set(rec) >= {"k", "x", "y", "radii", "status", "objective", "u"}
        assert rec["radii"]["1,0"] == 0.1

        csv1 = tmp_path / "a.csv"
        csv2 = tmp_path / "b.csv"
        write_trajectory_csv(str(csv1), res.xs, res.us, res.ys)
        write_trajectory_csv(str(csv2), res.xs, res.us, res.ys)
        assert csv1.read_bytes() == csv2.read_bytes()
        head = csv1.read_text().split("\n")[0]
        assert head == "k,x0,u0,y0_0"


class TestPlanCheck:
    """Dive and search plans are checked against their step model before
    they are applied, as reused plans are."""

    @pytest.mark.parametrize("solver", ["dive_solve", "solve_bb"])
    def test_perturbed_plan_raises(self, monkeypatch, solver):
        real = getattr(synthesis, solver)

        def perturbed(model, *args, **kw):
            sol = real(model, *args, **kw)
            x = sol.x.copy()
            x[0] += 0.5  # the first planned state leaves its dynamics row
            return Solution(sol.status, x, sol.objective, sol.iterations, sol.nodes)

        monkeypatch.setattr(synthesis, solver, perturbed)
        sys = integrator()
        spec = stl.Always(0, 3, stl.Or((atom([1.0], [(-1.0,)], 3.0), atom([1.0], [(1.0,)], 3.0))))
        y = np.zeros((4, 1))
        source = "dive" if solver == "dive_solve" else "search"
        # states without inputs: step 0 dives on them, and reuse is not tried
        hint_xs = np.zeros((4, 1)) if solver == "dive_solve" else None
        with pytest.raises(MilpConsistencyError, match=rf"{source} plan at step 0 violates row dyn"):
            run_closed_loop(sys, spec, (y,), lambda k: {(t, 0): y[t] for t in range(k + 1, 4)},
                            lambda k, tau, i: 0.1, hint_xs=hint_xs)

    def test_node_limited_search_returns_its_checked_incumbent(self, monkeypatch):
        # tracking x = 0 at tau = 2, 3 against |x - y| >= 1 there: the
        # relaxation costs 0 on fractional binaries, so a three-node search
        # stops at the limit holding a plan its plunge found
        sys = integrator(xlo=-3.0, xhi=3.0)
        spec = stl.Always(2, 3, stl.Or((atom([1.0], [(-1.0,)], -1.0), atom([-1.0], [(1.0,)], -1.0))))
        cost = CostSpec("l1-tracking", (TrackingTerm(2, 0, 0.0), TrackingTerm(3, 0, 0.0)))

        def solve():
            sm = build_step_model(sys, spec, 0, {0: sys.x0}, {(0, 0): np.zeros(1)},
                                  {(t, 0): np.zeros(1) for t in range(1, 4)}, lambda tau, i: 0.0, cost=cost)
            return sm, synthesis.solve_step(sm)

        _, (full, _) = solve()
        monkeypatch.setattr(milp, "NODE_LIMIT", 3)
        sm, (capped, solved_by) = solve()
        assert (capped.status, solved_by, capped.nodes) == ("limit", "search", 3)
        assert not sm.model.check_solution(capped.x, sm.model.feasibility_tol())
        # |x2| = |x3| = 1 + EPS is optimal; the unsolved sibling bounds 0
        assert (full.status, full.gap, full.objective) == ("optimal", 0.0, pytest.approx(2.0, abs=1e-5))
        assert capped.objective == pytest.approx(full.objective, abs=1e-9)
        assert capped.gap == pytest.approx(2.0, abs=1e-5)

    def test_perturbed_open_loop_plan_raises(self, monkeypatch):
        real = synthesis.solve_bb

        def perturbed(model, **kw):
            sol = real(model, **kw)
            return Solution(sol.status, sol.x + 0.5, sol.objective, sol.iterations, sol.nodes)

        monkeypatch.setattr(synthesis, "solve_bb", perturbed)
        spec = stl.Always(1, 1, atom([1.0], [(-1.0,)], 0.0))
        with pytest.raises(MilpConsistencyError, match="search plan at step 0 violates"):
            synthesize_open_loop(integrator(), spec, {0: np.array([0.0])}, {(1, 0): np.array([0.5])},
                                 lambda tau, i: 0.2)


def model_size(sm):
    return sm.model.n_vars, len(sm.model.rows), len(sm.model.binary_ids())


class TestStepModelStructure:
    """Step-0 model sizes of the two case studies.  The qualitative ones
    are those bench/README.md records; the quantitative follower's are
    those of the one-sided gate encoding."""

    def robot_step0(self, **kw):
        sc = RobotScenario()
        lead = follower_hint(sc)[:, [0, 2]] + 0.3
        return build_step_model(
            robot_system(sc), build_robot_specs(sc)[0], 0, {0: np.array(sc.x0)}, {(0, 0): lead[0]},
            {(tau, 0): lead[tau] for tau in range(1, sc.horizon + 1)}, lambda tau, i: 0.5, **kw,
        )

    def test_qual_follower(self):
        assert model_size(self.robot_step0()) == (363, 497, 243)

    def test_quant_follower(self):
        sm = self.robot_step0(mode="quant", cost=CostSpec("max-robustness"))
        assert model_size(sm) == (494, 616, 243)

    def test_temperature(self):
        sc = TemperatureScenario()
        spec = build_temperature_spec(sc.horizon, sc.comfort_gap)
        t_phi = stl.horizon(spec)
        sm = build_step_model(
            temperature_reformulate(sc), spec, 0, {0: np.array([sc.x0])},
            {(0, 0): np.array([20.0]), (0, 1): np.array([24.0])},
            {(tau, i): np.array([21.0 + i]) for tau in range(1, t_phi + 1) for i in range(2)},
            lambda tau, i: 1.5,
        )
        assert model_size(sm) == (66, 156, 38)

    def test_closed_loop_compiles_spec_once_per_run(self, monkeypatch):
        calls = []
        real = synthesis.compile_spec
        monkeypatch.setattr(synthesis, "compile_spec", lambda f: calls.append(f) or real(f))
        sys = integrator()
        spec = stl.Always(0, 5, stl.Or((atom([1.0], [(-1.0,)], 3.0), atom([1.0], [(1.0,)], 3.0))))
        y_true = 0.1 * np.arange(6).reshape(-1, 1)
        res = run_closed_loop(
            sys, spec, (y_true,), lambda k: {(t, 0): y_true[t] for t in range(k + 1, 6)},
            lambda k, tau, i: 0.5,
        )
        assert res.status == "optimal" and len(res.records) == 5
        assert len(calls) == 1
        # a plain formula passed straight to build_step_model is compiled on entry
        build_step_model(sys, spec, 0, {0: sys.x0}, {(0, 0): y_true[0]},
                         {(t, 0): y_true[t] for t in range(1, 6)}, lambda tau, i: 0.5)
        assert len(calls) == 2


class TestGuarantee:
    def test_rate_086_at_500_passes(self):
        outcomes = [True] * 430 + [False] * 70
        rep = evaluate_guarantee(outcomes, delta=0.15)
        assert rep.rate == pytest.approx(0.86)
        assert rep.lower_bound == pytest.approx(0.8268, abs=5e-4)
        assert rep.target == pytest.approx(0.80)
        assert rep.passed and "PASS" in rep.line()

    def test_rate_080_at_500_fails(self):
        outcomes = [True] * 400 + [False] * 100
        rep = evaluate_guarantee(outcomes, delta=0.15)
        assert rep.lower_bound == pytest.approx(0.7626, abs=5e-4)
        assert not rep.passed and "FAIL" in rep.line()

    def test_all_satisfied_passes(self):
        rep = evaluate_guarantee([True] * 120, delta=0.15)
        assert rep.rate == 1.0 and rep.passed

    def test_needs_at_least_100_runs(self):
        with pytest.raises(ValueError, match="at least 100"):
            evaluate_guarantee([True] * 99, delta=0.1)

    def test_delta_validated(self):
        with pytest.raises(ValueError, match="delta"):
            evaluate_guarantee([True] * 100, delta=0.0)
