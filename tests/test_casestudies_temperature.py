"""Hall temperature scenario: plant reformulation, room process, comfort task."""

import numpy as np
import pytest

from helpers import simulate_temperature, temperature_step
from stlcp.casestudies import (
    TemperatureScenario,
    build_temperature_spec,
    gen_temperature_dataset,
    temperature_reformulate,
)
from stlcp.stl import JointTrajectory, Not, eval_boolean, horizon


SC = TemperatureScenario()


class TestScenarioConstants:
    def test_plant_values(self):
        assert SC.tau_s == 2.0
        assert SC.t_heater == 55.0
        assert SC.t_outside == 5.0
        assert SC.alpha_e == 0.06
        assert SC.alpha_h == 0.08
        assert SC.x0 == 5.0
        assert (SC.temp_lo, SC.temp_hi) == (0.0, 45.0)
        assert (SC.u_lo, SC.u_hi) == (0.0, 1.0)
        assert SC.delta == 0.15
        assert SC.horizon == 12
        assert SC.comfort_gap == 5.0
        assert SC.t_phi == 14

    def test_heater_must_dominate_state_box(self):
        with pytest.raises(ValueError):
            TemperatureScenario(t_heater=40.0)

    def test_pref_range_validated(self):
        with pytest.raises(ValueError):
            TemperatureScenario(pref_lo=30.0, pref_hi=15.0)


class TestPlant:
    def test_first_step_full_heat(self):
        # x1 = 0.88*5 + 2*0.08*(55-5)*1 + 0.6 = 13, a value small enough to
        # confirm by hand
        assert temperature_step(SC, 5.0, 1.0) == pytest.approx(13.0, abs=1e-12)

    def test_ambient_is_a_fixed_point(self):
        # x0 equals the outside temperature, so with the heater off nothing moves
        xs = simulate_temperature(SC, np.zeros(10))
        assert np.allclose(xs, 5.0, atol=1e-12)

    def test_substitution_matches_bilinear_step(self):
        sys = temperature_reformulate(SC)
        x1 = sys.step(np.array([5.0]), np.array([(SC.t_heater - 5.0) * 1.0]))
        assert float(x1[0]) == pytest.approx(13.0, abs=1e-12)

    def test_dual_simulation_agrees(self):
        """Rolling the bilinear plant forward and simulating the substituted
        linear system with w = (T_h - x) u must match to solver precision."""
        sys = temperature_reformulate(SC)
        rng = np.random.default_rng(42)
        for _ in range(25):
            us = rng.uniform(SC.u_lo, SC.u_hi, size=12)
            direct = simulate_temperature(SC, us)
            x = np.array([SC.x0])
            for u in us:
                w = (SC.t_heater - x[-1]) * u
                x = np.append(x, sys.step(x[-1:], np.array([w])))
            assert np.max(np.abs(direct - x)) < 1e-9

    def test_input_recovery_inverts_substitution(self):
        sys = temperature_reformulate(SC)
        rng = np.random.default_rng(7)
        x = np.array([SC.x0])
        for _ in range(10):
            u = rng.uniform(0.0, 1.0)
            w = np.array([(SC.t_heater - float(x[0])) * u])
            back = sys.input_recover(x, w)
            assert float(back[0]) == pytest.approx(u, abs=1e-12)
            x = sys.step(x, w)

    def test_valve_row_encodes_w_limit(self):
        # w <= 55 - x written as x + w <= 55
        sys = temperature_reformulate(SC)
        row = sys.mixed_rows[0]
        assert row.sense == "<="
        assert row.rhs == 55.0
        assert tuple(row.coeff_x) == (1.0,)
        assert tuple(row.coeff_u) == (1.0,)


class TestRoomProcess:
    def test_dataset_deterministic_in_seed(self):
        a = gen_temperature_dataset(24, seed=9)
        b = gen_temperature_dataset(24, seed=9)
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert all(np.array_equal(x, y) for x, y in zip(ta.ys, tb.ys))
            assert all(np.array_equal(x, y) for x, y in zip(ta.prefix, tb.prefix))
        c = gen_temperature_dataset(24, seed=10)
        assert any(
            not np.array_equal(ta.ys[0], tc.ys[0]) for ta, tc in zip(a.trajectories, c.trajectories)
        )

    def test_dataset_shapes_and_ranges(self):
        ds = gen_temperature_dataset(40, seed=1)
        assert ds.counts() == {"train": 10, "cal": 10, "test": 20}
        assert ds.dt == SC.tau_s
        for tr in ds.trajectories:
            assert tr.n_agents == 2
            assert tr.dims == (1, 1)
            assert tr.length == SC.t_phi
            assert tr.prefix_len == SC.prefix_len
            for i in range(2):
                assert np.all(tr.ys[i] >= SC.pref_lo - 1.0 - 1e-9)
                assert np.all(tr.ys[i] <= SC.pref_hi + 1.0 + 1e-9)

    def test_rooms_share_a_base_preference(self):
        # both rooms track one per-trajectory base, so their gap stays well
        # under what independent draws from the full range would produce
        ds = gen_temperature_dataset(60, seed=2)
        gaps = [float(np.max(np.abs(tr.ys[0] - tr.ys[1]))) for tr in ds.trajectories]
        assert max(gaps) <= 2 * SC.room_spread + 2 * SC.event_jump + 2.0


class TestComfortSpec:
    def test_horizon(self):
        assert horizon(build_temperature_spec()) == 14

    def test_positive_normal_form(self):
        def no_not(f):
            assert not isinstance(f, Not)
            for attr in ("children", "child", "left", "right"):
                sub = getattr(f, attr, None)
                if sub is None:
                    continue
                for g in sub if isinstance(sub, tuple) else (sub,):
                    no_not(g)

        no_not(build_temperature_spec())

    def _traj(self, x, y1, y2):
        n = SC.t_phi + 1
        xs = np.full((n, 1), float(x)) if np.isscalar(x) else np.asarray(x, float).reshape(n, 1)
        ys = []
        for y in (y1, y2):
            ys.append(np.full((n, 1), float(y)) if np.isscalar(y) else np.asarray(y, float).reshape(n, 1))
        return JointTrajectory(xs, tuple(ys))

    def test_tracking_both_rooms_satisfies(self):
        spec = build_temperature_spec()
        assert eval_boolean(spec, self._traj(20.0, 21.0, 19.0), 0)

    def test_permanent_escape_violates(self):
        spec = build_temperature_spec()
        assert not eval_boolean(spec, self._traj(20.0, 28.0, 20.0), 0)

    def test_escape_with_quick_recovery_satisfies(self):
        spec = build_temperature_spec()
        y1 = np.full(SC.t_phi + 1, 20.0)
        y1[5] = 27.0  # one-step excursion of room 2, back within the 2-step window
        assert eval_boolean(spec, self._traj(20.0, y1, 20.0), 0)

    def test_recovery_too_late_violates(self):
        spec = build_temperature_spec()
        y1 = np.full(SC.t_phi + 1, 20.0)
        y1[5:9] = 27.0  # four steps out of range, recovery window is three
        assert not eval_boolean(spec, self._traj(20.0, y1, 20.0), 0)
