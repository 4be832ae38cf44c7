import itertools

import numpy as np
import pytest

from helpers import brute_force_solve, oracle_solve_bb, solve_lp
from stlcp import milp, synthesis
from stlcp.casestudies import (
    TemperatureScenario,
    build_temperature_spec,
    gen_temperature_dataset,
    temperature_reformulate,
)
from stlcp.conformal import calibrate, compute_normalizers
from stlcp.milp import (
    MilpModel,
    _Arrays,
    _LP,
    _propagate,
    _solve_fixed,
    dive_solve,
    solve_bb,
    write_lp,
)
from stlcp.prediction import fit_predictor, prediction_table

scipy_opt = pytest.importorskip("scipy.optimize")


def scipy_solve(model: MilpModel):
    c, A, eq, b, lb, ub = model.arrays()
    kw = {}
    if np.any(~eq):
        kw["A_ub"], kw["b_ub"] = A[~eq], b[~eq]
    if np.any(eq):
        kw["A_eq"], kw["b_eq"] = A[eq], b[eq]
    res = scipy_opt.linprog(c, bounds=list(zip(lb, ub)), method="highs", **kw)
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "other")
    return status, (res.fun if status == "optimal" else None)


def random_lp(rng: np.random.Generator) -> MilpModel:
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 9))
    model = MilpModel("rand-lp")
    x0 = np.empty(n)
    for j in range(n):
        lo = float(rng.uniform(-5.0, 0.0))
        hi = lo + float(rng.uniform(0.5, 6.0))
        model.add_continuous(f"x{j}", lo, hi)
        x0[j] = rng.uniform(lo, hi)
    for _ in range(m):
        k = int(rng.integers(1, min(n, 4) + 1))
        vs = rng.choice(n, size=k, replace=False)
        coeffs = {int(v): float(rng.normal()) for v in vs}
        sense = str(rng.choice(["<=", ">=", "="], p=[0.45, 0.45, 0.1]))
        if rng.random() < 0.5:
            # anchor at an interior point so a decent share of cases is feasible
            at = sum(c * x0[v] for v, c in coeffs.items())
            pad = float(rng.uniform(0.0, 2.0))
            rhs = at + pad if sense == "<=" else at - pad if sense == ">=" else at
        else:
            rhs = float(rng.normal() * 2.0)
        model.add_constraint(coeffs, sense, rhs)
    model.set_objective({j: float(rng.normal()) for j in range(n)})
    return model


def random_milp(rng: np.random.Generator, n_bin: int) -> MilpModel:
    """Random MILP that is feasible by construction (rows anchored at a
    random mixed point inside the box)."""
    model = MilpModel("rand-milp")
    n_cont = int(rng.integers(1, 4))
    x0 = []
    for j in range(n_cont):
        lo = float(rng.uniform(-4.0, 0.0))
        hi = lo + float(rng.uniform(1.0, 5.0))
        model.add_continuous(f"x{j}", lo, hi)
        x0.append(float(rng.uniform(lo, hi)))
    for j in range(n_bin):
        model.add_binary(f"z{j}")
        x0.append(float(rng.integers(0, 2)))
    n = n_cont + n_bin
    for _ in range(int(rng.integers(2, 7))):
        k = int(rng.integers(1, min(n, 5) + 1))
        vs = rng.choice(n, size=k, replace=False)
        coeffs = {int(v): float(rng.normal()) for v in vs}
        at_x0 = sum(c * x0[v] for v, c in coeffs.items())
        if rng.random() < 0.5:
            model.add_constraint(coeffs, "<=", at_x0 + float(rng.uniform(0.0, 3.0)))
        else:
            model.add_constraint(coeffs, ">=", at_x0 - float(rng.uniform(0.0, 3.0)))
    model.set_objective({j: float(rng.normal()) for j in range(n)})
    return model


class TestLpCore:
    def test_hand_example(self):
        # max x + 2y  s.t. x + y <= 4, y <= 2  ->  (2, 2)
        m = MilpModel()
        x = m.add_continuous("x", 0, 10)
        y = m.add_continuous("y", 0, 10)
        m.add_constraint({x: 1, y: 1}, "<=", 4)
        m.add_constraint({y: 1}, "<=", 2)
        m.set_objective({x: -1, y: -2})
        sol = solve_lp(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-6.0, abs=1e-9)
        assert sol.x[x] == pytest.approx(2.0, abs=1e-9)

    def test_equality_needs_phase_one(self):
        m = MilpModel()
        x = m.add_continuous("x", 0, 5)
        y = m.add_continuous("y", 0, 5)
        m.add_constraint({x: 1, y: 1}, "=", 3)
        m.set_objective({x: 1, y: 2})
        sol = solve_lp(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.x[x] == pytest.approx(3.0, abs=1e-9)

    def test_pure_bounds_no_rows(self):
        m = MilpModel()
        x = m.add_continuous("x", -2, 7)
        y = m.add_continuous("y", -3, 1)
        m.set_objective({x: -1, y: 2})
        sol = solve_lp(m)
        assert sol.status == "optimal"
        assert sol.x[x] == 7.0 and sol.x[y] == -3.0

    def test_infeasible(self):
        m = MilpModel()
        x = m.add_continuous("x", 0, 1)
        m.add_constraint({x: 1}, ">=", 2)
        assert solve_lp(m).status == "infeasible"

    def test_unbounded(self):
        m = MilpModel()
        x = m.add_continuous("x", 0, np.inf)
        m.set_objective({x: -1})
        assert solve_lp(m).status == "unbounded"

    def test_objective_constant(self):
        m = MilpModel()
        x = m.add_continuous("x", 0, 1)
        m.set_objective({x: 1}, const=5.0)
        assert solve_lp(m).objective == pytest.approx(5.0)

    def test_fixed_variable_respected(self):
        m = MilpModel()
        x = m.add_continuous("x", 4.0, 4.0)
        y = m.add_continuous("y", 0, 10)
        m.add_constraint({x: 1, y: 1}, "<=", 6)
        m.set_objective({y: -1})
        sol = solve_lp(m)
        assert sol.x[x] == pytest.approx(4.0)
        assert sol.x[y] == pytest.approx(2.0, abs=1e-9)

    def test_matches_scipy_on_random_lps(self):
        rng = np.random.default_rng(20240517)
        n_optimal = 0
        for _ in range(120):
            model = random_lp(rng)
            ours = solve_lp(model)
            ref_status, ref_obj = scipy_solve(model)
            assert ours.status == ref_status, write_lp(model)
            if ref_status == "optimal":
                n_optimal += 1
                assert ours.objective == pytest.approx(ref_obj, abs=1e-6 * (1 + abs(ref_obj)))
                assert model.check_solution(ours.x) == []
        assert n_optimal > 40  # generator should not be degenerate

    def test_degenerate_rows_do_not_cycle(self):
        # many redundant rows through one vertex
        m = MilpModel()
        ids = [m.add_continuous(f"x{j}", 0, 1) for j in range(4)]
        for a in range(4):
            for bidx in range(a + 1, 4):
                m.add_constraint({ids[a]: 1, ids[bidx]: 1}, "<=", 1)
        m.set_objective({j: -1 for j in ids})
        sol = solve_lp(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-2.0, abs=1e-9)

    def test_rows_met_within_the_model_tolerance(self):
        # x >= 1 + 5e-7 holds at x = 1 within feasibility_tol() = 1.1e-6,
        # which the y <= 10 row sets although the screen drops that row
        m = MilpModel()
        x = m.add_continuous("x", 0, 1)
        y = m.add_continuous("y", 0, 10)
        m.add_constraint({x: 1}, ">=", 1 + 5e-7)
        m.add_constraint({y: 1}, "<=", 10)
        assert m.check_solution([1.0, 0.0], m.feasibility_tol()) == []
        sol = solve_lp(m)
        assert sol.status == "optimal" and m.check_solution(sol.x, m.feasibility_tol()) == []
        # a root that presolve accepts is not refuted by the screen either
        z = m.add_binary("z")
        m.add_constraint({z: 1, y: 1}, "<=", 10.5)
        assert presolve(m) is not None
        sol = solve_bb(m)
        assert sol.status == "optimal" and m.check_solution(sol.x, m.feasibility_tol()) == []

    def test_artificial_left_basic_hands_its_row_slack_to_load(self):
        # a repeated equality row keeps an artificial basic at zero to the
        # end of primal(); in the basis it reports, that row's slack stands
        # in, and load() must give back the primal's point and objective
        rng = np.random.default_rng(2468)
        handed_over = 0
        for _ in range(60):
            model = random_lp(rng)
            mid = [0.5 * (v.lb + v.ub) for v in model.vars]
            coeffs = {j: float(rng.normal()) for j in range(model.n_vars)}
            rhs = sum(c * mid[j] for j, c in coeffs.items())
            model.add_constraint(coeffs, "=", rhs)
            model.add_constraint({j: 2.0 * c for j, c in coeffs.items()}, "=", 2.0 * rhs)
            c, A, eq, b, lb, ub = model.arrays()
            lp = _LP(c, A, eq, b, lb, ub, model.feasibility_tol())
            if lp.primal() != "optimal":
                continue
            x = lp.x()
            slack_rows = lp.basis[lp.basis >= lp.n] - lp.n
            handed_over += int(np.any(eq[slack_rows]))  # equality slacks never enter
            lp.load(lp.basis, lp.stat)
            assert np.allclose(lp.x(), x, rtol=0.0, atol=1e-9)
            assert float(c @ lp.x()) == pytest.approx(float(c @ x), abs=1e-9)
        assert handed_over >= 10


class TestBranchAndBound:
    def test_knapsack(self):
        m = MilpModel()
        vals = [10, 13, 7, 8]
        wts = [5, 6, 3, 4]
        zs = [m.add_binary(f"z{i}") for i in range(4)]
        m.add_constraint({z: w for z, w in zip(zs, wts)}, "<=", 10)
        m.set_objective({z: -v for z, v in zip(zs, vals)})
        sol = solve_bb(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-21.0)
        assert [round(sol.x[z]) for z in zs] == [0, 1, 0, 1]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7130)
        for trial in range(40):
            n_bin = int(rng.integers(2, 9))
            model = random_milp(rng, n_bin)
            bb = solve_bb(model)
            bf = brute_force_solve(model)
            assert bb.status == bf.status == "optimal", f"trial {trial}"
            assert bb.objective == pytest.approx(bf.objective, abs=1e-6)
            assert model.check_solution(bb.x) == []

    def test_relaxation_bounds_integer_optimum(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            model = random_milp(rng, int(rng.integers(2, 7)))
            relax = solve_lp(model)
            bb = solve_bb(model)
            assert relax.status == "optimal"
            assert relax.objective <= bb.objective + 1e-7

    def test_infeasible_milp(self):
        m = MilpModel()
        a = m.add_binary("a")
        b = m.add_binary("b")
        m.add_constraint({a: 1, b: 1}, ">=", 1.5)  # forces a = b = 1
        m.add_constraint({a: 1, b: 1}, "<=", 0.5)
        assert solve_bb(m).status == "infeasible"
        assert brute_force_solve(m).status == "infeasible"

    def test_integral_root_needs_one_node(self):
        m = MilpModel()
        z = m.add_binary("z")
        x = m.add_continuous("x", 0, 4)
        m.add_constraint({x: 1, z: -4}, "<=", 0)  # x <= 4z
        m.set_objective({x: -1})
        sol = solve_bb(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-4.0)
        assert sol.nodes == 1

    def test_hint_dive_short_circuits_constant_objective(self):
        m = MilpModel()
        zs = [m.add_binary(f"z{i}") for i in range(6)]
        for i in range(5):
            m.add_constraint({zs[i]: 1, zs[i + 1]: -1}, "<=", 0)  # z_i <= z_{i+1}
        m.add_constraint({zs[0]: 1}, ">=", 1)
        sol = dive_solve(m, {z: 1 for z in zs})
        assert sol.status == "optimal"
        assert sol.nodes == 0  # dive alone settled it
        assert all(round(sol.x[z]) == 1 for z in zs)

    def test_node_limit_param(self, monkeypatch):
        rng = np.random.default_rng(4)
        model = random_milp(rng, 8)
        full = solve_bb(model)
        if full.nodes > 1:
            monkeypatch.setattr(milp, "NODE_LIMIT", 1)
            capped = solve_bb(model)
            assert capped.nodes <= 1

    def test_node_limit_caps_the_search(self, monkeypatch):
        # at most two of five binaries fit, so the relaxation is fractional
        m = MilpModel()
        zs = [m.add_binary(f"z{i}") for i in range(5)]
        m.add_constraint({z: 2.0 for z in zs}, "<=", 5.0)
        m.set_objective({z: -1.0 - 0.1 * i for i, z in enumerate(zs)})
        assert solve_bb(m).nodes > 1
        monkeypatch.setattr(milp, "NODE_LIMIT", 1)
        capped = solve_bb(m)
        assert capped.status == "limit" and capped.nodes <= 1

    def test_fixed_binary_honored(self):
        m = MilpModel()
        z0 = m.add_binary("z0")
        z1 = m.add_binary("z1")
        m.add_constraint({z0: 1, z1: 1}, ">=", 1)
        m.set_objective({z0: 1, z1: 5})
        m.vars[z0].ub = 0.0  # pinned to 0
        sol = solve_bb(m)
        assert round(sol.x[z0]) == 0 and round(sol.x[z1]) == 1
        bf = brute_force_solve(m)
        assert bf.objective == pytest.approx(sol.objective)

    def test_gap_within_tolerance(self):
        rng = np.random.default_rng(11)
        model = random_milp(rng, 6)
        sol = solve_bb(model)
        assert sol.gap <= 1e-6 + 1e-12

    def test_brute_force_guard(self):
        m = MilpModel()
        for i in range(21):
            m.add_binary(f"z{i}")
        with pytest.raises(ValueError, match="exceed"):
            brute_force_solve(m)

    def test_deterministic_replay(self):
        rng = np.random.default_rng(31337)
        model = random_milp(rng, 7)
        a = solve_bb(model)
        b = solve_bb(model)
        assert a.x.tobytes() == b.x.tobytes()
        assert (a.nodes, a.iterations, a.objective) == (b.nodes, b.iterations, b.objective)


def highs_feasible(model: MilpModel) -> bool:
    """HiGHS verdict on the MILP (scipy.optimize.milp)."""
    c, A, eq, b, lb, ub = model.arrays()
    integ = np.array([v.is_binary for v in model.vars], dtype=int)
    lo = np.where(eq, b, -np.inf)
    res = scipy_opt.milp(c, constraints=scipy_opt.LinearConstraint(A, lo, b),
                         bounds=scipy_opt.Bounds(lb, ub), integrality=integ)
    assert res.status in (0, 2), res.message
    return res.status == 0


class _Captured(Exception):
    pass


def temperature_step_models(rooms: int = 7):
    """Step models k = 0 and k = 1 of the first held-out rooms of
    gen_temperature_dataset(700, 0) split 100/300/300, as the closed loop
    builds them."""
    sc = TemperatureScenario()
    ds = gen_temperature_dataset(700, 0, scenario=sc, sizes=(100, 300, 300))
    train = ds.subset("train")
    pred = fit_predictor(train, "cv")
    sigma = compute_normalizers(train, pred, sc.t_phi)
    radii = calibrate(ds.subset("cal"), pred, sigma, sc.delta)
    plant, spec = temperature_reformulate(sc), build_temperature_spec(sc.horizon, sc.comfort_gap)
    real = synthesis.build_step_model
    out = []
    for tr in ds.subset("test")[:rooms]:
        models = []

        def capture(*args, **kw):
            sm = real(*args, **kw)
            models.append(sm.model)
            if len(models) == 2:
                raise _Captured
            return sm

        synthesis.build_step_model = capture
        try:
            synthesis.run_closed_loop(
                plant, spec, tr.ys, prediction_table(pred, tr, sc.t_phi).row,
                lambda k, tau, i: radii.closed_radius(k, tau, i),
            )
        except _Captured:
            pass
        finally:
            synthesis.build_step_model = real
        out.append(models)
    return out


class TestWarmStart:
    """The warm-started, plunging solve_bb against the cold best-first
    oracle it replaced, brute force and HiGHS."""

    def test_matches_oracle_and_brute_force(self):
        rng = np.random.default_rng(5150)
        seen = {"optimal": 0, "infeasible": 0}
        for trial in range(60):
            model = random_milp(rng, int(rng.integers(2, 9)))
            if trial % 3 == 1:
                # 2 (z_a + z_b [+ z_c]) = odd: LP feasible, integer infeasible
                zs = rng.choice(model.binary_ids(), size=min(3, int(rng.integers(2, 4))), replace=False)
                model.add_constraint({int(z): 2.0 for z in zs}, "=", float(2 * int(rng.integers(0, len(zs))) + 1))
            elif trial % 3 == 2:
                model.set_objective({}, const=1.5)
            new, old, bf = solve_bb(model), oracle_solve_bb(model), brute_force_solve(model)
            assert new.status == old.status == bf.status, f"trial {trial}"
            seen[new.status] += 1
            if new.status == "optimal":
                assert new.objective == pytest.approx(bf.objective, abs=1e-6)
                assert old.objective == pytest.approx(bf.objective, abs=1e-6)
                assert model.check_solution(new.x) == []
        assert seen["optimal"] >= 30 and seen["infeasible"] >= 15

    @pytest.mark.parametrize("verdict", ["cold", "limit"])
    def test_cold_fallback_matches_oracle_and_brute_force(self, monkeypatch, verdict):
        # dual() practically never gives up on these models: send every
        # other node through the in-search primal re-solve, so the next
        # node warm-starts from the basis that re-solve handed over
        real, calls = _LP.dual, itertools.count()
        monkeypatch.setattr(_LP, "dual", lambda lp, maxiter: verdict if next(calls) % 2 else real(lp, maxiter))
        self.test_matches_oracle_and_brute_force()

    def test_warm_child_matches_cold_fixing(self):
        rng = np.random.default_rng(8080)
        compared = 0
        for _ in range(40):
            model = random_milp(rng, int(rng.integers(3, 9)))
            c, A, eq, b, lb, ub = model.arrays()
            arr = _Arrays(c, A, eq, b, lb, ub)
            binaries = model.binary_ids()
            is_bin = np.zeros(len(c), dtype=bool)
            is_bin[binaries] = True
            lp = _LP(c, A, eq, b, lb, ub, model.feasibility_tol(), is_bin)
            assert lp.primal() == "optimal"
            lp.load(lp.basis, lp.stat)
            fixed = {}
            for j in rng.permutation(binaries):
                fixed[int(j)] = float(rng.integers(0, 2))
                lp.fix(int(j), fixed[int(j)])
                warm = lp.dual(10_000)
                cold, _, obj, _ = _solve_fixed(arr, fixed)
                assert warm == cold
                if cold != "optimal":
                    break
                x = lp.x()
                assert float(c @ x) == pytest.approx(obj, abs=1e-6)
                assert np.all(A[~eq] @ x <= b[~eq] + 1e-7) and np.allclose(A[eq] @ x, b[eq], atol=1e-7)
                assert np.all(x >= lb - 1e-9) and np.all(x <= ub + 1e-9)
                assert all(x[j] == v for j, v in fixed.items())
                compared += 1
        assert compared >= 100

    def test_highs_verdicts_on_temperature_steps(self):
        rooms = temperature_step_models()
        assert [len(m) for m in rooms] == [2, 2, 1, 2, 2, 2, 1]
        for j, models in enumerate(rooms):
            for k, model in enumerate(models):
                sol = solve_bb(model)
                assert sol.status in ("optimal", "infeasible")
                assert (sol.status == "optimal") == highs_feasible(model), f"room {j} k = {k}"
                if sol.status == "optimal":
                    assert model.check_solution(sol.x, model.feasibility_tol()) == []
        assert solve_bb(rooms[2][0]).status == solve_bb(rooms[6][0]).status == "infeasible"


def presolve(model: MilpModel):
    c, A, eq, b, lb, ub = model.arrays()
    is_bin = np.zeros(len(c), dtype=bool)
    is_bin[model.binary_ids()] = True
    return _propagate(A, eq, b, lb, ub, is_bin, model.feasibility_tol())


def assert_continuous_bounds_kept(model: MilpModel, box) -> None:
    cont = [j for j, v in enumerate(model.vars) if not v.is_binary]
    assert [box[0][j] for j in cont] == [model.vars[j].lb for j in cont]
    assert [box[1][j] for j in cont] == [model.vars[j].ub for j in cont]


def feasible_assignments(model: MilpModel) -> list[dict[int, float]]:
    """Every 0/1 assignment of the free binaries that extends to a point
    violating no row by more than feasibility_tol() (HiGHS LP per
    assignment)."""
    c, A, eq, b, lb, ub = model.arrays()
    tol = model.feasibility_tol()
    free = [j for j in model.binary_ids() if lb[j] < ub[j]]
    rows = np.vstack([A, -A[eq]])
    rhs = np.concatenate([b, -b[eq]]) + tol
    out = []
    for bits in itertools.product((0.0, 1.0), repeat=len(free)):
        lo, hi = lb.copy(), ub.copy()
        lo[free] = hi[free] = bits
        res = scipy_opt.linprog(np.zeros(len(c)), A_ub=rows, b_ub=rhs, bounds=list(zip(lo, hi)), method="highs")
        assert res.status in (0, 2), res.message
        if res.status == 0:
            out.append(dict(zip(free, bits)))
    return out


class TestPresolve:
    """Activity-bound propagation before the root LP: it may fix a binary
    only to the value every tolerance-feasible assignment gives it, refute
    only a model no assignment satisfies, and never move a continuous
    bound."""

    def test_fixings_agree_with_every_feasible_assignment(self):
        rng = np.random.default_rng(6060)
        fixed_seen = refuted = 0
        for trial in range(40):
            model = random_milp(rng, int(rng.integers(2, 9)))
            bins = model.binary_ids()
            if trial % 3 == 1:
                zs = rng.choice(bins, size=min(len(bins), int(rng.integers(2, 4))), replace=False)
                model.add_constraint({int(z): 2.0 for z in zs}, "=", float(2 * int(rng.integers(0, len(zs))) + 1))
            elif trial % 3 == 2:
                # an unanchored row over the binaries: some models lose every assignment
                zs = rng.choice(bins, size=min(len(bins), 4), replace=False)
                model.add_constraint({int(z): float(rng.normal()) for z in zs}, ">=", float(rng.uniform(0.0, 2.0)))
            feasible = feasible_assignments(model)
            box = presolve(model)
            if box is None:
                refuted += 1
                assert feasible == [], f"trial {trial}"
                continue
            assert_continuous_bounds_kept(model, box)
            lb, ub = box
            for j in bins:
                if lb[j] == ub[j]:
                    fixed_seen += 1
                    assert all(a[j] == lb[j] for a in feasible), f"trial {trial}, binary {j}"
        assert fixed_seen >= 10 and refuted >= 10

    def test_temperature_rooms_refuted_at_the_root(self):
        rooms = temperature_step_models()
        for j in (2, 6):
            model = rooms[j][0]
            sol = solve_bb(model)
            assert (sol.status, sol.nodes, sol.iterations) == ("infeasible", 1, 0), f"room {j}"
            assert not highs_feasible(model)

    def test_equality_rows_count_in_both_directions(self):
        # z0 + z1 + z2 = 1: fixing z0 = 1 drops the others ('<=' direction),
        # fixing z1 = z2 = 0 raises z0 ('>=' direction)
        for pins in ({0: 1.0}, {1: 0.0, 2: 0.0}):
            m = MilpModel()
            zs = [m.add_binary(f"z{i}") for i in range(3)]
            m.add_constraint({z: 1.0 for z in zs}, "=", 1.0)
            for i, v in pins.items():
                m.vars[zs[i]].lb = m.vars[zs[i]].ub = v
            lb, ub = presolve(m)
            assert list(lb[zs]) == list(ub[zs]) == [1.0, 0.0, 0.0], pins

    def test_rows_met_only_within_the_tolerance_stay_feasible(self):
        # z >= 1 + d and z <= 1 - d are violated by d < feasibility_tol() at
        # z = 1, which the LP core accepts; presolve must agree
        for sense, rhs in ((">=", 1.0 + 5e-8), ("<=", 1.0 - 5e-8)):
            m = MilpModel()
            z = m.add_binary("z")
            x = m.add_continuous("x", 0.0, 1.0)
            m.add_constraint({z: 1.0}, sense, rhs)
            m.add_constraint({x: 1.0, z: 1.0}, "<=", 1.5)
            m.set_objective({z: -1.0, x: -0.25})
            assert presolve(m) is not None
            sol = solve_bb(m)
            assert sol.status == "optimal", sense
            assert round(sol.x[z]) == 1 and sol.objective == pytest.approx(-1.125, abs=1e-6)
            assert m.check_solution(sol.x, m.feasibility_tol()) == []

    def test_continuous_bounds_never_move(self):
        # the dynamics rows imply far tighter state bounds than the box
        for models in temperature_step_models(rooms=2):
            for model in models:
                assert_continuous_bounds_kept(model, presolve(model))


class TestDiagnostics:
    def test_check_solution_flags_violations(self):
        m = MilpModel()
        x = m.add_continuous("x", 0, 1)
        z = m.add_binary("z")
        m.add_constraint({x: 1, z: 1}, "<=", 1, name="cap")
        bad = m.check_solution([2.0, 0.5])
        kinds = {v["kind"] for v in bad}
        assert kinds == {"bound", "integrality", "row"}
        assert m.check_solution([0.5, 0.0]) == []

    def test_lp_export_format(self):
        m = MilpModel("demo")
        x = m.add_continuous("pos x", -1, 1)
        z = m.add_binary("pick")
        m.add_constraint({x: 1.0, z: -2.0}, "<=", 0.5, name="link")
        m.set_objective({x: 1.5})
        text = write_lp(m)
        assert "Minimize" in text and "Subject To" in text
        assert "link:" in text and "Binaries" in text
        assert "pos_x" in text  # sanitized name
        assert text.endswith("End\n")
