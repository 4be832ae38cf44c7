import math

import numpy as np
import pytest

from helpers import (
    LinExpr,
    grid_min_over_balls,
    kkt_certificate,
    oracle_atom_expr,
    oracle_boolean,
    oracle_children,
    oracle_collect_predicates,
    oracle_known_truth,
    oracle_robustness,
    oracle_tightened_robustness,
    random_formula,
    select_big_m,
    tightened_offset,
)
from stlcp import stl
from stlcp.casestudies import (
    RobotScenario,
    TemperatureScenario,
    build_robot_specs,
    build_temperature_spec,
    robot_system,
    temperature_reformulate,
)
from stlcp.casestudies.robot import follower_hint
from stlcp.encoding import (
    EPS,
    EPS_ROBUST,
    Encoding,
    EncodingContext,
    EncodingError,
    _AtomTable,
    encode,
    require,
    suggest_assignment,
)
from stlcp.milp import MilpModel, dive_solve, solve_bb
from stlcp.synthesis import SystemModel, build_step_model, synthesize_open_loop


def pred_xy(cx, cy, offset, name="p"):
    """Atom cx . x + sum_i cy[i] . y_i + offset >= 0."""
    return stl.AffinePredicate(tuple(cx), tuple(tuple(c) for c in cy), float(offset), name=name)


def make_ctx(model, t_phi, k, n_x, agent_dims, rng, mode="qual", x_bound=6.0, radius_range=(0.2, 1.0)):
    grid = lambda size: 0.25 * rng.integers(-8, 9, size=size).astype(float)
    state_vars = {
        tau: [model.add_continuous(f"x{tau}_{d}", -x_bound, x_bound) for d in range(n_x)]
        for tau in range(k + 1, t_phi + 1)
    }
    observed_x = {tau: grid(n_x) for tau in range(k + 1)}
    observed_y = {(tau, i): grid(d) for tau in range(k + 1) for i, d in enumerate(agent_dims)}
    predicted_y = {(tau, i): grid(d) for tau in range(k + 1, t_phi + 1) for i, d in enumerate(agent_dims)}
    radii = {key: float(rng.uniform(*radius_range)) for key in predicted_y}
    ctx = EncodingContext(
        model=model,
        t_phi=t_phi,
        k=k,
        state_vars=state_vars,
        observed_x=observed_x,
        predicted_y=predicted_y,
        observed_y=observed_y,
        radius=lambda tau, i: radii[(tau, i)],
        mode=mode,
    )
    return ctx, radii


def ball_sample(rng, center, radius):
    d = len(center)
    v = rng.normal(size=d)
    v /= np.linalg.norm(v)
    return center + v * radius * 0.999 * rng.random() ** (1.0 / d)


def assemble_states(ctx, sol):
    xs = np.zeros((ctx.t_phi + 1, len(next(iter(ctx.observed_x.values())))))
    for tau in range(ctx.t_phi + 1):
        if tau <= ctx.k:
            xs[tau] = ctx.observed_x[tau]
        else:
            xs[tau] = [sol.x[v] for v in ctx.state_vars[tau]]
    return xs


def realization(ctx, rng, agent_dims):
    ys = []
    for i, d in enumerate(agent_dims):
        y = np.zeros((ctx.t_phi + 1, d))
        for tau in range(ctx.t_phi + 1):
            if tau <= ctx.k:
                y[tau] = ctx.observed_y[(tau, i)]
            else:
                y[tau] = ball_sample(rng, ctx.predicted_y[(tau, i)], ctx.radius(tau, i))
        ys.append(y)
    return tuple(ys)


class TestTightening:
    def test_hand_example(self):
        p = pred_xy([], [(3.0, 4.0)], 0.0)
        got = tightened_offset(p, [np.array([1.0, 1.0])], [2.0])
        assert got == pytest.approx(3.0 + 4.0 - 2.0 * 5.0, abs=1e-12)

    def test_zero_coefficient_agent_ignored(self):
        p = pred_xy([], [(0.0, 0.0), (1.0,)], 2.0)
        got = tightened_offset(p, [np.array([9.0, 9.0]), np.array([3.0])], [0.5, 0.25])
        assert got == pytest.approx(2.0 + 3.0 - 0.25, abs=1e-12)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(515)
        for _ in range(30):
            dims = [int(rng.integers(1, 3)) for _ in range(int(rng.integers(1, 3)))]
            coeff = [0.25 * rng.integers(-8, 9, size=d) for d in dims]
            if all(np.all(c == 0) for c in coeff):
                coeff[0][0] = 1.0
            centers = [rng.uniform(-2, 2, size=d) for d in dims]
            radii = [float(rng.uniform(0.05, 0.6)) for _ in dims]
            p = pred_xy([], [tuple(c) for c in coeff], 0.0)
            closed = tightened_offset(p, centers, radii)
            grid = grid_min_over_balls(coeff, centers, radii, step=5e-4)
            assert abs(closed - grid) <= 2e-3

    def test_kkt_certificate_hand_case(self):
        p = pred_xy([], [(3.0, 4.0)], 1.0)
        cert = kkt_certificate(p, [np.array([2.0, -1.0])], [0.5])
        y = cert.witnesses[0]
        assert np.allclose(y, [2.0 - 0.5 * 0.6, -1.0 - 0.5 * 0.8])
        assert cert.multipliers[0] == pytest.approx(5.0 / 1.0, abs=1e-12)
        assert cert.max_residual() < 1e-10
        assert cert.value == pytest.approx(tightened_offset(p, [np.array([2.0, -1.0])], [0.5]), abs=1e-12)

    def test_kkt_certificate_random(self):
        rng = np.random.default_rng(8712)
        for _ in range(100):
            dims = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
            coeff = [rng.normal(size=d) for d in dims]
            if rng.random() < 0.3:
                coeff[0][:] = 0.0  # atom ignores this agent
            centers = [rng.uniform(-3, 3, size=d) for d in dims]
            radii = [float(rng.uniform(0.1, 2.0)) for _ in dims]
            p = pred_xy([], [tuple(c) for c in coeff], float(rng.normal()))
            cert = kkt_certificate(p, centers, radii)
            assert cert.max_residual() < 1e-10
            assert abs(cert.value - tightened_offset(p, centers, radii)) < 1e-9
            for y, c, r in zip(cert.witnesses, centers, radii):
                assert np.linalg.norm(np.asarray(y) - c) <= r + 1e-12

    def test_kkt_needs_positive_radius(self):
        p = pred_xy([], [(1.0,)], 0.0)
        with pytest.raises(EncodingError, match="positive radius"):
            kkt_certificate(p, [np.array([0.0])], [0.0])


def assert_table_matches_oracle(ctx, cs, table):
    """Every atom instance equals the one-atom-at-a-time tightening exactly,
    and the three-valued fold equals the recursive one at every node and
    time the walk from the root reaches."""
    want = [(p, t) for p, ts in oracle_collect_predicates(cs.formula) for t in ts]
    got = [(cs.predicates[p], t) for p, t in zip(cs.atom_pred.tolist(), cs.atom_tau.tolist())]
    assert got == want
    for j, (p, tau) in enumerate(zip(cs.atom_pred.tolist(), cs.atom_tau.tolist())):
        ref = oracle_atom_expr(ctx, cs.predicates[p], tau)
        assert type(table.const[j]) is float
        if isinstance(ref, float):
            assert not table.linear[j]
            assert table.const[j] == ref
            assert table.truth[j] is (ref >= 0.0)
        else:
            assert table.linear[j] and table.truth[j] is None
            assert table.const[j] == ref.const
            vids = ctx.state_vars[tau]
            assert {vids[d]: c for d, c in cs.x_terms[p]} == ref.coeffs
    known = table.known()
    seen = set()

    def walk(f, nid, tau):
        if (nid, tau) in seen:
            return
        seen.add((nid, tau))
        v = known[nid, tau]
        assert (None if v == 0.0 else bool(v > 0.0)) is oracle_known_truth(ctx, f, tau)
        if isinstance(f, (stl.TrueNode, stl.Pred)):
            return
        _, pairs = oracle_children(f, tau)
        node = cs.nodes[nid]
        assert len(pairs) == len(node.pairs)
        for (child, t), (cid, dt) in zip(pairs, node.pairs):
            assert t == tau + dt
            walk(child, cid, t)

    walk(cs.formula, cs.root, 0)
    return len(seen)


def robot_step_model(k, radius=0.4):
    sc = RobotScenario()
    xs = follower_hint(sc)
    lead = xs[:, [0, 2]] + np.array([0.3, -0.2])
    return build_step_model(
        robot_system(sc), build_robot_specs(sc)[0], k,
        {tau: xs[tau] for tau in range(k + 1)}, {(tau, 0): lead[tau] for tau in range(k + 1)},
        {(tau, 0): lead[tau] + 0.05 * tau for tau in range(k + 1, sc.horizon + 1)},
        lambda tau, i: radius + 0.01 * tau,
    )


def temperature_step_model(k):
    sc = TemperatureScenario()
    t_phi = stl.horizon(build_temperature_spec(sc.horizon, sc.comfort_gap))
    rooms = [20.0 + 0.5 * np.arange(t_phi + 1), 24.0 - 0.25 * np.arange(t_phi + 1)]
    return build_step_model(
        temperature_reformulate(sc), build_temperature_spec(sc.horizon, sc.comfort_gap), k,
        {tau: np.array([sc.x0 + 6.0 * tau]) for tau in range(k + 1)},
        {(tau, i): np.array([rooms[i][tau]]) for tau in range(k + 1) for i in range(2)},
        {(tau, i): np.array([rooms[i][tau] + 0.3]) for tau in range(k + 1, t_phi + 1) for i in range(2)},
        lambda tau, i: 1.5 + 0.1 * tau,
    )


class TestAtomTable:
    @pytest.mark.parametrize("k", [0, 7, 15])
    def test_robot_follower_matches_oracle(self, k):
        sm = robot_step_model(k)
        assert assert_table_matches_oracle(sm.ctx, sm.enc.atoms.spec, sm.enc.atoms) > 100

    @pytest.mark.parametrize("k", [0, 3])
    def test_temperature_matches_oracle(self, k):
        sm = temperature_step_model(k)
        assert assert_table_matches_oracle(sm.ctx, sm.enc.atoms.spec, sm.enc.atoms) > 30

    def test_random_formulas_match_oracle(self):
        rng = np.random.default_rng(4242)
        folded = infinite = 0
        for _ in range(200):
            n_x = int(rng.integers(1, 3))
            agent_dims = tuple(int(rng.integers(1, 3)) for _ in range(int(rng.integers(1, 3))))
            cs = stl.compile_spec(stl.to_pnf(random_formula(rng, n_x, agent_dims, depth=3, max_interval=3)))
            k = int(rng.integers(0, cs.horizon + 1))
            ctx, radii = make_ctx(MilpModel(), cs.horizon, k, n_x, agent_dims, rng)
            for key in radii:
                if rng.random() < 0.1:
                    radii[key] = math.inf
                    infinite += 1
            table = _AtomTable(ctx, cs)
            assert_table_matches_oracle(ctx, cs, table)
            folded += sum(not lin for lin in table.linear)
        assert folded > 500 and infinite > 20

    def test_until_witnesses_are_shared_nodes(self):
        p = stl.Pred(pred_xy([1.0], [(0.0,)], 0.0, name="p"))
        q = stl.Pred(pred_xy([-1.0], [(1.0,)], 2.0, name="q"))
        cs = stl.compile_spec(stl.And((stl.Until(0, 2, p, q), stl.Always(0, 0, p))))
        (until, _), (always_p, _) = cs.nodes[cs.root].pairs
        assert cs.nodes[until].name == "until" and cs.nodes[until].op == "or"
        witnesses = [cs.nodes[w] for w, _ in cs.nodes[until].pairs]
        assert [len(w.pairs) for w in witnesses] == [2, 3, 4]
        # the witnesses' G[0,0] p is the spec's own G[0,0] p node
        assert all((always_p, 0) in w.pairs for w in witnesses)
        assert len(set(cs.nodes)) == len(cs.nodes)
        assert [pr.name for pr in cs.predicates] == ["q", "p"]  # right operand first, as in collect_predicates


class TestBigM:
    def test_state_box_example(self):
        model = MilpModel()
        ctx = EncodingContext(
            model=model,
            t_phi=1,
            k=0,
            state_vars={1: [model.add_continuous("x1", -10.0, 40.0)]},
            observed_x={0: np.array([0.0])},
            predicted_y={},
            observed_y={},
            radius=lambda t, i: 0.0,
        )
        f = stl.Always(1, 1, stl.Pred(pred_xy([1.0], [], 0.0)))
        assert select_big_m(ctx, f) == pytest.approx(80.0)

    def test_small_constant_floor(self):
        model = MilpModel()
        ctx = EncodingContext(
            model=model,
            t_phi=1,
            k=1,
            state_vars={},
            observed_x={0: np.array([0.5]), 1: np.array([0.5])},
            predicted_y={},
            observed_y={},
            radius=lambda t, i: 0.0,
        )
        f = stl.Pred(pred_xy([1.0], [], 0.0))
        assert select_big_m(ctx, f) == pytest.approx(2.0)


class TestFolding:
    def test_fully_observed_matches_boolean_semantics(self):
        rng = np.random.default_rng(606)
        agree = 0
        for _ in range(150):
            n_x = int(rng.integers(1, 3))
            agent_dims = tuple(int(rng.integers(1, 3)) for _ in range(int(rng.integers(1, 3))))
            f = stl.to_pnf(random_formula(rng, n_x, agent_dims, depth=2, max_interval=2))
            t_phi = stl.horizon(f)
            if not math.isfinite(t_phi):
                continue
            model = MilpModel()
            ctx, _ = make_ctx(model, t_phi, t_phi, n_x, agent_dims, rng)
            enc = encode(ctx, f)
            assert isinstance(enc.root, bool)
            xs = np.stack([ctx.observed_x[t] for t in range(t_phi + 1)])
            ys = tuple(
                np.stack([ctx.observed_y[(t, i)] for t in range(t_phi + 1)]) for i in range(len(agent_dims))
            )
            traj = stl.JointTrajectory(xs, ys)
            assert enc.root == oracle_boolean(f, traj, 0)
            agree += 1
        assert agree >= 100

    def test_fully_observed_quant_matches_robustness(self):
        rng = np.random.default_rng(607)
        for _ in range(80):
            f = stl.to_pnf(random_formula(rng, 1, (1,), depth=2, max_interval=2))
            t_phi = stl.horizon(f)
            model = MilpModel()
            ctx, _ = make_ctx(model, t_phi, t_phi, 1, (1,), rng, mode="quant")
            enc = encode(ctx, f)
            assert isinstance(enc.root, float)
            xs = np.stack([ctx.observed_x[t] for t in range(t_phi + 1)])
            ys = (np.stack([ctx.observed_y[(t, 0)] for t in range(t_phi + 1)]),)
            rho = oracle_robustness(f, stl.JointTrajectory(xs, ys), 0)
            if math.isinf(rho):
                assert enc.root == rho
            else:
                assert enc.root == pytest.approx(rho, abs=1e-9)

    def test_folding_shrinks_encoding(self):
        # offsets keep the disjunction true on every observable prefix value,
        # so each future step contributes exactly two live disjuncts
        f = stl.Always(0, 4, stl.Or((stl.Pred(pred_xy([1.0], [(0.0,)], 3.0)),
                                     stl.Pred(pred_xy([1.0], [(1.0,)], 3.0)))))
        rng = np.random.default_rng(3)
        sizes = []
        for k in range(5):
            model = MilpModel()
            ctx, _ = make_ctx(model, 4, k, 1, (1,), rng)
            enc = encode(ctx, f)
            sizes.append(enc.n_binaries)
        assert sizes == [8, 6, 4, 2, 0]

    def test_conjunctive_formulas_need_no_binaries(self):
        f = stl.Always(0, 4, stl.And((stl.Pred(pred_xy([1.0], [(0.0,)], 0.0)),
                                      stl.Pred(pred_xy([1.0], [(-1.0,)], 3.0)))))
        model = MilpModel()
        rng = np.random.default_rng(3)
        ctx, _ = make_ctx(model, 4, 0, 1, (1,), rng)
        enc = encode(ctx, f)
        assert enc.n_binaries == 0
        assert model.binary_ids() == []

    def test_infinite_radius_folds_to_false(self):
        model = MilpModel()
        rng = np.random.default_rng(1)
        ctx, _ = make_ctx(model, 1, 0, 1, (1,), rng)
        ctx.radius = lambda t, i: math.inf
        f = stl.Always(1, 1, stl.Pred(pred_xy([0.0], [(1.0,)], 0.0)))
        enc = encode(ctx, f)
        assert enc.root is False
        require(ctx, enc)
        assert solve_bb(model).status == "infeasible"

    def test_mixed_atom_with_infinite_radius_folds_to_false(self):
        model = MilpModel()
        rng = np.random.default_rng(1)
        ctx, _ = make_ctx(model, 1, 0, 1, (1,), rng)
        ctx.radius = lambda t, i: math.inf
        f = stl.Always(1, 1, stl.Pred(pred_xy([1.0], [(1.0,)], 0.0)))
        enc = encode(ctx, f)
        assert enc.root is False

    def test_shared_subformulas_encoded_once(self):
        # windows start at 1 so no atom folds into the observed prefix
        p = stl.Pred(pred_xy([1.0], [(1.0,)], 0.0))
        f = stl.And((stl.Always(1, 3, p), stl.Eventually(1, 3, p)))
        model = MilpModel()
        rng = np.random.default_rng(5)
        ctx, _ = make_ctx(model, 3, 0, 1, (1,), rng)
        enc = encode(ctx, f)
        # the conjunctive side is binary-free; only the three F disjuncts
        # need indicators, and a duplicated F reuses them
        assert enc.n_binaries == 3
        model2 = MilpModel()
        ctx2, _ = make_ctx(model2, 3, 0, 1, (1,), np.random.default_rng(5))
        f2 = stl.And((stl.Always(1, 3, p), stl.Eventually(1, 3, p), stl.Eventually(1, 3, p)))
        enc2 = encode(ctx2, f2)
        assert enc2.n_binaries == 3


class TestEncodeAndSolve:
    @pytest.mark.parametrize("mode", ["qual", "quant"])
    def test_solutions_sound_under_all_realizations(self, mode):
        rng = np.random.default_rng(2718 if mode == "qual" else 2719)
        checked = 0
        for _ in range(60):
            n_x = int(rng.integers(1, 3))
            agent_dims = tuple(int(rng.integers(1, 3)) for _ in range(int(rng.integers(1, 3))))
            f = stl.to_pnf(random_formula(rng, n_x, agent_dims, depth=2, max_interval=2))
            t_phi = stl.horizon(f) + int(rng.integers(0, 2))
            if t_phi == 0 or t_phi > 6:
                continue
            k = int(rng.integers(0, min(2, t_phi) + 1))
            model = MilpModel()
            ctx, _ = make_ctx(model, t_phi, k, n_x, agent_dims, rng, mode=mode)
            enc = encode(ctx, f)
            root = require(ctx, enc)
            sol = solve_bb(model)
            if sol.status != "optimal":
                continue
            checked += 1
            xs = assemble_states(ctx, sol)
            if mode == "quant":
                rbar = enc.root if isinstance(enc.root, float) else sol.x[root]
            for _ in range(40):
                traj = stl.JointTrajectory(xs, realization(ctx, rng, agent_dims))
                if mode == "qual":
                    assert oracle_boolean(f, traj, 0)
                else:
                    rho = oracle_robustness(f, traj, 0)
                    assert rho >= rbar - 1e-6
        assert checked >= 15

    def test_modes_agree_on_feasibility(self):
        rng = np.random.default_rng(41)
        both = {True: 0, False: 0}
        for _ in range(25):
            f = stl.to_pnf(random_formula(rng, 1, (1,), depth=2, max_interval=2))
            t_phi = stl.horizon(f)
            if t_phi == 0 or t_phi > 5:
                continue
            seed_ctx = int(rng.integers(0, 2**31))
            feas = {}
            for mode in ("qual", "quant"):
                model = MilpModel()
                ctx, _ = make_ctx(model, t_phi, 0, 1, (1,), np.random.default_rng(seed_ctx), mode=mode)
                enc = encode(ctx, f)
                require(ctx, enc)
                feas[mode] = solve_bb(model).status == "optimal"
            assert feas["qual"] == feas["quant"], stl.format_formula(f, stl.SignalMap.default(1, (1,)))
            both[feas["qual"]] += 1
        assert both[True] >= 5 and both[False] >= 1

    def test_unreachable_atom_infeasible(self):
        for mode in ("qual", "quant"):
            model = MilpModel()
            rng = np.random.default_rng(2)
            ctx, _ = make_ctx(model, 1, 0, 1, (1,), rng, mode=mode)
            f = stl.Always(1, 1, stl.Pred(pred_xy([1.0], [], -10.0)))  # x >= 10, box is [-6, 6]
            enc = encode(ctx, f)
            require(ctx, enc)
            assert solve_bb(model).status == "infeasible"

    @pytest.mark.parametrize("mode", ["qual", "quant"])
    def test_until_witness_structure(self, mode):
        # right atom reachable only at the last step; left must hold throughout
        model = MilpModel()
        rng = np.random.default_rng(9)
        ctx, _ = make_ctx(model, 2, 0, 1, (1,), rng, mode=mode)
        ctx.observed_x[0][:] = 1.0  # left atom must already hold at the observed start
        left = stl.Pred(pred_xy([1.0], [], 0.0))  # x >= 0
        right = stl.Pred(pred_xy([1.0], [], -5.0))  # x >= 5
        f = stl.Until(0, 2, left, right)
        enc = encode(ctx, f)
        root = require(ctx, enc)
        sol = solve_bb(model)
        assert sol.status == "optimal"
        xs = assemble_states(ctx, sol)
        traj = stl.JointTrajectory(xs, realization(ctx, rng, (1,)))
        assert oracle_boolean(f, traj, 0)
        if mode == "quant":
            assert oracle_robustness(f, traj, 0) >= sol.x[root] - 1e-9

    def test_quant_root_value_is_exact_min(self):
        # two future atoms; robustness should equal the smaller tightened value
        model = MilpModel()
        ctx = EncodingContext(
            model=model,
            t_phi=1,
            k=0,
            state_vars={1: [model.add_continuous("x1", -5.0, 5.0)]},
            observed_x={0: np.array([0.0])},
            predicted_y={(1, 0): np.array([1.0])},
            observed_y={(0, 0): np.array([0.0])},
            radius=lambda t, i: 0.5,
            mode="quant",
        )
        f = stl.Always(1, 1, stl.And((
            stl.Pred(pred_xy([1.0], [(0.0,)], 0.0)),        # x1 >= 0
            stl.Pred(pred_xy([0.0], [(1.0,)], 0.0)),        # y1 >= 0, tightened to 1 - 0.5
        )))
        enc = encode(ctx, f)
        root = require(ctx, enc)
        model.set_objective({root: -1.0})  # maximize robustness
        sol = solve_bb(model)
        assert sol.status == "optimal"
        # x can reach 5, so the agentter dominates: min(5, 0.5) = 0.5
        assert sol.x[root] == pytest.approx(0.5, abs=1e-7)

    @pytest.mark.parametrize("mode", ["qual", "quant"])
    def test_suggestion_dive_short_circuits(self, mode):
        rng = np.random.default_rng(77)
        done = 0
        for _ in range(20):
            f = stl.to_pnf(random_formula(rng, 1, (1,), depth=2, max_interval=2))
            t_phi = stl.horizon(f)
            if t_phi == 0 or t_phi > 5:
                continue
            seed_ctx = int(rng.integers(0, 2**31))
            model = MilpModel()
            ctx, _ = make_ctx(model, t_phi, 0, 1, (1,), np.random.default_rng(seed_ctx), mode=mode)
            enc = encode(ctx, f)
            require(ctx, enc)
            sol = solve_bb(model)
            if sol.status != "optimal":
                continue
            xs = assemble_states(ctx, sol)
            # fresh identical model, warm-started from the trajectory alone
            model2 = MilpModel()
            ctx2, _ = make_ctx(model2, t_phi, 0, 1, (1,), np.random.default_rng(seed_ctx), mode=mode)
            enc2 = encode(ctx2, f)
            require(ctx2, enc2)
            hint = suggest_assignment(ctx2, enc2, xs)
            warm = dive_solve(model2, hint)
            assert warm.status == "optimal"  # dive alone proved feasibility
            assert warm.nodes == 0
            done += 1
        assert done >= 8


class TestOneSidedGates:
    """Quantitative gates bound their min/max from above only, so the root
    variable is a certified lower bound on the plan's tightened robustness,
    tight when the root is maximised."""

    @staticmethod
    def folded(enc, xs):
        atoms = enc.atoms
        return float(atoms.fold(atoms.values(xs))[atoms.spec.root, 0])

    def test_root_bounds_tightened_robustness(self):
        rng = np.random.default_rng(4242)
        checked = max_gates = 0
        for _ in range(60):
            n_x = int(rng.integers(1, 3))
            agent_dims = tuple(int(rng.integers(1, 3)) for _ in range(int(rng.integers(1, 3))))
            f = stl.to_pnf(random_formula(rng, n_x, agent_dims, depth=2, max_interval=2))
            t_phi = stl.horizon(f)
            if t_phi == 0 or t_phi > 5:
                continue
            k = int(rng.integers(0, min(1, t_phi - 1) + 1))
            model = MilpModel()
            ctx, _ = make_ctx(model, t_phi, k, n_x, agent_dims, rng, mode="quant")
            enc = encode(ctx, f)
            root = require(ctx, enc)
            if root is None:
                continue
            for objective in ({}, {root: -1.0}):  # zero cost, then max-robustness
                model.set_objective(objective)
                sol = solve_bb(model)
                if sol.status != "optimal":
                    break
                xs = assemble_states(ctx, sol)
                rho = self.folded(enc, xs)
                assert rho == pytest.approx(oracle_tightened_robustness(ctx, f, 0, xs), abs=1e-9)
                assert sol.x[root] <= rho + 1e-7, f
                if objective:
                    assert sol.x[root] == pytest.approx(rho, abs=1e-7), f
                    checked += 1
                    max_gates += any(e[0] == "sel" and e[1] == "max" for e in enc.registry)
        assert checked >= 15 and max_gates >= 10

    def test_root_value_is_folded_robustness(self):
        rng = np.random.default_rng(4343)
        checked = 0
        for _ in range(40):
            f = random_formula(rng, 1, (1,), depth=2, max_interval=2)
            t_phi = stl.horizon(f)
            if t_phi == 0 or t_phi > 5:
                continue
            sys = SystemModel(a=[[1.0]], b=[[1.0]], c=[0.0], x0=[0.0],
                              state_box=([-6.0], [6.0]), input_box=([-2.0], [2.0]))
            y0 = {0: np.array([0.25 * rng.integers(-8, 9)])}
            preds = {(tau, 0): np.array([0.25 * rng.integers(-8, 9)]) for tau in range(1, t_phi + 1)}
            radius = lambda tau, i: 0.1 * tau
            res = synthesize_open_loop(sys, f, y0, preds, radius, mode="quant")
            if res.status != "optimal":
                continue
            sm = build_step_model(sys, f, 0, {0: sys.x0}, {(0, 0): y0[0]}, preds, radius, mode="quant")
            rho = oracle_tightened_robustness(sm.ctx, stl.to_pnf(f), 0, res.xs)
            assert res.root_value == pytest.approx(rho, abs=1e-9), f
            assert res.root_value >= EPS_ROBUST - 1e-9
            checked += 1
        assert checked >= 10


class TestValidation:
    def test_rejects_negation(self):
        model = MilpModel()
        rng = np.random.default_rng(0)
        ctx, _ = make_ctx(model, 1, 0, 1, (1,), rng)
        f = stl.Not(stl.Pred(pred_xy([1.0], [(0.0,)], 0.0)))
        with pytest.raises(EncodingError, match="normal form"):
            encode(ctx, f)

    def test_rejects_horizon_overflow(self):
        model = MilpModel()
        rng = np.random.default_rng(0)
        ctx, _ = make_ctx(model, 2, 0, 1, (1,), rng)
        f = stl.Always(0, 5, stl.Pred(pred_xy([1.0], [(0.0,)], 0.0)))
        with pytest.raises(EncodingError, match="horizon"):
            encode(ctx, f)

    def test_rejects_bad_mode(self):
        model = MilpModel()
        with pytest.raises(ValueError, match="mode"):
            EncodingContext(
                model=model, t_phi=1, k=0, state_vars={}, observed_x={},
                predicted_y={}, observed_y={}, radius=lambda t, i: 0.0, mode="fancy",
            )

    def test_linexpr_basics(self):
        e = LinExpr({3: 2.0}, 1.0)
        e.add_term(3, -2.0)
        assert e.is_const and e.const == 1.0
        e.add_term(5, 1.5)
        assert e.value({5: 2.0}) == pytest.approx(4.0)
