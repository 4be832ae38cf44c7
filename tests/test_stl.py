import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlcp import stl
from stlcp.stl import (
    AffinePredicate,
    Always,
    And,
    Eventually,
    JointTrajectory,
    Not,
    Or,
    Pred,
    SignalMap,
    StlSyntaxError,
    TrajectoryTooShortError,
    TrueNode,
    Until,
    eval_boolean,
    eval_robustness,
    format_formula,
    horizon,
    parse,
    to_pnf,
)

import helpers
from helpers import collect_predicates, is_pnf

SIG1 = SignalMap.default(1, [1])


def traj1(xs, ys):
    return JointTrajectory(np.array(xs, float), (np.array(ys, float),))


class TestParser:
    def test_atom_geq(self):
        f = parse("x1 - y1 >= 5", SIG1)
        assert isinstance(f, Pred)
        assert f.predicate.coeff_x == (1.0,)
        assert f.predicate.coeff_y == ((-1.0,),)
        assert f.predicate.offset == -5.0

    def test_atom_leq_flips_sign(self):
        f = parse("2*x1 <= 3", SIG1)
        assert f.predicate.coeff_x == (-2.0,)
        assert f.predicate.offset == 3.0

    def test_operator_precedence(self):
        f = parse("x1 >= 0 & y1 >= 0 | x1 <= 1", SIG1)
        # '&' binds tighter than '|'
        assert isinstance(f, Or)
        assert isinstance(f.children[0], And)

    def test_implication_desugars(self):
        f = parse("x1 >= 0 -> y1 >= 0", SIG1)
        assert isinstance(f, Or)
        assert isinstance(f.children[0], Not)

    def test_temporal(self):
        f = parse("F[3,8]G[1,2](x1 >= 0)", SIG1)
        assert isinstance(f, Eventually) and (f.a, f.b) == (3, 8)
        assert isinstance(f.child, Always) and (f.child.a, f.child.b) == (1, 2)

    def test_until(self):
        f = parse("(x1 >= 0) U[1,4] (y1 >= 1)", SIG1)
        assert isinstance(f, Until) and (f.a, f.b) == (1, 4)

    def test_true_literal(self):
        assert isinstance(parse("true", SIG1), TrueNode)

    def test_syntax_error_position(self):
        with pytest.raises(StlSyntaxError) as ei:
            parse("x1 >= ", SIG1)
        assert "position" in str(ei.value)

    def test_unknown_signal(self):
        with pytest.raises(StlSyntaxError, match="unknown signal"):
            parse("z9 >= 0", SIG1)

    def test_bad_interval(self):
        with pytest.raises(StlSyntaxError):
            parse("G[3,1](x1 >= 0)", SIG1)

    def test_roundtrip_print_parse(self):
        texts = [
            "G[0,2](x1 - y1 >= 5)",
            "((x1 >= 0) U[1,3] (y1 <= 2))",
            "F[0,4](x1 >= 0 & y1 >= 0)",
            "!(x1 >= 1) | G[2,2](0.5*y1 >= -1)",
        ]
        for t in texts:
            f = parse(t, SIG1)
            assert parse(format_formula(f, SIG1), SIG1) == f


class TestHorizon:
    def test_nested_example(self):
        f = parse("F[3,8]G[1,2](x1 >= 0)", SIG1)
        assert horizon(f) == 10

    def test_predicate_is_zero(self):
        assert horizon(parse("x1 >= 0", SIG1)) == 0

    def test_always_window(self):
        assert horizon(parse("G[0,20](x1 >= 0)", SIG1)) == 20

    def test_until_uses_max_child(self):
        f = Until(0, 5, parse("G[0,3](x1>=0)", SIG1), parse("x1>=0", SIG1))
        assert horizon(f) == 8

    def test_boolean_ops_use_max(self):
        f = parse("G[0,3](x1>=0) & F[0,7](y1>=0)", SIG1)
        assert horizon(f) == 7


class TestSemantics:
    def test_always_positive(self):
        f = parse("G[0,2](x1 >= 0)", SIG1)
        tr = traj1([1, 2, 3], [0, 0, 0])
        assert eval_boolean(f, tr, 0)
        assert eval_robustness(f, tr, 0) == 1.0

    def test_eventually(self):
        f = parse("F[0,2](x1 >= 0)", SIG1)
        tr = traj1([-1, -1, 1], [0, 0, 0])
        assert eval_boolean(f, tr, 0)
        assert eval_robustness(f, tr, 0) == 1.0

    def test_until_needs_left_through_witness(self):
        f = parse("(x1 >= 0) U[0,2] (y1 >= 1)", SIG1)
        # right holds at t=2 but left fails at t=1
        tr = traj1([1, -1, 1], [0, 0, 2])
        assert not eval_boolean(f, tr, 0)
        tr2 = traj1([1, 1, 1], [0, 0, 2])
        assert eval_boolean(f, tr2, 0)

    def test_true_robustness_infinite(self):
        tr = traj1([0], [0])
        assert eval_robustness(TrueNode(), tr, 0) == math.inf

    def test_too_short_raises(self):
        f = parse("G[0,5](x1 >= 0)", SIG1)
        tr = traj1([1, 2, 3], [0, 0, 0])
        with pytest.raises(TrajectoryTooShortError):
            eval_boolean(f, tr, 0)
        with pytest.raises(TrajectoryTooShortError):
            eval_robustness(f, tr, 1)

    def test_evaluation_at_offset(self):
        f = parse("G[0,1](x1 >= 0)", SIG1)
        tr = traj1([-1, 1, 1], [0, 0, 0])
        assert not eval_boolean(f, tr, 0)
        assert eval_boolean(f, tr, 1)

    # Negation is exact: evaluation never rewrites to positive normal form,
    # whose negated atoms carry NEGATION_MARGIN and whose !true is an atom.

    def test_negated_true_is_minus_infinity(self):
        tr = traj1([0], [0])
        assert eval_robustness(Not(TrueNode()), tr, 0) == -math.inf
        assert not eval_boolean(Not(TrueNode()), tr, 0)

    def test_negated_atom_on_its_boundary(self):
        f = parse("!(x1 >= 0)", SIG1)
        tr = traj1([0], [0])
        assert not eval_boolean(f, tr, 0)
        assert eval_robustness(f, tr, 0) == 0.0

    def test_negated_until_matches_oracle(self):
        f = Not(parse("(x1 >= 0) U[0,2] (y1 >= 1)", SIG1))
        # the second run misses its only witness by 5e-10, inside the PNF margin
        for xs, ys in (([0, 0, 0], [0, 0, 0]), ([-5e-10, 1, 1], [1, 0, 0]), ([1, -1, 1], [0, 0, 2])):
            tr = traj1(xs, ys)
            assert eval_robustness(f, tr, 0) == helpers.oracle_robustness(f, tr, 0)
            assert eval_boolean(f, tr, 0) == helpers.oracle_boolean(f, tr, 0)
        assert eval_boolean(f, traj1([-5e-10, 1, 1], [1, 0, 0]), 0)


class TestPnf:
    def test_negated_atom_gets_margin(self):
        f = to_pnf(Not(parse("x1 >= 0", SIG1)))
        assert isinstance(f, Pred)
        assert f.predicate.coeff_x == (-1.0,)
        assert f.predicate.offset == -stl.NEGATION_MARGIN

    def test_de_morgan(self):
        f = to_pnf(Not(parse("x1 >= 0 & y1 >= 0", SIG1)))
        assert isinstance(f, Or)

    def test_temporal_duality(self):
        f = to_pnf(Not(parse("G[1,3](x1 >= 0)", SIG1)))
        assert isinstance(f, Eventually) and (f.a, f.b) == (1, 3)

    def test_double_negation(self):
        g = parse("x1 >= 0", SIG1)
        assert to_pnf(Not(Not(g))) == g

    def test_not_true_is_false_atom(self):
        f = to_pnf(Not(TrueNode()))
        assert isinstance(f, Pred)
        assert f.predicate.value([0.0], [[0.0]]) < 0

    def test_negated_until_keeps_horizon(self):
        f = Not(Until(1, 3, parse("x1>=0", SIG1), parse("y1>=0", SIG1)))
        assert horizon(to_pnf(f)) == horizon(f)

    def test_pnf_output_is_pnf(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            f = helpers.random_formula(rng, depth=3)
            assert is_pnf(to_pnf(f))


class TestCollectPredicates:
    def test_shared_window(self):
        f = to_pnf(parse("F[1,2](x1 >= 0 & y1 >= 1)", SIG1))
        got = collect_predicates(f)
        assert len(got) == 2
        assert all(times == (1, 2) for _, times in got)

    def test_until_times(self):
        f = parse("(x1 >= 0) U[1,3] (y1 >= 0)", SIG1)
        got = dict(collect_predicates(f))
        left = parse("x1 >= 0", SIG1).predicate
        right = parse("y1 >= 0", SIG1).predicate
        assert got[right] == (1, 2, 3)
        assert got[left] == (0, 1, 2, 3)

    def test_true_contributes_nothing(self):
        assert collect_predicates(TrueNode()) == []

    def test_rejects_negation(self):
        with pytest.raises(ValueError):
            collect_predicates(Not(parse("x1>=0", SIG1)))


# ---------------------------------------------------------------------------
# randomized properties


def test_robustness_matches_oracle_seeded():
    rng = np.random.default_rng(2024)
    for _ in range(400):
        f = helpers.random_formula(rng, depth=3)
        tr = helpers.random_trajectory(rng, horizon(f) + int(rng.integers(0, 3)))
        k = int(rng.integers(0, tr.length - horizon(f) + 1))
        got, want = eval_robustness(f, tr, k), helpers.oracle_robustness(f, tr, k)
        assert got == want or abs(got - want) <= 1e-12
        assert eval_boolean(f, tr, k) == helpers.oracle_boolean(f, tr, k)


def test_sign_soundness_seeded():
    # rho > 0 implies satisfaction, rho < 0 implies violation
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(1000):
        f = helpers.random_formula(rng, depth=3)
        tr = helpers.random_trajectory(rng, horizon(f))
        rho = eval_robustness(f, tr, 0)
        sat = eval_boolean(f, tr, 0)
        if rho > 0:
            assert sat
            checked += 1
        elif rho < 0:
            assert not sat
            checked += 1
    assert checked > 500


def test_pnf_equivalence_seeded():
    rng = np.random.default_rng(99)
    for _ in range(500):
        f = helpers.random_formula(rng, depth=3)
        tr = helpers.random_trajectory(rng, horizon(f))
        assert eval_boolean(f, tr, 0) == eval_boolean(to_pnf(f), tr, 0)


@st.composite
def formula_and_trajectory(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    f = helpers.random_formula(rng, depth=3)
    slack = draw(st.integers(0, 2))
    tr = helpers.random_trajectory(rng, horizon(f) + slack)
    return f, tr


@settings(max_examples=150, deadline=None)
@given(formula_and_trajectory())
def test_horizon_sufficiency(ft):
    f, tr = ft
    h = horizon(f)
    # succeeds exactly up to k = T - h
    for k in range(tr.length - h + 1):
        eval_boolean(f, tr, k)
    with pytest.raises(TrajectoryTooShortError):
        eval_boolean(f, tr, tr.length - h + 1)


@settings(max_examples=150, deadline=None)
@given(formula_and_trajectory())
def test_pnf_preserves_horizon_and_truth(ft):
    f, tr = ft
    g = to_pnf(f)
    assert horizon(g) == horizon(f)
    assert eval_boolean(g, tr, 0) == eval_boolean(f, tr, 0)


def test_box_helpers():
    sig = SignalMap.default(2, [])
    inside = helpers.box_inside(sig, ["x1", "x2"], [0, 0], [2, 2])
    outside = helpers.box_outside(sig, ["x1", "x2"], [0, 0], [2, 2])
    tr = JointTrajectory(np.array([[1.0, 1.0], [5.0, 1.0]]), ())
    assert eval_boolean(inside, tr, 0) and not eval_boolean(outside, tr, 0)
    assert not eval_boolean(inside, tr, 1) and eval_boolean(outside, tr, 1)


def test_joint_trajectory_leaves_caller_arrays_writeable():
    xs, y = np.zeros((3, 1)), np.zeros((3, 2))
    tr = JointTrajectory(xs, (y,))
    xs[0] = 1.0
    y[0] = 1.0
    assert tr.xs[0, 0] == 0.0 and tr.ys[0][0, 0] == 0.0
    assert not tr.xs.flags.writeable and not tr.ys[0].flags.writeable
