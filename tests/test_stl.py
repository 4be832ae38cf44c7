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
    TrajectoryTooShortError,
    TrueNode,
    Until,
    eval_boolean,
    eval_robustness,
    horizon,
    to_pnf,
)

import helpers
from helpers import atom, collect_predicates, is_pnf


def atom1(cx, cy, off):
    """Atom cx*x1 + cy*y1 + off >= 0 over one system state x1 and one 1-d agent y1."""
    return atom((cx,), ((cy,),), off, name="")


X_GE_0 = atom1(1.0, 0.0, 0.0)  # x1 >= 0
Y_GE_0 = atom1(0.0, 1.0, 0.0)  # y1 >= 0
Y_GE_1 = atom1(0.0, 1.0, -1.0)  # y1 >= 1


def traj1(xs, ys):
    return JointTrajectory(np.array(xs, float), (np.array(ys, float),))


class TestFormula:
    def test_bad_interval(self):
        for make in (lambda a, b: Always(a, b, X_GE_0), lambda a, b: Eventually(a, b, X_GE_0),
                     lambda a, b: Until(a, b, X_GE_0, Y_GE_0)):
            with pytest.raises(ValueError, match="bad temporal interval"):
                make(3, 1)
            with pytest.raises(ValueError, match="bad temporal interval"):
                make(-1, 2)


class TestHorizon:
    def test_nested_example(self):
        f = Eventually(3, 8, Always(1, 2, X_GE_0))
        assert horizon(f) == 10

    def test_predicate_is_zero(self):
        assert horizon(X_GE_0) == 0

    def test_always_window(self):
        assert horizon(Always(0, 20, X_GE_0)) == 20

    def test_until_uses_max_child(self):
        f = Until(0, 5, Always(0, 3, X_GE_0), X_GE_0)
        assert horizon(f) == 8

    def test_boolean_ops_use_max(self):
        f = And((Always(0, 3, X_GE_0), Eventually(0, 7, Y_GE_0)))
        assert horizon(f) == 7


class TestSemantics:
    def test_always_positive(self):
        f = Always(0, 2, X_GE_0)
        tr = traj1([1, 2, 3], [0, 0, 0])
        assert eval_boolean(f, tr, 0)
        assert eval_robustness(f, tr, 0) == 1.0

    def test_eventually(self):
        f = Eventually(0, 2, X_GE_0)
        tr = traj1([-1, -1, 1], [0, 0, 0])
        assert eval_boolean(f, tr, 0)
        assert eval_robustness(f, tr, 0) == 1.0

    def test_until_needs_left_through_witness(self):
        f = Until(0, 2, X_GE_0, Y_GE_1)
        # right holds at t=2 but left fails at t=1
        tr = traj1([1, -1, 1], [0, 0, 2])
        assert not eval_boolean(f, tr, 0)
        tr2 = traj1([1, 1, 1], [0, 0, 2])
        assert eval_boolean(f, tr2, 0)

    def test_true_robustness_infinite(self):
        tr = traj1([0], [0])
        assert eval_robustness(TrueNode(), tr, 0) == math.inf

    def test_too_short_raises(self):
        f = Always(0, 5, X_GE_0)
        tr = traj1([1, 2, 3], [0, 0, 0])
        with pytest.raises(TrajectoryTooShortError):
            eval_boolean(f, tr, 0)
        with pytest.raises(TrajectoryTooShortError):
            eval_robustness(f, tr, 1)

    def test_evaluation_at_offset(self):
        f = Always(0, 1, X_GE_0)
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
        f = Not(X_GE_0)
        tr = traj1([0], [0])
        assert not eval_boolean(f, tr, 0)
        assert eval_robustness(f, tr, 0) == 0.0

    def test_negated_until_matches_oracle(self):
        f = Not(Until(0, 2, X_GE_0, Y_GE_1))
        # the second run misses its only witness by 5e-10, inside the PNF margin
        for xs, ys in (([0, 0, 0], [0, 0, 0]), ([-5e-10, 1, 1], [1, 0, 0]), ([1, -1, 1], [0, 0, 2])):
            tr = traj1(xs, ys)
            assert eval_robustness(f, tr, 0) == helpers.oracle_robustness(f, tr, 0)
            assert eval_boolean(f, tr, 0) == helpers.oracle_boolean(f, tr, 0)
        assert eval_boolean(f, traj1([-5e-10, 1, 1], [1, 0, 0]), 0)


class TestPnf:
    def test_negated_atom_gets_margin(self):
        f = to_pnf(Not(X_GE_0))
        assert isinstance(f, Pred)
        assert f.predicate.coeff_x == (-1.0,)
        assert f.predicate.offset == -stl.NEGATION_MARGIN

    def test_de_morgan(self):
        f = to_pnf(Not(And((X_GE_0, Y_GE_0))))
        assert isinstance(f, Or)

    def test_temporal_duality(self):
        f = to_pnf(Not(Always(1, 3, X_GE_0)))
        assert isinstance(f, Eventually) and (f.a, f.b) == (1, 3)

    def test_double_negation(self):
        g = X_GE_0
        assert to_pnf(Not(Not(g))) == g

    def test_not_true_is_false_atom(self):
        f = to_pnf(Not(TrueNode()))
        assert isinstance(f, Pred)
        assert f.predicate.value([0.0], [[0.0]]) < 0

    def test_negated_until_keeps_horizon(self):
        f = Not(Until(1, 3, X_GE_0, Y_GE_0))
        assert horizon(to_pnf(f)) == horizon(f)

    def test_pnf_output_is_pnf(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            f = helpers.random_formula(rng, depth=3)
            assert is_pnf(to_pnf(f))


class TestCollectPredicates:
    def test_shared_window(self):
        f = to_pnf(Eventually(1, 2, And((X_GE_0, Y_GE_1))))
        got = collect_predicates(f)
        assert len(got) == 2
        assert all(times == (1, 2) for _, times in got)

    def test_until_times(self):
        f = Until(1, 3, X_GE_0, Y_GE_0)
        got = dict(collect_predicates(f))
        left = X_GE_0.predicate
        right = Y_GE_0.predicate
        assert got[right] == (1, 2, 3)
        assert got[left] == (0, 1, 2, 3)

    def test_true_contributes_nothing(self):
        assert collect_predicates(TrueNode()) == []

    def test_rejects_negation(self):
        with pytest.raises(ValueError):
            collect_predicates(Not(X_GE_0))


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


def test_joint_trajectory_leaves_caller_arrays_writeable():
    xs, y = np.zeros((3, 1)), np.zeros((3, 2))
    tr = JointTrajectory(xs, (y,))
    xs[0] = 1.0
    y[0] = 1.0
    assert tr.xs[0, 0] == 0.0 and tr.ys[0][0, 0] == 0.0
    assert not tr.xs.flags.writeable and not tr.ys[0].flags.writeable
