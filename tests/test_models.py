"""The two experts: ridge/MLP parametric models and the nearest-neighbor
nonparametric model."""

import numpy as np
import pytest

from helpers import flatten, mlp_loss, unflatten_like
from moesim.core import Dataset, Metric, Transition
from moesim.envs import make_planning_toy, planning_toy_policies
from moesim.envs.base import generate_trajectories
from moesim.envs.planning_toy import BEHAVIOR_STARTS
from moesim.models import (
    MLPModel,
    MLPParams,
    NonparametricModel,
    NoSupportError,
    RidgePerActionModel,
    mlp_forward,
    mlp_gradient,
    mlp_init,
)


def line_dataset(n=20, slope=1.0, offset=1.0, action=0, n_actions=1):
    """1-D data generated by x' = slope * x + offset, reward = 2x."""
    transitions = []
    for i in range(n):
        x = np.array([i * 0.5])
        transitions.append(
            Transition(x, action, float(2 * x[0]), slope * x + offset, 0, i)
        )
    return Dataset(transitions, [transitions[0].x], 1, n_actions)


def toy_behavior_dataset(horizon=12):
    env = make_planning_toy(horizon)
    _, behavior = planning_toy_policies()
    trajs, _ = generate_trajectories(env, behavior, 2, seed=0, starts=BEHAVIOR_STARTS)
    return Dataset.from_trajectories(trajs, 2)


class TestRidge:
    def test_recovers_exact_linear_shift(self):
        ds = line_dataset()
        model = RidgePerActionModel(ds.dim, ds.n_actions, 0.0).fit(ds)
        for q in (0.3, 2.2, 7.9):
            pred, r = model.predict(np.array([q]), 0)
            assert pred[0] == pytest.approx(q + 1.0, abs=1e-8)
            assert r == pytest.approx(2 * q, abs=1e-8)

    def test_single_transition_interpolates(self):
        tr = Transition(np.array([2.0, -1.0]), 0, 3.5, np.array([0.5, 0.5]), 0, 0)
        ds = Dataset([tr], [tr.x], 2, 1)
        model = RidgePerActionModel(ds.dim, ds.n_actions, 0.0).fit(ds)
        pred, r = model.predict(tr.x, 0)
        assert np.allclose(pred, tr.x_next, atol=1e-9)
        assert r == pytest.approx(3.5, abs=1e-9)

    def test_matches_normal_equations_oracle(self):
        # independent least-squares oracle: solve (A^T A) W = A^T Y directly
        ds = toy_behavior_dataset()
        lam = 0.1
        model = RidgePerActionModel(ds.dim, ds.n_actions, lam).fit(ds)
        for a in range(2):
            X, Y, R = ds.action_arrays(a)
            A = np.column_stack([X, np.ones(len(X))])
            targets = np.column_stack([Y, R])
            penalty = lam * np.eye(3)
            penalty[2, 2] = 0.0
            W = np.linalg.solve(A.T @ A + penalty, A.T @ targets)
            for q in [np.array([0.0, 0.0]), np.array([3.0, 1.0]), np.array([8.0, 2.0])]:
                expect = np.append(q, 1.0) @ W
                pred, r = model.predict(q, a)
                assert np.allclose(pred, expect[:2], atol=1e-8)
                assert r == pytest.approx(expect[2], abs=1e-8)

    @pytest.mark.parametrize("lam", [0.0, 1e-6])
    def test_constant_target_is_predicted_exactly(self, lam):
        # a reward that is -1 on every logged step comes back as exactly -1
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 4)) * [1.0, 2.0, 5.0, 9.0]
        transitions = [Transition(X[i], 0, -1.0, 0.9 * X[i], 0, i) for i in range(300)]
        ds = Dataset(transitions, [X[0]], 4, 1)
        model = RidgePerActionModel(ds.dim, ds.n_actions, lam).fit(ds)
        for q in rng.normal(size=(50, 4)) * 5.0:
            assert model.predict(q, 0)[1] == -1.0

    def test_unfitted_action_raises(self):
        ds = line_dataset(n_actions=2)  # action 1 has no data
        model = RidgePerActionModel(ds.dim, ds.n_actions, 0.0).fit(ds)
        assert model.fitted(0) and not model.fitted(1)
        with pytest.raises(NoSupportError):
            model.predict(np.array([1.0]), 1)

    def test_variance_shrinks_with_lambda(self):
        rng = np.random.default_rng(2)
        transitions = [
            Transition(rng.normal(size=2), 0, float(rng.normal()),
                       rng.normal(size=2), 0, i)
            for i in range(30)
        ]
        ds = Dataset(transitions, [transitions[0].x], 2, 1)
        queries = rng.normal(size=(50, 2))
        variances = []
        for lam in (1e-3, 1.0, 1e3):
            model = RidgePerActionModel(ds.dim, ds.n_actions, lam).fit(ds)
            preds = np.array([model.predict(q, 0)[0] for q in queries])
            variances.append(float(preds.var(axis=0).sum()))
        assert variances[0] > variances[1] > variances[2]


class TestNonparametric:
    def test_prediction_at_support_is_exact(self):
        ds = line_dataset()
        model = NonparametricModel(ds, Metric.euclidean(1), 0.0)
        tr = ds.transitions[3]
        pred, r = model.predict(tr.x, 0)
        assert np.array_equal(pred, tr.x_next)
        assert r == tr.r

    def test_predictions_come_from_observed_outcomes(self):
        rng = np.random.default_rng(4)
        transitions = [
            Transition(rng.normal(size=2), int(rng.integers(2)),
                       float(rng.normal()), rng.normal(size=2), 0, i)
            for i in range(40)
        ]
        ds = Dataset(transitions, [transitions[0].x], 2, 2)
        model = NonparametricModel(ds, Metric.euclidean(2), 0.0)
        observed = {(tuple(tr.x_next), tr.r) for tr in transitions}
        for _ in range(60):
            x = rng.normal(size=2)
            a = int(rng.integers(2))
            pred, r = model.predict(x, a)
            assert (tuple(pred), r) in observed

    def test_mutating_a_prediction_leaves_later_ones_unchanged(self):
        ds = line_dataset()
        m = Metric.euclidean(1)
        model = NonparametricModel(ds, m, 0.0)
        x = np.array([3.2])
        first, r = model.predict(x, 0)
        expected = first.copy()
        first[:] = -99.0
        for query in (x, x.copy(), np.array([3.2])):
            again, r_again = model.predict(query, 0)
            assert np.array_equal(again, expected) and r_again == r
            again[:] = -98.0
        assert np.array_equal(ds.nexts[ds.nearest_index(x, 0, m)], expected)
        assert np.array_equal(NonparametricModel(ds, m, 0.0).predict(x, 0)[0], expected)

    def test_no_support_raises(self):
        ds = line_dataset(n_actions=3)
        model = NonparametricModel(ds, Metric.euclidean(1), 0.0)
        with pytest.raises(NoSupportError):
            model.predict(np.array([0.0]), 2)

    def test_toy_behavior_support_query(self):
        # querying the diagonal trajectory at its own start reproduces the
        # recorded outcome of the environment exactly
        ds = toy_behavior_dataset()
        model = NonparametricModel(ds, Metric.euclidean(2), 0.0)
        pred, r = model.predict(np.array([0.0, 0.0]), 1)
        assert np.array_equal(pred, np.array([1.0, 1.0]))
        assert r == 0.0


class TestMLPGradient:
    def test_zero_network_zero_targets(self):
        params = MLPParams(
            [np.zeros((2, 3)), np.zeros((3, 1))], [np.zeros(3), np.zeros(1)]
        )
        X = np.zeros((4, 2))
        Y = np.zeros((4, 1))
        g = mlp_gradient(params, X, Y)
        assert all(np.all(w == 0) for w in g.weights)
        assert all(np.all(b == 0) for b in g.biases)

    def test_zeroed_hidden_layer_reduces_to_linear_regression(self):
        # with the first layer zeroed, hidden activations are tanh(0) = 0 and
        # the output depends linearly on the output bias alone; the gradient
        # must equal the closed-form least-squares gradient for that layer
        rng = np.random.default_rng(0)
        params = MLPParams(
            [np.zeros((2, 3)), rng.normal(size=(3, 1))], [np.zeros(3), np.array([0.7])]
        )
        X = rng.normal(size=(1, 2))
        Y = np.array([[2.5]])
        g = mlp_gradient(params, X, Y)
        assert g.biases[1][0] == pytest.approx(2.0 * (0.7 - 2.5), abs=1e-12)
        assert np.allclose(g.weights[1], 0.0)  # zero hidden features

    @pytest.mark.parametrize("layers", [1, 2])
    def test_matches_central_finite_differences(self, layers):
        rng = np.random.default_rng(layers)
        params = mlp_init(3, 2, 4, layers, rng)
        X = rng.normal(size=(6, 3))
        Y = rng.normal(size=(6, 2))
        g = flatten(mlp_gradient(params, X, Y))
        flat = flatten(params)
        num = np.zeros_like(flat)
        h = 1e-5
        for i in range(len(flat)):
            up = flat.copy()
            up[i] += h
            dn = flat.copy()
            dn[i] -= h
            num[i] = (
                mlp_loss(unflatten_like(params, up), X, Y)
                - mlp_loss(unflatten_like(params, dn), X, Y)
            ) / (2 * h)
        denom = np.maximum(np.abs(num), 1e-8)
        assert np.max(np.abs(g - num) / denom) < 1e-4

    def test_empty_batch_rejected(self):
        params = mlp_init(2, 1, 3, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp_gradient(params, np.zeros((0, 2)), np.zeros((0, 1)))


class TestMLPModel:
    def test_learns_linear_map(self):
        rng = np.random.default_rng(9)
        transitions = []
        for i in range(60):
            x = rng.uniform(-1, 1, size=2)
            transitions.append(
                Transition(x, int(rng.integers(2)), float(x.sum()), x * 0.5, 0, i)
            )
        ds = Dataset(transitions, [transitions[0].x], 2, 2)
        model = MLPModel(ds.dim, ds.n_actions, 16, 1, seed=1).fit(ds, 3000, 0.2)
        err = 0.0
        for _ in range(20):
            x = rng.uniform(-1, 1, size=2)
            pred, r = model.predict(x, int(rng.integers(2)))
            err = max(err, float(np.abs(pred - 0.5 * x).max()), abs(r - x.sum()))
        assert err < 0.05

    def test_deterministic_under_seed(self):
        ds = toy_behavior_dataset()
        a = MLPModel(ds.dim, ds.n_actions, 8, 1, seed=3).fit(ds, 200, 0.05)
        b = MLPModel(ds.dim, ds.n_actions, 8, 1, seed=3).fit(ds, 200, 0.05)
        q = np.array([1.5, 0.5])
        pa, ra = a.predict(q, 0)
        pb, rb = b.predict(q, 0)
        assert np.array_equal(pa, pb) and ra == rb

    def test_unseen_action_raises(self):
        ds = line_dataset(n_actions=2)
        model = MLPModel(ds.dim, ds.n_actions, 4, 1).fit(ds, 50, 0.05)
        with pytest.raises(NoSupportError):
            model.predict(np.array([0.0]), 1)


class TestRidgeDeterminism:
    def test_same_config_bit_identical(self):
        ds = toy_behavior_dataset()
        a = RidgePerActionModel(ds.dim, ds.n_actions, 0.3).fit(ds)
        b = RidgePerActionModel(ds.dim, ds.n_actions, 0.3).fit(ds)
        q = np.array([4.2, 1.1])
        assert np.array_equal(a.predict(q, 0)[0], b.predict(q, 0)[0])
        assert a.predict(q, 1)[1] == b.predict(q, 1)[1]

