"""Rollout simulation, trajectory error, ground-truth evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import context_scans, gapped_contexts, general_path, uniform_policy
from moesim.core import Dataset, Metric, Policy, Trajectory, Transition
from moesim.envs import (
    acrobot_heuristic_policy,
    make_acrobot,
    make_eps_greedy,
    make_planning_toy,
    make_windy2d,
    planning_toy_parametric_model,
    planning_toy_policies,
)
from moesim.envs.base import generate_trajectories
from moesim.envs.planning_toy import BEHAVIOR_STARTS, EVAL_START
from moesim.envs.windy import windy_behavior_policy, windy_eval_policy, windy_no_wind_model
from moesim.errors import BoundParams, choose_radius
from moesim.models import (
    NONPARAMETRIC,
    PARAMETRIC,
    FunctionModel,
    NonparametricModel,
    RidgePerActionModel,
)
from moesim.selection import SelectionContext
from moesim.simulator import (
    SimConfig,
    evaluate_policy_true,
    rollout_policy,
    simulate_value,
    trajectory_error,
)


def build_windy_context(seed=7, n_traj=10):
    env = make_windy2d(60)
    behavior = windy_behavior_policy()
    eval_policy = windy_eval_policy()
    trajs, _ = generate_trajectories(env, behavior, n_traj, seed=seed)
    ds = Dataset.from_trajectories(trajs, env.n_actions)
    m = Metric.euclidean(2)
    pmodel = windy_no_wind_model()
    lips, residuals = context_scans(ds, pmodel, m)
    radius = choose_radius(residuals[0], lips.l_t)
    ctx = SelectionContext(
        pmodel, NonparametricModel(ds, m, radius),
        BoundParams(lips.l_t, lips.l_r, 1.0), eval_policy, lips, residuals,
        is_terminal=env.is_terminal,
    )
    return env, ctx, eval_policy


class TestSimulateValue:
    def test_perfect_experts_reproduce_true_value(self):
        # both experts are the true environment: the estimate is exact
        horizon = 16
        env = make_planning_toy(horizon)
        eval_policy, behavior = planning_toy_policies()
        trajs, _ = generate_trajectories(env, behavior, 2, seed=0, starts=BEHAVIOR_STARTS)
        ds = Dataset.from_trajectories(trajs, 2)
        m = Metric.euclidean(2)
        exact = FunctionModel(lambda x, a: env.step(x, a)[0],
                              lambda x, a: env.step(x, a)[1])
        ctx = SelectionContext(
            exact, NonparametricModel(ds, m, 1.0),
            BoundParams(1.0, 1.0, 1.0), eval_policy, *context_scans(ds, exact, m),
        )
        est = simulate_value(
            ctx, SimConfig(4, horizon, 1.0, mode=PARAMETRIC, seed=0),
            initial_states=[EVAL_START],
        )
        truth = evaluate_policy_true(env, eval_policy, 1, horizon, 1.0, seed=0)
        assert est.v_hat == truth

    def test_forced_nonparametric_matches_hand_stepped_oracle(self):
        # replicate the nearest-neighbor simulation with an explicit loop
        horizon = 16
        env = make_planning_toy(horizon)
        eval_policy, behavior = planning_toy_policies()
        trajs, _ = generate_trajectories(env, behavior, 2, seed=0, starts=BEHAVIOR_STARTS)
        ds = Dataset.from_trajectories(trajs, 2)
        m = Metric.euclidean(2)
        identity = FunctionModel(lambda x, a: x, lambda x, a: 0.0)
        ctx = SelectionContext(
            identity, NonparametricModel(ds, m, 1.0),
            BoundParams(1.0, 1.0, 1.0), eval_policy, *context_scans(ds, identity, m),
        )
        est = simulate_value(
            ctx, SimConfig(1, horizon, 1.0, mode=NONPARAMETRIC, seed=1),
            initial_states=[EVAL_START],
        )
        x = EVAL_START.copy()
        expected_states = [tuple(x)]
        for _ in range(horizon):
            a = int(np.argmax(eval_policy.probs(x)))
            best = None
            best_key = None
            for tr in ds.transitions:
                if tr.a != a:
                    continue
                key = (m.distance(tr.x, x), tr.traj_id, tr.t)
                if best_key is None or key < best_key:
                    best, best_key = tr, key
            x = best.x_next.copy()
            expected_states.append(tuple(x))
        got = [tuple(s) for s in est.trajectories[0].states]
        assert got == expected_states

    def test_windy_nonparametric_only_is_capped(self):
        env, ctx, _ = build_windy_context()
        est = simulate_value(ctx, SimConfig(6, 60, 1.0, mode=NONPARAMETRIC, seed=2))
        assert est.n_unreached_goal == 6
        assert est.capped
        assert est.v_hat == -60.0

    @settings(max_examples=60, deadline=None)
    @given(
        case=gapped_contexts(),
        kind=st.sampled_from([PARAMETRIC, NONPARAMETRIC]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_expert_rollout_ends_at_the_first_action_it_has_no_data_for(
        self, case, kind, seed
    ):
        # a ridge expert fitted on starts 1e-160 apart can step to inf: then
        # the first such rollout fails at its first non-finite step
        ctx, data_actions = case
        cfg = SimConfig(4, 8, 0.9, mode=kind, seed=seed)
        starts = ctx.nonparametric.dataset.initial_states
        want = []
        for n in range(cfg.n_rollouts):
            rng = np.random.default_rng([seed, n])
            x = np.array(starts[int(rng.integers(len(starts)))])
            states, actions, rewards, reached = [x], [], [], False
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(cfg.horizon):
                    a = Policy.choose(ctx.policy.probs(x), rng.random())
                    if a not in data_actions[kind]:
                        break
                    x, r = ctx.model(kind).predict(x, a)
                    states.append(x)
                    actions.append(a)
                    rewards.append(r)
                    if ctx.is_terminal(x):
                        reached = True
                        break
            bad = [t for t, r in enumerate(rewards)
                   if not (np.isfinite(states[t + 1]).all() and np.isfinite(r))]
            if bad:
                with pytest.raises(ValueError) as err:
                    simulate_value(ctx, cfg)
                assert str(err.value) == (
                    f"rollout {n}: non-finite state or reward at trajectory step {bad[0]}"
                )
                return
            want.append((states, actions, rewards, reached))
        est = simulate_value(ctx, cfg)
        for n, (traj, (states, actions, rewards, reached)) in enumerate(
            zip(est.trajectories, want)
        ):
            assert np.array_equal(traj.states, np.array(states))
            assert traj.actions.tolist() == actions
            assert traj.rewards.tolist() == rewards
            assert traj.terminated == reached
            assert est.per_rollout_returns[n] == sum(0.9**t * r for t, r in enumerate(rewards))
            assert est.rollout_records[n]["model_usage"][kind] == len(actions)
        assert est.n_unreached_goal == sum(not reached for *_, reached in want)

    def test_a_diverging_parametric_rollout_names_the_rollout_and_step(self):
        # a ridge slope of 1e200 along x[0]: from the start x[0] = 1 the
        # first step lands at 1e200 and the second overflows to inf
        # it stops there, with no numpy warning (which the tests raise)
        class Counting(RidgePerActionModel):
            steps = []

            def predict(self, x, a):
                Counting.steps.append(x)
                return super().predict(x, a)

        ds = Dataset([Transition([0.0, 0.0], 0, 0.0, [0.0, 0.0])], [[1.0, 0.0]], 2, 1)
        ridge = Counting(2, 1, 1.0)
        ridge.coefs[0] = np.array([[1e200, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        m = Metric.euclidean(2)
        ctx = SelectionContext(
            ridge, NonparametricModel(ds, m, 0.0), BoundParams(1.0, 1.0, 1.0),
            uniform_policy(1), *context_scans(ds, ridge, m),
        )
        Counting.steps.clear()
        with pytest.raises(ValueError) as err:
            simulate_value(ctx, SimConfig(2, 4, 0.9, mode=PARAMETRIC, seed=0))
        assert str(err.value) == "rollout 0: non-finite state or reward at trajectory step 1"
        assert [x.tolist() for x in Counting.steps] == [[1.0, 0.0], [1e200, 0.0]]

    def test_usage_counts_sum_to_steps(self):
        env, ctx, _ = build_windy_context()
        est = simulate_value(ctx, SimConfig(5, 60, 1.0, seed=3))
        total_steps = sum(len(t) for t in est.trajectories)
        assert est.model_usage[PARAMETRIC] + est.model_usage[NONPARAMETRIC] == total_steps

    def test_seed_determinism(self):
        env, ctx, _ = build_windy_context()
        a = simulate_value(ctx, SimConfig(5, 60, 1.0, seed=4))
        b = simulate_value(ctx, SimConfig(5, 60, 1.0, seed=4))
        assert a.per_rollout_returns == b.per_rollout_returns
        assert a.model_usage == b.model_usage
        c = simulate_value(ctx, SimConfig(5, 60, 1.0, seed=5))
        assert a.per_rollout_returns != c.per_rollout_returns

    def test_vhat_is_mean_of_rollouts(self):
        env, ctx, _ = build_windy_context()
        est = simulate_value(ctx, SimConfig(7, 60, 1.0, seed=6))
        assert est.v_hat == pytest.approx(np.mean(est.per_rollout_returns), abs=1e-12)
        assert est.v_hat == pytest.approx(
            np.mean(est.per_rollout_returns[::-1]), abs=1e-12
        )


def with_policy(ctx, policy, true_step=None):
    """A fresh context over `ctx`'s experts and scans with another policy,
    in oracle mode against `true_step` when given."""
    return SelectionContext(
        ctx.parametric, ctx.nonparametric, ctx.bound, policy, ctx._global_lips,
        ctx._residuals, true_step=true_step, is_terminal=ctx.is_terminal,
    )


def acrobot_ridge_context():
    env = make_acrobot(30)
    trajs, _ = generate_trajectories(
        env, make_eps_greedy(acrobot_heuristic_policy(), 0.3), 4, seed=2
    )
    ds = Dataset.from_trajectories(trajs, env.n_actions)
    m = Metric.euclidean(4)
    ridge = RidgePerActionModel(4, 3, 1e-6).fit(ds)
    lips, residuals = context_scans(ds, ridge, m)
    ctx = SelectionContext(
        ridge, NonparametricModel(ds, m, choose_radius(residuals[0], lips.l_t)),
        BoundParams(lips.l_t, lips.l_r, 1.0), acrobot_heuristic_policy(), lips, residuals,
        is_terminal=env.is_terminal,
    )
    return env, ctx


def planning_toy_context():
    env = make_planning_toy(16)
    eval_policy, behavior = planning_toy_policies()
    trajs, _ = generate_trajectories(env, behavior, 2, seed=0, starts=BEHAVIOR_STARTS)
    ds = Dataset.from_trajectories(trajs, 2)
    m = Metric.euclidean(2)
    model = planning_toy_parametric_model("inaccurate")
    lips, residuals = context_scans(ds, model, m)
    ctx = SelectionContext(
        model, NonparametricModel(ds, m, 1.0), BoundParams(1.0, 1.0, 1.0), eval_policy,
        lips, residuals,
    )
    return env, ctx


@pytest.fixture(scope="module")
def deterministic_contexts():
    return [build_windy_context()[:2], acrobot_ridge_context(), planning_toy_context()]


def estimate_outcome(ctx, cfg, starts):
    """Everything `simulate_value` returns, in bytes where it holds arrays,
    with the MCTS trace, or the error it raises."""
    trace = []
    try:
        est = simulate_value(ctx, cfg, initial_states=starts, mcts_trace=trace)
    except ValueError as exc:
        return type(exc), str(exc)
    trajectories = [
        (t.states.tobytes(), t.actions.tolist(), t.rewards.tobytes(), t.terminated)
        for t in est.trajectories
    ]
    return (
        np.float64(est.v_hat).tobytes(), np.array(est.per_rollout_returns).tobytes(),
        est.n_unreached_goal, est.model_usage, trajectories, est.rollout_records, trace,
    )


@settings(max_examples=40, deadline=None)
@given(
    which=st.integers(0, 2),
    mode=st.sampled_from(["greedy", "mcts", PARAMETRIC, NONPARAMETRIC]),
    oracle=st.booleans(),
    n_rollouts=st.integers(1, 8),
    budget=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_rollouts_from_equal_starts_equal_the_general_path(
    deterministic_contexts, which, mode, oracle, n_rollouts, budget, seed, data
):
    # a deterministic policy rolls each start once; the same policy without
    # its action function rolls every rollout
    env, ctx = deterministic_contexts[which]
    initial = ctx.nonparametric.dataset.initial_states
    picks = data.draw(st.lists(st.integers(0, len(initial) - 1), min_size=1, max_size=6))
    starts = [initial[i] for i in picks]
    true_step = env.step if oracle else None
    cfg = SimConfig(n_rollouts, 30, 0.95, mode=mode, mcts_budget=budget, seed=seed)
    got = estimate_outcome(with_policy(ctx, ctx.policy, true_step), cfg, starts)
    want = estimate_outcome(with_policy(ctx, general_path(ctx.policy), true_step), cfg, starts)
    assert got == want


class TestTrajectoryError:
    def _chain(self, states):
        n = len(states) - 1
        return Trajectory(np.array(states, float), [0] * n, [-1.0] * n)

    def test_identical_is_zero(self):
        states = [(float(t), 0.0) for t in range(8)]
        traj = self._chain(states)
        assert trajectory_error(traj, traj, Metric.euclidean(2)) == 0.0

    def test_constant_offset_sums(self):
        # same start, then a constant 0.1 offset on the ten later states
        base = [(float(t), 0.0) for t in range(11)]
        shifted = [base[0]] + [(x, 0.1) for x, _ in base[1:]]
        a = self._chain(base)
        b = self._chain(shifted)
        got = trajectory_error(a, b, Metric.euclidean(2))
        assert got == pytest.approx(1.0)

    def test_truncates_to_shorter(self):
        long = self._chain([(float(t), 0.0) for t in range(11)])
        short = self._chain([(float(t), 1.0) if t else (0.0, 0.0) for t in range(4)])
        got = trajectory_error(short, long, Metric.euclidean(2))
        assert got == pytest.approx(3.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 40), st.integers(0, 40), st.integers(0, 2**32 - 1))
    def test_equals_a_loop_over_metric_distance(self, dim, a, b, seed):
        # bit for bit, on weighted metrics and coordinates over six decades
        rng = np.random.default_rng(seed)
        start = rng.normal(size=dim) * 10
        sim, truth = (
            Trajectory(np.vstack([start, rng.normal(size=(k, dim)) * 10 ** rng.uniform(-3, 3)]),
                       [0] * k, [-1.0] * k)
            for k in (a, b)
        )
        m = Metric(rng.uniform(0.25, 4.0, size=dim))
        want = float(sum(m.distance(x, y) for x, y in zip(sim.states, truth.states)))
        assert trajectory_error(sim, truth, m) == want

    def test_different_starts_rejected(self):
        a = self._chain([(0.0, 0.0), (1.0, 0.0)])
        b = self._chain([(0.5, 0.0), (1.5, 0.0)])
        with pytest.raises(ValueError):
            trajectory_error(a, b, Metric.euclidean(2))

    def test_mixture_vs_truth_matches_recomputation_from_logged_states(self):
        # independent recomputation: walk the two logged state lists and sum
        # distances by hand
        horizon = 14
        env = make_planning_toy(horizon)
        eval_policy, behavior = planning_toy_policies()
        trajs, _ = generate_trajectories(env, behavior, 2, seed=0, starts=BEHAVIOR_STARTS)
        ds = Dataset.from_trajectories(trajs, 2)
        m = Metric.euclidean(2)
        from moesim.envs import planning_toy_parametric_model

        pmodel = planning_toy_parametric_model("accurate")
        lips, residuals = context_scans(ds, pmodel, m)
        ctx = SelectionContext(
            pmodel, NonparametricModel(ds, m, choose_radius(residuals[0], lips.l_t)),
            BoundParams(lips.l_t, lips.l_r, 1.0), eval_policy, lips, residuals,
        )
        est = simulate_value(
            ctx, SimConfig(1, horizon, 1.0, seed=0), initial_states=[EVAL_START]
        )
        sim = est.trajectories[0]
        (truth,) = rollout_policy(env, eval_policy, [EVAL_START], horizon, seed=0, ids=[0])
        got = trajectory_error(sim, truth, m)
        sim_states = sim.states
        true_states = truth.states
        manual = 0.0
        for t in range(min(len(sim_states), len(true_states))):
            diff = np.asarray(sim_states[t]) - np.asarray(true_states[t])
            manual += float(np.sqrt((diff * diff).sum()))
        assert got == pytest.approx(manual, abs=1e-12)
        assert got > 0.0  # the mixture drifts on this toy


class TestEvaluatePolicyTrue:
    def test_deterministic_env_and_policy(self):
        horizon = 12
        env = make_planning_toy(horizon)
        eval_policy, _ = planning_toy_policies()
        vals = [
            evaluate_policy_true(env, eval_policy, n, horizon, 1.0, seed=s)
            for n, s in [(1, 0), (5, 1), (9, 2)]
        ]
        assert vals[0] == vals[1] == vals[2]

    def test_negative_step_count_on_termination(self):
        env = make_windy2d(60)
        pol = windy_behavior_policy()
        x0 = env.sample_initial(np.random.default_rng(0))
        (traj,) = rollout_policy(env, pol, [x0], 60, seed=0, ids=[0])
        assert traj.terminated
        from moesim.core import trajectory_return

        assert trajectory_return(traj, 1.0) == -float(len(traj))

    def test_planning_toy_value_matches_hand_stepped_oracle(self):
        horizon = 16
        env = make_planning_toy(horizon)
        eval_policy, _ = planning_toy_policies()
        got = evaluate_policy_true(env, eval_policy, 3, horizon, 1.0, seed=0)
        x = np.array([0.0, 0.0])
        total = 0.0
        for _ in range(horizon):
            total += x[0] + x[1]
            a = 0 if 1.0 <= x[0] <= 11.0 else 1
            x = x + (np.array([1.0, 0.0]) if a == 0 else np.array([1.0, 1.0]))
        assert got == pytest.approx(total)


class TestSimConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimConfig(0, 5, 1.0)
        with pytest.raises(ValueError):
            SimConfig(1, 0, 1.0)
        with pytest.raises(ValueError):
            SimConfig(1, 5, 0.0)
        with pytest.raises(ValueError):
            SimConfig(1, 5, 1.0, mode="random")
        with pytest.raises(ValueError):
            SimConfig(1, 5, 1.0, mode="mcts", mcts_budget=0)
