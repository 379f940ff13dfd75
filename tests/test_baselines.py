"""Importance-sampling estimator family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moesim.baselines import (
    CoverageError,
    ISInput,
    ModelValueFunctions,
    VARIANTS,
    is_estimate,
)
from moesim.core import Dataset, Metric, Policy, Trajectory, trajectory_return
from moesim.envs import acrobot_heuristic_policy, make_acrobot, make_eps_greedy
from moesim.envs.base import generate_trajectories
from moesim.models import FunctionModel, RidgePerActionModel


from helpers import DeterministicMDP, reference_is_estimate


def chain(states, rewards, actions=None):
    """A 1-D trajectory through `states`."""
    actions = actions or [0] * (len(states) - 1)
    return Trajectory(np.array(states, float)[:, None], actions, rewards)


def random_logged_batch(rng, n_traj=30, horizon=5):
    """Random-MDP logged data with matching behavior probabilities."""
    mdp = DeterministicMDP()
    env = mdp.env(horizon)
    base = Policy.deterministic(lambda x: 0 if x[0] < 2 else 1, 2)
    behavior = make_eps_greedy(base, float(rng.uniform(0.2, 0.8)))
    trajs, probs = generate_trajectories(env, behavior, n_traj, seed=int(rng.integers(1e6)))
    return env, base, behavior, trajs, probs


class TestOnPolicyReduction:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        eps=st.floats(0.0, 1.0),
        n_traj=st.integers(1, 40),
        gamma=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_all_ratio_variants_equal_mean_return(self, seed, eps, n_traj, gamma):
        # acceptance criterion 5 keeps its fixed loop over 50 datasets
        env = DeterministicMDP().env(5)
        behavior = make_eps_greedy(Policy.deterministic(lambda x: 0 if x[0] < 2 else 1, 2), eps)
        trajs, probs = generate_trajectories(env, behavior, n_traj, seed=seed)
        inp = ISInput.build(trajs, probs, behavior, gamma)  # pi_e == pi_b
        mean_return = float(np.mean([trajectory_return(t, gamma) for t in trajs]))
        for variant in ("IS", "WIS", "PDIS", "CWPDIS"):
            assert is_estimate(inp, variant) == pytest.approx(mean_return, abs=1e-12)

    def test_dr_wdr_on_policy_with_zero_value_model(self):
        rng = np.random.default_rng(1)
        env, base, behavior, trajs, probs = random_logged_batch(rng)
        inp = ISInput.build(trajs, probs, behavior, 1.0)
        zero = ModelValueFunctions(
            FunctionModel(lambda x, a: x, lambda x, a: 0.0), behavior, 5, 1.0, env.terminal_many
        )
        mean_return = float(np.mean([trajectory_return(t, 1.0) for t in trajs]))
        assert is_estimate(inp, "DR", value_model=zero) == pytest.approx(mean_return, abs=1e-12)
        assert is_estimate(inp, "WDR", value_model=zero) == pytest.approx(mean_return, abs=1e-12)


class TestHandComputedWeights:
    def test_single_trajectory_ratio_eight(self):
        # deterministic pi_e matches all logged actions; pb = 0.5 per step
        traj = chain([0.0, 1.0, 2.0, 2.0], [1.0, 2.0, 0.0])
        pe = Policy.deterministic(lambda x: 0, 2)
        inp = ISInput(
            (traj,), (np.array([0.5, 0.5, 0.5]),), (np.array([1.0, 1.0, 1.0]),), 1.0
        )
        g = trajectory_return(traj, 1.0)
        assert is_estimate(inp, "IS") == pytest.approx(8.0 * g)
        assert is_estimate(inp, "WIS") == pytest.approx(g)

    def test_coverage_violation(self):
        traj = chain([0.0, 1.0], [1.0])
        with pytest.raises(CoverageError):
            ISInput((traj,), (np.array([0.0]),), (np.array([1.0]),), 1.0)

    def test_unknown_variant(self):
        traj = chain([0.0, 1.0], [1.0])
        inp = ISInput((traj,), (np.array([0.5]),), (np.array([1.0]),), 1.0)
        with pytest.raises(ValueError):
            is_estimate(inp, "MAGIC")
        with pytest.raises(ValueError):
            is_estimate(inp, "DR")  # missing value model


class TestSelfNormalizationBounds:
    def test_wis_within_return_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            env, base, behavior, trajs, probs = random_logged_batch(rng)
            eval_policy = make_eps_greedy(base, 0.05)
            inp = ISInput.build(trajs, probs, eval_policy, 1.0)
            returns = [trajectory_return(t, 1.0) for t in trajs]
            wis = is_estimate(inp, "WIS")
            assert min(returns) - 1e-9 <= wis <= max(returns) + 1e-9

    def test_cwpdis_within_per_step_reward_envelope(self):
        # per-step self-normalization bounds each step's contribution by the
        # extreme rewards observed at that step
        rng = np.random.default_rng(4)
        for _ in range(20):
            env, base, behavior, trajs, probs = random_logged_batch(rng)
            eval_policy = make_eps_greedy(base, 0.05)
            gamma = 0.9
            inp = ISInput.build(trajs, probs, eval_policy, gamma)
            t_max = max(len(t) for t in trajs)
            lo = hi = 0.0
            for t in range(t_max):
                step_rewards = [
                    (traj.transitions[t].r if t < len(traj) else 0.0) for traj in trajs
                ]
                lo += gamma**t * min(step_rewards)
                hi += gamma**t * max(step_rewards)
            got = is_estimate(inp, "CWPDIS")
            assert lo - 1e-9 <= got <= hi + 1e-9


class ExactValueFunctions:
    """True finite-horizon Q/V for a deterministic environment under a
    (possibly stochastic) policy, by exhaustive recursion over actions."""

    def __init__(self, env, policy, gamma, horizon=4):
        self.env = env
        self.policy = policy
        self.gamma = gamma
        self.horizon = horizon

    def fill(self, trajectories):
        """Exact values have no rollouts to run ahead of the tables."""

    def q(self, x, a, remaining):
        if remaining <= 0:
            return 0.0
        x_next, r = self.env.step(np.asarray(x, float), a)
        return r + self.gamma * self.v(x_next, remaining - 1)

    def v(self, x, remaining):
        if remaining <= 0:
            return 0.0
        p = self.policy.probs(np.asarray(x, float))
        return float(sum(pi * self.q(x, a, remaining) for a, pi in enumerate(p) if pi > 0))


class TestDoublyRobust:
    def test_perfect_model_on_policy_zero_variance(self):
        mdp = DeterministicMDP()
        horizon = 4
        env = mdp.env(horizon)
        base = Policy.deterministic(lambda x: 0 if x[0] < 2 else 1, 2)
        behavior = make_eps_greedy(base, 0.4)
        trajs, probs = generate_trajectories(env, behavior, 40, seed=5)
        inp = ISInput.build(trajs, probs, behavior, 1.0)
        vm = ExactValueFunctions(env, behavior, 1.0)
        # every per-trajectory term telescopes to V(x0), so any resample of
        # the data yields the same estimate: the true value, exactly
        full = is_estimate(inp, "DR", value_model=vm)
        for subset in (slice(0, 20), slice(20, 40), slice(0, 7)):
            sub = ISInput(
                inp.trajectories[subset], inp.behavior_probs[subset],
                inp.eval_probs[subset], 1.0,
            )
            assert is_estimate(sub, "DR", value_model=vm) == pytest.approx(full, abs=1e-9)
        assert full == pytest.approx(vm.v(np.array([0.0]), horizon), abs=1e-9)

    def test_model_rollout_value_functions_are_finite_controls(self):
        # the shipped value model (deterministic argmax rollout of the
        # parametric model) is an approximation; DR stays well-defined
        rng = np.random.default_rng(6)
        env, base, behavior, trajs, probs = random_logged_batch(rng)
        eval_policy = make_eps_greedy(base, 0.1)
        inp = ISInput.build(trajs, probs, eval_policy, 1.0)
        exact_env_model = FunctionModel(lambda x, a: env.step(x, a)[0],
                                        lambda x, a: env.step(x, a)[1])
        vm = ModelValueFunctions(exact_env_model, eval_policy, 5, 1.0, env.terminal_many)
        dr = is_estimate(inp, "DR", value_model=vm)
        wdr = is_estimate(inp, "WDR", value_model=vm)
        assert np.isfinite(dr) and np.isfinite(wdr)

    def test_deterministic_policy_model_value_functions_telescope(self):
        # with a deterministic policy the argmax rollout IS the exact Q, so
        # the shipped value model also achieves the zero-variance property
        mdp = DeterministicMDP()
        horizon = 4
        env = mdp.env(horizon)
        pol = Policy.deterministic(lambda x: 0 if x[0] < 2 else 1, 2)
        trajs, probs = generate_trajectories(env, pol, 6, seed=8)
        inp = ISInput.build(trajs, probs, pol, 1.0)
        exact_env_model = FunctionModel(lambda x, a: env.step(x, a)[0],
                                        lambda x, a: env.step(x, a)[1])
        vm = ModelValueFunctions(exact_env_model, pol, horizon, 1.0, env.terminal_many)
        full = is_estimate(inp, "DR", value_model=vm)
        sub = ISInput(inp.trajectories[:2], inp.behavior_probs[:2], inp.eval_probs[:2], 1.0)
        assert is_estimate(sub, "DR", value_model=vm) == pytest.approx(full, abs=1e-12)


class TestValueFunctionMemo:
    """`ModelValueFunctions.q` memoizes per (state bytes, action, remaining);
    q, v, DR and WDR must equal those of a fresh instance (empty memo)."""

    def test_acrobot_q_v_and_dr_equal_a_fresh_instance(self):
        horizon = 30
        env = make_acrobot(horizon)
        eval_policy = make_eps_greedy(acrobot_heuristic_policy(), 0.1)
        behavior = make_eps_greedy(acrobot_heuristic_policy(), 0.3)
        trajs, probs = generate_trajectories(env, behavior, 3, seed=2)
        ds = Dataset.from_trajectories(trajs, env.n_actions)
        model = RidgePerActionModel(ds.dim, ds.n_actions, 1e-3).fit(ds)

        def fresh():
            return ModelValueFunctions(
                model, eval_policy, horizon, 0.99, terminal_many=env.terminal_many
            )

        vm = fresh()
        steps = [(t, tr) for traj in trajs for t, tr in enumerate(traj.transitions)]
        for t, tr in steps + steps[::-1]:
            remaining = horizon - t
            assert vm.q(tr.x, tr.a, remaining) == fresh().q(tr.x, tr.a, remaining)
            assert vm.q(tr.x.copy(), tr.a, remaining) == fresh().q(tr.x, tr.a, remaining)
            assert vm.v(tr.x, remaining) == fresh().v(tr.x, remaining)
            for a in range(env.n_actions):
                assert vm.q(tr.x, a, remaining - 1) == fresh().q(tr.x, a, remaining - 1)

        inp = ISInput.build(trajs, probs, eval_policy, 0.99)
        shared = fresh()
        for variant in ("DR", "WDR", "DR"):
            assert is_estimate(inp, variant, value_model=shared) == is_estimate(
                inp, variant, value_model=fresh()
            )


class TestISInputValidation:
    def test_misaligned_probs_rejected(self):
        traj = chain([0.0, 1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            ISInput((traj,), (np.array([0.5]),), (np.array([1.0, 1.0]),), 1.0)
        with pytest.raises(ValueError):
            ISInput((traj,), (np.array([0.5, 0.5]),), (np.array([1.0, 2.0]),), 1.0)
        with pytest.raises(ValueError):
            ISInput((), (), (), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["behavior_probs", "eval_probs"])
    def test_a_non_finite_probability_is_rejected_naming_its_list(self, bad, name):
        # NaN used to pass both checks: IS and PDIS gave nan, WIS a silent 0.0
        traj = chain([0.0, 1.0, 2.0], [1.0, 1.0])
        probs = {"behavior_probs": np.array([0.5, 0.5]), "eval_probs": np.array([1.0, 1.0])}
        probs[name][1] = bad
        with pytest.raises(ValueError) as err:
            ISInput((traj,), (probs["behavior_probs"],), (probs["eval_probs"],), 1.0)
        assert type(err.value) is ValueError and str(err.value) == f"{name} must be finite"

    @pytest.mark.parametrize("pb", [0.0, -0.0, -0.5])
    def test_a_behavior_probability_of_zero_or_below_is_a_coverage_error(self, pb):
        traj = chain([0.0, 1.0, 2.0], [1.0, 1.0])
        with pytest.raises(CoverageError, match="coverage violation"):
            ISInput((traj,), (np.array([0.5, pb]),), (np.array([1.0, 1.0]),), 1.0)

    def test_variant_list_is_complete(self):
        assert set(VARIANTS) == {"IS", "WIS", "PDIS", "CWPDIS", "DR", "WDR"}


# ---------------------------------------------------------------------------
# The tables against the per-column loop
# ---------------------------------------------------------------------------

MAGNITUDES = st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8])


def _signed(draw):
    return draw(MAGNITUDES) * draw(st.floats(-1.0, 1.0))


@st.composite
def logged_tables(draw):
    """1-20 logged 1-D trajectories of unequal lengths, empty ones among
    them, whose rewards span 16 orders of magnitude (8 or more rows reach
    numpy's pairwise summation), with a step from which every evaluation
    probability may be 0 (the ratio total of every later column is then
    0), a discount below 1 or 1, and value functions of a stochastic or a
    deterministic evaluation policy over 3 actions whose model rollouts
    can end in the terminal region x > 2.5."""
    n = draw(st.integers(1, 20))
    lengths = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    dead = draw(st.none() | st.integers(0, 12))
    trajectories, pbs, pes = [], [], []
    for m in lengths:
        states = draw(st.lists(st.floats(-3.0, 3.0), min_size=m + 1, max_size=m + 1))
        actions = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        trajectories.append(Trajectory(np.array(states)[:, None], actions,
                                       [_signed(draw) for _ in range(m)]))
        pbs.append(np.array(draw(st.lists(st.sampled_from([0.1, 0.25, 1 / 3, 0.9, 1.0]),
                                          min_size=m, max_size=m))))
        pe = np.array(draw(st.lists(st.sampled_from([0.0, 0.2, 1 / 3, 0.5, 1.0]),
                                    min_size=m, max_size=m)))
        if dead is not None:
            pe[dead:] = 0.0
        pes.append(pe)
    gamma = draw(st.sampled_from([1.0, 0.97]) | st.floats(0.1, 1.0))
    inp = ISInput(tuple(trajectories), tuple(pbs), tuple(pes), gamma)
    model = FunctionModel(
        lambda x, a: 0.8 * x + 0.3 * a, lambda x, a: float(np.sin(3.0 * x[0])) + a,
        lambda X, A: (0.8 * X + 0.3 * A[:, None], np.sin(3.0 * X[:, 0]) + A),
    )
    if draw(st.booleans()):
        policy = Policy.deterministic(
            lambda x: 2 if x[0] > 0 else 0, 3, lambda X: np.where(X[:, 0] > 0, 2, 0)
        )
    else:
        policy = Policy(
            3,
            lambda x: np.array([0.2, 0.3, 0.5] if x[0] > 0 else [0.5, 0.2, 0.3]),
            lambda X: np.where(X[:, :1] > 0, [0.2, 0.3, 0.5], [0.5, 0.2, 0.3]),
        )
    horizon = max(lengths) + draw(st.integers(0, 3))

    def value_model():
        return ModelValueFunctions(model, policy, horizon, gamma, lambda X: X[:, 0] > 2.5)

    return inp, value_model


@settings(max_examples=150, deadline=None)
@given(logged_tables())
def test_every_variant_equals_the_per_column_loop_bit_for_bit(case):
    inp, value_model = case
    for variant in VARIANTS:
        got = is_estimate(inp, variant, value_model=value_model())
        want = reference_is_estimate(inp, variant, value_model=value_model())
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), variant
