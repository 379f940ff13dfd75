"""Ground-truth environments, scripted policies, and the data harness."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import context_scans, numpy_acrobot_step, uniform_policy
from moesim.core import Dataset, Metric, Policy, trajectory_return
from moesim.envs import (
    acrobot_heuristic_policy,
    acrobot_step,
    make_acrobot,
    make_eps_greedy,
    make_planning_toy,
    make_windy2d,
    planning_toy_policies,
    planning_toy_parametric_model,
    planning_toy_reward_model,
    planning_toy_step,
    tip_height,
)
from moesim.envs.acrobot import MAX_VEL1, MAX_VEL2
from moesim.envs.base import generate_trajectories
from moesim.envs.planning_toy import BEHAVIOR_STARTS, DIAG_ACTION, RIGHT_ACTION
from moesim.envs.windy import (
    DOWN,
    RIGHT,
    UP,
    in_goal,
    windy2d_step,
    windy2d_step_many,
    windy_behavior_policy,
    windy_eval_policy,
)
from moesim.errors import BoundParams, choose_radius
from moesim.experiments import generate_batch, validate_config
from moesim.models import PARAMETRIC, FunctionModel, NonparametricModel
from moesim.selection import SelectionContext
from moesim.simulator import SimConfig, evaluate_policy_true, rollout_policy, simulate_value


class TestWindy2D:
    def test_step_without_wind_at_ground_level(self):
        x_next, r = windy2d_step(np.array([0.0, 0.0]), UP)
        assert np.allclose(x_next, [0.0, 1.0]) and r == -1.0

    def test_wind_subtracts_from_rightward_motion(self):
        x_next, _ = windy2d_step(np.array([0.0, 2.0]), RIGHT)
        assert np.allclose(x_next, [0.94, 2.0])

    def test_goal_gives_negative_step_count(self):
        env = make_windy2d(60)
        rng = np.random.default_rng(1)
        (traj,) = rollout_policy(
            env, windy_behavior_policy(), [env.sample_initial(rng)], 60, seed=1, ids=[0]
        )
        assert traj.terminated
        assert trajectory_return(traj, 1.0) == -float(len(traj))
        assert in_goal(traj.states[-1])

    def test_step_determinism(self):
        x = np.array([1.234, 5.678])
        a1 = windy2d_step(x, DOWN)
        a2 = windy2d_step(x, DOWN)
        assert np.array_equal(a1[0], a2[0]) and a1[1] == a2[1]

    def test_behavior_enters_goal_moving_down_only(self):
        # the data-side guarantee behind the capped nonparametric estimator:
        # the only transitions ending inside the goal carry the down action
        env = make_windy2d(60)
        trajs, _ = generate_trajectories(env, windy_behavior_policy(), 25, seed=3)
        entries = []
        for traj in trajs:
            assert traj.terminated
            for tr in traj.transitions:
                if in_goal(tr.x_next):
                    entries.append(tr.a)
        assert entries and set(entries) == {DOWN}

    def test_eval_policy_uses_up_and_right_only(self):
        env = make_windy2d(60)
        pol = windy_eval_policy()
        rng = np.random.default_rng(5)
        starts = [env.sample_initial(rng) for _ in range(5)]
        for traj in rollout_policy(env, pol, starts, 60, seed=5, ids=range(5)):
            assert traj.terminated
            assert set(traj.actions) <= {UP, RIGHT}

    def test_exact_expert_makes_all_estimators_coincide(self):
        # an exact parametric expert has zero residuals, so the radius is 0,
        # the mixture never copies a neighbour, and the mixture, the
        # parametric-only and the true value all agree
        env = make_windy2d(60)
        trajs, _ = generate_trajectories(env, windy_behavior_policy(), 6, seed=9)
        ds = Dataset.from_trajectories(trajs, 4)
        m = Metric.euclidean(2)
        pmodel = FunctionModel(
            lambda x, a: windy2d_step(x, a)[0], lambda x, a: -1.0, windy2d_step_many
        )
        lips, residuals = context_scans(ds, pmodel, m)
        radius = choose_radius(residuals[0], lips.l_t)
        ctx = SelectionContext(
            pmodel, NonparametricModel(ds, m, radius),
            BoundParams(lips.l_t, lips.l_r, 1.0), windy_eval_policy(),
            lips, residuals, is_terminal=env.is_terminal,
        )
        sim = SimConfig(6, 60, 1.0, seed=4)
        moe = simulate_value(ctx, sim)
        par = simulate_value(ctx, replace(sim, mode=PARAMETRIC))
        assert moe.v_hat == par.v_hat
        v_true = evaluate_policy_true(env, windy_eval_policy(), 40, 60, 1.0, seed=1)
        assert abs(moe.v_hat - v_true) < 1.0  # only start-sampling jitter


class TestPlanningToy:
    def test_step_examples(self):
        nxt, r = planning_toy_step(np.array([3.0, 0.0]), RIGHT_ACTION)
        assert np.allclose(nxt, [4.0, 0.0]) and r == 3.0
        nxt, r = planning_toy_step(np.array([0.0, 0.0]), DIAG_ACTION)
        assert np.allclose(nxt, [1.0, 1.0]) and r == 0.0

    def test_analytic_model_ignores_action(self):
        model = planning_toy_parametric_model("accurate")
        for a in (RIGHT_ACTION, DIAG_ACTION):
            nxt, r = model.predict(np.array([3.0, 0.0]), a)
            assert np.allclose(nxt, [4.0, 0.5])
            assert r == 3.0

    def test_reward_model_variants(self):
        assert planning_toy_reward_model("accurate", np.array([12.0, 0.0])) == 12.0
        assert planning_toy_reward_model("inaccurate", np.array([12.0, 0.0])) == -1.0
        assert planning_toy_reward_model("inaccurate", np.array([10.0, 3.0])) == 13.0
        with pytest.raises(ValueError):
            planning_toy_reward_model("other", np.zeros(2))

    def test_policy_definitions(self):
        eval_policy, behavior = planning_toy_policies()
        assert np.argmax(eval_policy.probs(np.array([0.0, 0.0]))) == DIAG_ACTION
        assert np.argmax(eval_policy.probs(np.array([5.0, 3.0]))) == RIGHT_ACTION
        assert np.argmax(eval_policy.probs(np.array([12.0, 1.0]))) == DIAG_ACTION
        assert np.argmax(behavior.probs(np.array([2.0, 0.0]))) == RIGHT_ACTION
        assert np.argmax(behavior.probs(np.array([2.0, 1.0]))) == DIAG_ACTION
        assert np.argmax(behavior.probs(np.array([0.0, 0.0]))) == DIAG_ACTION

    def test_behavior_trajectories_cover_both_ribbons(self):
        env = make_planning_toy(10)
        _, behavior = planning_toy_policies()
        trajs, _ = generate_trajectories(env, behavior, 2, seed=0, starts=BEHAVIOR_STARTS)
        diag, horiz = trajs
        assert np.allclose(diag.states[-1], [10.0, 10.0])
        assert np.allclose(horiz.states[-1], [11.0, 0.0])


class TestAcrobot:
    def test_hanging_rest_state_stays_put(self):
        x, r = acrobot_step(np.zeros(4), 1)  # zero torque
        assert np.allclose(x, np.zeros(4), atol=1e-12)
        assert r == -1.0

    def test_step_halving_convergence(self):
        # RK4: halving the substep shrinks the step error by about 2^4
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, size=4)
            coarse, fine, finer = (
                numpy_acrobot_step(x, 2, n_substeps=k)[0] for k in (2, 4, 8)
            )
            e1 = np.linalg.norm(coarse - fine)
            e2 = np.linalg.norm(fine - finer)
            if e2 > 1e-12:
                ratios.append(e1 / e2)
        assert ratios and all(6.0 < r < 60.0 for r in ratios)

    def test_tip_height_and_terminal(self):
        assert tip_height(np.zeros(4)) == pytest.approx(-2.0)
        upright = np.array([np.pi, 0.0, 0.0, 0.0])
        assert tip_height(upright) == pytest.approx(2.0)
        env = make_acrobot(300)
        assert env.is_terminal(upright)
        assert not env.is_terminal(np.zeros(4))
        # a state whose tip sits just above the threshold is terminal
        just_above = np.array([np.pi, np.arccos(0.01), 0.0, 0.0])
        assert tip_height(just_above) == pytest.approx(1.01)
        assert env.is_terminal(just_above)

    def test_heuristic_policy_reaches_goal(self):
        env = make_acrobot(400)
        rng = np.random.default_rng(3)
        (traj,) = rollout_policy(
            env, acrobot_heuristic_policy(), [env.sample_initial(rng)], 400, seed=3, ids=[0]
        )
        assert traj.terminated

    def test_height_filter(self):
        # the nonparametric expert sees the transitions starting at or below
        # the tip height h; every initial state survives.  No tip rises above
        # l1 + l2 = 2, so h = 3 keeps every transition
        for h, kept_all in ((3.0, True), (-2.5, False), (-0.5, False)):
            cfg = validate_config({
                "name": "acrobot-height",
                "env": {"kind": "acrobot", "horizon": 80, "height_filter": h},
                "behavior": {"kind": "env_scripted"}, "n_behavior_trajectories": 3,
                "model": {"kind": "ridge"},
                "sim": {"n_rollouts": 1, "horizon": 5, "gamma": 1.0},
                "estimators": ["moe"], "seed": 1,
            })
            batch = generate_batch(cfg, 0)
            ds, kept = batch.dataset, batch.visible
            scan = [(tr.traj_id, tr.t) for tr in ds.transitions if tip_height(tr.x) <= h]
            assert [(tr.traj_id, tr.t) for tr in kept.transitions] == scan
            assert (len(kept) == len(ds)) == kept_all
            assert len(kept.initial_states) == len(ds.initial_states)


# k·π and its two neighbouring doubles: (angle, -angle) at zero velocities
# and zero torque is an equilibrium (the first link hanging or upright, the
# second hanging), where a step moves the velocities by 1e-14 at most and
# leaves the angle bits as they would be without gravity, so these reach the
# angle wrap exactly
WRAP_POINTS = sorted(
    v for k in range(-5, 6) for v in (np.nextafter(k * np.pi, -np.inf), k * np.pi,
                                      np.nextafter(k * np.pi, np.inf))
)
ANGLES = st.one_of(st.floats(-5 * np.pi, 5 * np.pi), st.sampled_from(WRAP_POINTS))


def velocities(max_vel):
    # inside and beyond the clip; about 3x beyond it a step starts to overflow
    edges = [0.0, -max_vel, max_vel, np.nextafter(max_vel, np.inf), -np.nextafter(max_vel, np.inf)]
    return st.one_of(st.floats(-5 * max_vel, 5 * max_vel), st.sampled_from(edges))


def assert_matches_the_numpy_oracle(x, a):
    """Equal bits where the numpy step stays finite; where it overflows, a
    clear `ValueError` instead of its inf/NaN."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            want, want_r = numpy_acrobot_step(x, a)
    except FloatingPointError:
        with pytest.raises(ValueError, match="acrobot step overflowed from state "):
            acrobot_step(x, a)
        return None
    got, r = acrobot_step(x, a)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert r == want_r == -1.0
    return got


class TestAcrobotKernel:
    """The Python-float `acrobot_step` against its numpy transcription."""

    @settings(max_examples=1000, deadline=None)
    @given(
        t1=ANGLES, t2=ANGLES,
        w1=velocities(MAX_VEL1), w2=velocities(MAX_VEL2),
        a=st.integers(0, 2),
    )
    # states whose step changes bits when one squaring (of w2, w1 or d2) is
    # written x * x instead of x**2
    @example(t1=1.256, t2=1.339, w1=7.325, w2=-12.812, a=1)
    @example(t1=0.357, t2=-1.09, w1=11.585, w2=-6.387, a=1)
    @example(t1=-0.061, t2=1.215, w1=8.826, w2=-21.997, a=2)
    # states whose step overflows
    @example(t1=0.0, t2=1.0, w1=0.0, w2=300.0, a=1)
    @example(t1=0.0, t2=1.0, w1=100.0, w2=0.0, a=1)
    def test_equals_the_numpy_oracle_bit_for_bit(self, t1, t2, w1, w2, a):
        assert_matches_the_numpy_oracle(np.array([t1, t2, w1, w2]), a)

    @pytest.mark.parametrize("angle", WRAP_POINTS)
    def test_wraps_a_resting_state_like_the_oracle(self, angle):
        got = assert_matches_the_numpy_oracle(np.array([angle, -angle, 0.0, 0.0]), 1)
        assert np.all(np.abs(got[:2]) <= np.pi)  # rounding can land on +pi itself

    def test_equals_the_oracle_over_a_chained_trajectory(self):
        # swing-up with random actions mixed in: the chain reaches both
        # velocity clips and wraps both angles
        rng = np.random.default_rng(0)
        x = np.array([0.05, -0.03, 0.02, 0.0])
        max_vel = {2: MAX_VEL1, 3: MAX_VEL2}
        clipped, wrapped = set(), set()
        for _ in range(1000):
            a = int(rng.integers(3)) if rng.random() < 0.2 else (2 if x[3] >= 0 else 0)
            nxt = assert_matches_the_numpy_oracle(x, a)
            clipped |= {i for i in (2, 3) if abs(nxt[i]) == max_vel[i]}
            wrapped |= {i for i in (0, 1) if abs(nxt[i] - x[i]) > np.pi}
            x = nxt
        assert clipped == {2, 3} and wrapped == {0, 1}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("i", range(4))
    def test_rejects_a_non_finite_state(self, bad, i):
        x = np.zeros(4)
        x[i] = bad
        with pytest.raises(ValueError, match=r"^acrobot state must be finite: \["):
            acrobot_step(x, 1)


class TestEpsGreedy:
    def test_zero_eps_is_base(self):
        base = Policy.deterministic(lambda x: 2, 4)
        pol = make_eps_greedy(base, 0.0)
        assert np.array_equal(pol.probs(np.zeros(1)), base.probs(np.zeros(1)))

    def test_full_eps_is_uniform(self):
        base = Policy.deterministic(lambda x: 2, 4)
        pol = make_eps_greedy(base, 1.0)
        assert np.allclose(pol.probs(np.zeros(1)), 0.25)

    def test_partial_eps_mass(self):
        base = Policy.deterministic(lambda x: 1, 4)
        pol = make_eps_greedy(base, 0.4)
        p = pol.probs(np.zeros(1))
        assert p[1] == pytest.approx(0.7)
        assert p[0] == p[2] == p[3] == pytest.approx(0.1)
        assert p.sum() == pytest.approx(1.0)

    def test_logged_probabilities_match_policy(self):
        env = make_windy2d(60)
        pol = make_eps_greedy(windy_eval_policy(), 0.3)
        trajs, probs = generate_trajectories(env, pol, 4, seed=2)
        for traj, logged in zip(trajs, probs):
            for tr, pb in zip(traj.transitions, logged):
                assert pb == pytest.approx(pol.probs(tr.x)[tr.a], abs=0)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            make_eps_greedy(uniform_policy(2), 1.5)


class TestEnvironmentDeterminism:
    @pytest.mark.parametrize("which", ["windy", "toy", "acrobot"])
    def test_repeat_steps_bitwise_equal(self, which):
        if which == "windy":
            env = make_windy2d(60)
            x = np.array([0.7, 3.1])
        elif which == "toy":
            env = make_planning_toy(10)
            x = np.array([2.0, 1.0])
        else:
            env = make_acrobot(300)
            x = np.array([0.1, -0.2, 0.05, 0.3])
        for a in range(env.n_actions):
            s1, r1 = env.step(x, a)
            s2, r2 = env.step(x, a)
            assert np.array_equal(s1, s2) and r1 == r2
