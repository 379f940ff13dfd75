"""Greedy and UCT model selection."""

import itertools
import math

import numpy as np
import pytest

from moesim.core import Dataset, Metric, Policy, Transition
from moesim.envs import make_planning_toy, planning_toy_policies, planning_toy_parametric_model
from moesim.envs import Windy2DConfig, make_eps_greedy, make_windy2d
from moesim.envs.base import generate_trajectories
from moesim.envs.planning_toy import BEHAVIOR_STARTS, EVAL_START
from moesim.envs.windy import windy_eval_policy, windy_no_wind_model
from moesim.errors import (
    BoundParams,
    ErrorEstimate,
    choose_radius,
    global_lipschitz,
    np_error_estimate,
    p_error_estimate,
    parametric_residuals,
    return_error_bound,
)
from moesim.models import (
    NONPARAMETRIC,
    PARAMETRIC,
    FunctionModel,
    NonparametricModel,
)
from moesim.selection import (
    ModelUnusableError,
    PlanNode,
    SelectionContext,
    SelectorConfig,
    _MctsRun,
    greedy_select,
    mcts_select,
    path_error_sequences,
)
from moesim.simulator import SimConfig, simulate_value


class StubContext:
    """Scripted-error stand-in for SelectionContext.

    Errors are keyed by (rounded state tuple, action, model kind); both
    experts share simple integer-lattice dynamics so tree states stay on
    known keys.
    """

    def __init__(self, errors, bound, n_actions=1, horizon_terminal=None,
                 unusable=()):
        self.errors = errors
        self.bound = bound
        self.alpha_r = 0.0
        self.policy = Policy.deterministic(lambda x: 0, n_actions)
        self.is_terminal = horizon_terminal
        self._unusable = set(unusable)
        self.np_model = FunctionModel(
            lambda x, a: np.asarray(x) + np.array([1.0]), lambda x, a: 0.0
        )
        self.p_model = FunctionModel(
            lambda x, a: np.asarray(x) + np.array([2.0]), lambda x, a: 0.0
        )

    def model(self, kind):
        return self.np_model if kind == NONPARAMETRIC else self.p_model

    def usable(self, kind, a):
        return kind not in self._unusable

    def available_models(self, a):
        return [k for k in (NONPARAMETRIC, PARAMETRIC) if self.usable(k, a)]

    def estimate(self, kind, x, a):
        key = (round(float(np.asarray(x)[0]), 6), a, kind)
        if key in self.errors:
            et, er = self.errors[key]
            return ErrorEstimate(et, er)
        default = self.errors.get(("*", a, kind))
        if default is None:
            return ErrorEstimate(0.0, 0.0)
        return ErrorEstimate(*default)


def unit_bound():
    return BoundParams(1.0, 1.0, 1.0)


class TestGreedy:
    def test_smaller_transition_error_wins(self):
        ctx = StubContext(
            {("*", 0, NONPARAMETRIC): (0.1, 0.0), ("*", 0, PARAMETRIC): (0.2, 0.0)},
            unit_bound(),
        )
        assert greedy_select(ctx, np.zeros(1), 0) == NONPARAMETRIC

    def test_tie_goes_parametric(self):
        ctx = StubContext(
            {("*", 0, NONPARAMETRIC): (0.2, 0.0), ("*", 0, PARAMETRIC): (0.2, 0.0)},
            unit_bound(),
        )
        assert greedy_select(ctx, np.zeros(1), 0) == PARAMETRIC

    def test_weighted_reward_term(self):
        ctx = StubContext(
            {("*", 0, NONPARAMETRIC): (0.3, 0.0), ("*", 0, PARAMETRIC): (0.2, 0.5)},
            unit_bound(),
        )
        ctx.alpha_r = 1.0
        assert greedy_select(ctx, np.zeros(1), 0) == NONPARAMETRIC

    def test_unsupported_nonparametric_falls_back(self):
        # no same-action data within the radius: the parametric expert wins
        # regardless of its own estimate
        transitions = [Transition(np.array([50.0]), 0, -1.0, np.array([51.0]), 0, 0),
                       Transition(np.array([51.0]), 0, -1.0, np.array([52.0]), 0, 1)]
        ds = Dataset(transitions, [transitions[0].x], 1, 1)
        m = Metric.euclidean(1)
        ctx = SelectionContext(
            FunctionModel(lambda x, a: x, lambda x, a: 0.0),
            NonparametricModel(ds, m),
            ds, m, radius=1.0, bound=unit_bound(),
            policy=Policy.deterministic(lambda x: 0, 1),
        )
        assert greedy_select(ctx, np.array([0.0]), 0) == PARAMETRIC

    def test_both_unusable_raises(self):
        ctx = StubContext({}, unit_bound(), unusable=(NONPARAMETRIC, PARAMETRIC))
        with pytest.raises(ModelUnusableError):
            greedy_select(ctx, np.zeros(1), 0)


class TestMctsBasics:
    def test_zero_np_errors_selects_nonparametric(self):
        ctx = StubContext(
            {("*", 0, NONPARAMETRIC): (0.0, 0.0), ("*", 0, PARAMETRIC): (0.4, 0.0)},
            unit_bound(),
        )
        cfg = SelectorConfig(mode="mcts", mcts_budget=32, seed=0)
        got = mcts_select(ctx, np.zeros(1), 0, cfg, remaining=6)
        assert got == NONPARAMETRIC

    def test_horizon_one_reduces_to_one_step_comparison(self):
        # at depth 1 the bound of a child is gamma * (eps_r + l_r * eps_t);
        # the decision must match the argmin of that quantity
        cases = [
            ((0.3, 0.1), (0.2, 0.0), PARAMETRIC),
            ((0.1, 0.0), (0.2, 0.3), NONPARAMETRIC),
        ]
        for np_err, p_err, expect in cases:
            ctx = StubContext(
                {("*", 0, NONPARAMETRIC): np_err, ("*", 0, PARAMETRIC): p_err},
                BoundParams(1.3, 2.0, 0.9),
            )
            cfg = SelectorConfig(mode="mcts", mcts_budget=16, seed=1)
            got = mcts_select(ctx, np.zeros(1), 0, cfg, remaining=1)
            score = {
                NONPARAMETRIC: np_err[1] + 2.0 * np_err[0],
                PARAMETRIC: p_err[1] + 2.0 * p_err[0],
            }
            assert got == expect == min(score, key=score.get)

    def test_determinism_under_seed(self):
        errors = {
            ("*", 0, NONPARAMETRIC): (0.21, 0.05),
            ("*", 0, PARAMETRIC): (0.2, 0.07),
        }
        ctx = StubContext(errors, unit_bound())
        cfg = SelectorConfig(mode="mcts", mcts_budget=25, seed=9)
        a = [mcts_select(ctx, np.zeros(1), 0, cfg, remaining=4) for _ in range(3)]
        assert len(set(a)) == 1

    def test_budget_with_no_usable_child_falls_back_to_greedy(self):
        ctx = StubContext(
            {("*", 0, NONPARAMETRIC): (0.3, 0.0), ("*", 0, PARAMETRIC): (0.1, 0.0)},
            unit_bound(),
        )
        # terminal immediately: the tree cannot expand at all
        ctx.is_terminal = lambda x: True
        cfg = SelectorConfig(mode="mcts", mcts_budget=4, seed=0)
        assert mcts_select(ctx, np.zeros(1), 0, cfg, remaining=5) == PARAMETRIC


def depth2_bound(ctx, first, second, horizon=2):
    """Exhaustive two-step bound for a fixed model-choice sequence, using
    the same incremental arithmetic as the planner."""
    bound = ctx.bound
    x = np.zeros(1)
    delta = 0.0
    delta_g = 0.0
    for tau, kind in enumerate((first, second)[:horizon], start=1):
        est = ctx.estimate(kind, x, 0)
        delta = bound.l_t * delta + est.eps_t
        delta_g = delta_g + bound.gamma**tau * (est.eps_r + bound.l_r * delta)
        x = ctx.model(kind).predict(x, 0)[0]
    return delta_g


class TestMctsPlanning:
    def test_depth2_matches_exhaustive_enumeration(self):
        # hand-set errors where the greedy first step is a trap: cheap now,
        # expensive afterwards
        errors = {
            (0.0, 0, NONPARAMETRIC): (0.1, 0.0),   # greedy pick at the root
            (0.0, 0, PARAMETRIC): (0.3, 0.0),
            (1.0, 0, NONPARAMETRIC): (5.0, 0.0),   # after np: both continuations bad
            (1.0, 0, PARAMETRIC): (5.0, 0.0),
            (2.0, 0, NONPARAMETRIC): (0.0, 0.0),   # after p: free continuation
            (2.0, 0, PARAMETRIC): (0.2, 0.0),
        }
        ctx = StubContext(errors, unit_bound())
        best_seq = min(
            itertools.product((NONPARAMETRIC, PARAMETRIC), repeat=2),
            key=lambda seq: depth2_bound(ctx, *seq),
        )
        cfg = SelectorConfig(mode="mcts", mcts_budget=64, seed=3)
        got = mcts_select(ctx, np.zeros(1), 0, cfg, remaining=2)
        assert got == best_seq[0] == PARAMETRIC

    def test_tree_structure_and_bound_consistency(self):
        errors = {
            ("*", 0, NONPARAMETRIC): (0.15, 0.02),
            ("*", 0, PARAMETRIC): (0.12, 0.04),
        }
        ctx = StubContext(errors, BoundParams(1.2, 0.8, 0.95))
        cfg = SelectorConfig(mode="mcts", mcts_budget=40, seed=5)
        run = _MctsRun(ctx, cfg, horizon=5, rng=np.random.default_rng(5))
        root = PlanNode(
            state=np.zeros(1), action=0, model_choice="root", tau=0,
            delta=0.0, delta_g=0.0,
        )
        for _ in range(cfg.mcts_budget):
            leaf = run.tree_policy(root)
            run.backup(leaf, run.default_policy(leaf))

        def walk(node):
            yield node
            for child in node.children:
                yield from walk(child)

        nodes = list(walk(root))
        assert len(nodes) > 3
        for node in nodes:
            assert len(node.children) <= 2
            kinds = [c.model_choice for c in node.children]
            assert len(set(kinds)) == len(kinds)
            if node.visits > 0 and node.best_value > -math.inf:
                assert node.best_value >= node.total_value / node.visits - 1e-12
            for child in node.children:
                assert child.delta_g >= node.delta_g - 1e-15
            if node.model_choice != "root":
                # incremental bound equals the batch recomputation over the
                # path's error sequence, with the reward errors delayed one
                # step relative to the transition errors
                eps_t, eps_r = path_error_sequences(node)
                recomputed = return_error_bound(
                    eps_t + [0.0], [0.0] + eps_r,
                    BoundParams(ctx.bound.l_t, ctx.bound.l_r, ctx.bound.gamma),
                )
                assert node.delta_g == pytest.approx(recomputed, abs=1e-12)

    def test_backup_tracks_max_and_counts(self):
        root = PlanNode(np.zeros(1), 0, "root", 0, 0.0, 0.0)
        child = PlanNode(np.zeros(1), 0, NONPARAMETRIC, 1, 0.0, 0.0, parent=root)
        root.children.append(child)
        for v in (-3.0, -1.0, -2.0):
            _MctsRun.backup(child, v)
        assert child.visits == 3 and root.visits == 3
        assert child.best_value == -1.0 == root.best_value
        assert child.total_value == -6.0


class TestMctsOnPlanningToy:
    def _context(self, horizon, reward_variant="accurate"):
        env = make_planning_toy(horizon)
        eval_policy, behavior = planning_toy_policies()
        trajs, _ = generate_trajectories(env, behavior, 2, seed=0,
                                         starts=BEHAVIOR_STARTS)
        ds = Dataset.from_trajectories(trajs, 2)
        m = Metric.euclidean(2)
        ctx = SelectionContext(
            planning_toy_parametric_model(reward_variant),
            NonparametricModel(ds, m),
            ds, m, radius=1.0,
            bound=BoundParams(1.0, math.sqrt(2.0), 1.0),
            policy=eval_policy,
            true_step=env.step,
            use_true_errors=True,
        )
        return env, ctx

    def test_planner_reaches_the_zero_error_region(self):
        # the planner must route the rollout to the bottom data ribbon where
        # copying transitions is error-free, even though the greedy rule
        # prefers the smooth-model drift at the divergence point (1, 1)
        horizon = 16
        env, ctx = self._context(horizon)
        cfg = SelectorConfig(mode="mcts", mcts_budget=256, seed=11)
        sim = SimConfig(1, horizon, 1.0, selector=cfg, seed=4)
        est = simulate_value(ctx, sim, initial_states=[EVAL_START])
        states = [tuple(s) for s in est.trajectories[0].states]
        assert (2.0, 0.0) in states  # jumped down onto the horizontal ribbon
        greedy_sim = SimConfig(1, horizon, 1.0, selector=SelectorConfig(), seed=4)
        greedy_est = simulate_value(ctx, greedy_sim, initial_states=[EVAL_START])
        greedy_states = [tuple(s) for s in greedy_est.trajectories[0].states]
        assert (2.0, 0.0) not in greedy_states

    def test_divergence_decision_prefers_data_region(self):
        # at (1, 1) with action "r": copying costs 1.0 now but zero later;
        # the drift model costs 0.5 now and compounds forever
        horizon = 14
        _, ctx = self._context(horizon)
        cfg = SelectorConfig(mode="mcts", mcts_budget=256, seed=2)
        got = mcts_select(ctx, np.array([1.0, 1.0]), 0, cfg, remaining=horizon - 1)
        assert got == NONPARAMETRIC
        assert greedy_select(ctx, np.array([1.0, 1.0]), 0) == PARAMETRIC

    def test_trace_records_children(self):
        horizon = 10
        _, ctx = self._context(horizon)
        cfg = SelectorConfig(mode="mcts", mcts_budget=32, seed=0)
        trace = []
        mcts_select(ctx, np.array([1.0, 1.0]), 0, cfg, remaining=horizon,
                    trace=trace)
        assert len(trace) == 1
        rec = trace[0]
        assert rec["chosen"] in (NONPARAMETRIC, PARAMETRIC)
        assert len(rec["children"]) == 2
        for child in rec["children"]:
            assert child["visits"] > 0


class TestEstimateMemo:
    """`SelectionContext.estimate` memoizes per (expert, state bytes,
    action).  Every answer must equal a fresh context's (empty memo) and the
    direct estimate, whatever was asked before it."""

    @staticmethod
    def _windy(use_true_errors=False):
        cfg = Windy2DConfig()
        env = make_windy2d(cfg)
        behavior = make_eps_greedy(windy_eval_policy(cfg), 0.3)
        trajs, _ = generate_trajectories(env, behavior, 12, seed=3)
        ds = Dataset.from_trajectories(trajs, env.n_actions)
        m = Metric.euclidean(2)
        model = windy_no_wind_model(cfg)
        residuals = parametric_residuals(ds, model, m)
        lips = global_lipschitz(ds, m)
        radius = choose_radius(ds, model, m, residuals=residuals, lipschitz=lips)

        def build():
            return SelectionContext(
                model, NonparametricModel(ds, m), ds, m, radius,
                BoundParams(lips.l_t, lips.l_r, 1.0), windy_eval_policy(cfg),
                true_step=env.step, is_terminal=env.is_terminal,
                use_true_errors=use_true_errors, global_lips=lips,
                residuals=residuals,
            )

        def direct(kind, x, a):
            if use_true_errors:
                true_next, true_r = env.step(x, a)
                pred_next, pred_r = build().model(kind).predict(x, a)
                return ErrorEstimate(m.distance(true_next, pred_next), abs(true_r - pred_r))
            if kind == NONPARAMETRIC:
                return np_error_estimate(ds, x, a, radius, m, fallback=lips)
            return p_error_estimate(ds, model, x, a, radius, m, residuals=residuals)

        return ds, build, direct

    @staticmethod
    def _queries(ds, rng):
        """Random states, integer-lattice states, and logged starts, each
        asked again later as a new array object (and, on the lattice, as an
        int-dtype copy)."""
        states = [rng.uniform([-1.0, -1.0], [13.0, 15.0]) for _ in range(25)]
        lattice = [rng.integers(0, 13, size=2).astype(np.float64) for _ in range(10)]
        logged = [ds.transitions[int(i)].x for i in rng.choice(len(ds), 25, replace=False)]
        first = [(x, x) for x in states + lattice + logged]
        again = [(x.copy(), x) for x in states + logged]
        again += [(x.astype(np.int64), x) for x in lattice]
        queries = first + again + first
        order = rng.permutation(len(queries))
        return [queries[i] for i in order]

    @pytest.mark.parametrize("use_true_errors", [False, True])
    def test_memo_equals_fresh_context_and_direct_estimate(self, use_true_errors):
        ds, build, direct = self._windy(use_true_errors)
        ctx = build()
        rng = np.random.default_rng(17)
        for query, x in self._queries(ds, rng):
            for a in range(ds.n_actions):
                for kind in (NONPARAMETRIC, PARAMETRIC):
                    got = ctx.estimate(kind, query, a)
                    assert got == build().estimate(kind, x, a)
                    assert got == direct(kind, x, a)


class TestSelectorConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SelectorConfig(mode="random")
        with pytest.raises(ValueError):
            SelectorConfig(mcts_budget=0)
        with pytest.raises(ValueError):
            SelectorConfig(alpha_r=-0.5)
        with pytest.raises(ValueError):
            SelectorConfig(delta_coeff="both")
        with pytest.raises(ValueError):
            SelectorConfig(horizon=0)
