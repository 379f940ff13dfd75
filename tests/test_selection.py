"""Greedy and UCT model selection."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    context_scans,
    fresh_context,
    gapped_contexts,
    gapped_true_step,
    path_error_sequences,
    reference_greedy_select,
    reference_mcts_select,
    return_error_bound,
)
from moesim.core import Dataset, Metric, Policy, Transition
from moesim.envs import make_planning_toy, planning_toy_policies, planning_toy_parametric_model
from moesim.envs import make_eps_greedy, make_windy2d
from moesim.envs.base import generate_trajectories
from moesim.envs.planning_toy import BEHAVIOR_STARTS, EVAL_START
from moesim.envs.windy import windy_eval_policy, windy_no_wind_model
from moesim.errors import (
    BoundParams,
    ErrorEstimate,
    choose_radius,
    np_error_estimate,
    p_error_estimate,
    parametric_residuals,
)
from moesim.models import (
    NONPARAMETRIC,
    PARAMETRIC,
    FunctionModel,
    NonparametricModel,
    NoSupportError,
)
from moesim.selection import (
    PlanNode,
    SelectionContext,
    StepMemo,
    _MctsRun,
    greedy_select,
    mcts_select,
)
from moesim.simulator import SimConfig, simulate_value


class StubContext(StepMemo):
    """Scripted-error stand-in for SelectionContext.

    Errors are keyed by (rounded state tuple, action, model kind), with
    "*" for any state, and are either (eps_t, eps_r) or "unsupported"; both
    experts share simple integer-lattice dynamics so tree states stay on
    known keys.  The planner's step and greedy memos are the real ones,
    inherited from `StepMemo`, so script the errors before the first call.
    `policy` defaults to always taking action 0, and no expert can
    simulate an action in `unfitted_actions`.
    """

    def __init__(self, errors, bound, n_actions=1, horizon_terminal=None,
                 unusable=(), policy=None, unfitted_actions=()):
        super().__init__()
        self.errors = errors
        self.bound = bound
        self.policy = policy or Policy.deterministic(lambda x: 0, n_actions)
        self.is_terminal = horizon_terminal
        self._unusable = set(unusable)
        self._unfitted_actions = set(unfitted_actions)
        self.np_model = FunctionModel(
            lambda x, a: np.asarray(x) + np.array([1.0]), lambda x, a: 0.0
        )
        self.p_model = FunctionModel(
            lambda x, a: np.asarray(x) + np.array([2.0]), lambda x, a: 0.0
        )

    def model(self, kind):
        return self.np_model if kind == NONPARAMETRIC else self.p_model

    def available_models(self, a):
        if a in self._unfitted_actions:
            return ()
        return tuple(k for k in (NONPARAMETRIC, PARAMETRIC) if k not in self._unusable)

    def estimate(self, kind, x, a):
        key = (round(float(np.asarray(x)[0]), 6), a, kind)
        scripted = self.errors.get(key, self.errors.get(("*", a, kind), (0.0, 0.0)))
        if scripted == "unsupported":
            return ErrorEstimate.unsupported()
        return ErrorEstimate(*scripted)


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

    def test_unsupported_parametric_loses_to_supported_nonparametric(self):
        # non-finite residuals near x leave the parametric estimate unsupported
        ctx = StubContext(
            {("*", 0, NONPARAMETRIC): (0.3, 0.0), ("*", 0, PARAMETRIC): "unsupported"},
            unit_bound(),
        )
        assert greedy_select(ctx, np.zeros(1), 0) == NONPARAMETRIC

    def test_unsupported_nonparametric_falls_back(self):
        # no same-action data within the radius: the parametric expert wins
        # regardless of its own estimate
        transitions = [Transition(np.array([50.0]), 0, -1.0, np.array([51.0]), 0, 0),
                       Transition(np.array([51.0]), 0, -1.0, np.array([52.0]), 0, 1)]
        ds = Dataset(transitions, [transitions[0].x], 1, 1)
        m = Metric.euclidean(1)
        model = FunctionModel(lambda x, a: x, lambda x, a: 0.0)
        lips, residuals = context_scans(ds, model, m)
        ctx = SelectionContext(
            model, NonparametricModel(ds, m, 1.0), bound=unit_bound(),
            policy=Policy.deterministic(lambda x: 0, 1),
            global_lips=lips, residuals=residuals,
        )
        assert greedy_select(ctx, np.array([0.0]), 0) == PARAMETRIC

    def test_both_unusable_raises(self):
        ctx = StubContext({}, unit_bound(), unusable=(NONPARAMETRIC, PARAMETRIC))
        with pytest.raises(NoSupportError, match="no data for action 0"):
            greedy_select(ctx, np.zeros(1), 0)


class TestMctsBasics:
    def test_zero_np_errors_selects_nonparametric(self):
        ctx = StubContext(
            {("*", 0, NONPARAMETRIC): (0.0, 0.0), ("*", 0, PARAMETRIC): (0.4, 0.0)},
            unit_bound(),
        )
        budget = 32
        got = mcts_select(ctx, np.zeros(1), 0, budget, np.random.default_rng(0), remaining=6)
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
            budget = 16
            got = mcts_select(ctx, np.zeros(1), 0, budget, np.random.default_rng(1), remaining=1)
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
        budget = 25
        a = [
            mcts_select(ctx, np.zeros(1), 0, budget, np.random.default_rng(9), remaining=4)
            for _ in range(3)
        ]
        assert len(set(a)) == 1

    def test_budget_with_no_usable_child_falls_back_to_greedy(self):
        ctx = StubContext(
            {("*", 0, NONPARAMETRIC): (0.3, 0.0), ("*", 0, PARAMETRIC): (0.1, 0.0)},
            unit_bound(),
        )
        # terminal immediately: the tree cannot expand at all
        ctx.is_terminal = lambda x: True
        budget = 4
        got = mcts_select(ctx, np.zeros(1), 0, budget, np.random.default_rng(0), remaining=5)
        assert got == PARAMETRIC


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


step_errors = st.one_of(
    st.just("unsupported"),
    st.tuples(st.sampled_from([0.0, 0.25, 1.0, 3.5]), st.sampled_from([0.0, 0.5, 2.0])),
)


@settings(max_examples=200, deadline=None)
@given(
    l_t=st.sampled_from([0.0, 0.5, 1.0]),
    l_r=st.sampled_from([0.0, 0.5, 1.0]),
    gamma=st.sampled_from([0.9, 1.0]),
    errors=st.lists(step_errors, min_size=1, max_size=8),
)
def test_bound_step_is_never_nan_and_stays_infinite_once_unsupported(l_t, l_r, gamma, errors):
    # one nonparametric step per entry of `errors`; the stub's expert moves
    # x to x + 1, so step i starts at state i
    ctx = StubContext(
        {(float(i), 0, NONPARAMETRIC): err for i, err in enumerate(errors)},
        BoundParams(l_t, l_r, gamma),
    )
    run = _MctsRun(ctx, horizon=len(errors), rng=np.random.default_rng(0))
    state = np.zeros(1)
    key, tau, delta, delta_g = state.tobytes(), 0, 0.0, 0.0
    want_delta, want_delta_g = 0.0, 0.0
    unsupported = False
    for err in errors:
        succ, _, tau, delta, delta_g = run.step(
            NONPARAMETRIC, state, key, 0, tau, delta, delta_g
        )
        state, key = succ.state, succ.key
        assert not (math.isnan(delta) or math.isnan(delta_g))
        unsupported = unsupported or err == "unsupported"
        if unsupported:
            assert delta == delta_g == math.inf
        else:
            eps_t, eps_r = err
            want_delta = l_t * want_delta + eps_t
            want_delta_g = want_delta_g + gamma**tau * (eps_r + l_r * want_delta)
            assert (delta, delta_g) == (want_delta, want_delta_g)


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
        budget = 64
        got = mcts_select(ctx, np.zeros(1), 0, budget, np.random.default_rng(3), remaining=2)
        assert got == best_seq[0] == PARAMETRIC

    def test_tree_structure_and_bound_consistency(self):
        errors = {
            ("*", 0, NONPARAMETRIC): (0.15, 0.02),
            ("*", 0, PARAMETRIC): (0.12, 0.04),
        }
        ctx = StubContext(errors, BoundParams(1.2, 0.8, 0.95))
        budget = 40
        run = _MctsRun(ctx, horizon=5, rng=np.random.default_rng(5))
        root = run.root(np.zeros(1), 0)
        for _ in range(budget):
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
                eps_t, eps_r = path_error_sequences(ctx, node)
                recomputed = return_error_bound(
                    eps_t + [0.0], [0.0] + eps_r,
                    BoundParams(ctx.bound.l_t, ctx.bound.l_r, ctx.bound.gamma),
                )
                assert node.delta_g == pytest.approx(recomputed, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        error=st.tuples(st.sampled_from([0.0, 0.25, 1.0]), st.sampled_from([0.0, 0.5])),
        l_t=st.sampled_from([0.0, 0.5, 1.3]),
        remaining=st.integers(1, 5),
        budget=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_root_children_that_tie_on_best_value_go_nonparametric(
        self, error, l_t, remaining, budget, seed
    ):
        # both experts make the same errors everywhere, so every rollout has
        # the same value; the greedy rule breaks its tie to parametric, so
        # the parametric child is expanded first
        ctx = StubContext(
            {("*", 0, NONPARAMETRIC): error, ("*", 0, PARAMETRIC): error},
            BoundParams(l_t, 0.5, 0.9),
        )
        trace = []
        got = mcts_select(
            ctx, np.zeros(1), 0, budget, np.random.default_rng(seed), remaining, trace=trace
        )
        children = trace[0]["children"]
        assert [c["model"] for c in children] == [PARAMETRIC, NONPARAMETRIC]
        assert children[0]["best_value"] == children[1]["best_value"] > -math.inf
        assert got == NONPARAMETRIC

    def test_backup_tracks_max_and_counts(self):
        root = PlanNode(np.zeros(1), bytes(8), False, 0, "root", 0, 0.0, 0.0)
        child = PlanNode(np.zeros(1), bytes(8), False, 0, NONPARAMETRIC, 1, 0.0, 0.0,
                         parent=root)
        root.children.append(child)
        for v in (-3.0, -1.0, -2.0):
            _MctsRun.backup(child, v)
        assert child.visits == 3 and root.visits == 3
        assert child.best_value == -1.0 == root.best_value
        assert child.total_value == -6.0


class TestMctsOnPlanningToy:
    def _context(self, horizon):
        return planning_toy_context(horizon)[1]()

    def test_planner_reaches_the_zero_error_region(self):
        # the planner must route the rollout to the bottom data ribbon where
        # copying transitions is error-free, even though the greedy rule
        # prefers the smooth-model drift at the divergence point (1, 1)
        horizon = 16
        ctx = self._context(horizon)
        budget = 256
        sim = SimConfig(1, horizon, 1.0, mode="mcts", mcts_budget=budget, seed=4)
        est = simulate_value(ctx, sim, initial_states=[EVAL_START])
        states = [tuple(s) for s in est.trajectories[0].states]
        assert (2.0, 0.0) in states  # jumped down onto the horizontal ribbon
        greedy_sim = SimConfig(1, horizon, 1.0, seed=4)
        greedy_est = simulate_value(ctx, greedy_sim, initial_states=[EVAL_START])
        greedy_states = [tuple(s) for s in greedy_est.trajectories[0].states]
        assert (2.0, 0.0) not in greedy_states

    def test_divergence_decision_prefers_data_region(self):
        # at (1, 1) with action "r": copying costs 1.0 now but zero later;
        # the drift model costs 0.5 now and compounds forever
        horizon = 14
        ctx = self._context(horizon)
        budget = 256
        got = mcts_select(ctx, np.array([1.0, 1.0]), 0, budget, np.random.default_rng(2),
                           remaining=horizon - 1)
        assert got == NONPARAMETRIC
        assert greedy_select(ctx, np.array([1.0, 1.0]), 0) == PARAMETRIC

    def test_trace_records_children(self):
        horizon = 10
        ctx = self._context(horizon)
        budget = 32
        trace = []
        mcts_select(ctx, np.array([1.0, 1.0]), 0, budget, np.random.default_rng(0),
                    remaining=horizon, trace=trace)
        assert len(trace) == 1
        rec = trace[0]
        assert rec["chosen"] in (NONPARAMETRIC, PARAMETRIC)
        assert len(rec["children"]) == 2
        for child in rec["children"]:
            assert child["visits"] > 0


def windy_parts(oracle=False, eval_eps=None):
    """A windy batch and (its dataset, a builder of fresh contexts over it,
    the direct error estimate); `oracle` scores the experts against the
    true step, and `eval_eps` makes the evaluation policy eps-greedy, so
    that planner rollouts draw stochastic actions."""
    env = make_windy2d(60)
    behavior = make_eps_greedy(windy_eval_policy(), 0.3)
    trajs, _ = generate_trajectories(env, behavior, 12, seed=3)
    ds = Dataset.from_trajectories(trajs, env.n_actions)
    m = Metric.euclidean(2)
    model = windy_no_wind_model()
    lips, residuals = context_scans(ds, model, m)
    radius = choose_radius(residuals[0], lips.l_t)
    policy = windy_eval_policy()
    if eval_eps is not None:
        policy = make_eps_greedy(policy, eval_eps)

    def build():
        return SelectionContext(
            model, NonparametricModel(ds, m, radius),
            BoundParams(lips.l_t, lips.l_r, 1.0), policy,
            true_step=env.step if oracle else None, is_terminal=env.is_terminal,
            global_lips=lips, residuals=residuals,
        )

    def direct(kind, x, a):
        if oracle:
            true_next, true_r = env.step(x, a)
            pred_next, pred_r = build().model(kind).predict(x, a)
            return ErrorEstimate(m.distance(true_next, pred_next), abs(true_r - pred_r))
        near = ds.neighbor_rows(x, a, radius, m)
        if kind == NONPARAMETRIC:
            return np_error_estimate(ds, near, m, fallback=lips)
        return p_error_estimate(near, residuals)

    return ds, build, direct


def planning_toy_context(horizon):
    env = make_planning_toy(horizon)
    eval_policy, behavior = planning_toy_policies()
    trajs, _ = generate_trajectories(env, behavior, 2, seed=0, starts=BEHAVIOR_STARTS)
    ds = Dataset.from_trajectories(trajs, 2)
    m = Metric.euclidean(2)
    model = planning_toy_parametric_model("accurate")
    lips, residuals = context_scans(ds, model, m)
    return ds, lambda: SelectionContext(
        model, NonparametricModel(ds, m, 1.0),
        bound=BoundParams(1.0, math.sqrt(2.0), 1.0), policy=eval_policy,
        global_lips=lips, residuals=residuals, true_step=env.step,
    )


class TestStepMemo:
    """The planner's step and greedy memos (`StepMemo`) are exact: a
    decision on a context whose memos earlier decisions filled equals the
    same decision on a fresh context, down to its trace and the generator
    state it leaves behind.  Every state is planned from with every action,
    so a memo entry of one action is there when another is asked."""

    def _check_warm_equals_fresh(self, build, states, n_actions, remaining, budget):
        warm = build()
        for i, x in enumerate(states):
            for a in range(n_actions):
                seed = [i, a]
                got = _decide(mcts_select, warm, x, a, remaining, budget, seed)
                assert got == _decide(mcts_select, build(), x, a, remaining, budget, seed)

    @pytest.mark.parametrize("eval_eps", [None, 0.3], ids=["deterministic", "eps_greedy"])
    def test_windy_decisions_on_a_warm_memo_equal_fresh_ones(self, eval_eps):
        ds, build, _ = windy_parts(eval_eps=eval_eps)
        rng = np.random.default_rng(11)
        states = [ds.transitions[int(i)].x for i in rng.choice(len(ds), 4, replace=False)]
        states += [np.array([0.0, 0.0]), states[0].copy()]
        self._check_warm_equals_fresh(build, states, ds.n_actions, remaining=12, budget=16)

    def test_planning_toy_decisions_on_a_warm_memo_equal_fresh_ones(self):
        ds, build = planning_toy_context(horizon=10)
        states = [np.array(EVAL_START, dtype=np.float64), np.array([1.0, 1.0])]
        states += [ds.transitions[i].x for i in (0, 3, 5)]
        self._check_warm_equals_fresh(build, states, ds.n_actions, remaining=10, budget=24)

    @pytest.mark.parametrize("np_error", [(0.5, 0.0), "unsupported"])
    def test_exploration_constant_is_the_largest_finite_step_error(self, np_error):
        ctx = StubContext(
            {("*", 0, NONPARAMETRIC): np_error, ("*", 0, PARAMETRIC): (0.3, 0.1)},
            unit_bound(),
        )
        want = (0.3 if np_error == "unsupported" else 0.5) / math.sqrt(2.0)
        budget = 8
        for _ in range(2):  # a fresh memo, then a warm one
            trace = []
            mcts_select(ctx, np.zeros(1), 0, budget, np.random.default_rng(0),
                        remaining=4, trace=trace)
            assert {c["model"] for c in trace[0]["children"]} == {NONPARAMETRIC, PARAMETRIC}
            assert trace[0]["c_e"] == want

    def test_each_simulated_step_draws_one_uniform(self):
        # memo hits and misses and greedy chains alike leave the decision's
        # generator where the step-by-step oracle leaves it, which takes one
        # draw per simulated step (counted at its context's successor), as
        # `Policy.sample` would
        ds, build, _ = windy_parts(eval_eps=0.3)
        ctx, ref_ctx = build(), build()
        steps = []
        successor = ref_ctx.successor
        ref_ctx.successor = lambda *args: steps.append(args) or successor(*args)
        for x in (ds.transitions[0].x, ds.transitions[0].x, ds.transitions[7].x):
            steps.clear()
            rng, ref, count = (np.random.default_rng(4) for _ in range(3))
            mcts_select(ctx, x, 1, 16, rng, remaining=10)
            reference_mcts_select(ref_ctx, x, 1, 16, ref, remaining=10)
            count.random(len(steps))
            assert steps
            assert rng.bit_generator.state == ref.bit_generator.state
            assert ref.bit_generator.state == count.bit_generator.state

    def test_greedy_memo_equals_greedy_select_on_a_fresh_context(self):
        ds, build, _ = windy_parts()
        ctx = build()
        rng = np.random.default_rng(5)
        for query, x in TestEstimateMemo._queries(ds, rng):
            key = np.asarray(query, dtype=np.float64).tobytes()
            for a in range(ds.n_actions):
                assert ctx.greedy(query, key, a) == greedy_select(build(), x, a)

    def test_memoised_next_states_are_read_only(self):
        ds, build, _ = windy_parts()
        ctx = build()
        x = ds.transitions[0].x
        for kind in (NONPARAMETRIC, PARAMETRIC):
            succ = ctx.successor(kind, x, x.tobytes(), 0)
            assert succ.key == succ.state.tobytes()
            with pytest.raises(ValueError):
                succ.state[0] = 99.0
        run = _MctsRun(ctx, horizon=8, rng=np.random.default_rng(2))
        root = run.root(x, 0)
        for _ in range(8):
            leaf = run.tree_policy(root)
            run.backup(leaf, run.default_policy(leaf))
        assert root.children
        for child in root.children:
            with pytest.raises(ValueError):
                child.state += 1.0


@functools.cache
def _windy_planner(eval_eps):
    ds, build, _ = windy_parts(eval_eps=eval_eps)
    starts = [ds.transitions[i].x for i in (0, 7, 31)] + [np.array([0.0, 0.0])]
    return build, starts, ds.n_actions


@functools.cache
def _toy_planner():
    # past the logged data the copying expert cycles at the ribbons' ends
    ds, build = planning_toy_context(horizon=10)
    starts = [np.array(EVAL_START, dtype=np.float64), np.array([1.0, 1.0]),
              np.array([30.0, 4.0])] + [ds.transitions[i].x for i in (0, 3, 5)]
    return build, starts, ds.n_actions


@st.composite
def stub_planners(draw):
    """A two-action `StubContext` with scripted (some unsupported) errors,
    a policy that takes action 0 or 1 or mixes them by state, bound
    constants, maybe a terminal region, and maybe no expert for action 1."""
    errors = draw(st.dictionaries(
        st.tuples(st.integers(0, 20).map(float), st.sampled_from([0, 1]),
                  st.sampled_from([NONPARAMETRIC, PARAMETRIC])),
        step_errors, max_size=16,
    ))
    mixed, second = draw(st.sets(st.integers(0, 12))), draw(st.sets(st.integers(0, 12)))

    def probs(x):
        k = int(x[0]) % 13
        if k in mixed:
            return np.array([0.5, 0.5])
        return np.array([0.0, 1.0]) if k in second else np.array([1.0, 0.0])

    bound = BoundParams(
        draw(st.sampled_from([0.0, 0.5, 1.0, 1.3])), draw(st.sampled_from([0.0, 0.5, 1.0])),
        draw(st.sampled_from([0.9, 1.0])),
    )
    terminal_at = draw(st.none() | st.integers(3, 40))
    unfitted = draw(st.sampled_from([(), (1,)]))

    def build():
        return StubContext(
            errors, bound, policy=Policy(2, probs), unfitted_actions=unfitted,
            horizon_terminal=None if terminal_at is None else lambda x: x[0] >= terminal_at,
        )

    return build, [np.array([float(k)]) for k in (0, 1, 5)], 2


@st.composite
def planner_cases(draw):
    """A builder of fresh contexts, start states, and a sequence of
    decisions (start, action, remaining, budget; seed; on a fresh context
    or the shared warm one), drawn from up to three templates so that
    decisions repeat, with their own seeds."""
    source = draw(st.sampled_from(["windy", "windy_eps_greedy", "planning_toy", "stub"]))
    if source == "stub":
        build, starts, n_actions = draw(stub_planners())
    elif source == "planning_toy":
        build, starts, n_actions = _toy_planner()
    else:
        build, starts, n_actions = _windy_planner(0.3 if source == "windy_eps_greedy" else None)
    template = st.tuples(
        st.integers(0, len(starts) - 1), st.integers(0, n_actions - 1),
        st.integers(1, 30), st.integers(1, 40),
    )
    templates = draw(st.lists(template, min_size=1, max_size=3))
    decisions = draw(st.lists(
        st.tuples(st.sampled_from(templates), st.integers(0, 3), st.booleans()),
        min_size=1, max_size=6,
    ))
    return build, starts, decisions


def _decide(select, ctx, x, a, remaining, budget, seed):
    """One decision by `select` (the planner or its oracle): its answer
    (or the `NoSupportError` it raised), trace and generator state after."""
    rng = np.random.default_rng(seed)
    trace = []
    try:
        chosen = select(ctx, x, a, budget, rng, remaining=remaining, trace=trace)
    except NoSupportError as exc:
        chosen = f"NoSupportError: {exc}"
    return chosen, trace, rng.bit_generator.state


@settings(max_examples=120, deadline=None)
@given(case=planner_cases())
def test_planner_equals_the_step_by_step_oracle(case):
    # greedy chains and the decision memo change no answer, trace record
    # or generator state, and the planner computes the very steps and
    # greedy picks the oracle computes: none past the remaining horizon
    build, starts, decisions = case
    warm = build(), build()
    for (i, a, remaining, budget), seed, fresh in decisions:
        ctx, ref_ctx = (build(), build()) if fresh else warm
        got = _decide(mcts_select, ctx, starts[i], a, remaining, budget, seed)
        assert got == _decide(reference_mcts_select, ref_ctx, starts[i], a, remaining,
                              budget, seed)
        assert ctx._successors.keys() == ref_ctx._successors.keys()
        assert ctx.greedy_picks.keys() == ref_ctx.greedy_picks.keys()


class TestEstimateMemo:
    """`SelectionContext.estimate` memoizes per (expert, state bytes,
    action).  Every answer must equal a fresh context's (empty memo) and the
    direct estimate, whatever was asked before it."""

    @staticmethod
    def _windy(oracle=False):
        return windy_parts(oracle)

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

    @pytest.mark.parametrize("oracle", [False, True])
    def test_memo_equals_fresh_context_and_direct_estimate(self, oracle):
        ds, build, direct = self._windy(oracle)
        ctx = build()
        rng = np.random.default_rng(17)
        for query, x in self._queries(ds, rng):
            for a in range(ds.n_actions):
                for kind in (NONPARAMETRIC, PARAMETRIC):
                    got = ctx.estimate(kind, query, a)
                    assert got == build().estimate(kind, x, a)
                    assert got == direct(kind, x, a)


def test_one_neighbour_scan_per_state_and_action(monkeypatch):
    # both estimates and the nonparametric predictions at one (state,
    # action) read the expert's single memoised scan
    from moesim.experiments import run_repetition, validate_config
    from moesim.reproduce import windy_table1_config

    keys = []
    scan = Dataset.neighbor_rows

    def counted(ds, x, a, c, metric):
        keys.append((np.asarray(x, dtype=np.float64).tobytes(), a))
        return scan(ds, x, a, c, metric)

    monkeypatch.setattr(Dataset, "neighbor_rows", counted)
    cfg = validate_config(windy_table1_config(seed=0, n_repetitions=1))
    cfg["estimators"] = ["p", "np", "moe", "moe_true"]
    run_repetition(cfg, 0)
    assert len(keys) > 0
    assert len(keys) == len(set(keys))


class TestExpertSets:
    """The experts usable for an action are fixed when the context is built:
    here the analytic parametric expert covers every action, and the
    scripted windy behavior never logs action 2 ("left")."""

    @staticmethod
    def _context():
        from moesim.experiments import build_context, validate_config
        from moesim.reproduce import windy_table1_config

        _, ctx = build_context(validate_config(windy_table1_config(seed=1)), 0)
        return ctx

    def test_available_models_are_the_fitted_experts(self):
        ctx = self._context()
        for a in range(ctx.nonparametric.dataset.n_actions):
            assert ctx.available_models(a) == tuple(
                k for k in (NONPARAMETRIC, PARAMETRIC) if ctx.model(k).fitted(a)
            )
        assert ctx.available_models(2) == (PARAMETRIC,)
        assert ctx.available_models(0) == (NONPARAMETRIC, PARAMETRIC)

    def test_greedy_returns_the_only_usable_expert(self):
        ctx = self._context()
        rng = np.random.default_rng(4)
        for x in rng.uniform([-1.0, -1.0], [13.0, 15.0], size=(20, 2)):
            assert greedy_select(ctx, x, 2) == PARAMETRIC

    def test_mcts_nodes_at_a_single_expert_action_have_one_child(self):
        ctx = self._context()
        run = _MctsRun(ctx, horizon=8, rng=np.random.default_rng(6))
        root = run.root(np.array([3.0, 2.0]), 2)
        for _ in range(24):
            leaf = run.tree_policy(root)
            run.backup(leaf, run.default_policy(leaf))

        def walk(node):
            yield node
            for child in node.children:
                yield from walk(child)

        assert [c.model_choice for c in root.children] == [PARAMETRIC]
        for node in walk(root):
            kinds = [c.model_choice for c in node.children]
            assert set(kinds) <= set(ctx.available_models(node.action))
            if node.action == 2 and node.visits > 1:
                assert kinds == [PARAMETRIC]


# near-coincident starts overflow Lipschitz ratios, and far queries overflow
# ridge predictions: the estimate must then be unsupported
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    case=gapped_contexts(),
    queries=st.lists(
        st.tuples(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
                  st.sampled_from([1.0, 1e3, -1e6])),
        min_size=1, max_size=4,
    ),
)
def test_every_estimate_is_supported_and_finite_or_unsupported_and_infinite(case, queries):
    # a query is a point scaled by 1 or pushed far from every logged start
    ctx, data_actions = case
    for context in (ctx, ctx.oracle(gapped_true_step)):
        for point, scale in queries:
            x = np.array(point) * scale
            for kind, a in itertools.product((NONPARAMETRIC, PARAMETRIC), range(3)):
                est = context.estimate(kind, x, a)
                if est.supported:
                    assert est.eps_t >= 0 and est.eps_r >= 0
                else:
                    assert est == ErrorEstimate.unsupported()
                assert context.usable(kind, a) == (a in data_actions[kind])
                if not context.usable(kind, a):
                    assert not est.supported


@functools.cache
def _windy_context(seed, exact):
    """A windy context from `build_context`.  `exact` makes the true step
    the parametric expert: its residuals are 0, and so is the radius, and
    at a logged start both estimates tie at 0."""
    from moesim.experiments import build_context, validate_config
    from moesim.reproduce import windy_consistency_config

    cfg = windy_consistency_config(seed=seed)
    cfg["n_behavior_trajectories"] = 40
    batch, ctx = build_context(validate_config(cfg), 0)
    if not exact:
        return ctx
    step = batch.task.env.step
    model = FunctionModel(lambda x, a: step(x, a)[0], lambda x, a: step(x, a)[1])
    npm, lips = ctx.nonparametric, ctx._global_lips
    residuals = parametric_residuals(npm.dataset, model, npm.metric)
    return SelectionContext(
        model, NonparametricModel(npm.dataset, npm.metric, choose_radius(residuals[0], lips.l_t)),
        ctx.bound, ctx.policy, lips, residuals, is_terminal=ctx.is_terminal,
    )


@st.composite
def greedy_cases(draw):
    """A context and (state, action) queries.  Either a gapped context
    (overflowing ratios, radius 0 or inf, unfitted actions), a quarter of
    them in oracle mode, queried first at each of its few logged (start,
    action) pairs, or a windy context from `build_context`, maybe with the
    true step as its parametric expert.  Then logged pairs, and logged
    starts, next states (where simulated states land) and other points
    with any action."""
    if draw(st.booleans()):
        ctx, _ = draw(gapped_contexts())
        if draw(st.integers(0, 3)) == 0:
            ctx = ctx.oracle(gapped_true_step)
        other = st.lists(st.floats(-10, 10) | st.floats(-1e-154, 1e-154), min_size=2,
                         max_size=2)
        ds = ctx.nonparametric.dataset
        queries = list(zip(ds.starts, ds.actions.tolist()))
    else:
        ctx = fresh_context(_windy_context(draw(st.sampled_from([0, 1])), draw(st.booleans())))
        other = st.tuples(st.floats(-1, 13), st.floats(-1, 15))
        ds = ctx.nonparametric.dataset
        queries = []
    row = st.integers(0, len(ds) - 1)
    point = (
        row.map(lambda i: ds.starts[i]) | row.map(lambda i: ds.nexts[i])
        | other.map(lambda x: np.array(x, dtype=np.float64))
    )
    query = row.map(lambda i: (ds.starts[i], int(ds.actions[i]))) | st.tuples(
        point, st.integers(0, ds.n_actions - 1)
    )
    return ctx, queries + draw(st.lists(query, min_size=1, max_size=12))


def _greedy_or_error(select, ctx, x, a):
    try:
        return select(ctx, x, a)
    except NoSupportError as exc:
        return f"NoSupportError: {exc}"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(case=greedy_cases())
def test_greedy_select_equals_the_rule_that_reads_both_estimates(case):
    # a pick the global ratios decide is the pick the local estimates make,
    # and skipping the local scan leaves every later estimate as it was
    ctx, queries = case
    for x, a in queries:
        want = _greedy_or_error(reference_greedy_select, fresh_context(ctx), x, a)
        assert _greedy_or_error(greedy_select, ctx, x, a) == want
    for x, a in queries:
        for kind in (NONPARAMETRIC, PARAMETRIC):
            assert ctx.estimate(kind, x, a) == fresh_context(ctx).estimate(kind, x, a)
