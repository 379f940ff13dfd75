"""Batched entry points against their one-row forms: `predict_many`,
`Policy.probs_many`, `Policy.choose_many`, the windy step and the terminal
tests, the lockstep true-environment rollouts, the parametric residuals,
and the lockstep control variate rollouts of `ModelValueFunctions`.  Rows
must match bit for bit."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import rollout_with_probs, serial_rollout, uniform_policy
from moesim.baselines import ISInput, ModelValueFunctions, is_estimate
from moesim.core import Dataset, Metric, Policy, Transition
from moesim.envs import (
    acrobot_heuristic_policy,
    make_acrobot,
    make_eps_greedy,
    make_planning_toy,
    make_windy2d,
    planning_toy_parametric_model,
    planning_toy_policies,
    tip_height,
)
from moesim.envs.acrobot import tip_heights
from moesim.envs.base import Environment, generate_trajectories, rollouts
from moesim.envs.windy import (
    BEHAVIOR_BAND_X,
    BEHAVIOR_CLIMB_X,
    BEHAVIOR_CLIMB_Y,
    EVAL_TURN_Y,
    GOAL_BOX,
    windy_behavior_policy,
    windy_eval_policy,
    windy_no_wind_model,
)
from moesim.errors import parametric_residuals
from moesim.experiments import build_eval_policy, build_task
from moesim.models import FunctionModel, MLPModel, NoSupportError, RidgePerActionModel

PROPERTY = settings(max_examples=60, deadline=None)
finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def assert_rows_match(model, X, A):
    Y, R = model.predict_many(X, A)
    assert Y.shape == X.shape and R.shape == (len(A),)
    for x, a, y, r in zip(X, A, Y, R):
        y1, r1 = model.predict(x, int(a))
        assert bits(y) == bits(y1) and bits(r) == bits(r1)


# ---------------------------------------------------------------------------
# predict_many
# ---------------------------------------------------------------------------


@st.composite
def ridge_batches(draw):
    """A ridge model with random coefficients (action 0 always fitted, the
    others maybe not) and a batch of queries over all its actions."""
    dim = draw(st.integers(1, 4))
    n_actions = draw(st.integers(1, 3))
    model = RidgePerActionModel(dim, n_actions, 0.0)
    for a in range(n_actions):
        if a == 0 or draw(st.booleans()):
            model.coefs[a] = draw(arrays(np.float64, (dim + 1, dim + 1), elements=finite))
    n = draw(st.integers(0, 12))
    X = draw(arrays(np.float64, (n, dim), elements=finite))
    A = draw(arrays(np.int64, n, elements=st.integers(0, n_actions - 1)))
    return model, X, A


@PROPERTY
@given(ridge_batches())
def test_ridge_predict_many_rows_equal_predict(case):
    model, X, A = case
    if not all(model.fitted(int(a)) for a in A):
        with pytest.raises(NoSupportError):
            model.predict_many(X, A)
        return
    assert_rows_match(model, X, A)
    for x, a in zip(X, A):
        y, r = model.predict(x, int(a))
        z = np.append(x, 1.0) @ model.coefs[a]
        assert np.allclose(np.append(y, r), z, rtol=1e-9, atol=1e-6)


def test_ridge_unfitted_action_raises_in_both_forms():
    model = RidgePerActionModel(2, 3, 0.0)
    model.coefs[0] = np.ones((3, 3))
    X = np.zeros((3, 2))
    with pytest.raises(NoSupportError):
        model.predict(X[0], 2)
    with pytest.raises(NoSupportError):
        model.predict_many(X, np.array([0, 2, 0]))


def test_ridge_rejects_wrong_state_dimension():
    model = RidgePerActionModel(2, 1, 0.0)
    model.coefs[0] = np.ones((3, 3))
    with pytest.raises(ValueError):
        model.predict(np.zeros(3), 0)
    with pytest.raises(ValueError):
        model.predict_many(np.zeros((2, 1)), np.array([0, 0]))


@pytest.fixture(scope="module")
def fitted_mlp():
    env = make_windy2d(60)
    trajs, _ = generate_trajectories(env, windy_behavior_policy(), 2, seed=4)
    ds = Dataset.from_trajectories(trajs, env.n_actions)
    return MLPModel(ds.dim, ds.n_actions, 8, 1, seed=1).fit(ds, 20, 0.05)


@PROPERTY
@given(
    X=arrays(np.float64, st.tuples(st.integers(0, 10), st.just(2)), elements=finite),
    seed=st.integers(0, 2**32 - 1),
)
def test_mlp_and_analytic_predict_many_rows_equal_predict(fitted_mlp, X, seed):
    A = np.random.default_rng(seed).integers(0, 4, size=len(X))
    for model in (windy_no_wind_model(), planning_toy_parametric_model("accurate")):
        assert_rows_match(model, X, A)
    fitted = np.array([fitted_mlp.fitted(int(a)) for a in A], dtype=bool)
    assert_rows_match(fitted_mlp, X[fitted], A[fitted])
    if not fitted.all():
        with pytest.raises(NoSupportError):
            fitted_mlp.predict_many(X, A)


# ---------------------------------------------------------------------------
# probs_many
# ---------------------------------------------------------------------------

TIES = (
    0.0, -0.0, 1.0, 11.0, EVAL_TURN_Y, BEHAVIOR_CLIMB_Y, BEHAVIOR_CLIMB_X, BEHAVIOR_BAND_X,
    1e-12, -1e-300,
)
coordinate = st.one_of(st.sampled_from(TIES), st.floats(-20, 20))


def built_in_policies():
    """(name, policy, state dimension) for every policy the package builds."""
    toy_eval, toy_behavior = planning_toy_policies()
    constant = build_eval_policy(
        {"eval_policy": {"kind": "constant_action", "action": 3}},
        build_task({"kind": "windy2d"}),
    )
    return [
        ("windy_eval", windy_eval_policy(), 2),
        ("windy_behavior", windy_behavior_policy(), 2),
        ("windy_eps", make_eps_greedy(windy_eval_policy(), 0.3), 2),
        ("toy_eval", toy_eval, 2),
        ("toy_behavior", toy_behavior, 2),
        ("constant", constant, 2),
        ("uniform", uniform_policy(3), 4),
        ("acrobot", acrobot_heuristic_policy(), 4),
        ("acrobot_eps", make_eps_greedy(acrobot_heuristic_policy(), 0.1), 4),
    ]


@PROPERTY
@given(
    which=st.integers(0, len(built_in_policies()) - 1),
    rows=st.lists(st.lists(coordinate, min_size=4, max_size=4), max_size=12),
)
def test_probs_many_rows_equal_probs(which, rows):
    _, policy, dim = built_in_policies()[which]
    X = np.array(rows, dtype=np.float64).reshape(len(rows), 4)[:, :dim]
    P = policy.probs_many(X)
    assert P.shape == (len(X), policy.n_actions)
    for x, p in zip(X, P):
        assert bits(p) == bits(policy.probs(x))


def test_probs_many_threshold_ties():
    acro = acrobot_heuristic_policy()
    X = np.array([[0, 0, 0, 0.0], [0, 0, 0, -0.0], [0, 0, 0, -1e-300]])
    assert np.argmax(acro.probs_many(X), axis=1).tolist() == [2, 2, 0]
    windy = windy_eval_policy()
    Y = np.array([[0.0, EVAL_TURN_Y], [0.0, np.nextafter(EVAL_TURN_Y, 0)]])
    assert np.argmax(windy.probs_many(Y), axis=1).tolist() == [3, 0]


@pytest.mark.parametrize("bad", [[np.nan, 1.0], [-0.1, 1.1], [0.7, 0.7], [np.inf, 0.0]])
@given(n=st.integers(1, 6), row=st.integers(0, 5))
@settings(max_examples=10, deadline=None)
def test_probs_many_rejects_an_invalid_row(bad, n, row):
    row = row % n
    good = np.array([0.25, 0.75])

    def one(x):
        return np.array(bad) if x[0] == row else good

    def many(X):
        return np.array([one(x) for x in X])

    X = np.arange(n, dtype=np.float64)[:, None]
    for policy in (Policy(2, one), Policy(2, one, many)):
        with pytest.raises(ValueError):
            policy.probs_many(X)


def test_probs_many_rejects_a_wrong_shape():
    policy = Policy(2, lambda x: np.array([0.5, 0.5]), lambda X: np.full((len(X), 3), 1 / 3))
    with pytest.raises(ValueError):
        policy.probs_many(np.zeros((2, 1)))


def test_probs_many_of_no_rows():
    for _, policy, dim in built_in_policies():
        assert policy.probs_many(np.zeros((0, dim))).shape == (0, policy.n_actions)


# ---------------------------------------------------------------------------
# Batched acrobot terminal test
# ---------------------------------------------------------------------------


@PROPERTY
@given(arrays(np.float64, st.tuples(st.integers(0, 20), st.just(4)),
              elements=st.floats(-10, 10)))
def test_acrobot_terminal_test_batches_bit_for_bit(X):
    env = make_acrobot(300)
    assert bits(tip_heights(X)) == bits([tip_height(x) for x in X])
    assert env.is_terminal_many(X).tolist() == [env.is_terminal(x) for x in X]


# ---------------------------------------------------------------------------
# Lockstep control-variate rollouts
# ---------------------------------------------------------------------------

HORIZON = 25
# The fixture's model rollouts climb to tip heights between about -1.7 and
# -1.25 within the horizon.  At -2.5 every state is terminal, at -1.6 and
# -1.45 some starts are terminal and many rollouts end mid-way, and at 1.0
# every rollout runs its full length.
GOAL_HEIGHTS = (-2.5, -1.6, -1.45, 1.0)


@pytest.fixture(scope="module")
def acrobot_batch():
    env = make_acrobot(HORIZON)
    behavior = make_eps_greedy(acrobot_heuristic_policy(), 0.3)
    trajs, probs = generate_trajectories(env, behavior, 4, seed=3)
    ds = Dataset.from_trajectories(trajs, env.n_actions)
    model = RidgePerActionModel(ds.dim, ds.n_actions, 1e-6).fit(ds)
    starts = np.array([tr.x for traj in trajs for tr in traj.transitions])
    return trajs, probs, model, starts


def acrobot_env(goal_height, batched_terminal=True):
    """Acrobot at HORIZON whose episodes end at tip height `goal_height`;
    without `batched_terminal` its terminal test runs one row at a time."""
    return replace(
        make_acrobot(HORIZON),
        is_terminal=lambda x: tip_height(x) >= goal_height,
        is_terminal_many=(lambda X: tip_heights(X) >= goal_height) if batched_terminal else None,
    )


def value_functions(model, policy, goal_height, batched_terminal, gamma=0.97):
    env = acrobot_env(goal_height, batched_terminal)
    return ModelValueFunctions(model, policy, HORIZON, gamma, terminal_many=env.terminal_many)


@st.composite
def q_keys(draw, n_starts):
    """Keys over logged starts (some repeated), every action, and
    remaining 0, 1, the horizon or anything between."""
    n = draw(st.integers(1, 30))
    rows = draw(st.lists(st.integers(0, n_starts - 1), min_size=n, max_size=n))
    actions = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    remaining = draw(st.lists(
        st.one_of(st.sampled_from([0, 1, HORIZON]), st.integers(-2, HORIZON)),
        min_size=n, max_size=n,
    ))
    return rows, actions, remaining


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    goal_height=st.sampled_from(GOAL_HEIGHTS),
    stochastic=st.booleans(),
    batched_terminal=st.booleans(),
)
def test_lockstep_q_equals_one_key_rollouts(
    acrobot_batch, data, goal_height, stochastic, batched_terminal
):
    _, _, model, starts = acrobot_batch
    policy = acrobot_heuristic_policy()
    if stochastic:
        policy = make_eps_greedy(policy, 0.2)
    rows, actions, remaining = data.draw(q_keys(len(starts)))
    X = starts[rows]
    lockstep = value_functions(model, policy, goal_height, batched_terminal)
    got = lockstep.q_many(X, actions, remaining)
    for x, a, rem, value in zip(X, actions, remaining, got):
        one_key = value_functions(model, policy, goal_height, batched_terminal)
        assert bits(value) == bits(one_key.q(x, a, rem))
        assert bits(value) == bits(lockstep.q(x.copy(), a, rem))
        reference, _ = serial_rollout(
            model, policy, x, a, rem, 0.97, acrobot_env(goal_height).is_terminal
        )
        assert bits(value) == bits(reference)


def test_lockstep_cases_cover_every_way_a_rollout_ends(acrobot_batch):
    """GOAL_HEIGHTS give starts that are already terminal, rollouts that
    end mid-way, and rollouts that run their full length."""
    _, _, model, starts = acrobot_batch
    policy = acrobot_heuristic_policy()
    seen = set()
    for goal_height in GOAL_HEIGHTS:
        is_terminal = acrobot_env(goal_height).is_terminal
        for x in starts:
            _, steps = serial_rollout(model, policy, x, 0, HORIZON, 0.97, is_terminal)
            seen.add("start" if steps == 0 else "full" if steps == HORIZON else "mid-way")
    assert seen == {"start", "mid-way", "full"}


def test_fill_memoizes_every_key_the_tables_read(acrobot_batch):
    """After `fill`, the DR/WDR tables roll nothing more, and their values
    equal one-key rollouts."""
    trajs, probs, model, _ = acrobot_batch
    policy = make_eps_greedy(acrobot_heuristic_policy(), 0.2)
    inp = ISInput.build(trajs, probs, policy, 0.97)

    class Counting(type(model)):
        calls = 0

        def predict_many(self, X, A):
            Counting.calls += 1
            return super().predict_many(X, A)

    counted = Counting(model.dim, model.n_actions, model.ridge_lambda)
    counted.coefs = model.coefs
    vm = value_functions(counted, policy, -1.45, True)
    vm.fill(inp.trajectories)
    rolled = Counting.calls
    assert rolled > 0
    for traj in inp.trajectories:
        for t, tr in enumerate(traj.transitions):
            one_key = value_functions(model, policy, -1.45, False)
            assert vm.q(tr.x, tr.a, HORIZON - t) == one_key.q(tr.x, tr.a, HORIZON - t)
            assert vm.v(tr.x, HORIZON - t) == one_key.v(tr.x, HORIZON - t)
    assert Counting.calls == rolled
    for variant in ("DR", "WDR"):
        assert is_estimate(inp, variant, value_model=vm) == is_estimate(
            inp, variant, value_model=value_functions(model, policy, -1.45, False)
        )
    assert Counting.calls == rolled


def test_is_input_eval_probs_equal_per_step_probs(acrobot_batch):
    trajs, probs, _, _ = acrobot_batch
    for policy in (acrobot_heuristic_policy(), make_eps_greedy(acrobot_heuristic_policy(), 0.2)):
        inp = ISInput.build(trajs, probs, policy, 1.0)
        for traj, pe in zip(trajs, inp.eval_probs):
            want = np.array([policy.probs(tr.x)[tr.a] for tr in traj.transitions])
            assert bits(pe) == bits(want)


# ---------------------------------------------------------------------------
# choose_many and the windy step
# ---------------------------------------------------------------------------


def running_sums(p):
    """The running sums `Policy.choose` compares u with."""
    cum, out = 0.0, []
    for q in p:
        cum += q
        out.append(cum)
    return out


@st.composite
def choice_rows(draw):
    """Probability rows (zero-probability actions included) and one u per
    row: a uniform draw, or a running sum itself or a neighbouring double."""
    n_actions = draw(st.integers(1, 5))
    weight = st.sampled_from([0.0, 1.0, 0.1, 1 / 3]) | st.floats(0, 1)
    rows, draws = [], []
    for _ in range(draw(st.integers(1, 8))):
        w = np.array(draw(st.lists(weight, min_size=n_actions, max_size=n_actions)))
        p = w / w.sum() if w.sum() > 0 else np.eye(n_actions)[0]
        sums = running_sums(p)
        u = draw(st.floats(0, 1, exclude_max=True) | st.sampled_from(sums))
        u = float(np.nextafter(u, draw(st.sampled_from([-1.0, u, 2.0]))))
        rows.append(p)
        draws.append(u)
    return np.array(rows), np.array(draws)


@PROPERTY
@given(choice_rows())
def test_choose_many_equals_choose(case):
    P, U = case
    assert Policy.choose_many(P, U).tolist() == [Policy.choose(p, u) for p, u in zip(P, U)]


GOAL_TIES = (*GOAL_BOX[0], *GOAL_BOX[1])
windy_coordinate = st.one_of(
    st.sampled_from(TIES + GOAL_TIES),
    st.sampled_from(GOAL_TIES).map(lambda v: float(np.nextafter(v, 0.0))),
    st.floats(-1e6, 1e6),
)


@PROPERTY
@given(
    rows=st.lists(st.tuples(windy_coordinate, windy_coordinate, st.integers(0, 3)),
                  max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_windy_step_many_equals_step(rows, seed):
    # the drawn rows, then 20 uniform ones, whose sums round at random
    env = make_windy2d(60)
    rng = np.random.default_rng(seed)
    X = np.concatenate([np.array([r[:2] for r in rows]).reshape(len(rows), 2),
                        rng.uniform(-20, 20, size=(20, 2))])
    A = np.concatenate([np.array([r[2] for r in rows], dtype=np.intp),
                        rng.integers(0, 4, size=20)])
    Y, R = env.step_many(X, A)
    assert Y.shape == X.shape and R.shape == (len(X),)
    for x, a, y, r in zip(X, A.tolist(), Y, R):
        y1, r1 = env.step(x, a)
        assert bits(y) == bits(y1) and bits(r) == bits(r1)
    assert env.terminal_many(X).tolist() == [env.is_terminal(x) for x in X]


# ---------------------------------------------------------------------------
# Lockstep true-environment rollouts
# ---------------------------------------------------------------------------

# A state that is terminal before any step: inside the windy goal, and an
# acrobot with its tip at height 2.  The planning toy has no terminal state.
TERMINAL_START = {"windy": (10.0, 10.0), "acrobot": (np.pi, 0.0, 0.0, 0.0)}


@st.composite
def rollout_cases(draw):
    """An environment, a policy (eps-greedy at eps 0, 1 or between, or
    not), a horizon from 1, a seed, rollout ids, and fixed starts (some
    already terminal) or None for sampled ones."""
    kind = draw(st.sampled_from(["windy", "acrobot", "toy"]))
    horizon = draw(st.integers(1, 12 if kind == "acrobot" else 45))
    if kind == "windy":
        env = make_windy2d(horizon)
        base = draw(st.sampled_from([windy_eval_policy(), windy_behavior_policy()]))
        point = st.tuples(st.floats(-2, 14), st.floats(-2, 14))
    elif kind == "acrobot":
        env = make_acrobot(horizon)
        base = acrobot_heuristic_policy()
        point = st.tuples(*[st.floats(-4, 4)] * 2, *[st.floats(-20, 20)] * 2)
    else:
        env = make_planning_toy(horizon)
        base = draw(st.sampled_from(planning_toy_policies()))
        point = st.tuples(st.floats(-3, 14), st.floats(-3, 3))
    if kind in TERMINAL_START:
        point = point | st.just(TERMINAL_START[kind])
    eps = draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    policy = draw(st.sampled_from([base, make_eps_greedy(base, eps)]))
    n = draw(st.integers(0, 6))
    ids = draw(st.lists(st.integers(0, 2**16), min_size=n, max_size=n))
    starts = draw(st.none() | st.lists(point, min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**32 - 1))
    return env, policy, horizon, seed, ids, starts


def assert_same_rollout(got, got_probs, want, want_probs):
    assert bits(got.states) == bits(want.states)
    assert got.actions.tolist() == want.actions.tolist()
    assert bits(got.rewards) == bits(want.rewards)
    assert bits(got_probs) == bits(want_probs)
    assert got.terminated == want.terminated


@settings(max_examples=150, deadline=None)
@given(rollout_cases())
def test_lockstep_rollouts_equal_the_serial_oracle(case):
    env, policy, horizon, seed, ids, starts = case
    trajs, probs = rollouts(env, policy, horizon, seed, ids, starts)
    assert len(trajs) == len(probs) == len(ids)
    for k, i in enumerate(ids):
        rng = np.random.default_rng([seed, i])
        x0 = env.sample_initial(rng) if starts is None else starts[k]
        assert_same_rollout(trajs[k], probs[k], *rollout_with_probs(env, policy, x0, horizon, rng))
    if starts:
        # generate_trajectories rolls ids 0..n-1 over env.horizon, cycling starts
        n = len(starts) + 2
        trajs, probs = generate_trajectories(env, policy, n, seed, starts=starts)
        for i in range(n):
            want = rollout_with_probs(
                env, policy, starts[i % len(starts)], horizon, np.random.default_rng([seed, i])
            )
            assert_same_rollout(trajs[i], probs[i], *want)


def test_one_lockstep_batch_ends_rollouts_at_every_point():
    """In one batch, a terminal start is stepped once, another rollout
    reaches the goal mid-way, and a third runs to the horizon."""
    env = make_windy2d(40)
    policy = make_eps_greedy(windy_eval_policy(), 0.3)
    starts = [TERMINAL_START["windy"], (0.2, 0.3), (0.0, -30.0)]
    trajs, _ = rollouts(env, policy, 40, 5, [0, 1, 2], starts)
    assert [(len(t), t.terminated) for t in trajs] == [(1, True), (32, True), (40, False)]


def test_acrobot_overflow_in_a_lockstep_batch_names_the_state():
    env = make_acrobot(20)
    starts = [(0.1, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 400.0), (0.0, 0.0, 0.0, 0.0)]
    with pytest.raises(ValueError, match=re.escape(
        "acrobot step overflowed from state [0.0, 0.0, 0.0, 400.0]"
    )):
        rollouts(env, acrobot_heuristic_policy(), 20, 1, [0, 1, 2], starts)


@pytest.mark.parametrize("horizon, step", [(10, 6), (4, 2)])
@pytest.mark.parametrize("bad", ["state", "reward"])
def test_a_non_finite_step_names_the_first_failing_rollout(horizon, step, bad):
    # each rollout counts up from its start, and the step from 6 returns a
    # NaN state or reward: rollout 0 reaches it at step 6 within 10 steps,
    # and otherwise rollout 1, from 4, is the first to, at step 2
    def count(x, a):
        nan = x[0] == 6.0
        return x + (math.nan if nan and bad == "state" else 1.0), (
            math.nan if nan and bad == "reward" else 0.0
        )

    env = Environment(1, 1, horizon, count, lambda rng: np.zeros(1))
    policy = Policy.deterministic(lambda x: 0, 1)
    starts = [np.array([v]) for v in (0.0, 4.0, 5.0, math.nan)]
    with pytest.raises(ValueError) as err:
        rollouts(env, policy, horizon, 0, range(len(starts)), starts)
    assert str(err.value) == f"non-finite state or reward at trajectory step {step}"

    def alone(k):
        # the message of rollout k made by the serial oracle, or None
        try:
            rollout_with_probs(env, policy, starts[k], horizon, np.random.default_rng([0, k]))
        except ValueError as exc:
            return str(exc)

    assert str(err.value) == next(filter(None, map(alone, range(len(starts)))))


# ---------------------------------------------------------------------------
# Parametric residuals
# ---------------------------------------------------------------------------


@st.composite
def residual_cases(draw):
    """A dataset of 1- to 6-D rows over three actions (drawn rows, then 30
    normal ones, whose sums round at random), a weighted metric, and a
    model: ridge with some actions unfitted, a closed-form model with no
    batched form, or (in 2-D) the windy analytic expert."""
    dim = draw(st.integers(1, 6))
    point = st.lists(finite, min_size=dim, max_size=dim)
    rows = draw(st.lists(st.tuples(point, st.integers(0, 2), finite, point), max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows += zip(rng.normal(size=(30, dim)), rng.integers(0, 3, size=30).tolist(),
                rng.normal(size=30).tolist(), rng.normal(size=(30, dim)))
    ds = Dataset([Transition(x, a, r, y, 0, t) for t, (x, a, r, y) in enumerate(rows)],
                 [rows[0][0]], dim, 3)
    weights = draw(st.lists(st.floats(0.01, 100), min_size=dim, max_size=dim))
    kind = draw(st.sampled_from(["ridge", "closed_form"] + (["windy"] if dim == 2 else [])))
    if kind == "ridge":
        model = RidgePerActionModel(dim, 3, 0.0)
        for a in range(3):
            if draw(st.booleans()):
                model.coefs[a] = np.array(draw(st.lists(
                    finite, min_size=(dim + 1) ** 2, max_size=(dim + 1) ** 2,
                ))).reshape(dim + 1, dim + 1)
    elif kind == "closed_form":
        model = FunctionModel(lambda x, a: 0.7 * x + a, lambda x, a: float(x[0]) - a)
    else:
        model = windy_no_wind_model()
    return ds, Metric(np.array(weights)), model


@PROPERTY
@given(residual_cases())
def test_residuals_equal_a_per_row_distance(case):
    ds, metric, model = case
    eps_t, eps_r = parametric_residuals(ds, model, metric)
    for i, (x, a, r, y) in enumerate(zip(ds.starts, ds.actions.tolist(), ds.rewards, ds.nexts)):
        if not model.fitted(a):
            assert eps_t[i] == eps_r[i] == np.inf
            continue
        xp, rp = model.predict(x, a)
        assert bits(eps_t[i]) == bits(metric.distance(xp, y))
        assert bits(eps_r[i]) == bits(abs(rp - r))
