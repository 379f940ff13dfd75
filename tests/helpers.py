"""Shared test oracles."""

import math
from functools import reduce
from operator import add

import numpy as np
from hypothesis import strategies as st

from moesim.core import Dataset, Metric, Policy, Trajectory, Transition
from moesim.envs.acrobot import (
    DT, GRAVITY, I1, I2, L1, LC1, LC2, M1, M2, MAX_VEL1, MAX_VEL2, N_SUBSTEPS, TORQUES,
)
from moesim.envs.base import Environment
from moesim.errors import (
    BoundParams,
    LipschitzEstimates,
    choose_radius,
    global_lipschitz,
    parametric_residuals,
)
from moesim.models import (
    NONPARAMETRIC,
    PARAMETRIC,
    MLPParams,
    NonparametricModel,
    NoSupportError,
    RidgePerActionModel,
    mlp_forward,
)
from moesim.selection import SelectionContext, _MctsRun, _trace_record


class DeterministicMDP:
    """Tiny 3-state deterministic chain.

    State is a single coordinate in {0, 1, 2}; action 0 advances (capped),
    action 1 stays.  Rewards depend on (state, action).
    """

    def __init__(self):
        self.rewards = {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 2.0, (1, 1): 0.5,
                        (2, 0): 0.0, (2, 1): 3.0}

    def env(self, horizon=4):
        def step(x, a):
            s = int(x[0])
            nxt = min(s + 1, 2) if a == 0 else s
            return np.array([float(nxt)]), self.rewards[(s, a)]

        return Environment(
            dim=1, n_actions=2, horizon=horizon, step=step,
            sample_initial=lambda rng: np.array([0.0]),
        )


def uniform_policy(n_actions: int) -> Policy:
    """Every action with probability 1 / n_actions."""
    p = np.full(n_actions, 1.0 / n_actions)
    return Policy(n_actions, lambda x: p)


def general_path(policy: Policy) -> Policy:
    """The policy without its action functions, its batches stacked from
    `probs_fn` rows: the oracle of every path that acts on a deterministic
    policy's actions directly."""
    return Policy(policy.n_actions, policy.probs_fn)


def simulate_bound_instance(rng, horizon=5):
    """One random deterministic task plus an imperfect model; returns the
    actual return gap and the bound fed with the exact per-step errors.

    Dynamics are linear (so the true Lipschitz constant is the operator
    norm) with a bounded state-dependent model perturbation; the reward is
    linear with its own bounded model perturbation.
    """
    dim = int(rng.integers(1, 4))
    A = rng.uniform(-1, 1, size=(dim, dim))
    b = rng.uniform(-1, 1, size=dim)
    c = rng.uniform(-1, 1, size=dim)
    l_t = float(np.linalg.svd(A, compute_uv=False)[0])
    l_r = float(np.linalg.norm(c))
    gamma = float(rng.uniform(0.5, 1.0))
    d0 = rng.uniform(-0.3, 0.3, size=dim)
    w = rng.uniform(0.5, 2.0, size=dim)
    r_amp = float(rng.uniform(0.0, 0.4))
    r_freq = float(rng.uniform(0.5, 2.0))

    def f(x):
        return A @ x + b

    def f_hat(x):
        return A @ x + b + d0 * np.sin(w * x)

    def reward(x):
        return float(c @ x)

    def reward_hat(x):
        return float(c @ x) + r_amp * np.cos(r_freq * float(x[0]))

    x = rng.uniform(-1, 1, size=dim)
    x_true, x_sim = x.copy(), x.copy()
    g_true = 0.0
    g_sim = 0.0
    eps_t = []
    eps_r = []
    m = Metric.euclidean(dim)
    for t in range(horizon + 1):
        g_true += gamma**t * reward(x_true)
        g_sim += gamma**t * reward_hat(x_sim)
        eps_r.append(abs(reward(x_sim) - reward_hat(x_sim)))
        nxt_true = f(x_true)
        nxt_sim = f_hat(x_sim)
        eps_t.append(m.distance(nxt_sim, f(x_sim)))
        x_true, x_sim = nxt_true, nxt_sim
    bound = return_error_bound(eps_t, eps_r, BoundParams(l_t, l_r, gamma))
    return abs(g_true - g_sim), bound


def context_scans(ds, model, metric):
    """The two whole-batch scans a SelectionContext takes, computed the way
    `experiments.build_context` computes them for a config that gives both
    bound constants: (global Lipschitz ratios, parametric residuals).  An
    overflowed ratio stays inf."""
    return global_lipschitz(ds, metric), parametric_residuals(ds, model, metric)


def rollout_with_probs(env, policy, x0, horizon, rng):
    """One rollout of the true environment, stepped alone: from x0 under
    the policy for at most `horizon` steps, stopping after the first step
    into a terminal state, with one `rng.random()` per step.  Returns the
    trajectory and the probability of each sampled action.  The oracle of
    the lockstep `envs.base.rollouts`."""
    x = np.array(x0, dtype=np.float64)
    states, actions, rewards, probs = [x], [], [], []
    reached = False
    for _ in range(horizon):
        p = policy.probs(x)
        a = policy.choose(p, rng.random())
        probs.append(float(p[a]))
        x, r = env.step(x, a)
        states.append(x)
        actions.append(a)
        rewards.append(r)
        if env.is_terminal is not None and env.is_terminal(x):
            reached = True
            break
    return Trajectory(states, actions, rewards, terminated=reached), np.array(probs)


@np.errstate(over="ignore")
def block_pair_scan(X, Y, R, metric, block=64):
    """The pair scan as it was before tiling, the oracle of
    `errors._pairwise_max_ratios`: exact max ratios over all pairs i < j
    with distinct starts, for one action's stacked arrays.

    Row block lo:hi is compared only with columns j >= lo, from exact
    per-dimension differences.  Pairs with i >= j or coincident starts get
    an infinite squared start distance, so their ratios are 0 and they are
    not counted.  When every reward is equal, the reward pass is skipped."""
    n = len(X)
    Xw = X * metric.weights
    Yw = Y * metric.weights
    rewards_vary = n > 1 and bool(np.any(R[1:] != R[0]))
    best_t = 0.0
    best_r = 0.0
    used = 0
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        dx2, dy2 = np.zeros((2, hi - lo, n - lo))
        tmp = np.empty_like(dx2)
        for out, A in ((dx2, Xw), (dy2, Yw)):
            for k in range(A.shape[1]):
                np.subtract(A[lo:hi, k, None], A[None, lo:, k], out=tmp)
                np.multiply(tmp, tmp, out=tmp)
                out += tmp
        dx2[:, : hi - lo][np.tri(hi - lo, dtype=bool)] = np.inf
        dx2[dx2 == 0.0] = np.inf
        used += int(np.count_nonzero(dx2 != np.inf))
        best_t = max(best_t, float(np.sqrt(np.divide(dy2, dx2, out=dy2).max())))
        if rewards_vary:
            np.subtract(R[lo:hi, None], R[None, lo:], out=tmp)
            np.abs(tmp, out=tmp)
            np.divide(tmp, np.sqrt(dx2, out=dx2), out=tmp)
            best_r = max(best_r, float(tmp.max()))
    return best_t, best_r, used


_RATIO_EPS = 0.0  # pairs with zero start distance are skipped outright


def estimate_lipschitz(pairs, metric):
    """Max ratio estimates over explicit transition pairs.

    Pairs whose start states coincide (zero distance) are skipped to avoid
    division by zero; with nothing left the ratios are 0 over 0 pairs.
    """
    best_t = 0.0
    best_r = 0.0
    used = 0
    for ti, tj in pairs:
        d = metric.distance(ti.x, tj.x)
        if d <= _RATIO_EPS:
            continue
        used += 1
        best_t = max(best_t, metric.distance(ti.x_next, tj.x_next) / d)
        best_r = max(best_r, abs(ti.r - tj.r) / d)
    return LipschitzEstimates(best_t, best_r, used)


def rollforward_state_error(delta_prev, p, eps_t):
    """One step of the state-error recursion: delta' = l_t * delta + eps_t."""
    if delta_prev < 0 or eps_t < 0:
        raise ValueError("state errors must be nonnegative")
    return p.l_t * delta_prev + eps_t


def return_error_bound(eps_t_seq, eps_r_seq, p):
    """Upper bound on |true return - simulated return| over a horizon, the
    paper's bound and the reference of the planner's incremental one.

    With delta(0) = 0 and delta(t) = l_t * delta(t-1) + eps_t[t-1], the
    bound is sum_t gamma^t * (l_r * delta(t) + eps_r[t]).  The last
    transition-error entry only matters through delta terms beyond the
    horizon and therefore never affects the value.
    """
    if len(eps_t_seq) != len(eps_r_seq):
        raise ValueError("error sequences must have equal length")
    total = 0.0
    delta = 0.0
    for t, eps_r in enumerate(eps_r_seq):
        if t > 0:
            delta = rollforward_state_error(delta, p, eps_t_seq[t - 1])
        total += (p.gamma**t) * (p.l_r * delta + eps_r)
    return total


def state_error_closed_form(eps_t_seq, p, t):
    """Explicit form of the recursion: sum_{k=0}^{t-1} l_t^k eps_t[t-k-1]."""
    return sum((p.l_t**k) * eps_t_seq[t - k - 1] for k in range(t))


def path_error_sequences(ctx, node):
    """(eps_t, eps_r) pairs along a plan node's root-to-node path, root
    excluded: each node's step is its expert's estimate at its parent's
    (state, action)."""
    eps_t = []
    eps_r = []
    cur = node
    while cur is not None and cur.model_choice != "root":
        est = ctx.estimate(cur.model_choice, cur.parent.state, cur.parent.action)
        eps_t.append(est.eps_t)
        eps_r.append(est.eps_r)
        cur = cur.parent
    return eps_t[::-1], eps_r[::-1]


def neighbors_within(ds, x, a, c, metric):
    """All transitions of `ds` with action `a` starting within distance `c`
    of `x`, in (traj_id, t) order."""
    near = ds.neighbor_rows(x, a, c, metric)
    return [] if near is None else [ds.transitions[int(i)] for i in near.rows]


def mlp_loss(params, X, Y):
    """Mean squared prediction error over samples and outputs."""
    diff = mlp_forward(params, X) - Y
    return float(np.mean(diff * diff))


def flatten(params):
    """All weights, then all biases, as one vector."""
    return np.concatenate(
        [w.ravel() for w in params.weights] + [b.ravel() for b in params.biases]
    )


def unflatten_like(params, vec):
    """The inverse of `flatten`, shaped like `params`."""
    ws, bs, pos = [], [], 0
    for w in params.weights:
        ws.append(vec[pos : pos + w.size].reshape(w.shape))
        pos += w.size
    for b in params.biases:
        bs.append(vec[pos : pos + b.size].reshape(b.shape))
        pos += b.size
    return MLPParams(ws, bs)


def serial_rollout(model, policy, x, a, remaining, gamma, is_terminal=None):
    """One model rollout at a time, the way control variates were rolled
    before lockstep: (discounted return, steps taken).  Take `a`, then the
    policy's argmax, for `remaining` steps or until the terminal region."""
    if remaining <= 0 or (is_terminal is not None and is_terminal(x)):
        return 0.0, 0
    total = 0.0
    state, action = np.asarray(x, dtype=np.float64), a
    for k in range(remaining):
        state, r = model.predict(state, action)
        total += (gamma**k) * r
        if is_terminal is not None and is_terminal(state):
            return total, k + 1
        if k + 1 < remaining:
            action = int(np.argmax(policy.probs(state)))
    return total, remaining


def gapped_true_step(x, a):
    """The true step of `gapped_contexts`' task, for their oracle mode."""
    return 0.5 * np.asarray(x) + a, float(x[0])


@st.composite
def gapped_contexts(draw, coordinate=st.floats(-10, 10) | st.floats(-1e-154, 1e-154)):
    """A small 2-D SelectionContext over three actions with a uniform
    evaluation policy and a terminal region x[0] > 5.  The data has no row of one action, and the ridge
    expert is fitted without the rows of another, which the data has.
    Coordinates near 0, and a row triplet, give near-coincident starts,
    whose Lipschitz ratios can overflow.  An overflowed ratio stays inf, or
    is replaced by a finite constant as a config's `bound` entries replace
    it, with its action still recorded.  Returns the context and, per
    expert, the actions it has data for."""
    missing, unfit, _ = draw(st.permutations(range(3)))
    point = st.lists(coordinate, min_size=2, max_size=2)
    logged = st.sampled_from([a for a in range(3) if a != missing])
    rows = draw(st.lists(st.tuples(point, logged, st.floats(-2, 2), point), min_size=1,
                         max_size=10))
    rows[0] = (rows[0][0], unfit, *rows[0][2:])
    if draw(st.booleans()):
        # the last row's start moved to x[0] = 0, then two more rows whose
        # starts lie 1e-160 apart along x[0] and whose next states step away
        # and back: their ratios overflow, and no affine map fits the three
        x, a, r, y = rows[-1]
        rows[-1] = ([0.0, x[1]], a, r, y)
        rows.append(([1e-160, x[1]], a, r, [y[0] + 1.0, y[1]]))
        rows.append(([2e-160, x[1]], a, r, y))
    ds = Dataset(
        [Transition(x, a, r, y, traj_id=i) for i, (x, a, r, y) in enumerate(rows)],
        draw(st.lists(point, min_size=1, max_size=3)), 2, 3,
    )
    lam = draw(st.sampled_from([0.0, 1e-6, 1.0]))
    ridge = RidgePerActionModel(2, 3, lam).fit(ds.select(ds.actions != unfit))
    metric = Metric.euclidean(2)
    lips, residuals = context_scans(ds, ridge, metric)
    given = draw(st.sampled_from([None, 0.5, 2.0]))
    if given is not None:
        lips = lips.with_given({"l_t": given, "l_r": given})
    radius = draw(st.sampled_from([choose_radius(residuals[0], lips.l_t), 0.0, 1.0, np.inf]))
    ctx = SelectionContext(
        ridge, NonparametricModel(ds, metric, radius), BoundParams(1.0, 1.0, 1.0),
        uniform_policy(3), lips, residuals, is_terminal=lambda x: bool(x[0] > 5.0),
    )
    logged_actions = set(ds.actions.tolist())
    return ctx, {NONPARAMETRIC: logged_actions, PARAMETRIC: logged_actions - {unfit}}


def fresh_context(ctx):
    """A SelectionContext over ctx's experts, scans and mode whose memos,
    the nonparametric expert's neighbour scans too, start empty."""
    npm = ctx.nonparametric
    return SelectionContext(
        ctx.parametric, NonparametricModel(npm.dataset, npm.metric, npm.radius), ctx.bound,
        ctx.policy, ctx._global_lips, ctx._residuals, ctx.true_step, ctx.is_terminal,
    )


def reference_greedy_select(ctx, x, a):
    """The greedy rule as it reads both local estimates at every pick: the
    oracle of `greedy_select`, which skips the nonparametric one where the
    global ratios decide."""
    avail = ctx.available_models(a)
    if not avail:
        raise NoSupportError(
            f"no data for action {a} and the parametric model is unfitted for it"
        )
    if len(avail) == 1:
        return avail[0]
    np_est = ctx.estimate(NONPARAMETRIC, x, a)
    if not np_est.supported:
        return PARAMETRIC
    p_est = ctx.estimate(PARAMETRIC, x, a)
    return NONPARAMETRIC if np_est.eps_t < p_est.eps_t else PARAMETRIC


def _acrobot_derivatives(s, torque, m1, m2, l1, lc1, lc2, i1, i2, g):
    theta1, theta2, w1, w2 = s
    d1 = m1 * lc1**2 + m2 * (l1**2 + lc2**2 + 2 * l1 * lc2 * np.cos(theta2)) + i1 + i2
    d2 = m2 * (lc2**2 + l1 * lc2 * np.cos(theta2)) + i2
    phi2 = m2 * lc2 * g * np.cos(theta1 + theta2 - np.pi / 2)
    phi1 = (
        -m2 * l1 * lc2 * w2**2 * np.sin(theta2)
        - 2 * m2 * l1 * lc2 * w2 * w1 * np.sin(theta2)
        + (m1 * lc1 + m2 * l1) * g * np.cos(theta1 - np.pi / 2)
        + phi2
    )
    a2 = (
        torque + (d2 / d1) * phi1 - m2 * l1 * lc2 * w1**2 * np.sin(theta2) - phi2
    ) / (m2 * lc2**2 + i2 - d2**2 / d1)
    a1 = -(d2 * a2 + phi1) / d1
    return np.array([w1, w2, a1, a2])


def _rk4_step(s, torque, h, physics):
    k1 = _acrobot_derivatives(s, torque, *physics)
    k2 = _acrobot_derivatives(s + 0.5 * h * k1, torque, *physics)
    k3 = _acrobot_derivatives(s + 0.5 * h * k2, torque, *physics)
    k4 = _acrobot_derivatives(s + h * k3, torque, *physics)
    return s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _wrap(angle):
    return float((angle + np.pi) % (2 * np.pi) - np.pi)


def numpy_acrobot_step(
    x, a, *, m1=M1, m2=M2, l1=L1, lc1=LC1, lc2=LC2, i1=I1, i2=I2, gravity=GRAVITY,
    n_substeps=N_SUBSTEPS,
):
    """The acrobot step on numpy float64 scalars and 4-vectors, written
    straight from the equations of motion: at the package's constants, the
    reference that `acrobot_step` must match bit for bit."""
    s = np.asarray(x, dtype=np.float64).copy()
    torque = TORQUES[a]
    h = DT / n_substeps
    physics = (m1, m2, l1, lc1, lc2, i1, i2, gravity)
    for _ in range(n_substeps):
        s = _rk4_step(s, torque, h, physics)
    s[0] = _wrap(s[0])
    s[1] = _wrap(s[1])
    s[2] = float(np.clip(s[2], -MAX_VEL1, MAX_VEL1))
    s[3] = float(np.clip(s[3], -MAX_VEL2, MAX_VEL2))
    return s, -1.0


class _StepByStepRun(_MctsRun):
    """A planning decision whose rollouts take the context's memoised
    successor and one `rng.random()` per simulated step, the way the
    planner completed rollouts before greedy chains."""

    def default_policy(self, node):
        state, key, action, terminal = node.state, node.key, node.action, node.terminal
        tau, delta, delta_g = node.tau, node.delta, node.delta_g
        while tau < self.horizon and not terminal:
            try:
                kind = self.ctx.greedy(state, key, action)
            except NoSupportError:
                break
            succ, action, tau, delta, delta_g = self.step(
                kind, state, key, action, tau, delta, delta_g
            )
            state, key, terminal = succ.state, succ.key, succ.terminal
        return -delta_g


def reference_mcts_select(ctx, x, a, budget, rng, remaining, trace=None):
    """`mcts_select` rolled out step by step and without the decision
    memo: the oracle of the planner's greedy chains and decision memo."""
    run = _StepByStepRun(ctx, remaining, rng)
    root = run.root(x, a)
    for _ in range(budget):
        leaf = run.tree_policy(root)
        run.backup(leaf, run.default_policy(leaf))
    candidates = [c for c in root.children if c.visits > 0 and c.best_value > -math.inf]
    chosen = None
    if candidates:
        chosen = max(
            enumerate(candidates),
            key=lambda ic: (ic[1].best_value, ic[1].model_choice == NONPARAMETRIC, -ic[0]),
        )[1].model_choice
    if trace is not None:
        trace.append(_trace_record(root, run, chosen))
    return chosen if chosen is not None else ctx.greedy(root.state, root.key, a)


def jsonschema_errors(schema, value):
    """(JSON path, message) of each error jsonschema's Draft 7 validator
    finds, in its order: the oracle of `experiments._schema_errors`, which
    replaced it in `validate_config`."""
    from jsonschema import Draft7Validator

    return [(e.json_path, e.message) for e in Draft7Validator(schema).iter_errors(value)]


def einsum_distances(metric, points, x):
    """`Metric.distance` from each row of `points` to `x` in its row-major
    form, one einsum over the weighted differences of contiguous rows
    (einsum's summation order depends on the layout): the oracle of the
    column-lane sum."""
    diff = (np.ascontiguousarray(points) - np.asarray(x)) * metric.weights
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def reference_generators(seed, ids):
    """`core.generators` as one `np.random.default_rng([seed, i])` per id."""
    return [np.random.default_rng([seed, i]) for i in ids]


def reference_probs_valid(P):
    """The validity test of a probability matrix by `min(axis=1)` and
    `sum(axis=1)`, the oracle of `Policy.probs_many`'s column passes."""
    # written so that NaN fails both comparisons
    return bool(
        np.all(P.min(axis=1) >= 0.0) and np.all(np.abs(P.sum(axis=1) - 1.0) <= 1e-9)
    )


def reference_choose_many(P, U):
    """`Policy.choose_many` by `np.cumsum` along each row and `argmax` of
    the first running sum above u."""
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = np.inf  # the last action takes every u the others miss
    return np.argmax(np.asarray(U)[:, None] < cum, axis=1)


def two_lane_distance(weights, x, y):
    """One weighted distance in Python floats, the weights always
    multiplied in and the squares added in two lanes, (d0² + d2² + ...) +
    (d1² + d3² + ...): the oracle of `Metric.distance`."""
    sq = [d * d for d in (w * (a - b) for w, a, b in zip(weights, x, y))]
    total = reduce(add, sq[0::2])
    if len(sq) > 1:
        total += reduce(add, sq[1::2])
    return math.sqrt(total)


def reference_roll(value_model, starts):
    """`ModelValueFunctions._roll` as it rolled its rows in key order, the
    oracle of the rows sorted by remaining steps: the discounted return of
    each (x bytes, a, remaining) key in `starts`, as a dict, without
    touching the memo.  Every row still running is stepped, tested and
    scattered back by index at every step."""
    if not starts:
        return {}
    keys = list(starts)
    state = np.array(list(starts.values()))
    action = np.array([a for _, a, _ in keys])
    remaining = np.array([r for _, _, r in keys])
    totals = np.zeros(len(keys))
    live = np.flatnonzero(remaining > 0)
    live = live[~value_model.terminal_many(state[live])]
    policy = value_model.policy
    k = 0
    while len(live):
        state_next, r = value_model.model.predict_many(state[live], action[live])
        if not (np.isfinite(state_next).all() and np.isfinite(r).all()):
            raise ValueError(f"model predicted a non-finite state or reward at rollout step {k}")
        totals[live] += (value_model.gamma**k) * r
        state[live] = state_next
        k += 1
        live = live[(remaining[live] > k) & ~value_model.terminal_many(state_next)]
        if len(live):
            action[live] = (
                np.argmax(policy.probs_many(state[live]), axis=1)
                if policy.actions_fn is None
                else policy.actions_fn(state[live])
            )
    return dict(zip(keys, totals.tolist()))


def reference_is_estimate(inp, variant, value_model=None):
    """`baselines.is_estimate` as one loop over the table's columns, each
    column summed by `np.sum` over its live rows: the oracle of the
    whole-table arithmetic and its per-run column sums."""
    from moesim.baselines import _ratio_table, is_estimate

    if variant in ("IS", "WIS"):
        return is_estimate(inp, variant)
    gamma = inp.gamma
    n = len(inp.trajectories)
    rho, rewards, lengths = _ratio_table(inp)
    t_max = rho.shape[1]
    if variant in ("PDIS", "CWPDIS"):
        total = 0.0
        for t in range(t_max):
            num = rho[:, t] * rewards[:, t]
            if variant == "PDIS":
                total += (gamma**t) * float(np.mean(num))
            else:
                denom = float(np.sum(rho[:, t]))
                if denom > 0:
                    total += (gamma**t) * float(np.sum(num) / denom)
        return total

    value_model.fill(inp.trajectories)
    q_vals = np.zeros((n, t_max))
    v_vals = np.zeros((n, t_max))
    for i, traj in enumerate(inp.trajectories):
        for t, tr in enumerate(traj.transitions):
            remaining = value_model.horizon - t
            q_vals[i, t] = value_model.q(tr.x, tr.a, remaining)
            v_vals[i, t] = value_model.v(tr.x, remaining)

    def normalized(weights):
        total = float(np.sum(weights))
        return weights / total if total > 0 else np.zeros_like(weights)

    alive = np.arange(t_max) < lengths[:, None]
    rho_prev = np.ones((n, t_max))
    rho_prev[:, 1:] = rho[:, :-1]
    total = 0.0
    for t in range(t_max):
        live = alive[:, t]
        correction = rewards[:, t] - q_vals[:, t]
        if variant == "DR":
            term = rho[live, t] * correction[live] + rho_prev[live, t] * v_vals[live, t]
            total += (gamma**t) * float(np.sum(term)) / n
        else:
            w = normalized(rho[:, t])
            w_prev = normalized(rho_prev[:, t])
            term = w[live] * correction[live] + w_prev[live] * v_vals[live, t]
            total += (gamma**t) * float(np.sum(term))
    return total
