"""Per-step expert choice: greedy comparison of local error estimates, or
UCT planning that minimizes the rolled-forward return-error bound.

The planner's search space is not the task itself: a tree node is a
(state, action) pair of the task, a tree "move" is the choice of which
expert simulates that step, and a rollout's value is minus the return-error
bound accumulated along the simulated path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .core import ActionId, Policy, StateVec
from .errors import (
    BoundParams,
    ErrorEstimate,
    LipschitzEstimates,
    np_error_estimate,
    p_error_estimate,
)
from .models import (
    NONPARAMETRIC,
    PARAMETRIC,
    DynamicsModel,
    NonparametricModel,
    NoSupportError,
)


# the largest double `Generator.random` returns
_LAST_U = 1.0 - 2.0**-53


class Successor(NamedTuple):
    """One simulated step of (state, action) by one expert, as the planner
    reads it: the expert's error estimate, the read-only next state with
    its float64 bytes, the evaluation policy's probabilities there as
    Python floats, whether the next state is terminal, and `fixed`, the
    action `Policy.choose` picks there for every uniform draw (None when
    the draw decides).  `choose` is monotone in u, so `fixed` is its pick
    when the smallest and the largest draw agree."""

    estimate: ErrorEstimate
    state: np.ndarray
    key: bytes
    probs: tuple[float, ...]
    terminal: bool
    fixed: ActionId | None


class Chain(NamedTuple):
    """A greedy path through fixed-action successors: per step the
    estimate's (supported, eps_t, eps_r) and the running maximum of the
    supported eps_t (from 0), and the last step's successor."""

    steps: list[tuple[bool, float, float]]
    peaks: list[float]
    end: Successor


class StepMemo:
    """Exact memos of the planner's per-step work, for a context that
    provides `estimate`, `model`, `policy`, `is_terminal` and
    `available_models`, and may override `decided`.

    Inside one context every input of a simulated step is fixed except the
    uniform draw that picks the next action: the estimate, the expert's
    next state, the policy's probabilities at it and its terminal test are
    functions of (expert, state bytes, action), and the greedy pick is a
    function of (state bytes, action).  So `successor` and `greedy` compute
    each once; a memoised step then costs a dict lookup and
    `Policy.choose` on one `rng.random()`, which is exact for stochastic
    policies too.

    Where a successor's next action does not depend on the draw (`fixed`),
    a greedy rollout's next step does not either, so `chain` memoises the
    greedy path through such successors.  And a planning decision none of
    whose draws picked an action is a function of its (state bytes,
    action, remaining horizon, budget): `decisions` holds its number of
    draws and its trace record, which names its answer (`mcts_select`).
    """

    def __init__(self) -> None:
        self._successors: dict[tuple[str, bytes, ActionId], Successor] = {}
        self.greedy_picks: dict[tuple[bytes, ActionId], str] = {}
        self._chains: dict[tuple[bytes, ActionId], Chain] = {}
        self.decisions: dict[tuple[bytes, ActionId, int, int], tuple[int, dict]] = {}

    def successor(self, kind: str, x: StateVec, key: bytes, a: ActionId) -> Successor:
        """The step of (x, a) by expert `kind`; `key` is x's float64 bytes."""
        succ = self._successors.get((kind, key, a))
        if succ is None:
            succ = self._successors[(kind, key, a)] = self._step(kind, x, a)
        return succ

    def _step(self, kind: str, x: StateVec, a: ActionId) -> Successor:
        est = self.estimate(kind, x, a)
        next_state = np.array(self.model(kind).predict(x, a)[0], dtype=np.float64)
        next_state.flags.writeable = False
        term = self.is_terminal
        probs = tuple(self.policy.probs(next_state).tolist())
        fixed = Policy.choose(probs, 0.0)
        return Successor(
            est,
            next_state,
            next_state.tobytes(),
            probs,
            bool(term(next_state)) if term is not None else False,
            fixed if Policy.choose(probs, _LAST_U) == fixed else None,
        )

    def decided(self, x: StateVec, a: ActionId) -> str | None:
        """The greedy pick at (x, a) when a bound already decides it without
        the nonparametric local estimate, else None; here, always None."""
        return None

    def greedy(self, x: StateVec, key: bytes, a: ActionId) -> str:
        """`greedy_select` at (x, a), memoised on (key, a); an action no
        expert can simulate raises `NoSupportError` every time."""
        pick = self.greedy_picks.get((key, a))
        if pick is None:
            pick = self.greedy_picks[(key, a)] = greedy_select(self, x, a)
        return pick

    def chain(self, x: StateVec, key: bytes, a: ActionId, limit: int) -> Chain:
        """The greedy path from (x, a), memoised on (key, a).  A new chain
        takes at most `limit` steps (the rollout's remaining horizon), and
        ends after a terminal or stochastic successor, or before a step
        whose action no expert can simulate or where a chain starts.  An
        action at x that no expert can simulate raises `NoSupportError`."""
        chain = self._chains.get((key, a))
        if chain is None:
            chain = self._chains[(key, a)] = self._build_chain(x, key, a, limit)
        return chain

    def _build_chain(self, x: StateVec, key: bytes, a: ActionId, limit: int) -> Chain:
        steps: list[tuple[bool, float, float]] = []
        peaks: list[float] = []
        peak = 0.0
        kind = self.greedy(x, key, a)
        while True:
            succ = self.successor(kind, x, key, a)
            est = succ.estimate
            if est.supported:
                peak = max(peak, est.eps_t)
            steps.append((est.supported, est.eps_t, est.eps_r))
            peaks.append(peak)
            x, key, a = succ.state, succ.key, succ.fixed
            if (
                len(steps) == limit or succ.terminal or a is None
                or (key, a) in self._chains
            ):
                break
            try:
                kind = self.greedy(x, key, a)
            except NoSupportError:
                break
        return Chain(steps, peaks, succ)


class SelectionContext(StepMemo):
    """Everything one model choice needs: both experts, bound constants,
    the evaluation policy, and, in oracle mode only, the true step
    function, against which each expert is scored by its actual one-step
    error.  The batch data, metric and neighbourhood radius are the
    nonparametric expert's, whose memoised neighbour scan both local error
    estimates read.

    Complete once built: it takes the repetition's global Lipschitz ratios
    (the nonparametric estimate's fallback) and the parametric model's
    per-transition residuals, and fixes for every action the tuple of
    experts fitted for it.

    `global_lips` must be the global scan of the nonparametric expert's
    own dataset and metric: its ratios are then at least every local
    scan's, with the same bits, which lets `decided` settle most greedy
    picks without a local scan.

    `estimate` is an exact memo keyed on (expert, float64 bytes of x,
    action): every input it reads is fixed for the context's lifetime, and
    simulated states repeat exactly because the nonparametric expert copies
    logged outcomes.  A context lives for one repetition, so the memo never
    crosses repetitions.  For the same reasons the planner's steps and
    greedy picks are exact memos too (`StepMemo`).
    """

    def __init__(
        self,
        parametric: DynamicsModel,
        nonparametric: NonparametricModel,
        bound: BoundParams,
        policy: Policy,
        global_lips: LipschitzEstimates,
        residuals: tuple[np.ndarray, np.ndarray],
        true_step: Callable[[StateVec, ActionId], tuple[StateVec, float]] | None = None,
        is_terminal: Callable[[StateVec], bool] | None = None,
    ):
        super().__init__()
        self.parametric = parametric
        self.nonparametric = nonparametric
        self.bound = bound
        self.policy = policy
        self.true_step = true_step
        self.is_terminal = is_terminal
        self._global_lips = global_lips
        self._residuals = residuals
        self._available = [
            tuple(k for k in (NONPARAMETRIC, PARAMETRIC) if self.model(k).fitted(a))
            for a in range(nonparametric.dataset.n_actions)
        ]
        self._estimates: dict[tuple[str, bytes, ActionId], ErrorEstimate] = {}

    def oracle(
        self, true_step: Callable[[StateVec, ActionId], tuple[StateVec, float]]
    ) -> "SelectionContext":
        """This context in oracle mode: the same experts, bound and cached
        scans, scoring each expert by its actual one-step error against
        `true_step`.  Its estimate and step memos start empty."""
        return SelectionContext(
            self.parametric, self.nonparametric, self.bound, self.policy,
            self._global_lips, self._residuals, true_step=true_step,
            is_terminal=self.is_terminal,
        )

    def model(self, kind: str) -> DynamicsModel:
        return self.nonparametric if kind == NONPARAMETRIC else self.parametric

    def available_models(self, a: ActionId) -> tuple[str, ...]:
        """The experts fitted for action a, nonparametric first."""
        return self._available[a]

    def usable(self, kind: str, a: ActionId) -> bool:
        return kind in self._available[a]

    def estimate(self, kind: str, x: StateVec, a: ActionId) -> ErrorEstimate:
        """Local error estimate for one expert at (x, a), honoring oracle
        mode.  Unusable experts report an unsupported (infinite) estimate."""
        x = np.asarray(x, dtype=np.float64)
        key = (kind, x.tobytes(), a)
        est = self._estimates.get(key)
        if est is None:
            est = self._estimates[key] = self._compute_estimate(kind, x, a)
        return est

    def _compute_estimate(self, kind: str, x: StateVec, a: ActionId) -> ErrorEstimate:
        if not self.usable(kind, a):
            return ErrorEstimate.unsupported()
        npm = self.nonparametric
        if self.true_step is not None:
            true_next, true_r = self.true_step(x, a)
            pred_next, pred_r = self.model(kind).predict(x, a)
            return ErrorEstimate(
                npm.metric.distance(true_next, pred_next), abs(true_r - pred_r)
            )
        near = npm.neighbors(x, a)
        if kind == NONPARAMETRIC:
            return np_error_estimate(npm.dataset, near, npm.metric, fallback=self._global_lips)
        return p_error_estimate(near, residuals=self._residuals)

    def decided(self, x: StateVec, a: ActionId) -> str | None:
        """NONPARAMETRIC when the global ratios already make the greedy
        pick at (x, a), else None.  Outside oracle mode, with no overflowed
        global ratio and some row within C, the nonparametric estimate is
        (l_t d, l_r d) for local ratios at most the global ones, or the
        global ones themselves (d the nearest distance).  A rounded product
        with d >= 0 is monotone, so when global l_t d is below the
        parametric eps_t and global l_r d is finite, that estimate is
        supported and strictly smaller too."""
        lips = self._global_lips
        if self.true_step is not None or lips.inf_t is not None or lips.inf_r is not None:
            return None
        near = self.nonparametric.neighbors(x, a)
        if near is None or not len(near.rows):
            return None
        d = near.distance
        bounded = lips.l_t * d < self.estimate(PARAMETRIC, x, a).eps_t
        return NONPARAMETRIC if bounded and math.isfinite(lips.l_r * d) else None


def greedy_select(ctx: SelectionContext, x: StateVec, a: ActionId) -> str:
    """Pick the expert with the smaller local transition-error estimate.

    An expert that is the only one fitted for action a is picked without
    an estimate.  Otherwise returns nonparametric iff its eps_t is strictly
    smaller than the parametric one's (an unsupported parametric estimate
    is infinite, so it loses).  When the nonparametric estimate is
    unsupported (no same-action neighbor within the radius) the parametric
    expert wins by default: it is assumed to extrapolate more gracefully
    than copying a far-away transition.

    The nonparametric estimate, the only one that needs a local Lipschitz
    scan, is read only when `ctx.decided` leaves the pick open: a context
    settles it from the neighbour scan, the parametric estimate and the
    global ratios where they bound the answer.
    """
    avail = ctx.available_models(a)
    if not avail:
        raise NoSupportError(
            f"no data for action {a} and the parametric model is unfitted for it"
        )
    if len(avail) == 1:
        return avail[0]
    pick = ctx.decided(x, a)
    if pick is not None:
        return pick
    np_est = ctx.estimate(NONPARAMETRIC, x, a)
    if not np_est.supported:
        return PARAMETRIC
    p_est = ctx.estimate(PARAMETRIC, x, a)
    return NONPARAMETRIC if np_est.eps_t < p_est.eps_t else PARAMETRIC


# ---------------------------------------------------------------------------
# UCT over model choices
# ---------------------------------------------------------------------------


@dataclass
class PlanNode:
    """Search-tree node: the (state, action) about to be simulated, the
    state's float64 bytes and terminal flag, which expert produced it,
    visit statistics, and the rolled-forward error bounds along the path
    from the root."""

    state: StateVec
    key: bytes
    terminal: bool
    action: ActionId
    model_choice: str  # "parametric" | "nonparametric" | "root"
    tau: int = 0
    delta: float = 0.0
    delta_g: float = 0.0
    parent: "PlanNode | None" = None
    visits: int = 0
    total_value: float = 0.0
    best_value: float = -math.inf
    children: list["PlanNode"] = field(default_factory=list)


class _MctsRun:
    """One planning decision: a fresh tree, a shared exploration constant,
    the rollout machinery, and the decision's count of uniform draws and
    whether any of them picked an action (a stochastic successor's)."""

    def __init__(self, ctx: SelectionContext, horizon: int, rng: np.random.Generator):
        self.ctx = ctx
        self.horizon = horizon
        self.rng = rng
        self.max_eps_t = 0.0
        self.n_draws = 0
        self.picked = False

    @property
    def c_e(self) -> float:
        return max(1e-6, self.max_eps_t / math.sqrt(2.0))

    def root(self, x: StateVec, a: ActionId) -> PlanNode:
        state = np.asarray(x, dtype=np.float64)
        term = self.ctx.is_terminal
        return PlanNode(
            state=state,
            key=state.tobytes(),
            terminal=bool(term(state)) if term is not None else False,
            action=a,
            model_choice="root",
        )

    def tree_policy(self, root: PlanNode) -> PlanNode:
        node = root
        while node.tau < self.horizon and not node.terminal:
            avail = self.ctx.available_models(node.action)
            if not avail:
                return node
            if len(node.children) < len(avail):
                return self.expand(node, avail)
            node = self.uct_child(node)
        return node

    def step(
        self, kind: str, state: StateVec, key: bytes, action: ActionId, tau: int,
        delta: float, delta_g: float,
    ) -> tuple[Successor, ActionId, int, float, float]:
        """Simulate (state, action) with expert `kind`: its memoised
        successor, the policy's next action, and the bounds rolled forward
        to tau + 1, delta' = l_t * delta + eps_t and
        delta_g' = delta_g + gamma^(tau+1) * (eps_r + l_r * delta').  A
        supported (so finite) eps_t raises the exploration constant's running
        maximum.

        An unsupported step (infinite errors) makes both bounds infinite
        for the rest of the path; they are set rather than computed, since
        a zero l_t or l_r times an infinite error is NaN, and a NaN value
        would never win `uct_child`."""
        succ = self.ctx.successor(kind, state, key, action)
        est = succ.estimate
        if est.supported:
            self.max_eps_t = max(self.max_eps_t, est.eps_t)
        next_action = Policy.choose(succ.probs, self.rng.random())
        self.n_draws += 1
        self.picked = self.picked or succ.fixed is None
        tau += 1
        if not est.supported or delta_g == math.inf:
            return succ, next_action, tau, math.inf, math.inf
        bound = self.ctx.bound
        delta = bound.l_t * delta + est.eps_t
        delta_g = delta_g + bound.gamma**tau * (est.eps_r + bound.l_r * delta)
        return succ, next_action, tau, delta, delta_g

    def expand(self, node: PlanNode, avail: tuple[str, ...]) -> PlanNode:
        """Add the node's next untried expert as a child: the greedy pick
        first, then the other one."""
        if node.children:
            tried = {c.model_choice for c in node.children}
            pick = next(k for k in avail if k not in tried)
        else:
            pick = self.ctx.greedy(node.state, node.key, node.action)
        succ, action, tau, delta, delta_g = self.step(
            pick, node.state, node.key, node.action, node.tau, node.delta, node.delta_g
        )
        child = PlanNode(
            state=succ.state,
            key=succ.key,
            terminal=succ.terminal,
            action=action,
            model_choice=pick,
            tau=tau,
            delta=delta,
            delta_g=delta_g,
            parent=node,
        )
        node.children.append(child)
        return child

    def uct_child(self, node: PlanNode) -> PlanNode:
        c_e = self.c_e
        two_log_n = 2.0 * math.log(node.visits)
        best = None
        best_key: tuple[float, int, int] | None = None
        for i, child in enumerate(node.children):
            score = child.total_value / child.visits + c_e * math.sqrt(two_log_n / child.visits)
            key = (score, 1 if child.model_choice == NONPARAMETRIC else 0, -i)
            if best_key is None or key > best_key:
                best, best_key = child, key
        return best

    def default_policy(self, node: PlanNode) -> float:
        """Complete the rollout to the horizon with greedy choices; the
        rollout's value is minus the accumulated return-error bound.

        It walks memoised greedy chains (`StepMemo.chain`), cut at the
        horizon, with `step`'s arithmetic in `step`'s order and one uniform
        draw per step, of which only a chain's last can pick an action."""
        ctx, horizon = self.ctx, self.horizon
        bound = ctx.bound
        l_t, l_r, gamma = bound.l_t, bound.l_r, bound.gamma
        state, key, action, terminal = node.state, node.key, node.action, node.terminal
        tau, delta, delta_g = node.tau, node.delta, node.delta_g
        while tau < horizon and not terminal:
            try:
                chain = ctx.chain(state, key, action, horizon - tau)
            except NoSupportError:
                break
            steps = chain.steps
            m = min(len(steps), horizon - tau)
            u = self.rng.random(m)[-1]
            self.n_draws += m
            self.max_eps_t = max(self.max_eps_t, chain.peaks[m - 1])
            for supported, eps_t, eps_r in steps if m == len(steps) else steps[:m]:
                tau += 1
                if not supported or delta_g == math.inf:
                    delta = delta_g = math.inf
                else:
                    delta = l_t * delta + eps_t
                    delta_g = delta_g + gamma**tau * (eps_r + l_r * delta)
            if m < len(steps):
                break
            end = chain.end
            state, key, terminal, action = end.state, end.key, end.terminal, end.fixed
            if action is None:
                self.picked = True
                action = Policy.choose(end.probs, float(u))
        return -delta_g

    @staticmethod
    def backup(node: PlanNode, value: float) -> None:
        cur: PlanNode | None = node
        while cur is not None:
            cur.visits += 1
            cur.total_value += value
            cur.best_value = max(cur.best_value, value)
            cur = cur.parent


def mcts_select(
    ctx: SelectionContext,
    x: StateVec,
    a: ActionId,
    budget: int,
    rng: np.random.Generator,
    remaining: int,
    trace: list | None = None,
) -> str:
    """Plan the model choice for simulating (x, a) by UCT search.

    Plans `remaining` steps ahead, the rest of the simulated trajectory,
    with `budget` rollouts that draw the evaluation policy's
    actions from `rng`.  Builds a fresh binary tree per decision.  Each
    expansion applies the chosen expert's transition and the evaluation
    policy to produce the child (state, action), scores the step's error,
    and rolls the state- and return-error bounds forward with the paper's
    constants l_t and l_r.  Rollouts finish with greedy choices
    and return minus the accumulated bound; the answer is the model of the
    root child with the best single rollout, preferring nonparametric on
    exact ties.  If no rollout completes, the greedy rule decides.

    A decision none of whose draws picked an action is memoised on the
    context (`StepMemo.decisions`); asked again, it advances `rng` by the
    same number of draws and appends a copy of the same trace record.
    """
    state = np.asarray(x, dtype=np.float64)
    key = (state.tobytes(), a, remaining, budget)
    memo = ctx.decisions.get(key)
    if memo is None:
        run = _MctsRun(ctx, remaining, rng)
        root = run.root(state, a)
        for _ in range(budget):
            leaf = run.tree_policy(root)
            value = run.default_policy(leaf)
            run.backup(leaf, value)
        candidates = [
            c for c in root.children if c.visits > 0 and c.best_value > -math.inf
        ]
        best = max(
            candidates, key=lambda c: (c.best_value, c.model_choice == NONPARAMETRIC),
            default=None,
        )
        chosen = None if best is None else best.model_choice
        memo = (run.n_draws, _trace_record(root, run, chosen))
        if not run.picked:
            ctx.decisions[key] = memo
    else:
        rng.random(memo[0])
    record = memo[1]
    if trace is not None:
        trace.append(trace_copy(record))
    chosen = record["chosen"]
    return chosen if chosen is not None else ctx.greedy(state, key[0], a)


def trace_copy(record: dict) -> dict:
    """A copy of a decision's trace record that shares no list or dict
    with it."""
    return {
        **record,
        "state": list(record["state"]),
        "children": [dict(c) for c in record["children"]],
    }


def _trace_record(root: PlanNode, run: _MctsRun, chosen: str | None) -> dict:
    return {
        "state": [float(v) for v in root.state],
        "action": int(root.action),
        "c_e": run.c_e,
        "children": [
            {
                "model": c.model_choice,
                "visits": c.visits,
                "total_value": c.total_value,
                "best_value": c.best_value,
                "delta_g": c.delta_g,
            }
            for c in root.children
        ],
        "chosen": chosen,
    }
