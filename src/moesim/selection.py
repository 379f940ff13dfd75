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
from typing import Callable

import numpy as np

from .core import ActionId, Dataset, Metric, Policy, StateVec
from .errors import (
    BoundParams,
    ErrorEstimate,
    LipschitzEstimates,
    global_lipschitz,
    InsufficientPairsError,
    np_error_estimate,
    p_error_estimate,
    parametric_residuals,
)
from .models import (
    NONPARAMETRIC,
    PARAMETRIC,
    DynamicsModel,
    NonparametricModel,
    NoSupportError,
)


class ModelUnusableError(RuntimeError):
    """Neither expert can simulate the requested (state, action)."""


@dataclass(frozen=True)
class SelectorConfig:
    """Knobs for the per-step model choice.

    mode:            "greedy" or "mcts"
    alpha_r:         weight of the reward-error term in the greedy
                     comparison (0 = transition error only)
    mcts_budget:     rollouts per decision
    horizon:         planning depth cap; None plans to the remaining
                     simulation horizon
    use_true_errors: oracle mode -- score each expert by its actual one-step
                     error against the true environment
    delta_coeff:     which Lipschitz constant multiplies the rolled-forward
                     state error inside the bound increment: "reward" (the
                     reward-function constant, matching the return bound) or
                     "transition"
    """

    mode: str = "greedy"
    alpha_r: float = 0.0
    mcts_budget: int = 128
    horizon: int | None = None
    use_true_errors: bool = False
    seed: int = 0
    delta_coeff: str = "reward"

    def __post_init__(self) -> None:
        if self.mode not in ("greedy", "mcts"):
            raise ValueError(f"unknown selection mode {self.mode!r}")
        if self.alpha_r < 0:
            raise ValueError("alpha_r must be nonnegative")
        if self.mcts_budget < 1:
            raise ValueError("mcts_budget must be >= 1")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.delta_coeff not in ("reward", "transition"):
            raise ValueError("delta_coeff must be 'reward' or 'transition'")


class SelectionContext:
    """Everything one model choice needs: both experts, the batch data and
    metric, the shared neighborhood radius, bound constants, the evaluation
    policy, and (for oracle mode) the true step function.

    Immutable once built; caches the global Lipschitz ratios and the
    parametric model's per-transition residuals.

    `estimate` is an exact memo keyed on (expert, float64 bytes of x,
    action): every input it reads is fixed for the context's lifetime, and
    simulated states repeat exactly because the nonparametric expert copies
    logged outcomes.  A context lives for one repetition, so the memo never
    crosses repetitions.
    """

    def __init__(
        self,
        parametric: DynamicsModel,
        nonparametric: NonparametricModel,
        dataset: Dataset,
        metric: Metric,
        radius: float,
        bound: BoundParams,
        policy: Policy,
        alpha_r: float = 0.0,
        true_step: Callable[[StateVec, ActionId], tuple[StateVec, float]] | None = None,
        is_terminal: Callable[[StateVec], bool] | None = None,
        use_true_errors: bool = False,
        global_lips: LipschitzEstimates | None = None,
        residuals: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        if use_true_errors and true_step is None:
            raise ValueError("oracle error mode needs the true step function")
        self.parametric = parametric
        self.nonparametric = nonparametric
        self.dataset = dataset
        self.metric = metric
        self.radius = radius
        self.bound = bound
        self.policy = policy
        self.alpha_r = alpha_r
        self.true_step = true_step
        self.is_terminal = is_terminal
        self.use_true_errors = use_true_errors
        self._global_lips = global_lips
        self._residuals = residuals
        self._estimates: dict[tuple[str, bytes, ActionId], ErrorEstimate] = {}

    def model(self, kind: str) -> DynamicsModel:
        return self.nonparametric if kind == NONPARAMETRIC else self.parametric

    def usable(self, kind: str, a: ActionId) -> bool:
        if kind == NONPARAMETRIC:
            return self.dataset.n_for_action(a) > 0
        fitted = getattr(self.parametric, "fitted", None)
        return True if fitted is None else bool(fitted(a))

    def available_models(self, a: ActionId) -> list[str]:
        return [k for k in (NONPARAMETRIC, PARAMETRIC) if self.usable(k, a)]

    def _fallback_lipschitz(self) -> LipschitzEstimates:
        if self._global_lips is None:
            try:
                self._global_lips = global_lipschitz(self.dataset, self.metric)
            except InsufficientPairsError:
                self._global_lips = LipschitzEstimates(0.0, 0.0, 0)
        return self._global_lips

    def _parametric_residuals(self) -> tuple[np.ndarray, np.ndarray]:
        if self._residuals is None:
            self._residuals = parametric_residuals(
                self.dataset, self.parametric, self.metric
            )
        return self._residuals

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
        if self.use_true_errors:
            true_next, true_r = self.true_step(x, a)
            pred_next, pred_r = self.model(kind).predict(x, a)
            return ErrorEstimate(
                self.metric.distance(true_next, pred_next), abs(true_r - pred_r)
            )
        if kind == NONPARAMETRIC:
            return np_error_estimate(
                self.dataset, x, a, self.radius, self.metric,
                fallback=self._fallback_lipschitz(),
            )
        return p_error_estimate(
            self.dataset, self.parametric, x, a, self.radius, self.metric,
            residuals=self._parametric_residuals(),
        )


def greedy_select(ctx: SelectionContext, x: StateVec, a: ActionId) -> str:
    """Pick the expert with the smaller weighted local error estimate.

    Returns nonparametric iff eps_t_np + alpha_r * eps_r_np is strictly
    smaller than the parametric counterpart.  When the nonparametric
    estimate is unsupported (no same-action neighbor within the radius) the
    parametric expert wins by default: it is assumed to extrapolate more
    gracefully than copying a far-away transition.
    """
    p_usable = ctx.usable(PARAMETRIC, a)
    np_usable = ctx.usable(NONPARAMETRIC, a)
    if not p_usable and not np_usable:
        raise ModelUnusableError(
            f"no data for action {a} and the parametric model is unfitted for it"
        )
    if not np_usable:
        return PARAMETRIC
    np_est = ctx.estimate(NONPARAMETRIC, x, a)
    if not np_est.supported:
        return PARAMETRIC if p_usable else NONPARAMETRIC
    if not p_usable:
        return NONPARAMETRIC
    p_est = ctx.estimate(PARAMETRIC, x, a)
    np_score = np_est.eps_t + ctx.alpha_r * np_est.eps_r
    p_score = p_est.eps_t + ctx.alpha_r * p_est.eps_r
    return NONPARAMETRIC if np_score < p_score else PARAMETRIC


# ---------------------------------------------------------------------------
# UCT over model choices
# ---------------------------------------------------------------------------


@dataclass
class PlanNode:
    """Search-tree node: the (state, action) about to be simulated, which
    expert produced it, visit statistics, and the rolled-forward error
    bounds along the path from the root."""

    state: StateVec
    action: ActionId
    model_choice: str  # "parametric" | "nonparametric" | "root"
    tau: int
    delta: float
    delta_g: float
    eps_t: float = 0.0
    eps_r: float = 0.0
    parent: "PlanNode | None" = None
    visits: int = 0
    total_value: float = 0.0
    best_value: float = -math.inf
    children: list["PlanNode"] = field(default_factory=list)

    def mean_value(self) -> float:
        return self.total_value / self.visits


def path_error_sequences(node: PlanNode) -> tuple[list[float], list[float]]:
    """(eps_t, eps_r) pairs along the root-to-node path, root excluded."""
    eps_t: list[float] = []
    eps_r: list[float] = []
    cur: PlanNode | None = node
    while cur is not None and cur.model_choice != "root":
        eps_t.append(cur.eps_t)
        eps_r.append(cur.eps_r)
        cur = cur.parent
    return eps_t[::-1], eps_r[::-1]


class _MctsRun:
    """One planning decision: a fresh tree, a shared exploration constant,
    and the rollout machinery."""

    def __init__(
        self,
        ctx: SelectionContext,
        cfg: SelectorConfig,
        horizon: int,
        rng: np.random.Generator,
    ):
        self.ctx = ctx
        self.cfg = cfg
        self.horizon = horizon
        self.rng = rng
        self.max_eps_t = 0.0
        self.coeff = ctx.bound.l_r if cfg.delta_coeff == "reward" else ctx.bound.l_t

    @property
    def c_e(self) -> float:
        return max(1e-6, self.max_eps_t / math.sqrt(2.0))

    def _estimate(self, kind: str, x: StateVec, a: ActionId) -> ErrorEstimate:
        est = self.ctx.estimate(kind, x, a)
        if math.isfinite(est.eps_t):
            self.max_eps_t = max(self.max_eps_t, est.eps_t)
        return est

    def terminal(self, node: PlanNode) -> bool:
        if node.tau >= self.horizon:
            return True
        term = self.ctx.is_terminal
        return bool(term(node.state)) if term is not None else False

    def tree_policy(self, root: PlanNode) -> PlanNode:
        node = root
        while not self.terminal(node):
            avail = self.ctx.available_models(node.action)
            if not avail:
                return node
            if len(node.children) < len(avail):
                return self.expand(node, avail)
            node = self.uct_child(node)
        return node

    def expand(self, node: PlanNode, avail: list[str]) -> PlanNode:
        tried = {c.model_choice for c in node.children}
        if not node.children:
            try:
                pick = greedy_select(self.ctx, node.state, node.action)
            except ModelUnusableError:
                pick = avail[0]
            if pick not in avail:
                pick = avail[0]
        else:
            pick = next(k for k in avail if k not in tried)
        est = self._estimate(pick, node.state, node.action)
        next_state, _ = self.ctx.model(pick).predict(node.state, node.action)
        next_action = self.ctx.policy.sample(next_state, self.rng)
        tau = node.tau + 1
        bound = self.ctx.bound
        delta = bound.l_t * node.delta + est.eps_t
        delta_g = node.delta_g + bound.gamma**tau * (est.eps_r + self.coeff * delta)
        child = PlanNode(
            state=next_state,
            action=next_action,
            model_choice=pick,
            tau=tau,
            delta=delta,
            delta_g=delta_g,
            eps_t=est.eps_t,
            eps_r=est.eps_r,
            parent=node,
        )
        node.children.append(child)
        return child

    def uct_child(self, node: PlanNode) -> PlanNode:
        log_n = math.log(node.visits)
        best = None
        best_key: tuple[float, int, int] | None = None
        for i, child in enumerate(node.children):
            score = child.mean_value() + self.c_e * math.sqrt(2.0 * log_n / child.visits)
            key = (score, 1 if child.model_choice == NONPARAMETRIC else 0, -i)
            if best_key is None or key > best_key:
                best, best_key = child, key
        return best

    def default_policy(self, node: PlanNode) -> float:
        """Complete the rollout to the horizon with greedy choices; the
        rollout's value is minus the accumulated return-error bound."""
        state, action = node.state, node.action
        tau, delta, delta_g = node.tau, node.delta, node.delta_g
        bound = self.ctx.bound
        while tau < self.horizon:
            if self.ctx.is_terminal is not None and self.ctx.is_terminal(state):
                break
            try:
                kind = greedy_select(self.ctx, state, action)
            except ModelUnusableError:
                break
            est = self._estimate(kind, state, action)
            next_state, _ = self.ctx.model(kind).predict(state, action)
            tau += 1
            delta = bound.l_t * delta + est.eps_t
            delta_g = delta_g + bound.gamma**tau * (est.eps_r + self.coeff * delta)
            state = next_state
            action = self.ctx.policy.sample(state, self.rng)
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
    cfg: SelectorConfig,
    rng: np.random.Generator | None = None,
    remaining: int | None = None,
    trace: list | None = None,
) -> str:
    """Plan the model choice for simulating (x, a) by UCT search.

    Builds a fresh binary tree per decision.  Each expansion applies the
    chosen expert's transition and the evaluation policy to produce the
    child (state, action), scores the step's error, and rolls the state-
    and return-error bounds forward.  Rollouts finish with greedy choices
    and return minus the accumulated bound; the answer is the model of the
    root child with the best single rollout, preferring nonparametric on
    exact ties.  If no rollout completes, the greedy rule decides.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    horizon = remaining if remaining is not None else cfg.horizon
    if horizon is None:
        raise ValueError("mcts_select needs a planning horizon")
    if cfg.horizon is not None:
        horizon = min(horizon, cfg.horizon)
    run = _MctsRun(ctx, cfg, horizon, rng)
    root = PlanNode(
        state=np.asarray(x, dtype=np.float64),
        action=a,
        model_choice="root",
        tau=0,
        delta=0.0,
        delta_g=0.0,
    )
    for _ in range(cfg.mcts_budget):
        leaf = run.tree_policy(root)
        value = run.default_policy(leaf)
        run.backup(leaf, value)
    candidates = [
        c for c in root.children if c.visits > 0 and c.best_value > -math.inf
    ]
    chosen = None
    if candidates:
        chosen = max(
            enumerate(candidates),
            key=lambda ic: (
                ic[1].best_value,
                1 if ic[1].model_choice == NONPARAMETRIC else 0,
                -ic[0],
            ),
        )[1].model_choice
    if trace is not None:
        trace.append(_trace_record(root, run, chosen))
    return chosen if chosen is not None else greedy_select(ctx, x, a)


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
