"""Rollout simulator: estimate a policy's value by simulating trajectories
with the per-step selected expert and averaging discounted returns.

Each rollout starts from a state drawn uniformly from the recorded initial
states, samples actions from the evaluation policy, and steps with whichever
expert the selector picks (or one fixed expert, for the standalone
parametric/nonparametric estimators).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Metric, Policy, StateVec, Trajectory, trajectory_return
from .envs.base import rollouts
from .models import NONPARAMETRIC, PARAMETRIC
from .selection import SelectionContext, greedy_select, mcts_select


@dataclass(frozen=True)
class SimConfig:
    """Rollout count, horizon, discount, the per-step model choice, and the
    master seed.

    mode:        "greedy" or "mcts" picks the expert per step; PARAMETRIC or
                 NONPARAMETRIC steps with that expert alone (the
                 single-expert estimators)
    mcts_budget: rollouts per UCT decision, required in "mcts" mode; the
                 planner always looks ahead to the end of the simulated
                 trajectory, and its randomness is the rollout's generator
    """

    n_rollouts: int
    horizon: int
    gamma: float
    mode: str = "greedy"
    mcts_budget: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_rollouts < 1 or self.horizon < 1:
            raise ValueError("n_rollouts and horizon must be >= 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.mode not in ("greedy", "mcts", PARAMETRIC, NONPARAMETRIC):
            raise ValueError(f"unknown selection mode {self.mode!r}")
        if self.mode == "mcts" and (self.mcts_budget or 0) < 1:
            raise ValueError("mcts mode needs an mcts_budget >= 1")


@dataclass
class ValueEstimate:
    """Mean simulated return plus per-rollout diagnostics.

    n_unreached_goal counts rollouts that never hit the terminal condition
    (always 0 for environments without one); model_usage counts simulated
    steps per expert.
    """

    v_hat: float
    per_rollout_returns: list[float]
    n_unreached_goal: int
    model_usage: dict[str, int]
    trajectories: list[Trajectory] = field(default_factory=list)
    rollout_records: list[dict] = field(default_factory=list)

    @property
    def capped(self) -> bool:
        """True when every rollout failed to reach the goal; the reported
        value is then a finite stand-in for 'never terminates'."""
        return self.n_unreached_goal == len(self.per_rollout_returns)


def simulate_value(
    ctx: SelectionContext,
    cfg: SimConfig,
    initial_states: Sequence[StateVec] | None = None,
    mcts_trace: list | None = None,
) -> ValueEstimate:
    """Simulate cfg.n_rollouts trajectories under the evaluation policy and
    return the mean discounted return.

    `initial_states` defaults to the dataset's recorded initial states
    (the empirical initial distribution).  In a single-expert mode a
    rollout ends at the first action that expert has no data for, and
    counts as not having reached the goal; in "greedy" or "mcts" mode an
    action no expert has data for raises `NoSupportError`.  A `ValueError`
    inside a simulated step (invalid policy probabilities, a bad oracle
    step) is raised again as a `ValueError` that names the rollout and the
    step first.
    """
    starts = list(
        initial_states if initial_states is not None
        else ctx.nonparametric.dataset.initial_states
    )
    if not starts:
        raise ValueError("no initial states to sample from")
    returns: list[float] = []
    usage = {PARAMETRIC: 0, NONPARAMETRIC: 0}
    unreached = 0
    trajectories: list[Trajectory] = []
    records: list[dict] = []
    for n in range(cfg.n_rollouts):
        rng = np.random.default_rng([cfg.seed, n])
        x = np.array(starts[int(rng.integers(len(starts)))], dtype=np.float64)
        ret = 0.0
        reached = False
        states, actions, rewards = [x], [], []
        rollout_usage = {PARAMETRIC: 0, NONPARAMETRIC: 0}
        try:
            for t in range(cfg.horizon):
                a = ctx.policy.sample(x, rng)
                kind = cfg.mode
                if kind == "mcts":
                    kind = mcts_select(
                        ctx, x, a, cfg.mcts_budget, rng=rng,
                        remaining=cfg.horizon - t, trace=mcts_trace,
                    )
                elif kind == "greedy":
                    # the context's greedy memo (`StepMemo.greedy`), written out
                    # so that a miss calls this module's `greedy_select`, the
                    # name perfbench's tracer wraps for the simulator's decisions
                    key = (np.asarray(x, dtype=np.float64).tobytes(), a)
                    kind = ctx.greedy_picks.get(key)
                    if kind is None:
                        kind = ctx.greedy_picks[key] = greedy_select(ctx, x, a)
                elif not ctx.usable(kind, a):
                    break
                x_next, r = ctx.model(kind).predict(x, a)
                rollout_usage[kind] += 1
                states.append(x_next)
                actions.append(a)
                rewards.append(r)
                ret += (cfg.gamma**t) * r
                x = x_next
                if ctx.is_terminal is not None and ctx.is_terminal(x):
                    reached = True
                    break
        except ValueError as exc:
            raise ValueError(f"rollout {n}, step {t}: {exc}") from exc
        if ctx.is_terminal is not None and not reached:
            unreached += 1
        returns.append(ret)
        trajectories.append(Trajectory(states, actions, rewards, terminated=reached))
        usage[PARAMETRIC] += rollout_usage[PARAMETRIC]
        usage[NONPARAMETRIC] += rollout_usage[NONPARAMETRIC]
        records.append(
            {
                "rollout": n,
                "seed": [cfg.seed, n],
                "return": ret,
                "steps": len(actions),
                "reached_goal": reached,
                "model_usage": dict(rollout_usage),
            }
        )
    v_hat = float(np.mean(returns))
    return ValueEstimate(
        v_hat=v_hat,
        per_rollout_returns=returns,
        n_unreached_goal=unreached,
        model_usage=usage,
        trajectories=trajectories,
        rollout_records=records,
    )


def trajectory_error(sim: Trajectory, truth: Trajectory, metric: Metric) -> float:
    """Summed state distance between a simulated and a reference trajectory
    from the same start, truncated to the shorter state sequence."""
    if not np.array_equal(sim.states[0], truth.states[0]):
        raise ValueError("trajectories must start from the same initial state")
    return float(sum(metric.distance(x, y) for x, y in zip(sim.states, truth.states)))


def rollout_policy(
    env,
    policy: Policy,
    starts: Sequence[StateVec],
    horizon: int,
    seed: int,
    ids: Sequence[int],
) -> list[Trajectory]:
    """Roll the true environment forward under the policy from each start,
    in lockstep; rollout k draws from the generator seeded by
    [seed, ids[k]] (`envs.base.rollouts`)."""
    return rollouts(env, policy, horizon, seed, ids, starts)[0]


def evaluate_policy_true(
    env,
    policy: Policy,
    n: int,
    horizon: int,
    gamma: float,
    seed: int = 0,
) -> float:
    """Ground-truth value: mean return of n on-policy rollouts in the true
    environment, rollout i from the generator seeded by [seed, i], which
    draws its start.  This is the reference for all RMSE metrics."""
    total = 0.0
    for traj in rollouts(env, policy, horizon, seed, range(n))[0]:
        total += trajectory_return(traj, gamma)
    return total / n
