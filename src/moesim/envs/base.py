"""Deterministic ground-truth environments and the data-generation harness.

An Environment bundles a pure step function, an initial-state sampler, an
optional terminal predicate, and its dimensions.  The harness rolls
policies out in an environment and logs, for every step, the behavior
probability of the sampled action so that importance-sampling baselines can
consume the data without re-estimating anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core import ActionId, Policy, StateVec, Trajectory, Transition


@dataclass(frozen=True)
class Environment:
    """A deterministic task: same (state, action) always steps the same way.

    `is_terminal_many`, when given, is the batched form of `is_terminal`:
    one bool per row of a state matrix, agreeing with it row by row.
    """

    dim: int
    n_actions: int
    horizon: int
    step: Callable[[StateVec, ActionId], tuple[StateVec, float]]
    sample_initial: Callable[[np.random.Generator], StateVec]
    is_terminal: Callable[[StateVec], bool] | None = None
    action_labels: tuple[str, ...] | None = None
    is_terminal_many: Callable[[np.ndarray], np.ndarray] | None = None


def rollout_with_probs(
    env: Environment,
    policy: Policy,
    rng: np.random.Generator,
    x0: StateVec | None = None,
    horizon: int | None = None,
    traj_id: int = 0,
) -> tuple[Trajectory, np.ndarray]:
    """One rollout plus the logged probability of each sampled action."""
    horizon = env.horizon if horizon is None else horizon
    x = np.array(x0 if x0 is not None else env.sample_initial(rng), dtype=np.float64)
    transitions = []
    probs = []
    reached = False
    for t in range(horizon):
        p = policy.probs(x)
        a = policy.choose(p, rng.random())
        probs.append(float(p[a]))
        x_next, r = env.step(x, a)
        transitions.append(Transition(x, a, r, x_next, traj_id=traj_id, t=t))
        x = x_next
        if env.is_terminal is not None and env.is_terminal(x):
            reached = True
            break
    return Trajectory(tuple(transitions), terminated=reached), np.array(probs)


def generate_trajectories(
    env: Environment,
    policy: Policy,
    n: int,
    seed: int,
    starts: Sequence[StateVec] | None = None,
) -> tuple[list[Trajectory], list[np.ndarray]]:
    """n seeded rollouts; trajectory i uses generator seeded by [seed, i].

    `starts` fixes the initial states (cycled) instead of sampling them.
    """
    trajectories = []
    all_probs = []
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        x0 = None if starts is None else starts[i % len(starts)]
        traj, probs = rollout_with_probs(env, policy, rng, x0=x0, traj_id=i)
        trajectories.append(traj)
        all_probs.append(probs)
    return trajectories, all_probs


def behavior_prob_table(
    trajectories: Sequence[Trajectory], probs: Sequence[np.ndarray]
) -> dict[tuple[int, int], float]:
    """(traj_id, t) -> logged behavior probability, for CSV export."""
    table = {}
    for traj, p in zip(trajectories, probs):
        for tr, pi in zip(traj.transitions, p):
            table[(tr.traj_id, tr.t)] = float(pi)
    return table


def make_eps_greedy(
    base: Policy,
    eps: float,
    trigger: Callable[[StateVec], bool] | None = None,
) -> Policy:
    """Epsilon-greedy randomization of a base policy.

    Where the trigger holds (everywhere when absent), each base-policy
    action keeps probability (1 - eps) plus a uniform eps / n_actions
    share; elsewhere the base policy applies unchanged.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    n = base.n_actions

    def probs_fn(x: StateVec) -> np.ndarray:
        p = base.probs(x)
        if trigger is not None and not trigger(x):
            return p
        return (1.0 - eps) * p + eps / n

    return Policy(n, probs_fn)
