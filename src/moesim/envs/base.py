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

from ..core import ActionId, Policy, StateVec, Trajectory


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
    is_terminal_many: Callable[[np.ndarray], np.ndarray] | None = None


def rollout_with_probs(
    env: Environment,
    policy: Policy,
    x0: StateVec,
    horizon: int,
    rng: np.random.Generator,
) -> tuple[Trajectory, np.ndarray]:
    """Roll the true environment forward from x0 under the policy for at
    most `horizon` steps, stopping at a terminal state: the trajectory and
    the probability of each sampled action."""
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
        x0 = env.sample_initial(rng) if starts is None else starts[i % len(starts)]
        traj, probs = rollout_with_probs(env, policy, x0, env.horizon, rng)
        trajectories.append(traj)
        all_probs.append(probs)
    return trajectories, all_probs


def make_eps_greedy(base: Policy, eps: float) -> Policy:
    """Epsilon-greedy randomization of a base policy: each base-policy
    action keeps probability (1 - eps) plus a uniform eps / n_actions
    share."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    n = base.n_actions
    return Policy(n, lambda x: (1.0 - eps) * base.probs(x) + eps / n)
