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

    `step_many_fn` and `is_terminal_many`, when given, are the batched forms
    of `step` and `is_terminal` over a state matrix (one state per row) and
    must agree with them row by row; without them `step_many` and
    `terminal_many` call the one-row forms once per row.
    """

    dim: int
    n_actions: int
    horizon: int
    step: Callable[[StateVec, ActionId], tuple[StateVec, float]]
    sample_initial: Callable[[np.random.Generator], StateVec]
    is_terminal: Callable[[StateVec], bool] | None = None
    is_terminal_many: Callable[[np.ndarray], np.ndarray] | None = None
    step_many_fn: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def step_many(self, X: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`step` of each row of X with the action in A: the next states as
        rows, and the rewards."""
        if self.step_many_fn is not None:
            return self.step_many_fn(X, A)
        pairs = [self.step(x, a) for x, a in zip(X, np.asarray(A).tolist())]
        if not pairs:
            return np.zeros(np.shape(X)), np.zeros(0)
        return np.stack([y for y, _ in pairs]), np.array([r for _, r in pairs])

    def terminal_many(self, X: np.ndarray) -> np.ndarray:
        """`is_terminal` of each row of X; all False without a terminal
        region."""
        if self.is_terminal is None:
            return np.zeros(len(X), dtype=bool)
        if self.is_terminal_many is not None:
            return np.asarray(self.is_terminal_many(X), dtype=bool)
        return np.array([bool(self.is_terminal(x)) for x in X], dtype=bool)


def rollouts(
    env: Environment,
    policy: Policy,
    horizon: int,
    seed: int,
    ids: Sequence[int],
    starts: Sequence[StateVec] | None = None,
) -> tuple[list[Trajectory], list[np.ndarray]]:
    """One rollout of the true environment per entry of `ids`, all stepped
    in lockstep: the trajectories, and the probability of each sampled
    action.

    Rollout k draws from the generator seeded by [seed, ids[k]]: its start
    state from `env.sample_initial` when `starts` is None (else it starts
    at starts[k]), then one uniform per step, from which the policy's
    action is chosen.  It runs for at most `horizon` steps and stops after
    the first step that lands in a terminal state; a start that is already
    terminal is still stepped once.  Each step makes one `probs_many`, one
    `choose_many`, one `step_many` and one terminal test over the rollouts
    still running, and no rollout reads another, so each one is the same
    as a rollout of its own.

    The batch is validated once, as `Trajectory` validates one rollout: a
    non-finite start, or a non-finite state or reward on a rollout's steps,
    raises `Trajectory`'s ValueError for the first such rollout.  Each
    trajectory and probability vector is then a view of the batch's
    read-only arrays.
    """
    rngs = [np.random.default_rng([seed, i]) for i in ids]
    if starts is None:
        starts = [env.sample_initial(rng) for rng in rngs]
    n = len(rngs)
    draws = np.array([rng.random(horizon) for rng in rngs]).reshape(n, horizon)
    states = np.empty((n, horizon + 1, env.dim))
    if n:
        states[:, 0] = np.array(starts, dtype=np.float64)
    actions = np.zeros((n, horizon), dtype=np.intp)
    rewards = np.zeros((n, horizon))
    probs = np.zeros((n, horizon))
    lengths = np.zeros(n, dtype=np.intp)
    terminated = np.zeros(n, dtype=bool)
    live = np.arange(n)
    for t in range(horizon):
        if not len(live):
            break
        X = states[live, t]
        P = policy.probs_many(X)
        A = Policy.choose_many(P, draws[live, t])
        probs[live, t] = P[np.arange(len(live)), A]
        states[live, t + 1], rewards[live, t] = env.step_many(X, A)
        actions[live, t] = A
        lengths[live] = t + 1
        done = env.terminal_many(states[live, t + 1])
        terminated[live[done]] = True
        live = live[~done]
    finite = np.isfinite(states).all(axis=2)
    stepped = np.arange(horizon) < lengths[:, None]
    bad = ~(finite[:, :-1] & finite[:, 1:] & np.isfinite(rewards)) & stepped
    unfinite = ~finite[:, 0] | bad.any(axis=1)
    failed = unfinite | ((actions < 0) & stepped).any(axis=1)
    if failed.any():
        k = int(np.argmax(failed))
        if unfinite[k]:
            raise ValueError(
                f"non-finite state or reward at trajectory step {int(np.argmax(bad[k]))}"
            )
        raise ValueError("action ids must be nonnegative")
    for arr in (states, actions, rewards, probs):
        arr.flags.writeable = False
    ends = lengths.tolist()
    trajectories = [
        Trajectory.view(states[k, : m + 1], actions[k, :m], rewards[k, :m], bool(terminated[k]))
        for k, m in enumerate(ends)
    ]
    return trajectories, [probs[k, :m] for k, m in enumerate(ends)]


def generate_trajectories(
    env: Environment,
    policy: Policy,
    n: int,
    seed: int,
    starts: Sequence[StateVec] | None = None,
) -> tuple[list[Trajectory], list[np.ndarray]]:
    """n seeded rollouts of `env.horizon` steps (`rollouts` with ids
    0..n-1): the trajectories and the logged action probabilities.

    `starts` fixes the initial states (cycled) instead of sampling them.
    """
    if starts is not None:
        starts = [starts[i % len(starts)] for i in range(n)]
    return rollouts(env, policy, env.horizon, seed, range(n), starts)


def make_eps_greedy(base: Policy, eps: float) -> Policy:
    """Epsilon-greedy randomization of a base policy: each base-policy
    action keeps probability (1 - eps) plus a uniform eps / n_actions
    share."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    n = base.n_actions
    return Policy(
        n,
        lambda x: (1.0 - eps) * base.probs(x) + eps / n,
        lambda X: (1.0 - eps) * base.probs_many(X) + eps / n,
    )
