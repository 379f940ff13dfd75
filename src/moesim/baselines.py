"""Importance-sampling estimator family: IS, WIS, PDIS, CWPDIS, DR, WDR.

All variants reweight logged trajectories by the per-step probability
ratio of the evaluation and behavior policies.  The doubly robust variants
additionally use model-derived state/action value estimates as control
variates, which lowers variance without biasing the estimate when the
logged probabilities are correct.

Trajectories of unequal length are handled with the frozen-weight
convention: once a trajectory ends, its cumulative ratio stays at its last
value and it contributes zero reward to later steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import Policy, StateVec, Trajectory, trajectory_return
from .models import DynamicsModel

VARIANTS = ("IS", "WIS", "PDIS", "CWPDIS", "DR", "WDR")


class CoverageError(ValueError):
    """A logged action had zero behavior probability."""


@dataclass(frozen=True)
class ISInput:
    """Logged trajectories with per-step behavior probabilities of the
    sampled actions, the matching evaluation-policy probabilities, and the
    discount."""

    trajectories: tuple[Trajectory, ...]
    behavior_probs: tuple[np.ndarray, ...]
    eval_probs: tuple[np.ndarray, ...]
    gamma: float

    def __post_init__(self) -> None:
        if len(self.trajectories) == 0:
            raise ValueError("need at least one trajectory")
        if not (
            len(self.trajectories) == len(self.behavior_probs) == len(self.eval_probs)
        ):
            raise ValueError("probability lists must align with trajectories")
        for traj, pb, pe in zip(self.trajectories, self.behavior_probs, self.eval_probs):
            if len(traj) != len(pb) or len(traj) != len(pe):
                raise ValueError("per-step probabilities must align with steps")
            if np.any(np.asarray(pb) <= 0.0):
                raise CoverageError("coverage violation: logged action with pb == 0")
            if np.any((np.asarray(pe) < 0.0) | (np.asarray(pe) > 1.0)):
                raise ValueError("eval probabilities must lie in [0, 1]")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")

    @staticmethod
    def build(
        trajectories: Sequence[Trajectory],
        behavior_probs: Sequence[np.ndarray],
        eval_policy: Policy,
        gamma: float,
    ) -> "ISInput":
        """Fill in the evaluation probabilities of every logged action."""
        eval_probs = []
        for traj in trajectories:
            P = eval_policy.probs_many(traj.states[:-1])
            eval_probs.append(P[np.arange(len(traj)), traj.actions])
        return ISInput(
            tuple(trajectories),
            tuple(np.asarray(p, dtype=np.float64) for p in behavior_probs),
            tuple(eval_probs),
            gamma,
        )


@dataclass(frozen=True)
class ModelValueFunctions:
    """State/action values obtained by rolling the parametric model forward
    under the evaluation policy for the remaining horizon.

    Stochastic policies are rolled along their argmax action (an
    approximation; control variates need not be exact to keep the doubly
    robust estimators unbiased).  Rollouts stop in the task's terminal
    region: `terminal_many` tests a batch of states
    (`Environment.terminal_many`, all False for a task without one).

    `q` is an exact memo keyed on (float64 bytes of x, a, remaining).  The
    keys it is missing are rolled in lockstep: `q_many` rolls all of its
    rows at once, with one `predict_many`, one terminal test and one
    `probs_many` call per step over the rows still alive, and `q` rolls a
    missing key as a one-row batch, so there is one rollout path.  No row
    reads another, so a value does not depend on the batch it was rolled
    in.  A deterministic policy's next actions come from its `actions_fn`,
    its argmax.  `fill` rolls every key that the DR/WDR tables of a logged
    batch read, once per trajectory, and memoizes the actions the policy
    takes at the logged states, with their probabilities, for `v`.  The model and policy are
    deterministic, so DR and WDR share one set of rollouts.  One instance
    serves one repetition.
    """

    model: DynamicsModel
    policy: Policy
    horizon: int
    gamma: float
    terminal_many: Callable[[np.ndarray], np.ndarray]
    _q_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _taken: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _filled: set = field(default_factory=set, init=False, compare=False, repr=False)

    def q(self, x: StateVec, a: int, remaining: int) -> float:
        """Discounted model return of taking `a` now, then following the
        policy for remaining - 1 more steps."""
        x = np.asarray(x, dtype=np.float64)
        key = (x.tobytes(), a, remaining)
        if key not in self._q_memo:
            self._roll({key: x})
        return self._q_memo[key]

    def v(self, x: StateVec, remaining: int) -> float:
        if remaining <= 0:
            return 0.0
        x = np.asarray(x, dtype=np.float64)
        taken = self._taken.get(x.tobytes())
        if taken is None:
            probs = self.policy.probs(x).tolist()
            taken = self._taken[x.tobytes()] = [(a, p) for a, p in enumerate(probs) if p > 0]
        return float(sum(p * self.q(x, a, remaining) for a, p in taken))

    def q_many(
        self, X: np.ndarray, A: Sequence[int], remaining: Sequence[int]
    ) -> np.ndarray:
        """`q` of each (X[i], A[i], remaining[i]); the keys the memo is
        missing are rolled in one lockstep pass."""
        X = np.asarray(X, dtype=np.float64)
        keys = [(x.tobytes(), int(a), int(r)) for x, a, r in zip(X, A, remaining)]
        self._roll({key: x for key, x in zip(keys, X) if key not in self._q_memo})
        return np.array([self._q_memo[key] for key in keys])

    def fill(self, trajectories: Sequence[Trajectory]) -> None:
        """Memoize every `q` that the DR/WDR tables of these logged
        trajectories read, in one lockstep pass: at each logged state, the
        logged action and every action the policy takes there.  A
        trajectory filled before (WDR after DR) is skipped."""
        X, A, R = [], [], []
        for traj in trajectories:
            if traj in self._filled:
                continue
            self._filled.add(traj)
            xs = traj.states[:-1]
            P = self.policy.probs_many(xs)
            steps, actions = np.nonzero(P > 0)
            taken: list[list[tuple[int, float]]] = [[] for _ in xs]
            for t, b, p in zip(steps.tolist(), actions.tolist(), P[steps, actions].tolist()):
                taken[t].append((b, p))
            self._taken.update(zip([x.tobytes() for x in xs], taken))
            for t, b in {*enumerate(traj.actions.tolist()), *zip(steps.tolist(), actions.tolist())}:
                X.append(xs[t])
                A.append(b)
                R.append(self.horizon - t)
        self.q_many(X, A, R)

    def _roll(self, starts: dict[tuple[bytes, int, int], np.ndarray]) -> None:
        """Roll each (x bytes, a, remaining) key from its start state in
        lockstep and memoize the discounted returns.  A row stops after
        `remaining` steps or on reaching the terminal region; a non-finite
        predicted state or reward raises ValueError."""
        if not starts:
            return
        keys = list(starts)
        state = np.array(list(starts.values()))
        action = np.array([a for _, a, _ in keys])
        remaining = np.array([r for _, _, r in keys])
        totals = np.zeros(len(keys))
        live = np.flatnonzero(remaining > 0)
        live = live[~self.terminal_many(state[live])]
        k = 0
        while len(live):
            state_next, r = self.model.predict_many(state[live], action[live])
            if not (np.isfinite(state_next).all() and np.isfinite(r).all()):
                raise ValueError(
                    f"model predicted a non-finite state or reward at rollout step {k}"
                )
            totals[live] += (self.gamma**k) * r
            state[live] = state_next
            k += 1
            live = live[(remaining[live] > k) & ~self.terminal_many(state_next)]
            if len(live):
                action[live] = (
                    np.argmax(self.policy.probs_many(state[live]), axis=1)
                    if self.policy.actions_fn is None
                    else self.policy.actions_fn(state[live])
                )
        self._q_memo.update(zip(keys, totals.tolist()))


def _ratio_table(inp: ISInput) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cumulative ratios rho[i, t], rewards[i, t], trajectory lengths),
    with at least one column.  Past each trajectory's end its ratio is 1,
    so rho freezes, and its rewards are zero."""
    lengths = np.array([len(traj) for traj in inp.trajectories])
    shape = (len(lengths), max(1, int(lengths.max())))
    ratios = np.ones(shape)
    rewards = np.zeros(shape)
    for i, (traj, pb, pe) in enumerate(
        zip(inp.trajectories, inp.behavior_probs, inp.eval_probs)
    ):
        ratios[i, : len(traj)] = pe / pb
        rewards[i, : len(traj)] = traj.rewards
    return np.cumprod(ratios, axis=1), rewards, lengths


def is_estimate(
    inp: ISInput,
    variant: str,
    value_model: ModelValueFunctions | None = None,
) -> float:
    """Estimate the evaluation policy's value with the chosen variant.

    IS      mean of (full-trajectory ratio) * (trajectory return)
    WIS     same, self-normalized by the mean full-trajectory ratio
    PDIS    per-step: mean_i rho[i, 0:t] * r[i, t], discounted and summed
    CWPDIS  per-step self-normalized PDIS
    DR      PDIS plus model value control variates
    WDR     DR with per-step self-normalized weights

    DR and WDR require `value_model`; its `fill` rolls every control
    variate the tables read in one lockstep pass before they are read.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown estimator variant {variant!r}")
    gamma = inp.gamma
    n = len(inp.trajectories)
    rho, rewards, lengths = _ratio_table(inp)
    t_max = rho.shape[1]

    if variant in ("IS", "WIS"):
        full = rho[:, -1]
        returns = np.array(
            [trajectory_return(traj, gamma) for traj in inp.trajectories]
        )
        if variant == "IS":
            return float(np.mean(full * returns))
        denom = float(np.sum(full))
        # all ratios zero: the batch carries no on-policy information
        return float(np.sum(full * returns) / denom) if denom > 0 else 0.0

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

    if value_model is None:
        raise ValueError(f"{variant} requires model-derived value functions")

    # Control-variate terms need per-step Q/V at the logged states.
    value_model.fill(inp.trajectories)
    q_vals = np.zeros((n, t_max))
    v_vals = np.zeros((n, t_max))
    for i, traj in enumerate(inp.trajectories):
        for t, tr in enumerate(traj.transitions):
            remaining = value_model.horizon - t
            q_vals[i, t] = value_model.q(tr.x, tr.a, remaining)
            v_vals[i, t] = value_model.v(tr.x, remaining)

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
        else:  # WDR
            w = _normalized(rho[:, t])
            w_prev = _normalized(rho_prev[:, t])
            term = w[live] * correction[live] + w_prev[live] * v_vals[live, t]
            total += (gamma**t) * float(np.sum(term))
    return total


def _normalized(weights: np.ndarray) -> np.ndarray:
    total = float(np.sum(weights))
    return weights / total if total > 0 else np.zeros_like(weights)
