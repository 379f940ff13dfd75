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
            eval_probs.append(
                np.array([eval_policy.prob(tr.x, tr.a) for tr in traj.transitions])
            )
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
    robust estimators unbiased).  When the task has a known terminal
    region, rollouts stop there.

    `q` is an exact memo keyed on (float64 bytes of x, a, remaining): the
    model and policy are deterministic, so DR and WDR share one set of
    rollouts, and `v` reuses the `q` of the logged action.  One instance
    serves one repetition.
    """

    model: DynamicsModel
    policy: Policy
    horizon: int
    gamma: float
    is_terminal: Callable[[StateVec], bool] | None = None
    _q_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def q(self, x: StateVec, a: int, remaining: int) -> float:
        """Discounted model return of taking `a` now, then following the
        policy for remaining - 1 more steps."""
        x = np.asarray(x, dtype=np.float64)
        key = (x.tobytes(), a, remaining)
        value = self._q_memo.get(key)
        if value is None:
            value = self._q_memo[key] = self._rollout(x, a, remaining)
        return value

    def _rollout(self, x: np.ndarray, a: int, remaining: int) -> float:
        if remaining <= 0:
            return 0.0
        if self.is_terminal is not None and self.is_terminal(x):
            return 0.0
        total = 0.0
        state = x
        action = a
        for k in range(remaining):
            state_next, r = self.model.predict(state, action)
            total += (self.gamma**k) * r
            state = state_next
            if self.is_terminal is not None and self.is_terminal(state):
                break
            if k + 1 < remaining:
                action = int(np.argmax(self.policy.probs(state)))
        return total

    def v(self, x: StateVec, remaining: int) -> float:
        if remaining <= 0:
            return 0.0
        probs = self.policy.probs(x)
        return float(
            sum(p * self.q(x, a, remaining) for a, p in enumerate(probs) if p > 0)
        )


def is_input_from_csv(path, eval_policy: Policy, gamma: float) -> ISInput:
    """Build estimator input from a dataset CSV whose `pb` column carries
    the logged behavior probabilities."""
    from .core import read_dataset_csv, trajectories_from_dataset

    ds, pb = read_dataset_csv(path)
    if pb is None:
        raise ValueError("dataset CSV has no pb column of behavior probabilities")
    trajectories = trajectories_from_dataset(ds)
    probs = [
        np.array([pb[(tr.traj_id, tr.t)] for tr in traj.transitions])
        for traj in trajectories
    ]
    return ISInput.build(trajectories, probs, eval_policy, gamma)


def _ratio_table(inp: ISInput) -> tuple[np.ndarray, np.ndarray, int]:
    """(cumulative ratios rho[i, t], rewards[i, t], max length).

    Ratios freeze and rewards are zero past each trajectory's end.
    """
    n = len(inp.trajectories)
    t_max = max(len(traj) for traj in inp.trajectories)
    rho = np.ones((n, t_max))
    rewards = np.zeros((n, t_max))
    for i, (traj, pb, pe) in enumerate(
        zip(inp.trajectories, inp.behavior_probs, inp.eval_probs)
    ):
        running = 1.0
        for t, tr in enumerate(traj.transitions):
            running *= float(pe[t]) / float(pb[t])
            rho[i, t:] = running  # freeze from here until overwritten
            rewards[i, t] = tr.r
    return rho, rewards, t_max


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

    DR and WDR require `value_model`.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown estimator variant {variant!r}")
    gamma = inp.gamma
    n = len(inp.trajectories)
    rho, rewards, t_max = _ratio_table(inp)

    if variant in ("IS", "WIS"):
        full = np.array(
            [rho[i, len(traj) - 1] if len(traj) else 1.0
             for i, traj in enumerate(inp.trajectories)]
        )
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
    q_vals = np.zeros((n, t_max))
    v_vals = np.zeros((n, t_max))
    for i, traj in enumerate(inp.trajectories):
        for t, tr in enumerate(traj.transitions):
            remaining = value_model.horizon - t
            q_vals[i, t] = value_model.q(tr.x, tr.a, remaining)
            v_vals[i, t] = value_model.v(tr.x, remaining)

    alive = np.zeros((n, t_max), dtype=bool)
    for i, traj in enumerate(inp.trajectories):
        alive[i, : len(traj)] = True
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
