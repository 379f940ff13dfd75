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
            pb, pe = np.asarray(pb), np.asarray(pe)
            # each check is written so that NaN fails it
            if not np.isfinite(pb).all():
                raise ValueError("behavior_probs must be finite")
            if not np.isfinite(pe).all():
                raise ValueError("eval_probs must be finite")
            if not (pb > 0.0).all():
                raise CoverageError("coverage violation: logged action with pb == 0")
            if not ((pe >= 0.0) & (pe <= 1.0)).all():
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
        predicted state or reward raises ValueError.

        The rows run sorted by remaining steps, longest first, so the rows
        that run out leave as a slice off the end; only rows reaching the
        terminal region are compacted out.  No row reads another, so the
        order changes no value; an error of the model or the policy is
        raised as the rows in key order raise it."""
        if not starts:
            return
        keys = list(starts)
        remaining = np.array([r for _, _, r in keys])
        rows = np.argsort(-remaining, kind="stable")  # key index of each row
        remaining = remaining[rows]
        state = np.array(list(starts.values()))[rows]
        action = np.array([a for _, a, _ in keys])[rows]
        totals = np.zeros(len(keys))
        k = 0
        while True:
            kept = slice(np.count_nonzero(remaining > k))  # the rows with steps left
            ended = self.terminal_many(state[kept])
            if ended.any():
                kept = np.flatnonzero(~ended)
            rows, remaining, state, action = rows[kept], remaining[kept], state[kept], action[kept]
            if not len(rows):
                break
            if k:
                action[:] = _in_key_order(rows, self._policy_actions, state)
            state, r = _in_key_order(rows, self.model.predict_many, state, action)
            if not (np.isfinite(state).all() and np.isfinite(r).all()):
                raise ValueError(
                    f"model predicted a non-finite state or reward at rollout step {k}"
                )
            totals[rows] += (self.gamma**k) * r
            k += 1
        self._q_memo.update(zip(keys, totals.tolist()))

    def _policy_actions(self, X: np.ndarray) -> np.ndarray:
        """The policy's action at each row of X: a deterministic policy's
        `actions_fn`, else the argmax of its probabilities."""
        if self.policy.actions_fn is None:
            return np.argmax(self.policy.probs_many(X), axis=1)
        return self.policy.actions_fn(X)


def _in_key_order(rows: np.ndarray, fn: Callable, *arrays: np.ndarray):
    """`fn(*arrays)`, whose rows belong to the keys `rows`; when it raises,
    `fn` of the rows put back in key order raises instead, so that an error
    naming one row (the first unfitted action, the first invalid policy
    action) names the row the key-ordered batch names."""
    try:
        return fn(*arrays)
    except Exception:
        order = np.argsort(rows)
        fn(*(x[order] for x in arrays))
        raise


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
        nums = _column_sums(rho * rewards).tolist()
        denoms = _column_sums(rho).tolist() if variant == "CWPDIS" else [float(n)] * t_max
        total = 0.0
        for t, (num, denom) in enumerate(zip(nums, denoms)):
            if denom > 0:
                total += (gamma**t) * (num / denom)
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

    # weights[:, t] is the cumulative ratio before step t, weights[:, t + 1]
    # after it; WDR normalizes each column over all trajectories
    weights = np.ones((n, t_max + 1))
    weights[:, 1:] = rho
    if variant == "WDR":
        totals = _column_sums(weights)
        weights = np.divide(weights, totals, out=np.zeros_like(weights), where=totals > 0)
    terms = weights[:, 1:] * (rewards - q_vals) + weights[:, :-1] * v_vals
    total = 0.0
    for t, term in enumerate(_column_sums(terms, lengths).tolist()):
        if variant == "DR":
            total += (gamma**t) * term / n
        else:  # WDR
            total += (gamma**t) * term
    return total


def _column_sums(table: np.ndarray, lengths: np.ndarray | None = None) -> np.ndarray:
    """The sum of each column of `table` over its live rows, in row order:
    every row, or with `lengths` the rows whose length exceeds the column
    index (0.0 where none does).

    Each sum has the bits of `np.sum` of that column's live entries as one
    1-D array: one `np.add.reduce` along the last axis of a contiguous
    (columns x live rows) block per run of columns with the same live rows.
    `np.sum(table, axis=0)` would add the rows in another order from 8 rows
    on, where numpy's 1-D sum turns pairwise."""
    if lengths is None:
        lengths = np.full(len(table), table.shape[1])
    sums = np.zeros(table.shape[1])
    start = 0
    for end in sorted(set(lengths.tolist())):
        if end > start:
            # columns start..end-1 read the rows longer than end - 1
            block = table[lengths >= end, start:end].T.copy()
            sums[start:end] = np.add.reduce(block, axis=-1)
            start = end
    return sums
