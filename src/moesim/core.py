"""Core data types for batch trajectory data.

States are plain 1-D float64 numpy arrays, actions are small integer ids.
A Dataset is an immutable indexed batch of transitions with per-action
nearest-neighbor queries under a (possibly weighted) Euclidean metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

StateVec = np.ndarray
ActionId = int


def as_state(x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce to a finite 1-D float64 vector, copying if needed."""
    arr = np.array(x, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"state must be a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state contains non-finite values")
    return arr


@dataclass(frozen=True)
class Metric:
    """Weighted Euclidean distance over the state space.

    Weights multiply the per-coordinate differences inside the square:
    dist(x, y) = sqrt(sum_i (w_i * (x_i - y_i))^2), so w_i is the
    multiplicative importance factor of dimension i.  All weights default
    to 1 (plain Euclidean distance).
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError("metric weights must be a 1-D vector")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("metric weights must be strictly positive and finite")
        object.__setattr__(self, "weights", w)

    @staticmethod
    def euclidean(dim: int) -> "Metric":
        return Metric(np.ones(dim))

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def distance(self, x: StateVec, y: StateVec) -> float:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError(
                f"dimension mismatch: metric is {self.dim}-D, "
                f"points are {len(x)}-D and {len(y)}-D"
            )
        diff = (np.asarray(x) - np.asarray(y)) * self.weights
        return float(np.sqrt(np.dot(diff, diff)))

    def distances_to(self, points: np.ndarray, x: StateVec) -> np.ndarray:
        """Vectorized distances from each row of `points` to `x`."""
        if points.size == 0:
            return np.zeros(0)
        if points.shape[1] != self.dim or len(x) != self.dim:
            raise ValueError("dimension mismatch in batched distance")
        diff = (points - np.asarray(x)) * self.weights
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))


@dataclass(frozen=True)
class Transition:
    """One observed step: (x, a, r, x_next), tagged with its source
    trajectory id and time index."""

    x: StateVec
    a: ActionId
    r: float
    x_next: StateVec
    traj_id: int = 0
    t: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", as_state(self.x))
        object.__setattr__(self, "x_next", as_state(self.x_next))
        if len(self.x) != len(self.x_next):
            raise ValueError("x and x_next must have equal dimension")
        if not np.isfinite(self.r):
            raise ValueError("reward must be finite")
        if self.a < 0:
            raise ValueError("action id must be nonnegative")


@dataclass(frozen=True)
class Trajectory:
    """An ordered chain of transitions from one rollout.

    `terminated` records whether a terminal/goal condition was reached
    before the horizon cap.
    """

    transitions: tuple[Transition, ...]
    terminated: bool = False

    def __post_init__(self) -> None:
        trs = tuple(self.transitions)
        object.__setattr__(self, "transitions", trs)
        for k in range(len(trs) - 1):
            if not np.array_equal(trs[k].x_next, trs[k + 1].x):
                raise ValueError(f"transitions do not chain at step {k}")
        for k, tr in enumerate(trs):
            if tr.t != k:
                raise ValueError("time indices must be 0,1,2,... consecutive")

    def __len__(self) -> int:
        return len(self.transitions)

    @property
    def states(self) -> list[StateVec]:
        """All visited states, length len(self) + 1 (empty trajectory: [])."""
        if not self.transitions:
            return []
        return [tr.x for tr in self.transitions] + [self.transitions[-1].x_next]

    @property
    def rewards(self) -> np.ndarray:
        return np.array([tr.r for tr in self.transitions])

    @property
    def actions(self) -> list[ActionId]:
        return [tr.a for tr in self.transitions]


def trajectory_return(traj: Trajectory, gamma: float) -> float:
    """Discounted return sum_t gamma^t r_t over the trajectory's rewards."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    total = 0.0
    for k, tr in enumerate(traj.transitions):
        total += (gamma**k) * tr.r
    return total


class _ActionIndex:
    """Per-action stacked arrays for vectorized neighbor queries.

    Entries are sorted by (traj_id, t) so that the first minimizer found
    by argmin is the lexicographically smallest tie-break winner.
    """

    __slots__ = ("starts", "nexts", "rewards", "order")

    def __init__(self, transitions: Sequence[Transition], indices: list[int]):
        indices = sorted(
            indices, key=lambda i: (transitions[i].traj_id, transitions[i].t)
        )
        self.order = np.array(indices, dtype=np.intp)
        if indices:
            self.starts = np.stack([transitions[i].x for i in indices])
            self.nexts = np.stack([transitions[i].x_next for i in indices])
            self.rewards = np.array([transitions[i].r for i in indices])
        else:
            self.starts = np.zeros((0, 0))
            self.nexts = np.zeros((0, 0))
            self.rewards = np.zeros(0)

    def __len__(self) -> int:
        return len(self.order)


class Dataset:
    """Immutable collection of transitions plus the recorded initial states.

    Supports per-action nearest-neighbor and radius queries.  The reference
    semantics are those of a per-action linear scan; the stacked-array
    implementation must (and does, see tests) agree with it exactly.
    """

    def __init__(
        self,
        transitions: Iterable[Transition],
        initial_states: Iterable[StateVec],
        dim: int,
        n_actions: int,
    ):
        self._transitions = tuple(transitions)
        self._initial_states = tuple(as_state(s) for s in initial_states)
        self._dim = int(dim)
        self._n_actions = int(n_actions)
        for tr in self._transitions:
            if len(tr.x) != self._dim:
                raise ValueError("transition dimension differs from dataset dim")
            if tr.a >= self._n_actions:
                raise ValueError(f"action id {tr.a} out of range (<{self._n_actions})")
        for s in self._initial_states:
            if len(s) != self._dim:
                raise ValueError("initial state dimension differs from dataset dim")
        by_action: list[list[int]] = [[] for _ in range(self._n_actions)]
        for i, tr in enumerate(self._transitions):
            by_action[tr.a].append(i)
        self._index = [_ActionIndex(self._transitions, ids) for ids in by_action]

    @classmethod
    def from_trajectories(
        cls, trajectories: Sequence[Trajectory], n_actions: int
    ) -> "Dataset":
        transitions: list[Transition] = []
        initial = []
        dim = None
        for traj in trajectories:
            if not traj.transitions:
                continue
            initial.append(traj.transitions[0].x)
            transitions.extend(traj.transitions)
            dim = len(traj.transitions[0].x)
        if dim is None:
            raise ValueError("cannot build a dataset from empty trajectories")
        return cls(transitions, initial, dim, n_actions)

    @property
    def transitions(self) -> tuple[Transition, ...]:
        return self._transitions

    @property
    def initial_states(self) -> tuple[StateVec, ...]:
        return self._initial_states

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def n_actions(self) -> int:
        return self._n_actions

    def __len__(self) -> int:
        return len(self._transitions)

    def n_for_action(self, a: ActionId) -> int:
        return len(self._index[a])

    def action_arrays(self, a: ActionId) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked (starts, next states, rewards) for one action, in
        (traj_id, t) order."""
        idx = self._index[a]
        return idx.starts, idx.nexts, idx.rewards

    def nearest(
        self, x: StateVec, a: ActionId, metric: Metric
    ) -> Transition | None:
        """Transition with action `a` whose start is closest to `x`.

        Exact ties resolve to the smallest (traj_id, t).  Returns None when
        no transition has action `a`.
        """
        i = self.nearest_index(x, a, metric)
        return None if i is None else self._transitions[i]

    def nearest_index(self, x: StateVec, a: ActionId, metric: Metric) -> int | None:
        idx = self._index[a]
        if len(idx) == 0:
            return None
        d = metric.distances_to(idx.starts, x)
        return int(idx.order[int(np.argmin(d))])

    def neighbor_rows(
        self, x: StateVec, a: ActionId, c: float, metric: Metric
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row positions into action_arrays(a) within radius `c`, plus the
        corresponding distances, both in ascending distance order."""
        if c < 0:
            raise ValueError("radius must be nonnegative")
        idx = self._index[a]
        if len(idx) == 0:
            return np.zeros(0, dtype=np.intp), np.zeros(0)
        d = metric.distances_to(idx.starts, x)
        rows = np.nonzero(d <= c)[0]
        order = np.argsort(d[rows], kind="stable")
        rows = rows[order]
        return rows, d[rows]

    def neighbor_indices(
        self, x: StateVec, a: ActionId, c: float, metric: Metric
    ) -> tuple[np.ndarray, np.ndarray]:
        """Like neighbor_rows but returns global transition indices."""
        rows, dists = self.neighbor_rows(x, a, c, metric)
        return self._index[a].order[rows], dists


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Policy:
    """A rule mapping a state to a probability vector over the action set.

    Deterministic policies are the degenerate one-hot case; sampling uses
    inverse-CDF on the probability vector so it is exact for one-hots.
    `sample` is `probs` followed by the pure `choose(p, u)` on one uniform
    draw, so a caller that already holds a state's probabilities (a
    memoised planner step, a behaviour rollout that logs them) draws the
    same action from one `rng.random()` without evaluating the policy again.

    `probs_many_fn`, when given, maps a matrix of states (one per row) to
    the matrix of their probability vectors and must agree with `probs_fn`
    row by row; without it `probs_many` calls `probs` once per row.
    """

    n_actions: int
    probs_fn: Callable[[StateVec], np.ndarray] = field(repr=False)
    probs_many_fn: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False
    )

    def probs(self, x: StateVec) -> np.ndarray:
        p = np.asarray(self.probs_fn(x), dtype=np.float64)
        if p.shape != (self.n_actions,):
            raise ValueError("policy returned a wrongly-shaped probability vector")
        # written so that NaN fails both comparisons
        if not (p.min() >= 0.0 and abs(p.sum() - 1.0) <= 1e-9):
            raise ValueError("policy probabilities must be nonnegative and sum to 1")
        return p

    def probs_many(self, X: np.ndarray) -> np.ndarray:
        """`probs` of each row of X, as an (n, n_actions) matrix; every row
        is validated as `probs` validates its vector."""
        X = np.asarray(X, dtype=np.float64)
        if len(X) == 0:
            return np.zeros((0, self.n_actions))
        if self.probs_many_fn is None:
            return np.array([self.probs(x) for x in X])
        P = np.asarray(self.probs_many_fn(X), dtype=np.float64)
        if P.shape != (len(X), self.n_actions):
            raise ValueError("policy returned a wrongly-shaped probability matrix")
        # written so that NaN fails both comparisons
        if not (
            np.all(P.min(axis=1) >= 0.0)
            and np.all(np.abs(P.sum(axis=1) - 1.0) <= 1e-9)
        ):
            raise ValueError("policy probabilities must be nonnegative and sum to 1")
        return P

    def sample(self, x: StateVec, rng: np.random.Generator) -> ActionId:
        return self.choose(self.probs(x), rng.random())

    @staticmethod
    def choose(p: Sequence[float], u: float) -> ActionId:
        """Inverse-CDF pick from probability vector p at uniform u in
        [0, 1): the first action whose running sum exceeds u, else the
        last action."""
        cum = 0.0
        last = len(p) - 1
        for a in range(last):
            cum += p[a]
            if u < cum:
                return a
        return last

    @staticmethod
    def deterministic(
        fn: Callable[[StateVec], ActionId],
        n_actions: int,
        fn_many: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> "Policy":
        """One-hot policy of `fn`; `fn_many`, when given, is its batched
        form (the action of each row of a state matrix)."""

        def probs_fn(x: StateVec) -> np.ndarray:
            p = np.zeros(n_actions)
            p[fn(x)] = 1.0
            return p

        if fn_many is None:
            return Policy(n_actions, probs_fn)

        def probs_many_fn(X: np.ndarray) -> np.ndarray:
            P = np.zeros((len(X), n_actions))
            P[np.arange(len(X)), fn_many(X)] = 1.0
            return P

        return Policy(n_actions, probs_fn, probs_many_fn)

    @staticmethod
    def uniform(n_actions: int) -> "Policy":
        p = np.full(n_actions, 1.0 / n_actions)
        return Policy(n_actions, lambda x: p)
