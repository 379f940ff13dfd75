"""Core data types for batch trajectory data.

States are plain 1-D float64 numpy arrays, actions are small integer ids.
A Trajectory holds one rollout and a Dataset a batch of logged steps, both
as read-only arrays; the Dataset answers per-action nearest-neighbor queries
under a (possibly weighted) Euclidean metric.  `Transition` objects are
views for callers outside the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Iterable, NamedTuple, Sequence

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
    to 1 (plain Euclidean distance).  `distance` sums the squares with
    `np.dot`, through BLAS, and `distances_to` in its own fixed order, so
    the two can differ in the last bit for the same pair.
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
        """Vectorized distances from each row of `points` to `x`.

        Works on the columns `points.T`, so each numpy pass runs over all
        rows; it is fastest when `points.T` is contiguous, as for
        `Dataset`'s per-action blocks.  The squares add in two lanes,
        (d0² + d2² + ...) + (d1² + d3² + ...), the order in which
        `np.einsum("ij,ij->i")` adds a contiguous row of 1 to 7 entries,
        so the bits equal that row form's (see tests).
        """
        if points.size == 0:
            return np.zeros(0)
        if points.shape[1] != self.dim or len(x) != self.dim:
            raise ValueError("dimension mismatch in batched distance")
        diff = (points.T - np.asarray(x)[:, None]) * self.weights[:, None]
        diff *= diff
        total = reduce(np.add, diff[0::2])
        if self.dim > 1:
            total = total + reduce(np.add, diff[1::2])
        return np.sqrt(total)


@dataclass(frozen=True)
class Transition:
    """One observed step: (x, a, r, x_next), tagged with its source
    trajectory id and time index; validated on construction.  The
    `transitions` of a Trajectory or Dataset are unvalidated views."""

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

    @classmethod
    def _view(cls, *values) -> "Transition":
        """A transition over (x, a, r, x_next, traj_id, t) as given."""
        tr = object.__new__(cls)
        tr.__dict__.update(zip(cls.__dataclass_fields__, values))
        return tr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One rollout as arrays: `states` holds its T + 1 visited states, one
    per row, from the start state to the state after the last step;
    `actions` and `rewards` hold its T steps.  `terminated` records whether
    a terminal/goal condition was reached before the horizon cap.

    Validated once on construction (shapes agree, states and rewards are
    finite, actions are nonnegative) and stored as read-only copies.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    terminated: bool = False

    def __post_init__(self) -> None:
        states = np.array(self.states, dtype=np.float64)
        actions = np.array(self.actions, dtype=np.intp)
        rewards = np.array(self.rewards, dtype=np.float64)
        n = len(actions)
        if actions.ndim != 1 or rewards.shape != (n,) or states.ndim != 2 or len(states) != n + 1:
            raise ValueError(
                f"a trajectory of {n} actions needs {n} rewards and {n + 1} states, "
                f"got rewards of shape {rewards.shape} and states of shape {states.shape}"
            )
        finite = np.isfinite(states).all(axis=1)
        ok = finite[:-1] & finite[1:] & np.isfinite(rewards)
        if not (finite[0] and ok.all()):
            step = int(np.argmin(ok)) if n else 0
            raise ValueError(f"non-finite state or reward at trajectory step {step}")
        if n and actions.min() < 0:
            raise ValueError("action ids must be nonnegative")
        for name, arr in (("states", states), ("actions", actions), ("rewards", rewards)):
            object.__setattr__(self, name, _read_only(arr))

    @classmethod
    def view(
        cls, states: np.ndarray, actions: np.ndarray, rewards: np.ndarray, terminated: bool
    ) -> "Trajectory":
        """A trajectory over the given arrays as they are, unvalidated and
        uncopied: the caller vouches for what `__post_init__` checks,
        including that the arrays are read-only."""
        traj = object.__new__(cls)
        traj.__dict__.update(
            states=states, actions=actions, rewards=rewards, terminated=terminated
        )
        return traj

    def __len__(self) -> int:
        return len(self.actions)

    @cached_property
    def transitions(self) -> tuple[Transition, ...]:
        """The steps as `Transition` views, built on first use."""
        s = self.states
        return tuple(
            Transition._view(s[t], a, r, s[t + 1], 0, t)
            for t, (a, r) in enumerate(zip(self.actions.tolist(), self.rewards.tolist()))
        )


def trajectory_return(traj: Trajectory, gamma: float) -> float:
    """Discounted return sum_t gamma^t r_t over the trajectory's rewards."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    total = 0.0
    for k, r in enumerate(traj.rewards.tolist()):
        total += (gamma**k) * r
    return total


class Neighbors(NamedTuple):
    """A dataset's rows around one query for one action: the `nearest` row,
    its `distance`, and the `rows` within the query radius in (traj_id, t)
    order, all as dataset row indices."""

    nearest: int
    distance: float
    rows: np.ndarray


_COLUMNS = ("starts", "actions", "rewards", "nexts", "traj_id", "t")


class Dataset:
    """Immutable batch of logged steps plus the recorded initial states.

    Row i is the step `starts[i]`, `actions[i]`, `rewards[i]`, `nexts[i]`
    of trajectory `traj_id[i]` at time `t[i]`; every array is read-only.
    Answers per-action neighbour queries: `neighbor_rows` scans one
    action's rows in (traj_id, t) order once, so its reference semantics
    are those of a per-action linear scan with exact ties going to the
    smallest (traj_id, t) (see tests).
    """

    def __init__(
        self,
        transitions: Iterable[Transition],
        initial_states: Iterable[StateVec],
        dim: int,
        n_actions: int,
    ):
        trs = tuple(transitions)
        if any(len(tr.x) != dim for tr in trs):
            raise ValueError("transition dimension differs from dataset dim")
        x, a, r, y, traj_id, t = (
            [getattr(tr, f) for tr in trs] for f in Transition.__dataclass_fields__
        )
        shape = (len(trs), dim)
        columns = (np.reshape(x, shape), a, r, np.reshape(y, shape), traj_id, t)
        self._fill(columns, initial_states, dim, n_actions)

    def _fill(self, columns, initial_states, dim: int, n_actions: int) -> "Dataset":
        """Store the rows, given as the `_COLUMNS` in order, and index each
        action's rows in (traj_id, t) order."""
        self.dim, self.n_actions = int(dim), int(n_actions)
        self.initial_states = tuple(as_state(s) for s in initial_states)
        if any(len(s) != self.dim for s in self.initial_states):
            raise ValueError("initial state dimension differs from dataset dim")
        for name, col in zip(_COLUMNS, columns):
            dtype = np.intp if name in ("actions", "traj_id", "t") else np.float64
            setattr(self, name, _read_only(np.asarray(col, dtype=dtype)))
        if len(self.actions) and self.actions.max() >= self.n_actions:
            raise ValueError(f"action id {self.actions.max()} out of range (<{self.n_actions})")
        order = np.lexsort((self.t, self.traj_id))
        self._rows = [order[self.actions[order] == a] for a in range(self.n_actions)]
        self._by_action = [
            tuple(_read_only(arr[rows]) for arr in (self.starts, self.nexts, self.rewards))
            for rows in self._rows
        ]
        # each action's starts as one contiguous (dim, n_a) block, for the
        # column passes of `Metric.distances_to`
        self._start_columns = [
            _read_only(np.ascontiguousarray(starts.T)) for starts, _, _ in self._by_action
        ]
        return self

    @classmethod
    def from_trajectories(
        cls, trajectories: Sequence[Trajectory], n_actions: int
    ) -> "Dataset":
        """Every step of the nonempty trajectories, trajectory i's steps
        tagged with traj_id i; their start states are the initial states."""
        kept = [(i, traj) for i, traj in enumerate(trajectories) if len(traj)]
        if not kept:
            raise ValueError("cannot build a dataset from empty trajectories")
        lengths = np.array([len(traj) for _, traj in kept])
        firsts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        columns = [
            np.concatenate(col)
            for col in zip(*(
                (traj.states[:-1], traj.actions, traj.rewards, traj.states[1:])
                for _, traj in kept
            ))
        ]
        columns += [np.repeat([i for i, _ in kept], lengths), np.arange(lengths.sum()) - firsts]
        return cls.__new__(cls)._fill(
            columns, [traj.states[0] for _, traj in kept], kept[0][1].states.shape[1], n_actions,
        )

    def select(self, keep: np.ndarray) -> "Dataset":
        """The rows where the boolean mask `keep` holds, with the same
        initial states."""
        return Dataset.__new__(Dataset)._fill(
            [getattr(self, name)[keep] for name in _COLUMNS],
            self.initial_states, self.dim, self.n_actions,
        )

    @cached_property
    def transitions(self) -> tuple[Transition, ...]:
        """The rows as `Transition` views, built on first use."""
        return tuple(
            Transition._view(*row)
            for row in zip(
                self.starts, self.actions.tolist(), self.rewards.tolist(), self.nexts,
                self.traj_id.tolist(), self.t.tolist(),
            )
        )

    def __len__(self) -> int:
        return len(self.actions)

    def n_for_action(self, a: ActionId) -> int:
        return len(self._rows[a])

    def action_arrays(self, a: ActionId) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, next states, rewards) of one action's rows, in
        (traj_id, t) order."""
        return self._by_action[a]

    def neighbor_rows(
        self, x: StateVec, a: ActionId, c: float, metric: Metric
    ) -> Neighbors | None:
        """One scan of action `a`'s starts around `x`: the nearest row (exact
        ties resolve to the smallest (traj_id, t)), its distance, and the
        rows within radius `c` in (traj_id, t) order.  None when no row has
        action `a`."""
        if c < 0:
            raise ValueError("radius must be nonnegative")
        rows = self._rows[a]
        if len(rows) == 0:
            return None
        d = metric.distances_to(self._start_columns[a].T, x)
        i = int(np.argmin(d))
        return Neighbors(int(rows[i]), float(d[i]), rows[d <= c])

    def nearest_index(self, x: StateVec, a: ActionId, metric: Metric) -> int | None:
        """The nearest row of `neighbor_rows`, or None."""
        near = self.neighbor_rows(x, a, 0.0, metric)
        return None if near is None else near.nearest


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
    def choose_many(P: np.ndarray, U: np.ndarray) -> np.ndarray:
        """`choose` of each row of P at the matching entry of U.  The
        running sums are `np.cumsum` along the action axis, which adds in
        `choose`'s order, so each pick is the one `choose` makes."""
        cum = np.cumsum(P, axis=1)
        cum[:, -1] = np.inf  # the last action takes every u the others miss
        return np.argmax(np.asarray(U)[:, None] < cum, axis=1)

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
