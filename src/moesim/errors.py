"""Local model-error estimation.

The nonparametric expert's one-step error is bounded by a local Lipschitz
ratio times the distance to its nearest same-action neighbor.  The
parametric expert's error is taken as the worst residual it makes on the
transitions observed near the query.  Both estimates share one neighborhood
radius, chosen where the nonparametric estimate crosses the global average
parametric residual.  The per-step errors feed the discounted return-error
bound that the planner minimizes (`selection`).
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .core import Dataset, Metric, Neighbors
from .models import DynamicsModel


@dataclass(frozen=True)
class ErrorEstimate:
    """Paired transition/reward error estimates for one model at one query.

    An estimate is supported when both errors are finite.  The constructor
    maps any pair with a non-finite error (no same-action transition within
    the radius, an overflowing ratio or prediction) to (inf, inf), and the
    caller should then fall back to the parametric expert.
    """

    eps_t: float
    eps_r: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps_t) and math.isfinite(self.eps_r)):
            object.__setattr__(self, "eps_t", math.inf)
            object.__setattr__(self, "eps_r", math.inf)
        elif self.eps_t < 0 or self.eps_r < 0:
            raise ValueError("error estimates must be nonnegative")

    @property
    def supported(self) -> bool:
        """Both errors are finite; the constructor leaves them both finite
        or both infinite."""
        return math.isfinite(self.eps_t)

    @staticmethod
    def unsupported() -> "ErrorEstimate":
        return ErrorEstimate(math.inf, math.inf)


@dataclass(frozen=True)
class LipschitzEstimates:
    """Max observed output-change / input-distance ratios for the transition
    map (l_t) and the reward map (l_r), over n_pairs usable pairs.

    When two same-action starts nearly coincide a ratio can overflow to
    inf; `global_lipschitz` then records the first such action of each map
    in inf_t / inf_r."""

    l_t: float
    l_r: float
    n_pairs: int
    inf_t: int | None = None
    inf_r: int | None = None

    def with_given(self, given: Mapping[str, float]) -> "LipschitzEstimates":
        """These estimates with each overflowed constant ("l_t", "l_r")
        replaced by its value in `given`.  Raise ValueError, naming the
        action, for the first overflowed constant that `given` lacks."""
        out = self
        for key, which, action in (
            ("l_t", "transition", self.inf_t), ("l_r", "reward", self.inf_r)
        ):
            if action is None:
                continue
            if key not in given:
                raise ValueError(
                    f"the global {which} Lipschitz ratio of action {action} overflows to "
                    f"inf: two of its starts nearly coincide; give bound.{key} in the "
                    "config instead"
                )
            out = replace(out, **{key: given[key]})
        return out


@dataclass(frozen=True)
class BoundParams:
    """Lipschitz constants of the true dynamics/reward and the discount,
    as used by the return-error bound."""

    l_t: float
    l_r: float
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.l_t) and np.isfinite(self.l_r)):
            raise ValueError("Lipschitz constants must be finite")
        if self.l_t < 0 or self.l_r < 0:
            raise ValueError("Lipschitz constants must be nonnegative")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")


_ROWS, _COLS = 128, 256  # pairs per tile of the pair scan; a tile's buffers stay in cache
_LOWER = np.tri(_ROWS, dtype=bool)  # the j <= i pairs of a tile on the diagonal
_PLAIN = 1e150  # below this, no squared difference of weighted coordinates overflows
_THREADED_PAIRS = 1 << 22  # a global scan of more pairs runs on a thread pool


class _Rows(NamedTuple):
    """One action's rows for the pair scan: the weighted starts then the
    weighted next states as contiguous per-dimension rows of `P`, the
    rewards, whether every |weighted coordinate| is below _PLAIN, and
    whether the rewards vary."""

    P: np.ndarray
    R: np.ndarray
    plain: bool
    rewards_vary: bool

    @staticmethod
    @np.errstate(over="ignore")
    def of(X: np.ndarray, Y: np.ndarray, R: np.ndarray, metric: Metric) -> "_Rows":
        n, dim = X.shape
        P = np.empty((2 * dim, n))
        np.multiply(X.T, metric.weights[:, None], out=P[:dim])
        np.multiply(Y.T, metric.weights[:, None], out=P[dim:])
        return _Rows(
            P, R, bool(np.abs(P).max(initial=0.0) < _PLAIN),
            n > 1 and bool(np.any(R[1:] != R[0])),
        )

    @property
    def n(self) -> int:
        return self.P.shape[1]


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _scan_tiles(
    tiles: Iterator[tuple[int, _Rows, int]], shape: tuple[int, int, int]
) -> dict[int, tuple[float, float, int]]:
    """Max ratios and usable pair counts, per key, over the row tiles
    (key, rows, i0) drawn from `tiles`: rows i0 to i0 + _ROWS against every
    column j >= i0, _COLS columns at a time, in one buffer of `shape`
    (squared differences of each row of P, then the ratios) allocated once.

    The tile on the diagonal gives its j <= i pairs an infinite squared
    start distance, so their ratios are 0 and they are not counted.  When
    the tile's max squared ratio is finite and its rows are plain, no two
    starts coincide and no distance overflowed: every other pair is usable.
    Otherwise coincident starts also get an infinite distance, and the
    pairs with a finite one are counted; a ratio of two infinite squares is
    not a pair and is skipped.  Starts so close that their squared distance
    is subnormal can overflow a ratio to inf, without a warning."""
    buf = np.empty(math.prod(shape))
    found: dict[int, tuple[float, float, int]] = {}
    for key, rows, i0 in tiles:
        P, R = rows.P, rows.R
        dim = len(P) // 2
        best_t, best_r, used = found.get(key, (0.0, 0.0, 0))
        i1 = min(i0 + _ROWS, rows.n)
        h = i1 - i0
        for j0 in range(i0, rows.n, _COLS):
            j1 = min(j0 + _COLS, rows.n)
            m = j1 - j0
            # contiguous views, so that each pass is one loop over the tile
            sq = buf[: 2 * dim * h * m].reshape(2 * dim, h, m)
            tmp = buf[2 * dim * h * m : (2 * dim + 1) * h * m].reshape(h, m)
            np.subtract(P[:, i0:i1, None], P[:, None, j0:j1], out=sq)
            np.multiply(sq, sq, out=sq)
            dx2, dy2 = sq[0], sq[dim]
            for k in range(1, dim):
                dx2 += sq[k]
                dy2 += sq[dim + k]
            masked = 0
            if j0 == i0:
                np.copyto(dx2[:, :h], np.inf, where=_LOWER[:h, :h])
                masked = h * (h + 1) // 2
            top = np.divide(dy2, dx2, out=tmp).max()
            if rows.plain and top < np.inf:
                used += h * m - masked
            else:
                dx2[dx2 == 0.0] = np.inf
                used += int(np.count_nonzero(dx2 != np.inf))
                top = np.fmax.reduce(np.divide(dy2, dx2, out=tmp), axis=None, initial=0.0)
            best_t = max(best_t, math.sqrt(top))
            if rows.rewards_vary:
                np.subtract(R[i0:i1, None], R[None, j0:j1], out=tmp)
                np.abs(tmp, out=tmp)
                np.divide(tmp, np.sqrt(dx2, out=dx2), out=tmp)
                best_r = max(best_r, float(np.fmax.reduce(tmp, axis=None, initial=0.0)))
        found[key] = (best_t, best_r, used)
    return found


def _scan(
    actions: dict[int, _Rows], workers: int = 1
) -> dict[int, tuple[float, float, int]]:
    """(max transition ratio, max reward ratio, usable pairs) per key of
    `actions`, over all its pairs i < j.  With more than one worker, the
    worker threads draw the row tiles, longest first, from one queue; numpy
    releases the GIL inside each tile's passes.  Max and count are exact in
    any order, so the result does not depend on the number of workers."""
    n = max((rows.n for rows in actions.values()), default=0)
    depth = max((len(rows.P) for rows in actions.values()), default=0) + 1
    shape = (depth, min(_ROWS, n), min(_COLS, n))
    tiles = [(key, rows, i0) for key, rows in actions.items() for i0 in range(0, rows.n, _ROWS)]
    workers = min(workers, len(tiles))
    if workers <= 1:
        return _scan_tiles(iter(tiles), shape)
    tiles.sort(key=lambda tile: tile[2] - tile[1].n)
    todo: queue.SimpleQueue = queue.SimpleQueue()
    for tile in tiles + [None] * workers:
        todo.put(tile)
    with ThreadPoolExecutor(workers) as pool:
        parts = list(pool.map(lambda _: _scan_tiles(iter(todo.get, None), shape), range(workers)))
    found: dict[int, tuple[float, float, int]] = {}
    for part in parts:
        for key, (t, r, u) in part.items():
            best_t, best_r, used = found.get(key, (0.0, 0.0, 0))
            found[key] = (max(best_t, t), max(best_r, r), used + u)
    return found


def _pairwise_max_ratios(
    X: np.ndarray, Y: np.ndarray, R: np.ndarray, metric: Metric
) -> tuple[float, float, int]:
    """Exact max ratios over all pairs i < j with distinct starts, for one
    action's stacked arrays, in this thread (see _scan_tiles)."""
    return _scan({0: _Rows.of(X, Y, R, metric)})[0]


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def global_lipschitz(ds: Dataset, metric: Metric) -> LipschitzEstimates:
    """Max ratios over all same-action transition pairs in the dataset.

    Cross-action pairs are excluded: they would mix different dynamics.  A
    ratio that overflows comes back inf, with the first action whose ratio
    overflowed in `inf_t` / `inf_r`.  A dataset with no same-action pair
    of distinct starts gives ratios 0 over 0 pairs.  Above _THREADED_PAIRS
    pairs the scan runs on one thread per CPU, in a pool that is shut down
    before return.
    """
    actions = {}
    for a in range(ds.n_actions):
        X, Y, R = ds.action_arrays(a)
        if len(R) >= 2:
            actions[a] = _Rows.of(X, Y, R, metric)
    pairs = sum(rows.n * (rows.n - 1) // 2 for rows in actions.values())
    found = _scan(actions, _cpus() if pairs > _THREADED_PAIRS else 1)
    best_t = max((t for t, _, _ in found.values()), default=0.0)
    best_r = max((r for _, r, _ in found.values()), default=0.0)
    used = sum(u for _, _, u in found.values())
    inf_t = min((a for a, (t, _, _) in found.items() if math.isinf(t)), default=None)
    inf_r = min((a for a, (_, r, _) in found.items() if math.isinf(r)), default=None)
    return LipschitzEstimates(best_t, best_r, used, inf_t, inf_r)


def np_error_estimate(
    ds: Dataset,
    near: Neighbors | None,
    metric: Metric,
    fallback: LipschitzEstimates,
) -> ErrorEstimate:
    """Nonparametric error estimate from one neighbour scan of (x, a) at
    radius c (`Dataset.neighbor_rows`).

    eps = (local Lipschitz ratio) * (distance to the nearest same-action
    start).  The local ratios come from transition pairs starting within c
    of x; with fewer than two such neighbors the global estimates in
    `fallback` are used.
    """
    if near is None or len(near.rows) == 0:
        return ErrorEstimate.unsupported()
    rows = near.rows
    lips = fallback
    if len(rows) >= 2:
        bt, br, n = _pairwise_max_ratios(
            ds.starts[rows], ds.nexts[rows], ds.rewards[rows], metric
        )
        if n > 0:
            lips = LipschitzEstimates(bt, br, n)
    return ErrorEstimate(lips.l_t * near.distance, lips.l_r * near.distance)


def parametric_residuals(
    ds: Dataset, model: DynamicsModel, metric: Metric
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row residuals of the parametric model on the whole batch:
    (state-prediction distances, absolute reward errors), aligned with the
    dataset's rows.  Unfitted actions get infinite residuals.

    One `predict_many` over the fitted rows; each distance is
    `Metric.distance`'s weighted difference and dot product, so a row gets
    the same bits as it would alone."""
    eps_t = np.full(len(ds), np.inf)
    eps_r = np.full(len(ds), np.inf)
    fitted = np.array([model.fitted(a) for a in range(ds.n_actions)], dtype=bool)
    rows = np.flatnonzero(fitted[ds.actions])
    if len(rows):
        predicted, rewards = model.predict_many(ds.starts[rows], ds.actions[rows])
        if predicted.shape != (len(rows), metric.dim) or ds.dim != metric.dim:
            raise ValueError(
                f"dimension mismatch: metric is {metric.dim}-D, "
                f"points are {predicted.shape[-1]}-D and {ds.dim}-D"
            )
        diff = (predicted - ds.nexts[rows]) * metric.weights
        eps_t[rows] = np.sqrt(np.vecdot(diff, diff))
        eps_r[rows] = np.abs(rewards - ds.rewards[rows])
    return eps_t, eps_r


def p_error_estimate(
    near: Neighbors | None, residuals: tuple[np.ndarray, np.ndarray]
) -> ErrorEstimate:
    """Parametric error estimate: the worst residual the model makes on the
    same-action transitions starting within c of x, given one neighbour
    scan of (x, a) at radius c (`Dataset.neighbor_rows`).

    `residuals` are the model's per-transition residuals, as returned by
    parametric_residuals.
    """
    if near is None or len(near.rows) == 0:
        return ErrorEstimate.unsupported()
    return ErrorEstimate(
        float(residuals[0][near.rows].max()), float(residuals[1][near.rows].max())
    )


def choose_radius(residuals_t: np.ndarray, l_t: float) -> float:
    """Neighborhood radius where the nonparametric error estimate crosses
    the global mean parametric residual: C = mean residual / l_t.

    `residuals_t` are the parametric model's per-transition state residuals
    (the first array of parametric_residuals) and `l_t` the global
    transition ratio of global_lipschitz; infinite residuals (unfitted
    actions) are left out of the mean.

    Degenerate cases: no finite residual (an empty dataset, or no fitted
    action) gives C = 0, collapsing selection to the parametric fallback; a
    zero global ratio means every point predicts every other, so all data
    is always in range (C = inf); a perfect parametric model gives C = 0.
    """
    finite = residuals_t[np.isfinite(residuals_t)]
    if len(finite) == 0:
        return 0.0
    if l_t == 0.0:
        return np.inf
    return float(finite.mean()) / l_t
