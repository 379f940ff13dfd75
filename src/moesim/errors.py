"""Local model-error estimation.

The nonparametric expert's one-step error is bounded by a local Lipschitz
ratio times the distance to its nearest same-action neighbor.  The
parametric expert's error is taken as the worst residual it makes on the
transitions observed near the query.  Both estimates share one neighborhood
radius, chosen where the nonparametric estimate crosses the global average
parametric residual.  The per-step errors feed the discounted return-error
bound that the planner minimizes (`selection`).

The global ratios come from an exact scan over every same-action pair, in
the calling thread.  Where a fitted affine-map bound, with rounding
allowances, holds (`_sorted_bounds`), it sweeps only the pairs a few rows
apart in the bound's sort order, and skips the rest once the bound puts
their ratios below the running max; so it returns the bits of a full
sweep.  Each local scan gathers its rows from columns weighted once per
(dataset, metric), and a small one is a single pass over its pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple

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
# the pairs i < j of _ROWS rows by j, so that those of the first n rows come first
_J, _I = np.tril_indices(_ROWS, -1)


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


def _ratios(
    sq: np.ndarray, tmp: np.ndarray, plain: bool, mask: np.ndarray | None,
    best_t: float, used: int,
) -> tuple[float, int, np.ndarray]:
    """The pair arithmetic of the scan, for pairs whose coordinate
    differences (the dim start dimensions, then the dim next-state ones)
    lie along the first axis of `sq`: (max of `best_t` and their squared
    transition ratios, `used` plus their usable pairs, their squared start
    distances).

    The squares add in dimension order.  The pairs where `mask` holds, over
    the leading columns, get an infinite squared start distance, so their
    ratios are 0 and they are not counted.  When the max squared ratio is
    finite and the rows are plain, no two starts coincide and no distance
    overflowed: every other pair is usable.  Otherwise coincident starts
    also get an infinite distance, and the pairs with a finite one are
    counted; a ratio of two infinite squares is not a pair and is skipped.
    Starts so close that their squared distance is subnormal can overflow a
    ratio to inf; the callers run this without floating-point warnings."""
    dim = len(sq) // 2
    np.multiply(sq, sq, out=sq)
    dx2, dy2 = sq[0], sq[dim]
    for k in range(1, dim):
        dx2 += sq[k]
        dy2 += sq[dim + k]
    masked = 0
    if mask is not None:
        np.copyto(dx2[..., : mask.shape[-1]], np.inf, where=mask)
        masked = int(np.count_nonzero(mask))
    top = np.divide(dy2, dx2, out=tmp).max()
    if plain and top < np.inf:
        used += dx2.size - masked
    else:
        dx2[dx2 == 0.0] = np.inf
        used += int(np.count_nonzero(dx2 != np.inf))
        top = np.fmax.reduce(np.divide(dy2, dx2, out=tmp), axis=None, initial=0.0)
    return max(best_t, float(top)), used, dx2


def _scan_tile(
    rows: _Rows, i0: int, buf: np.ndarray, found: tuple[float, float, int]
) -> tuple[float, float, int]:
    """`found` (max squared transition ratio, max reward ratio, usable
    pairs) updated with the pairs i < j of rows i0 to i0 + _ROWS against
    the columns from i0 on, _COLS at a time, in `buf` (squared differences
    of each row of P, then the ratios).  The tile on the diagonal
    (j0 == i0) masks its j <= i pairs (`_ratios`)."""
    P, R = rows.P, rows.R
    i1 = min(i0 + _ROWS, rows.n)
    h = i1 - i0
    best_t, best_r, used = found
    for j0 in range(i0, rows.n, _COLS):
        m = min(j0 + _COLS, rows.n) - j0
        # contiguous views, so that each pass is one loop over the tile
        sq = buf[: len(P) * h * m].reshape(len(P), h, m)
        tmp = buf[len(P) * h * m : (len(P) + 1) * h * m].reshape(h, m)
        np.subtract(P[:, i0:i1, None], P[:, None, j0 : j0 + m], out=sq)
        mask = _LOWER[:h, :h] if j0 == i0 else None
        best_t, used, dx2 = _ratios(sq, tmp, rows.plain, mask, best_t, used)
        if rows.rewards_vary:
            np.subtract(R[i0:i1, None], R[None, j0 : j0 + m], out=tmp)
            np.abs(tmp, out=tmp)
            np.divide(tmp, np.sqrt(dx2, out=dx2), out=tmp)
            best_r = max(best_r, float(np.fmax.reduce(tmp, axis=None, initial=0.0)))
    return best_t, best_r, used


def _scan_pairs(
    rows: _Rows, a: np.ndarray, b: np.ndarray, buf: np.ndarray,
    found: tuple[float, float, int],
) -> tuple[float, float, int]:
    """`found` updated with the pairs whose columns of P are a[:, t], the
    earlier row, and b[:, t], in one pass in `buf`; it takes no reward
    ratio, so the rows' rewards must not vary.  Each pair gets
    `_scan_tile`'s bits: fl(a - b) = -fl(b - a), and the squares add in the
    same order."""
    m = a.shape[1]
    sq = buf[: len(a) * m].reshape(len(a), m)
    np.subtract(a, b, out=sq)
    tmp = buf[len(a) * m : (len(a) + 1) * m]
    best_t, used, _ = _ratios(sq, tmp, rows.plain, None, found[0], found[2])
    return best_t, found[1], used


def _sorted_bounds(rows: _Rows) -> tuple[_Rows, Callable[[int], float] | None]:
    """One action's rows sorted for the banded scan, and `bound`, where
    bound(k) bounds above the computed squared ratio (`_ratios`'
    fl(dy2 / dx2)) of every pair (i, j) with j - i >= k in the sorted order,
    and is inf when it cannot also vouch that the pair's starts are
    distinct.  (rows, None) when the rows are not plain, their rewards vary,
    or there are at most _COLS of them.

    Let Y = X M + c be the least-squares affine fit of the weighted next
    states on the weighted starts, and G = Y - X M - c its residuals, exact
    for the float M and c; then dY = dX M + dG for every pair, so
    |dY| / |dX| <= |dX M| / |dX| + 2 max|G| / |dX|.  With w, V an
    eigendecomposition of fl(M M^T), L = max w, D = L - w >= 0 and
    E = M M^T - L I + V diag(D) V^T (an identity for any floats V, D, L),
    |dX M|^2 = L |dX|^2 - sum_k D_k (dX . v_k)^2 + dX E dX^T
             <= (L + |E|) |dX|^2 - D_0 (dX . v_0)^2.
    The rows are sorted by their projection p on v_0, the eigenvector of
    the smallest eigenvalue, so for j - i >= k, p_j - p_i >= gap_k, the
    smallest difference of projections k rows apart, which never decreases
    with k.  With span >= |dX| >= delta = gap_k / |v_0|_1 over all pairs of
    the action, the ratio is at most
        sqrt(L + |E| - D_0 gap_k^2 / span^2) + 2 max|G| / delta.

    Every float step that feeds the bound gets an allowance.  Higham's
    gamma_k = k u / (1 - k u), with u = 2**-53, bounds the relative error
    of k rounded steps; Gamma = gamma_{4 dim + 32} covers each chain of at
    most 2 dim + 20 steps below, and tiny = 4 dim**2 eta (eta the smallest
    subnormal) the products that underflow.  A projection is off by at
    most e_0, so a computed difference d of two bounds the true one below
    by (d - 4 e_0) (1 - 4 u).  Pairs are bounded only when
    delta**2 >= dim * 2**-1019: then a pair's computed squared start
    distance is at least (1 - gamma_{dim+2}) |dX|**2 - dim * eta / 2 > 0,
    so the pair is usable, and its computed squared ratio is at most
    (1 + Gamma) (bound)**2 + u."""
    n = rows.n
    if not rows.plain or rows.rewards_vary or n <= _COLS:
        return rows, None
    dim = len(rows.P) // 2
    u = float(np.finfo(np.float64).epsneg)  # the unit roundoff, 2**-53
    k = 4 * dim + 32
    big = 1 + k * u / (1 - k * u)  # 1 + Gamma, Higham's gamma_k
    tiny = 4 * dim**2 * float(np.finfo(np.float64).smallest_subnormal)
    X, Y = rows.P[:dim], rows.P[dim:]
    fit = np.linalg.lstsq(np.vstack([X, np.ones(n)]).T, Y.T, rcond=None)[0]
    M, shift = fit[:dim], fit[dim]
    w, V = np.linalg.eigh(M @ M.T)  # ascending: V[:, 0] shrinks most
    if not (np.isfinite(fit).all() and np.isfinite(w).all() and np.isfinite(V).all()):
        return rows, None
    wmax = w[-1]
    D = wmax - w
    # |E|_2 <= dim max|E_ij|, each entry off by at most gamma_{dim+3} of the
    # same sum of |terms|
    E = M @ M.T - wmax * np.eye(dim) + (V * D) @ V.T
    F = np.abs(M) @ np.abs(M).T + abs(wmax) * np.eye(dim) + (np.abs(V) * D) @ np.abs(V).T
    eps = dim * (np.abs(E) + (big - 1) * (F + np.abs(E))).max() * big + tiny
    # max_i |G_i|_2 <= max_i |G_i|_1; the float residual is off by at most
    # gamma_{dim+3} (|G| + |X| |M| + |c|), and |X_i| <= xmax coordinatewise
    G = Y - M.T @ X
    G -= shift[:, None]
    xmax = np.abs(X).max(axis=1)
    g = (
        np.abs(G).sum(axis=0).max() * big
        + (big - 1) * (np.abs(shift).sum() + (xmax @ np.abs(M)).sum())
    ) * big + tiny
    # the start span, over every pair of the action
    wide = X.max(axis=1) - X.min(axis=1)
    peak = wide.max()
    span = peak * np.sqrt(((wide / peak) ** 2).sum()) * big
    # the projections on v_0, off by at most e0
    p = V[:, 0] @ X
    e0 = (big - 1) * (xmax @ np.abs(V[:, 0])) + tiny
    order = np.argsort(p, kind="stable")
    rows = _Rows(rows.P[:, order], rows.R[order], rows.plain, rows.rewards_vary)
    p = p[order]
    shrink, span, e0 = float(D[0]), float(span), float(e0)
    norm = float(np.abs(V[:, 0]).sum() * big)
    wtop, wabs, residual = float(wmax + eps), float(abs(wmax) + eps), float(2 * g)
    guard = dim * 2.0**-1019

    def bound(k: int) -> float:
        gap = max(float((p[k:] - p[:-k]).min()) - 4 * e0, 0.0) * (1 - 4 * u)
        delta = gap / norm * (1 - 4 * u)
        if not delta * delta >= guard:
            return math.inf
        sub = shrink * (gap / span) ** 2
        q = max(wtop - sub + (big - 1) * (wabs + sub), 0.0)
        return (math.sqrt(q) + residual / delta) ** 2 * big + u

    return rows, bound


def _scan_action(rows: _Rows, buf: np.ndarray) -> tuple[float, float, int]:
    """(max transition ratio, max reward ratio, usable pairs) over the pairs
    i < j of one action's rows; the callers run it without floating-point
    warnings.

    With a bound (`_sorted_bounds`), first the diagonal k = 1 of the sorted
    rows, the pairs (i, i + 1).  When the bound at k = _ROWS then lies below
    the running max, the diagonals k = 2, 3, ... follow, up to the first k
    whose bound does: the (n - k)(n - k + 1) / 2 pairs at offsets k and
    above have computed ratios below the max and distinct starts, so they
    cannot change the max and count as usable.  That sweep takes at most
    _ROWS passes of under n pairs each, fewer pairs than the tiles' n / 2
    per row.  Otherwise, and without a bound, each row tile meets its
    diagonal block and every later block.  A float max and an integer
    count are the same in any order, and `sqrt` is monotone."""
    rows, bound = _sorted_bounds(rows)
    n = rows.n
    found = (0.0, 0.0, 0)
    if bound is not None:
        found = _scan_pairs(rows, rows.P[:, :-1], rows.P[:, 1:], buf, found)
        if bound(_ROWS) < found[0]:
            k = 2
            while not bound(k) < found[0]:
                found = _scan_pairs(rows, rows.P[:, : n - k], rows.P[:, k:], buf, found)
                k += 1
            return math.sqrt(found[0]), found[1], found[2] + (n - k) * (n - k + 1) // 2
        found = (0.0, 0.0, 0)
    for i0 in range(0, n, _ROWS):
        found = _scan_tile(rows, i0, buf, found)
    return math.sqrt(found[0]), found[1], found[2]


def _buffer(depth: int, n: int) -> np.ndarray:
    """A scan buffer for rows of P `depth` deep, that fits a tile or a
    diagonal of n rows."""
    return np.empty((depth + 1) * max(min(_ROWS, n) * min(_COLS, n), n))


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _scan(actions: dict[int, _Rows]) -> dict[int, tuple[float, float, int]]:
    """(max transition ratio, max reward ratio, usable pairs) per key of
    `actions`, over all its pairs i < j, in one buffer allocated once."""
    n = max((rows.n for rows in actions.values()), default=0)
    depth = max((len(rows.P) for rows in actions.values()), default=0)
    buf = _buffer(depth, n)
    return {key: _scan_action(rows, buf) for key, rows in actions.items()}


def global_lipschitz(ds: Dataset, metric: Metric) -> LipschitzEstimates:
    """Max ratios over all same-action transition pairs in the dataset.

    Cross-action pairs are excluded: they would mix different dynamics.  A
    ratio that overflows comes back inf, with the first action whose ratio
    overflowed in `inf_t` / `inf_r`.  A dataset with no same-action pair
    of distinct starts gives ratios 0 over 0 pairs.  The scan is exact,
    and skips only the pairs that a fitted affine-map bound places below
    the running max (`_sorted_bounds`); it runs in the calling thread.
    """
    actions = {}
    for a in range(ds.n_actions):
        X, Y, R = ds.action_arrays(a)
        if len(R) >= 2:
            actions[a] = _Rows.of(X, Y, R, metric)
    found = _scan(actions)
    best_t = max((t for t, _, _ in found.values()), default=0.0)
    best_r = max((r for _, r, _ in found.values()), default=0.0)
    used = sum(u for _, _, u in found.values())
    inf_t = min((a for a, (t, _, _) in found.items() if math.isinf(t)), default=None)
    inf_r = min((a for a, (_, r, _) in found.items() if math.isinf(r)), default=None)
    return LipschitzEstimates(best_t, best_r, used, inf_t, inf_r)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _local_scan(ds: Dataset, rows: np.ndarray, metric: Metric) -> tuple[float, float, int]:
    """`_scan_action` over the dataset rows `rows`; up to _ROWS of them,
    when their rewards do not vary, as one list of their pairs i < j.

    The rows come from the weighted columns of all of `ds`'s rows, kept on
    the dataset per metric with a buffer for the pairs of _ROWS rows.  A
    neighbourhood of plain rows is plain, and a plain flag that is false
    only takes the slower branch of `_ratios` to the same bits."""
    cache = vars(ds).setdefault("_local_columns", {})
    key = metric.weights.tobytes()
    if key not in cache:
        whole = _Rows.of(ds.starts, ds.nexts, ds.rewards, metric)
        cache[key] = whole, np.empty((len(whole.P) + 1) * len(_I))
    whole, buf = cache[key]
    R = ds.rewards[rows]
    local = _Rows(whole.P[:, rows], R, whole.plain, bool((R[1:] != R[0]).any()))
    if len(rows) > _ROWS or local.rewards_vary:
        return _scan_action(local, _buffer(len(local.P), local.n))
    m = len(rows) * (len(rows) - 1) // 2
    a, b = local.P.take(_I[:m], axis=1), local.P.take(_J[:m], axis=1)
    best_t, _, used = _scan_pairs(local, a, b, buf, (0.0, 0.0, 0))
    return math.sqrt(best_t), 0.0, used


def np_error_estimate(
    ds: Dataset,
    near: Neighbors | None,
    metric: Metric,
    fallback: LipschitzEstimates,
) -> ErrorEstimate:
    """Nonparametric error estimate from one neighbour scan of (x, a) at
    radius c (`Dataset.neighbor_rows`).

    eps = (local Lipschitz ratio) * (distance to the nearest same-action
    start).  The local ratios come from the exact scan of the transition
    pairs starting within c of x, the same as the global scan's over those
    rows; with fewer than two such neighbors, or when all their starts
    coincide, the global estimates in `fallback` are used.  The weighted
    columns the scans gather from are built once per (dataset, metric).
    """
    if near is None or len(near.rows) == 0:
        return ErrorEstimate.unsupported()
    lips = fallback
    if len(near.rows) >= 2:
        bt, br, n = _local_scan(ds, near.rows, metric)
        if n > 0:
            lips = LipschitzEstimates(bt, br, n)
    return ErrorEstimate(lips.l_t * near.distance, lips.l_r * near.distance)


def parametric_residuals(
    ds: Dataset, model: DynamicsModel, metric: Metric
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row residuals of the parametric model on the whole batch:
    (state-prediction distances, absolute reward errors), aligned with the
    dataset's rows.  Unfitted actions get infinite residuals.

    One `predict_many` over the fitted rows and one `Metric.distance` over
    their matching rows, so a row gets the same bits as it would alone."""
    eps_t = np.full(len(ds), np.inf)
    eps_r = np.full(len(ds), np.inf)
    fitted = np.array([model.fitted(a) for a in range(ds.n_actions)], dtype=bool)
    rows = np.flatnonzero(fitted[ds.actions])
    if len(rows):
        predicted, rewards = model.predict_many(ds.starts[rows], ds.actions[rows])
        eps_t[rows] = metric.distance(predicted, ds.nexts[rows])
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
