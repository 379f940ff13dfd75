"""Local model-error estimation and return-error bound arithmetic.

The nonparametric expert's one-step error is bounded by a local Lipschitz
ratio times the distance to its nearest same-action neighbor.  The
parametric expert's error is taken as the worst residual it makes on the
transitions observed near the query.  Both estimates share one neighborhood
radius, chosen where the nonparametric estimate crosses the global average
parametric residual.  The per-step errors feed a discounted return-error
bound that the planner minimizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Dataset, Metric, Neighbors
from .models import DynamicsModel


@dataclass(frozen=True)
class ErrorEstimate:
    """Paired transition/reward error estimates for one model at one query.

    supported=False means no same-action transition lay within the radius,
    or an error was not finite; both errors are then infinite, and the
    caller should fall back to the parametric expert.
    """

    eps_t: float
    eps_r: float
    supported: bool = True

    def __post_init__(self) -> None:
        if self.supported:
            if not (np.isfinite(self.eps_t) and np.isfinite(self.eps_r)):
                raise ValueError("supported estimates must be finite")
            if self.eps_t < 0 or self.eps_r < 0:
                raise ValueError("error estimates must be nonnegative")

    @staticmethod
    def unsupported() -> "ErrorEstimate":
        return ErrorEstimate(np.inf, np.inf, supported=False)

    @staticmethod
    def of(eps_t: float, eps_r: float) -> "ErrorEstimate":
        """Supported errors eps_t and eps_r when both are finite, else an
        unsupported estimate (an overflowing ratio or prediction)."""
        if math.isfinite(eps_t) and math.isfinite(eps_r):
            return ErrorEstimate(eps_t, eps_r)
        return ErrorEstimate.unsupported()


@dataclass(frozen=True)
class LipschitzEstimates:
    """Max observed output-change / input-distance ratios for the transition
    map (l_t) and the reward map (l_r), over n_pairs usable pairs."""

    l_t: float
    l_r: float
    n_pairs: int


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


class InsufficientPairsError(RuntimeError):
    """No transition pair with nonzero start distance was available."""


_BLOCK = 64  # rows per block of the pair scan; small blocks stay in cache


def _pairwise_max_ratios(
    X: np.ndarray, Y: np.ndarray, R: np.ndarray, metric: Metric
) -> tuple[float, float, int]:
    """Exact max ratios over all pairs i < j with distinct starts, for one
    action's stacked arrays.

    Row block lo:hi is compared only with columns j >= lo, from exact
    per-dimension differences.  Pairs with i >= j or coincident starts get
    an infinite squared start distance, so their ratios are 0 and they are
    not counted.  When every reward is equal, every reward ratio is 0, and
    the reward pass is skipped.
    """
    n = len(X)
    Xw = X * metric.weights
    Yw = Y * metric.weights
    rewards_vary = n > 1 and bool(np.any(R[1:] != R[0]))
    best_t = 0.0
    best_r = 0.0
    used = 0
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        dx2, dy2 = np.zeros((2, hi - lo, n - lo))
        tmp = np.empty_like(dx2)
        for out, A in ((dx2, Xw), (dy2, Yw)):
            for k in range(A.shape[1]):
                np.subtract(A[lo:hi, k, None], A[None, lo:, k], out=tmp)
                np.multiply(tmp, tmp, out=tmp)
                out += tmp
        dx2[:, : hi - lo][np.tri(hi - lo, dtype=bool)] = np.inf
        dx2[dx2 == 0.0] = np.inf
        used += int(np.count_nonzero(dx2 != np.inf))
        best_t = max(best_t, float(np.sqrt(np.divide(dy2, dx2, out=dy2).max())))
        if rewards_vary:
            np.subtract(R[lo:hi, None], R[None, lo:], out=tmp)
            np.abs(tmp, out=tmp)
            np.divide(tmp, np.sqrt(dx2, out=dx2), out=tmp)
            best_r = max(best_r, float(tmp.max()))
    return best_t, best_r, used


def global_lipschitz(ds: Dataset, metric: Metric) -> LipschitzEstimates:
    """Max ratios over all same-action transition pairs in the dataset.

    Cross-action pairs are excluded: they would mix different dynamics.
    """
    best_t = 0.0
    best_r = 0.0
    used = 0
    for a in range(ds.n_actions):
        X, Y, R = ds.action_arrays(a)
        if len(R) < 2:
            continue
        bt, br, n = _pairwise_max_ratios(X, Y, R, metric)
        best_t = max(best_t, bt)
        best_r = max(best_r, br)
        used += n
    if used == 0:
        raise InsufficientPairsError("dataset holds no usable same-action pair")
    return LipschitzEstimates(best_t, best_r, used)


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
    return ErrorEstimate.of(lips.l_t * near.distance, lips.l_r * near.distance)


def parametric_residuals(
    ds: Dataset, model: DynamicsModel, metric: Metric
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row residuals of the parametric model on the whole batch:
    (state-prediction distances, absolute reward errors), aligned with the
    dataset's rows.  Unfitted actions get infinite residuals."""
    eps_t = np.full(len(ds), np.inf)
    eps_r = np.full(len(ds), np.inf)
    fitted = [model.fitted(a) for a in range(ds.n_actions)]
    rows = zip(ds.starts, ds.actions.tolist(), ds.nexts, ds.rewards.tolist())
    for i, (x, a, y, r) in enumerate(rows):
        if not fitted[a]:
            continue
        xp, rp = model.predict(x, a)
        eps_t[i] = metric.distance(xp, y)
        eps_r[i] = abs(rp - r)
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
    return ErrorEstimate.of(
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


# ---------------------------------------------------------------------------
# State-error recursion and the return-error bound
# ---------------------------------------------------------------------------


def rollforward_state_error(
    delta_prev: float, p: BoundParams, eps_t: float
) -> float:
    """One step of the state-error recursion: delta' = l_t * delta + eps_t."""
    if delta_prev < 0 or eps_t < 0:
        raise ValueError("state errors must be nonnegative")
    return p.l_t * delta_prev + eps_t


def return_error_bound(
    eps_t_seq: Sequence[float], eps_r_seq: Sequence[float], p: BoundParams
) -> float:
    """Upper bound on |true return - simulated return| over a horizon.

    With delta(0) = 0 and delta(t) = l_t * delta(t-1) + eps_t[t-1], the
    bound is sum_t gamma^t * (l_r * delta(t) + eps_r[t]).  The last
    transition-error entry only matters through delta terms beyond the
    horizon and therefore never affects the value.
    """
    if len(eps_t_seq) != len(eps_r_seq):
        raise ValueError("error sequences must have equal length")
    total = 0.0
    delta = 0.0
    for t, eps_r in enumerate(eps_r_seq):
        if t > 0:
            delta = rollforward_state_error(delta, p, eps_t_seq[t - 1])
        total += (p.gamma**t) * (p.l_r * delta + eps_r)
    return total
