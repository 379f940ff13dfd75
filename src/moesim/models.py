"""The two experts behind one prediction interface.

A dynamics model maps (state, action) to a predicted (next state, reward).
The nonparametric expert copies the observed outcome of the nearest
same-action transition; the parametric expert is either a per-action ridge
regression or a small feed-forward network trained from scratch, or a
fixed analytic function supplied by an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Callable

import numpy as np

from .core import ActionId, Dataset, Metric, Neighbors, StateVec, step_rows

PARAMETRIC = "parametric"
NONPARAMETRIC = "nonparametric"


class NoSupportError(RuntimeError):
    """Raised when a model cannot predict for the requested action."""


class DynamicsModel:
    """Deterministic predictor of (next state, reward) given (state, action)."""

    def fitted(self, a: ActionId) -> bool:
        """Whether the model can predict for action a."""
        return True

    def predict(self, x: StateVec, a: ActionId) -> tuple[StateVec, float]:
        raise NotImplementedError

    def predict_many(self, X: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`predict` for each row of X with the action in A: the next states
        as rows, and the rewards.  This default calls `predict` per row."""
        return step_rows(self.predict, X, A)


class NonparametricModel(DynamicsModel):
    """Nearest-neighbor expert: returns the recorded (x_next, r) of the
    same-action transition whose start state is closest to the query.

    It owns the one neighbour scan per (float64 bytes of x, action), at the
    selection radius C, memoized: its predictions read the scan's nearest
    row, and both local error estimates read its rows within C.  Each
    prediction still returns a fresh copy of its next state.
    """

    def __init__(self, dataset: Dataset, metric: Metric, radius: float):
        self.dataset = dataset
        self.metric = metric
        self.radius = radius
        self._neighbors: dict[tuple[bytes, ActionId], Neighbors | None] = {}

    def fitted(self, a: ActionId) -> bool:
        return self.dataset.n_for_action(a) > 0

    def neighbors(self, x: StateVec, a: ActionId) -> Neighbors | None:
        """`Dataset.neighbor_rows` of (x, a) at this expert's radius."""
        x = np.asarray(x, dtype=np.float64)
        key = (x.tobytes(), a)
        if key not in self._neighbors:
            self._neighbors[key] = self.dataset.neighbor_rows(x, a, self.radius, self.metric)
        return self._neighbors[key]

    def predict(self, x: StateVec, a: ActionId) -> tuple[StateVec, float]:
        near = self.neighbors(x, a)
        if near is None:
            raise NoSupportError(f"no support: dataset has no transitions for action {a}")
        row = near.nearest
        return self.dataset.nexts[row].copy(), float(self.dataset.rewards[row])


class FunctionModel(DynamicsModel):
    """Parametric expert given in closed form (used by experiments whose
    approximate model is specified analytically rather than learned).

    `predict_many_fn`, when given, is the batched form of `predict` and must
    agree with it row by row; without it `predict_many` calls `predict`
    once per row."""

    def __init__(
        self,
        f_t: Callable[[StateVec, ActionId], StateVec],
        f_r: Callable[[StateVec, ActionId], float],
        predict_many_fn: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
        | None = None,
    ):
        self._f_t = f_t
        self._f_r = f_r
        self._predict_many = predict_many_fn

    def predict(self, x: StateVec, a: ActionId) -> tuple[StateVec, float]:
        return np.asarray(self._f_t(x, a), dtype=np.float64), float(self._f_r(x, a))

    def predict_many(self, X: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._predict_many is None:
            return super().predict_many(X, A)
        return self._predict_many(np.asarray(X, dtype=np.float64), np.asarray(A))


class RidgePerActionModel(DynamicsModel):
    """Independent ridge regressions of [x_next, r] on x, one set per action,
    with an unpenalized intercept.  Actions absent from the training data are
    recorded as unfitted and raise on prediction.

    `predict_many` reads the coefficients stacked into one array, which it
    builds once per fit: again only after an entry of `coefs` is replaced
    (an entry is replaced, never written into)."""

    def __init__(self, dim: int, n_actions: int, ridge_lambda: float):
        self.dim = dim
        self.n_actions = n_actions
        self.ridge_lambda = ridge_lambda
        # coefs[a]: (dim+1, dim+1) matrix, rows = [input dims; intercept],
        # cols = [next-state dims; reward]; None while unfitted.
        self.coefs: list[np.ndarray | None] = [None] * n_actions
        # (the coefs entries it was built from, their stack with zeros for an
        # unfitted action, which actions are unfitted)
        self._stack: tuple[list, np.ndarray, np.ndarray] | None = None

    def fit(self, ds: Dataset) -> "RidgePerActionModel":
        for a in range(self.n_actions):
            X, Y, R = ds.action_arrays(a)
            if len(R) == 0:
                continue
            self.coefs[a] = _ridge_solve(X, np.column_stack([Y, R]), self.ridge_lambda)
        return self

    def fitted(self, a: ActionId) -> bool:
        return self.coefs[a] is not None

    def _coef(self, a: ActionId) -> np.ndarray:
        W = self.coefs[a]
        if W is None:
            raise NoSupportError(f"parametric model was not fitted for action {a}")
        return W

    def predict(self, x: StateVec, a: ActionId) -> tuple[StateVec, float]:
        z = _affine(np.asarray(x, dtype=np.float64), self._coef(a))
        return z[:-1], float(z[-1])

    def predict_many(self, X: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`predict` of each row, with the same bits: one `_affine` pass with
        each row's action's coefficients gathered per row.  An unfitted
        action raises `NoSupportError`, naming the smallest such action."""
        X = np.asarray(X, dtype=np.float64)
        A = np.asarray(A, dtype=np.intp)
        if not len(A):
            return np.zeros((0, self.dim)), np.zeros(0)
        stack = self._stack
        if stack is None or len(stack[0]) != len(self.coefs) or not all(
            map(is_, stack[0], self.coefs)
        ):
            blank = np.zeros((self.dim + 1, self.dim + 1))
            stack = self._stack = (
                list(self.coefs),
                np.stack([blank if W is None else W for W in self.coefs]),
                np.array([W is None for W in self.coefs]),
            )
        _, coefs, unfitted = stack
        unfitted = unfitted[A]
        if unfitted.any():
            self._coef(int(A[unfitted].min()))
        Z = _affine(X, coefs[A])
        return Z[:, :-1], Z[:, -1]


def _affine(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """[X, 1] @ W for one state X and its coefficients W, or for a matrix of
    states (one per row) and one coefficient matrix per row, summed over
    the input columns in ascending order with the intercept last.  The
    order is spelled out because a matrix product accumulates in an order
    that depends on the shapes, so a row's result would change in its last
    digits between a single and a batched call."""
    d = W.shape[-2] - 1
    if X.shape[-1] != d:
        raise ValueError(f"state has {X.shape[-1]} dims, the model {d}")
    z = X[..., 0, None] * W[..., 0, :]
    for j in range(1, d):
        z = z + X[..., j, None] * W[..., j, :]
    return z + W[..., d, :]


def _ridge_solve(X: np.ndarray, Y: np.ndarray, lam: float) -> np.ndarray:
    """Solve min_W ||A W - Y||^2 + lam ||W[:-1]||^2 for A = [X, 1].

    The intercept is unpenalized, so the slopes are solved on centred X and
    Y and the intercept is mean(Y) - mean(X) @ slopes.  A constant target
    column then gets zero slopes and is predicted exactly.  lam = 0 falls
    back to the minimum-norm least-squares slopes, which interpolate exactly
    when the system is underdetermined.
    """
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc = X - x_mean
    Yc = Y - y_mean
    if lam == 0.0:
        W, *_ = np.linalg.lstsq(Xc, Yc, rcond=None)
    else:
        W = np.linalg.solve(Xc.T @ Xc + lam * np.eye(X.shape[1]), Xc.T @ Yc)
    return np.vstack([W, y_mean - x_mean @ W])


# ---------------------------------------------------------------------------
# Small tanh MLP trained by full-batch gradient descent
# ---------------------------------------------------------------------------


@dataclass
class MLPParams:
    """Weight matrices and biases; layers[i] maps activations i -> i+1."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def mlp_init(
    n_in: int, n_out: int, hidden: int, layers: int, rng: np.random.Generator
) -> MLPParams:
    sizes = [n_in] + [hidden] * layers + [n_out]
    weights = []
    biases = []
    for a, b in zip(sizes[:-1], sizes[1:]):
        scale = 1.0 / np.sqrt(a)
        weights.append(rng.uniform(-scale, scale, size=(a, b)))
        biases.append(np.zeros(b))
    return MLPParams(weights, biases)


def mlp_forward(params: MLPParams, X: np.ndarray) -> np.ndarray:
    h = X
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i != last:
            h = np.tanh(h)
    return h


def mlp_gradient(params: MLPParams, X: np.ndarray, Y: np.ndarray) -> MLPParams:
    """Gradient of the mean squared prediction error with respect to all
    weights and biases, by reverse accumulation through the tanh layers.

    The loss is mean over samples AND outputs.
    """
    if len(X) == 0:
        raise ValueError("gradient needs a nonempty batch")
    acts = [X]
    pre: list[np.ndarray] = []
    h = X
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        pre.append(z)
        h = np.tanh(z) if i != last else z
        acts.append(h)
    n, n_out = Y.shape
    delta = 2.0 * (acts[-1] - Y) / (n * n_out)
    gw = [np.zeros_like(w) for w in params.weights]
    gb = [np.zeros_like(b) for b in params.biases]
    for i in range(last, -1, -1):
        gw[i] = acts[i].T @ delta
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i].T) * (1.0 - np.tanh(pre[i - 1]) ** 2)
    return MLPParams(gw, gb)


class MLPModel(DynamicsModel):
    """One shared tanh network over [x, one-hot(a)] predicting [x_next, r],
    with `layers` (1 or 2) hidden layers of `hidden` units whose initial
    weights are drawn from `seed`.

    Only actions seen during training are considered fitted; querying an
    unseen action raises rather than silently extrapolating the one-hot.
    """

    def __init__(self, dim: int, n_actions: int, hidden: int, layers: int, seed: int = 0):
        self.n_actions = n_actions
        rng = np.random.default_rng(seed)
        self.params = mlp_init(dim + n_actions, dim + 1, hidden, layers, rng)
        self.fitted_actions: set[int] = set()

    def _encode(self, X: np.ndarray, A: np.ndarray) -> np.ndarray:
        onehot = np.zeros((len(A), self.n_actions))
        onehot[np.arange(len(A)), A] = 1.0
        return np.column_stack([X, onehot])

    def fit(self, ds: Dataset, epochs: int, learning_rate: float) -> "MLPModel":
        """`epochs` full-batch gradient-descent steps of size `learning_rate`."""
        Y = np.column_stack([ds.nexts, ds.rewards])
        inputs = self._encode(ds.starts, ds.actions)
        for _ in range(epochs):
            g = mlp_gradient(self.params, inputs, Y)
            for w, gwi in zip(self.params.weights, g.weights):
                w -= learning_rate * gwi
            for b, gbi in zip(self.params.biases, g.biases):
                b -= learning_rate * gbi
        self.fitted_actions = set(np.unique(ds.actions).tolist())
        return self

    def fitted(self, a: ActionId) -> bool:
        return a in self.fitted_actions

    def predict(self, x: StateVec, a: ActionId) -> tuple[StateVec, float]:
        if a not in self.fitted_actions:
            raise NoSupportError(f"parametric model was not fitted for action {a}")
        z = mlp_forward(
            self.params,
            self._encode(np.asarray(x, dtype=np.float64)[None, :], np.array([a])),
        )[0]
        return z[:-1], float(z[-1])
