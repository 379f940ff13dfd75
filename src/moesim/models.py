"""The two experts behind one prediction interface.

A dynamics model maps (state, action) to a predicted (next state, reward).
The nonparametric expert copies the observed outcome of the nearest
same-action transition; the parametric expert is either a per-action ridge
regression or a small feed-forward network trained from scratch, or a
fixed analytic function supplied by an experiment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ActionId, Dataset, Metric, StateVec, Transition

PARAMETRIC = "parametric"
NONPARAMETRIC = "nonparametric"


class NoSupportError(RuntimeError):
    """Raised when a model cannot predict for the requested action."""


class DynamicsModel:
    """Deterministic predictor of (next state, reward) given (state, action)."""

    kind: str

    def predict(self, x: StateVec, a: ActionId) -> tuple[StateVec, float]:
        raise NotImplementedError


class NonparametricModel(DynamicsModel):
    """Nearest-neighbor expert: returns the recorded (x_next, r) of the
    same-action transition whose start state is closest to the query.

    The nearest transition is memoized per (float64 bytes of x, action);
    each prediction still returns a fresh copy of its next state.
    """

    kind = NONPARAMETRIC

    def __init__(self, dataset: Dataset, metric: Metric):
        self.dataset = dataset
        self.metric = metric
        self._nearest: dict[tuple[bytes, ActionId], Transition | None] = {}

    def predict(self, x: StateVec, a: ActionId) -> tuple[StateVec, float]:
        x = np.asarray(x, dtype=np.float64)
        key = (x.tobytes(), a)
        if key not in self._nearest:
            self._nearest[key] = self.dataset.nearest(x, a, self.metric)
        tr = self._nearest[key]
        if tr is None:
            raise NoSupportError(f"no support: dataset has no transitions for action {a}")
        return tr.x_next.copy(), float(tr.r)


class FunctionModel(DynamicsModel):
    """Parametric expert given in closed form (used by experiments whose
    approximate model is specified analytically rather than learned)."""

    kind = PARAMETRIC

    def __init__(
        self,
        f_t: Callable[[StateVec, ActionId], StateVec],
        f_r: Callable[[StateVec, ActionId], float],
    ):
        self._f_t = f_t
        self._f_r = f_r

    def predict(self, x: StateVec, a: ActionId) -> tuple[StateVec, float]:
        return np.asarray(self._f_t(x, a), dtype=np.float64), float(self._f_r(x, a))


@dataclass(frozen=True)
class ParametricFitConfig:
    """How to fit the learned expert.

    learner:       "ridge_per_action" or "mlp"
    ridge_lambda:  L2 penalty on non-intercept weights (0 = plain least squares)
    mlp_hidden:    hidden width (per layer)
    mlp_layers:    1 or 2 hidden layers, tanh activations
    mlp_epochs:    full-batch gradient-descent epochs
    mlp_learning_rate: step size
    seed:          weight-initialization seed
    """

    learner: str = "ridge_per_action"
    ridge_lambda: float = 0.0
    mlp_hidden: int = 64
    mlp_layers: int = 1
    mlp_activation: str = "tanh"
    mlp_epochs: int = 2000
    mlp_learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learner not in ("ridge_per_action", "mlp"):
            raise ValueError(f"unknown learner {self.learner!r}")
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be nonnegative")
        if self.mlp_hidden < 1 or self.mlp_layers not in (1, 2):
            raise ValueError("mlp_hidden must be >= 1 and mlp_layers 1 or 2")
        if self.mlp_learning_rate <= 0:
            raise ValueError("mlp_learning_rate must be positive")
        if self.mlp_activation != "tanh":
            raise ValueError("only tanh activation is supported")


class RidgePerActionModel(DynamicsModel):
    """Independent ridge regressions of [x_next, r] on x, one set per action,
    with an unpenalized intercept.  Actions absent from the training data are
    recorded as unfitted and raise on prediction."""

    kind = PARAMETRIC

    def __init__(self, dim: int, n_actions: int, ridge_lambda: float):
        self.dim = dim
        self.n_actions = n_actions
        self.ridge_lambda = ridge_lambda
        # coefs[a]: (dim+1, dim+1) matrix, rows = [input dims; intercept],
        # cols = [next-state dims; reward]; None while unfitted.
        self.coefs: list[np.ndarray | None] = [None] * n_actions

    def fit(self, ds: Dataset) -> "RidgePerActionModel":
        for a in range(self.n_actions):
            X, Y, R = ds.action_arrays(a)
            if len(R) == 0:
                continue
            self.coefs[a] = _ridge_solve(X, np.column_stack([Y, R]), self.ridge_lambda)
        return self

    def fitted(self, a: ActionId) -> bool:
        return self.coefs[a] is not None

    def predict(self, x: StateVec, a: ActionId) -> tuple[StateVec, float]:
        W = self.coefs[a]
        if W is None:
            raise NoSupportError(f"parametric model was not fitted for action {a}")
        z = np.append(np.asarray(x, dtype=np.float64), 1.0) @ W
        return z[:-1], float(z[-1])

    def to_json(self) -> str:
        payload = {
            "learner": "ridge_per_action",
            "dim": self.dim,
            "n_actions": self.n_actions,
            "ridge_lambda": self.ridge_lambda,
            "coefs": [None if W is None else W.tolist() for W in self.coefs],
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RidgePerActionModel":
        payload = json.loads(text)
        model = RidgePerActionModel(
            payload["dim"], payload["n_actions"], payload["ridge_lambda"]
        )
        model.coefs = [
            None if W is None else np.array(W, dtype=np.float64)
            for W in payload["coefs"]
        ]
        return model


def _ridge_solve(X: np.ndarray, Y: np.ndarray, lam: float) -> np.ndarray:
    """Solve min_W ||A W - Y||^2 + lam ||W[:-1]||^2 for A = [X, 1].

    lam = 0 falls back to the minimum-norm least-squares solution, which
    interpolates exactly when the system is underdetermined.
    """
    A = np.column_stack([X, np.ones(len(X))])
    if lam == 0.0:
        W, *_ = np.linalg.lstsq(A, Y, rcond=None)
        return W
    penalty = lam * np.eye(A.shape[1])
    penalty[-1, -1] = 0.0  # intercept unpenalized
    return np.linalg.solve(A.T @ A + penalty, A.T @ Y)


# ---------------------------------------------------------------------------
# Small tanh MLP trained by full-batch gradient descent
# ---------------------------------------------------------------------------


@dataclass
class MLPParams:
    """Weight matrices and biases; layers[i] maps activations i -> i+1."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def flatten(self) -> np.ndarray:
        return np.concatenate(
            [w.ravel() for w in self.weights] + [b.ravel() for b in self.biases]
        )

    def unflatten_like(self, vec: np.ndarray) -> "MLPParams":
        ws, bs, pos = [], [], 0
        for w in self.weights:
            ws.append(vec[pos : pos + w.size].reshape(w.shape))
            pos += w.size
        for b in self.biases:
            bs.append(vec[pos : pos + b.size].reshape(b.shape))
            pos += b.size
        return MLPParams(ws, bs)


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


def mlp_loss(params: MLPParams, X: np.ndarray, Y: np.ndarray) -> float:
    diff = mlp_forward(params, X) - Y
    return float(np.mean(diff * diff))

def mlp_gradient(params: MLPParams, X: np.ndarray, Y: np.ndarray) -> MLPParams:
    """Gradient of the mean squared prediction error with respect to all
    weights and biases, by reverse accumulation through the tanh layers.

    The loss is mean over samples AND outputs, matching mlp_loss.
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
    """One shared tanh network over [x, one-hot(a)] predicting [x_next, r].

    Only actions seen during training are considered fitted; querying an
    unseen action raises rather than silently extrapolating the one-hot.
    """

    kind = PARAMETRIC

    def __init__(self, dim: int, n_actions: int, cfg: "ParametricFitConfig"):
        self.dim = dim
        self.n_actions = n_actions
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self.params = mlp_init(
            dim + n_actions, dim + 1, cfg.mlp_hidden, cfg.mlp_layers, rng
        )
        self.fitted_actions: set[int] = set()

    def _encode(self, X: np.ndarray, A: np.ndarray) -> np.ndarray:
        onehot = np.zeros((len(A), self.n_actions))
        onehot[np.arange(len(A)), A] = 1.0
        return np.column_stack([X, onehot])

    def fit(self, ds: Dataset) -> "MLPModel":
        X = np.stack([tr.x for tr in ds.transitions])
        A = np.array([tr.a for tr in ds.transitions])
        Y = np.column_stack(
            [np.stack([tr.x_next for tr in ds.transitions]),
             np.array([tr.r for tr in ds.transitions])]
        )
        inputs = self._encode(X, A)
        lr = self.cfg.mlp_learning_rate
        for _ in range(self.cfg.mlp_epochs):
            g = mlp_gradient(self.params, inputs, Y)
            for w, gwi in zip(self.params.weights, g.weights):
                w -= lr * gwi
            for b, gbi in zip(self.params.biases, g.biases):
                b -= lr * gbi
        self.fitted_actions = set(int(a) for a in np.unique(A))
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

    def to_json(self) -> str:
        payload = {
            "learner": "mlp",
            "dim": self.dim,
            "n_actions": self.n_actions,
            "hidden": self.cfg.mlp_hidden,
            "layers": self.cfg.mlp_layers,
            "seed": self.cfg.seed,
            "weights": [w.tolist() for w in self.params.weights],
            "biases": [b.tolist() for b in self.params.biases],
            "fitted_actions": sorted(self.fitted_actions),
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "MLPModel":
        payload = json.loads(text)
        cfg = ParametricFitConfig(
            learner="mlp",
            mlp_hidden=payload["hidden"],
            mlp_layers=payload["layers"],
            seed=payload["seed"],
        )
        model = MLPModel(payload["dim"], payload["n_actions"], cfg)
        model.params = MLPParams(
            [np.array(w) for w in payload["weights"]],
            [np.array(b) for b in payload["biases"]],
        )
        model.fitted_actions = set(payload["fitted_actions"])
        return model


def fit_parametric(ds: Dataset, cfg: ParametricFitConfig) -> DynamicsModel:
    """Fit the learned expert on a dataset according to the config."""
    if len(ds) == 0:
        raise ValueError("cannot fit a parametric model on an empty dataset")
    if cfg.learner == "ridge_per_action":
        return RidgePerActionModel(ds.dim, ds.n_actions, cfg.ridge_lambda).fit(ds)
    return MLPModel(ds.dim, ds.n_actions, cfg).fit(ds)


def model_to_json(model: DynamicsModel) -> str:
    if isinstance(model, (RidgePerActionModel, MLPModel)):
        return model.to_json()
    raise TypeError(f"{type(model).__name__} does not serialize to JSON")


def model_from_json(text: str) -> DynamicsModel:
    kind = json.loads(text)["learner"]
    if kind == "ridge_per_action":
        return RidgePerActionModel.from_json(text)
    if kind == "mlp":
        return MLPModel.from_json(text)
    raise ValueError(f"unknown serialized learner {kind!r}")
