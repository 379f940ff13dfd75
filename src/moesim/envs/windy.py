"""Windy 2-D navigation.

The agent moves on the plane with unit steps in four directions while a
state-dependent wind, growing linearly with the y-coordinate, pushes it in
the negative x direction.  Reward is -1 per step until the goal box is
entered, so a policy's value is minus its expected step count.

Default geometry (all configurable): the behavior route climbs the left
edge above the goal band, crosses right along the top, and descends into
the goal from above, so its only goal-entering moves are "down".  The
default evaluation policy climbs and then heads right into the goal, using
only "up" and "right".  Keeping those action sets disjoint at the goal
boundary is what lets a pure nearest-neighbor simulation cover the shared
climb yet never fabricate a goal entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import ActionId, Policy, StateVec
from ..models import FunctionModel
from .base import Environment

UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3
_UNIT = np.array([[0.0, 1.0], [0.0, -1.0], [-1.0, 0.0], [1.0, 0.0]])  # row a: action a's move


@dataclass(frozen=True)
class Windy2DConfig:
    """Horizon, step size, wind slope, goal/start boxes ((x_lo, x_hi),
    (y_lo, y_hi)), and the route thresholds of the two scripted policies."""

    horizon: int
    step_size: float = 1.0
    wind_slope: float = 0.03
    goal_box: tuple[tuple[float, float], tuple[float, float]] = (
        (8.5, 12.0),
        (9.0, 11.2),
    )
    start_box: tuple[tuple[float, float], tuple[float, float]] = (
        (0.0, 0.5),
        (0.0, 0.5),
    )
    behavior_climb_y: float = 13.4
    behavior_climb_x: float = 9.9
    behavior_band_x: float = 12.3
    eval_turn_y: float = 9.2

    def __post_init__(self) -> None:
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.wind_slope < 0:
            raise ValueError("wind_slope must be nonnegative")
        for box in (self.goal_box, self.start_box):
            (x0, x1), (y0, y1) = box
            if not (x0 < x1 and y0 < y1):
                raise ValueError("boxes must be non-degenerate")


def windy2d_step(cfg: Windy2DConfig, x: StateVec, a: ActionId) -> tuple[StateVec, float]:
    """x' = x + step * unit(a) + wind(x);  wind = (-slope * y, 0);  r = -1."""
    wind = np.array([-cfg.wind_slope * x[1], 0.0])
    return np.asarray(x, dtype=np.float64) + cfg.step_size * _UNIT[a] + wind, -1.0


def windy2d_step_many(
    cfg: Windy2DConfig, X: np.ndarray, A: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`windy2d_step` of each row of X with the action in A, in its
    operation order, so each row gets the same bits."""
    X = np.asarray(X, dtype=np.float64)
    wind = np.zeros_like(X)
    wind[:, 0] = -cfg.wind_slope * X[:, 1]
    return X + cfg.step_size * _UNIT[A] + wind, np.full(len(X), -1.0)


def in_goal(cfg: Windy2DConfig, x: StateVec) -> bool:
    (x0, x1), (y0, y1) = cfg.goal_box
    return bool(x0 <= x[0] <= x1 and y0 <= x[1] <= y1)


def in_goal_many(cfg: Windy2DConfig, X: np.ndarray) -> np.ndarray:
    """`in_goal` of each row of X."""
    (x0, x1), (y0, y1) = cfg.goal_box
    return (x0 <= X[:, 0]) & (X[:, 0] <= x1) & (y0 <= X[:, 1]) & (X[:, 1] <= y1)


def make_windy2d(cfg: Windy2DConfig) -> Environment:
    def sample_initial(rng: np.random.Generator) -> np.ndarray:
        (x0, x1), (y0, y1) = cfg.start_box
        return np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)])

    return Environment(
        dim=2,
        n_actions=4,
        horizon=cfg.horizon,
        step=lambda x, a: windy2d_step(cfg, x, a),
        sample_initial=sample_initial,
        is_terminal=lambda x: in_goal(cfg, x),
        is_terminal_many=lambda X: in_goal_many(cfg, X),
        step_many_fn=lambda X, A: windy2d_step_many(cfg, X, A),
    )


def windy_eval_policy(cfg: Windy2DConfig) -> Policy:
    """Climb, then head right into the goal band.  Uses only up/right."""

    def act(x: StateVec) -> ActionId:
        return UP if x[1] < cfg.eval_turn_y else RIGHT

    return Policy.deterministic(
        act, 4, lambda X: np.where(X[:, 1] < cfg.eval_turn_y, UP, RIGHT)
    )


def windy_behavior_policy(cfg: Windy2DConfig) -> Policy:
    """Climb past the goal band, cross right above it, then descend into
    the goal.  All goal entries happen on "down" moves."""

    def act(x: StateVec) -> ActionId:
        if x[1] < cfg.behavior_climb_y and x[0] < cfg.behavior_climb_x:
            return UP
        if x[1] >= cfg.behavior_climb_y and x[0] < cfg.behavior_band_x:
            return RIGHT
        return DOWN

    def act_many(X: np.ndarray) -> np.ndarray:
        up = (X[:, 1] < cfg.behavior_climb_y) & (X[:, 0] < cfg.behavior_climb_x)
        right = (X[:, 1] >= cfg.behavior_climb_y) & (X[:, 0] < cfg.behavior_band_x)
        return np.where(up, UP, np.where(right, RIGHT, DOWN))

    return Policy.deterministic(act, 4, act_many)


def windy_no_wind_model(cfg: Windy2DConfig) -> FunctionModel:
    """The simple parametric expert: knows each action's direction and step
    size but not the wind."""

    def f_t(x: StateVec, a: ActionId) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) + cfg.step_size * _UNIT[a]

    def predict_many(X: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return f_t(X, A), np.full(len(X), -1.0)

    return FunctionModel(f_t, lambda x, a: -1.0, predict_many)
