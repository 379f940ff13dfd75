"""Windy 2-D navigation.

The agent moves on the plane with unit steps in four directions while a
state-dependent wind, growing linearly with the y-coordinate, pushes it in
the negative x direction.  Reward is -1 per step until the goal box is
entered, so a policy's value is minus its expected step count.

Geometry (fixed; only the horizon is set per task): the behavior route
climbs the left edge above the goal band, crosses right along the top, and
descends into the goal from above, so its only goal-entering moves are
"down".  The evaluation policy climbs and then heads right into the goal,
using only "up" and "right".  Keeping those action sets disjoint at the
goal boundary is what lets a pure nearest-neighbor simulation cover the
shared climb yet never fabricate a goal entry.  The route thresholds keep
them disjoint only for these boxes, which is why the geometry is fixed.
"""

from __future__ import annotations

import numpy as np

from ..core import ActionId, Policy, StateVec
from ..models import FunctionModel
from .base import Environment

UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3
_UNIT = np.array([[0.0, 1.0], [0.0, -1.0], [-1.0, 0.0], [1.0, 0.0]])  # row a: action a's move

STEP_SIZE = 1.0
WIND_SLOPE = 0.03
# ((x_lo, x_hi), (y_lo, y_hi))
GOAL_BOX = ((8.5, 12.0), (9.0, 11.2))
START_BOX = ((0.0, 0.5), (0.0, 0.5))
BEHAVIOR_CLIMB_Y = 13.4
BEHAVIOR_CLIMB_X = 9.9
BEHAVIOR_BAND_X = 12.3
EVAL_TURN_Y = 9.2


def windy2d_step(x: StateVec, a: ActionId) -> tuple[StateVec, float]:
    """x' = x + step * unit(a) + wind(x);  wind = (-slope * y, 0);  r = -1."""
    wind = np.array([-WIND_SLOPE * x[1], 0.0])
    return np.asarray(x, dtype=np.float64) + STEP_SIZE * _UNIT[a] + wind, -1.0


def windy2d_step_many(X: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`windy2d_step` of each row of X with the action in A, in its
    operation order, so each row gets the same bits."""
    X = np.asarray(X, dtype=np.float64)
    wind = np.zeros_like(X)
    wind[:, 0] = -WIND_SLOPE * X[:, 1]
    return X + STEP_SIZE * _UNIT[A] + wind, np.full(len(X), -1.0)


def in_goal(x: StateVec) -> bool:
    (x0, x1), (y0, y1) = GOAL_BOX
    return bool(x0 <= x[0] <= x1 and y0 <= x[1] <= y1)


def in_goal_many(X: np.ndarray) -> np.ndarray:
    """`in_goal` of each row of X."""
    (x0, x1), (y0, y1) = GOAL_BOX
    return (x0 <= X[:, 0]) & (X[:, 0] <= x1) & (y0 <= X[:, 1]) & (X[:, 1] <= y1)


def _sample_initial(rng: np.random.Generator) -> np.ndarray:
    (x0, x1), (y0, y1) = START_BOX
    return np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)])


def make_windy2d(horizon: int) -> Environment:
    return Environment(
        dim=2,
        n_actions=4,
        horizon=horizon,
        step=windy2d_step,
        sample_initial=_sample_initial,
        is_terminal=in_goal,
        is_terminal_many=in_goal_many,
        step_many_fn=windy2d_step_many,
    )


def windy_eval_policy() -> Policy:
    """Climb, then head right into the goal band.  Uses only up/right."""

    def act(x: StateVec) -> ActionId:
        return UP if x[1] < EVAL_TURN_Y else RIGHT

    return Policy.deterministic(act, 4, lambda X: np.where(X[:, 1] < EVAL_TURN_Y, UP, RIGHT))


def windy_behavior_policy() -> Policy:
    """Climb past the goal band, cross right above it, then descend into
    the goal.  All goal entries happen on "down" moves."""

    def act(x: StateVec) -> ActionId:
        if x[1] < BEHAVIOR_CLIMB_Y and x[0] < BEHAVIOR_CLIMB_X:
            return UP
        if x[1] >= BEHAVIOR_CLIMB_Y and x[0] < BEHAVIOR_BAND_X:
            return RIGHT
        return DOWN

    def act_many(X: np.ndarray) -> np.ndarray:
        up = (X[:, 1] < BEHAVIOR_CLIMB_Y) & (X[:, 0] < BEHAVIOR_CLIMB_X)
        right = (X[:, 1] >= BEHAVIOR_CLIMB_Y) & (X[:, 0] < BEHAVIOR_BAND_X)
        return np.where(up, UP, np.where(right, RIGHT, DOWN))

    return Policy.deterministic(act, 4, act_many)


def windy_no_wind_model() -> FunctionModel:
    """The simple parametric expert: knows each action's direction and step
    size but not the wind."""

    def f_t(x: StateVec, a: ActionId) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) + STEP_SIZE * _UNIT[a]

    def predict_many(X: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return f_t(X, A), np.full(len(X), -1.0)

    return FunctionModel(f_t, lambda x, a: -1.0, predict_many)
