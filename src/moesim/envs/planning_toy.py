"""Two-action planning toy on the plane.

Action "r" moves one unit right, action "d" one unit up the diagonal; the
reward is the coordinate sum of the current state.  The approximate
parametric expert cannot distinguish the actions: it always predicts the
average move (x+1, y+0.5).  Behavior data consists of one diagonal and one
horizontal trajectory, so a simulator must decide between copying nearby
data exactly and following the smooth-but-biased average model.
"""

from __future__ import annotations

import numpy as np

from ..core import ActionId, Policy, StateVec
from ..models import FunctionModel
from .base import Environment

RIGHT_ACTION = 0  # "r"
DIAG_ACTION = 1  # "d"

BEHAVIOR_STARTS = (np.array([0.0, 0.0]), np.array([1.0, 0.0]))
REWARD_VARIANTS = ("accurate", "inaccurate")
EVAL_START = np.array([0.0, 0.0])


def planning_toy_step(x: StateVec, a: ActionId) -> tuple[np.ndarray, float]:
    """r: (x1+1, x2); d: (x1+1, x2+1); reward = x1 + x2 at the current state."""
    x = np.asarray(x, dtype=np.float64)
    r = float(x[0] + x[1])
    if a == RIGHT_ACTION:
        return x + np.array([1.0, 0.0]), r
    if a == DIAG_ACTION:
        return x + np.array([1.0, 1.0]), r
    raise ValueError(f"unknown action {a}")


def planning_toy_policies() -> tuple[Policy, Policy]:
    """(evaluation, behavior) policies.

    Evaluation: "r" while 1 <= x1 <= 11, otherwise "d".
    Behavior:   "r" while x1 > 0 and x2 == 0, otherwise "d".
    """

    def eval_act(x: StateVec) -> ActionId:
        return RIGHT_ACTION if 1.0 <= x[0] <= 11.0 else DIAG_ACTION

    def behavior_act(x: StateVec) -> ActionId:
        return RIGHT_ACTION if (x[0] > 0.0 and abs(x[1]) < 1e-12) else DIAG_ACTION

    return Policy.deterministic(eval_act, 2), Policy.deterministic(behavior_act, 2)


def planning_toy_reward_model(variant: str, x: StateVec) -> float:
    """Approximate reward head: exact everywhere ("accurate"), or wrong
    past x1 >= 11 ("inaccurate", predicting -1 there)."""
    if variant == "accurate":
        return float(x[0] + x[1])
    if variant == "inaccurate":
        return float(x[0] + x[1]) if x[0] < 11.0 else -1.0
    raise ValueError(f"unknown reward-model variant {variant!r}")


def planning_toy_parametric_model(reward_variant: str) -> FunctionModel:
    """The action-blind analytic expert: always predicts (x1+1, x2+0.5)."""

    def f_t(x: StateVec, a: ActionId) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) + np.array([1.0, 0.5])

    return FunctionModel(f_t, lambda x, a: planning_toy_reward_model(reward_variant, x))


def make_planning_toy(horizon: int) -> Environment:
    return Environment(
        dim=2,
        n_actions=2,
        horizon=horizon,
        step=planning_toy_step,
        sample_initial=lambda rng: EVAL_START.copy(),
        is_terminal=None,
    )
