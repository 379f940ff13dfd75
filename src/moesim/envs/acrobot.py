"""Acrobot: the classic two-link underactuated swing-up task.

Only the joint between the links is actuated (torque -1/0/+1).  The state
is (theta1, theta2, omega1, omega2); the tip height is
-cos(theta1) - cos(theta1 + theta2), and an episode ends when it rises
above the goal height.  Reward is -1 per step.  Dynamics constants follow
the standard control-literature formulation; integration is classic
fourth-order Runge-Kutta with substeps.
"""

from __future__ import annotations

from math import cos, isfinite, pi, sin

import numpy as np

from ..core import ActionId, Policy, StateVec
from .base import Environment

TORQUES = (-1.0, 0.0, 1.0)
HALF_PI = pi / 2
TWO_PI = 2 * pi
DT = 0.2  # seconds per decision step
MAX_VEL1 = 4.0 * pi
MAX_VEL2 = 9.0 * pi
INIT_NOISE = 0.1
M1 = M2 = 1.0  # link masses
L1 = 1.0  # length of the first link
LC1 = LC2 = 0.5  # distance from each link's pivot to its centre of mass
I1 = I2 = 1.0  # moments of inertia
GRAVITY = 9.8
N_SUBSTEPS = 4  # RK4 substeps per decision step
GOAL_HEIGHT = 1.0  # tip height that ends an episode

# _C_<x>_<k>: the k-th constant part of the equation for x, folded once.
# Only a leftmost run of a product or sum is folded: folding constants
# further right would reassociate floating-point operations.
_C_D1_0 = M1 * LC1**2
_C_D1_1 = L1**2 + LC2**2
_C_D1_2 = 2 * L1 * LC2
_C_D2_0 = LC2**2
_C_D2_1 = L1 * LC2
_C_PHI2_0 = M2 * LC2 * GRAVITY
_C_PHI1_0 = -M2 * L1 * LC2
_C_PHI1_1 = 2 * M2 * L1 * LC2
_C_PHI1_2 = (M1 * LC1 + M2 * L1) * GRAVITY
_C_A2_0 = M2 * L1 * LC2
_C_A2_1 = M2 * LC2**2 + I2
_H = DT / N_SUBSTEPS
_HALF, _SIXTH = 0.5 * _H, _H / 6.0


def acrobot_step(x: StateVec, a: ActionId) -> tuple[np.ndarray, float]:
    """One decision step: RK4-integrate the equations of motion for dt with
    the chosen constant torque, wrap angles, clip velocities; reward -1.

    Runs on Python floats and keeps the operation order of the same
    equations on numpy float64 scalars, `**` included, so both give the
    same bits wherever numpy's scalar sin/cos agree with `math`'s.  Raises
    `ValueError` on a non-finite state, and when the integration overflows
    (where numpy would return inf or NaN).
    """
    return np.array(_step(list(map(float, x)), a)), -1.0


def acrobot_step_many(X: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`acrobot_step` of each row of X with the action in A, with the same
    bits and errors: the same Python-float integration over `X.tolist()`,
    into one array."""
    X = np.asarray(X, dtype=np.float64)
    rows = [_step(x, a) for x, a in zip(X.tolist(), np.asarray(A).tolist())]
    return np.array(rows).reshape(X.shape), np.full(len(X), -1.0)


def _step(start: list[float], a: ActionId) -> list[float]:
    """The next state of `acrobot_step` from a state given as Python floats."""
    if not all(map(isfinite, start)):
        raise ValueError(f"acrobot state must be finite: {start}")
    t1, t2, w1, w2 = start
    torque = TORQUES[a]

    def accelerations(t1: float, t2: float, w1: float, w2: float) -> tuple[float, float]:
        cos2, sin2 = cos(t2), sin(t2)
        d1 = _C_D1_0 + M2 * (_C_D1_1 + _C_D1_2 * cos2) + I1 + I2
        d2 = M2 * (_C_D2_0 + _C_D2_1 * cos2) + I2
        phi2 = _C_PHI2_0 * cos(t1 + t2 - HALF_PI)
        phi1 = (
            _C_PHI1_0 * w2**2 * sin2 - _C_PHI1_1 * w2 * w1 * sin2
            + _C_PHI1_2 * cos(t1 - HALF_PI) + phi2
        )
        acc2 = (
            torque + (d2 / d1) * phi1 - _C_A2_0 * w1**2 * sin2 - phi2
        ) / (_C_A2_1 - d2**2 / d1)
        return -(d2 * acc2 + phi1) / d1, acc2

    try:
        for _ in range(N_SUBSTEPS):
            # classic RK4; stage k's derivative is (its velocities, its accelerations)
            a1_1, a2_1 = accelerations(t1, t2, w1, w2)
            w1_2, w2_2 = w1 + _HALF * a1_1, w2 + _HALF * a2_1
            a1_2, a2_2 = accelerations(t1 + _HALF * w1, t2 + _HALF * w2, w1_2, w2_2)
            w1_3, w2_3 = w1 + _HALF * a1_2, w2 + _HALF * a2_2
            a1_3, a2_3 = accelerations(t1 + _HALF * w1_2, t2 + _HALF * w2_2, w1_3, w2_3)
            w1_4, w2_4 = w1 + _H * a1_3, w2 + _H * a2_3
            a1_4, a2_4 = accelerations(t1 + _H * w1_3, t2 + _H * w2_3, w1_4, w2_4)
            t1 = t1 + _SIXTH * (w1 + 2 * w1_2 + 2 * w1_3 + w1_4)
            t2 = t2 + _SIXTH * (w2 + 2 * w2_2 + 2 * w2_3 + w2_4)
            w1 = w1 + _SIXTH * (a1_1 + 2 * a1_2 + 2 * a1_3 + a1_4)
            w2 = w2 + _SIXTH * (a2_1 + 2 * a2_2 + 2 * a2_3 + a2_4)
        if not all(map(isfinite, (t1, t2, w1, w2))):
            raise OverflowError  # an inf or NaN that no operation raised for
    except (OverflowError, ValueError) as exc:  # also `**` overflow, cos/sin of inf
        raise ValueError(f"acrobot step overflowed from state {start}") from exc
    return [
        (t1 + pi) % TWO_PI - pi,
        (t2 + pi) % TWO_PI - pi,
        min(max(w1, -MAX_VEL1), MAX_VEL1),
        min(max(w2, -MAX_VEL2), MAX_VEL2),
    ]


def tip_height(x: StateVec) -> float:
    return float(-np.cos(x[0]) - np.cos(x[0] + x[1]))


def tip_heights(X: np.ndarray) -> np.ndarray:
    """`tip_height` of each row of X, with the same bits."""
    return -np.cos(X[:, 0]) - np.cos(X[:, 0] + X[:, 1])


def _sample_initial(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-INIT_NOISE, INIT_NOISE, size=4)


def make_acrobot(horizon: int) -> Environment:
    return Environment(
        dim=4,
        n_actions=3,
        horizon=horizon,
        step=acrobot_step,
        sample_initial=_sample_initial,
        is_terminal=lambda x: tip_height(x) >= GOAL_HEIGHT,
        is_terminal_many=lambda X: tip_heights(X) >= GOAL_HEIGHT,
        step_many_fn=acrobot_step_many,
    )


def acrobot_heuristic_policy() -> Policy:
    """Energy-pumping swing-up: torque along the actuated joint's velocity.

    Reaches tip height 1.0 from near-rest starts in under ~300 steps.
    """

    def act(x: StateVec) -> ActionId:
        return 2 if x[3] >= 0 else 0

    return Policy.deterministic(act, 3, lambda X: np.where(X[:, 3] >= 0, 2, 0))
