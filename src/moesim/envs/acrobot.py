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
_C_D2_0 = LC2**2
_C_D2_1 = L1 * LC2
_C_PHI2_0 = M2 * LC2 * GRAVITY
_C_PHI1_0 = -M2 * L1 * LC2
_C_PHI1_2 = (M1 * LC1 + M2 * L1) * GRAVITY
_C_A2_0 = M2 * L1 * LC2
_C_A2_1 = M2 * LC2**2 + I2
_H = DT / N_SUBSTEPS
_HALF, _SIXTH = 0.5 * _H, _H / 6.0
# the constants of `_step`'s equations, in the order it unpacks them; M2,
# 2 * L1 * LC2 (of d1) and 2 * M2 * L1 * LC2 (of phi1) are 1.0, so their
# products are not written
_CONSTANTS = (
    _C_D1_0, _C_D1_1, I1, I2, _C_D2_0, _C_D2_1, _C_PHI2_0, _C_PHI1_0, _C_PHI1_2,
    _C_A2_0, _C_A2_1, HALF_PI,
)


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
    """The next state of `acrobot_step` from a state given as Python floats.

    Straight-line code on local names: each RK4 stage evaluates the
    equations of motion inline (cos2/sin2, d1, d2, phi2, phi1, then the two
    accelerations).  The products by M2, by 2 * L1 * LC2 in d1 and by
    2 * M2 * L1 * LC2 in phi1 are left out because each constant is
    exactly 1.0 and x * 1.0 is x for every float; every other operation
    keeps its order.
    """
    if not all(map(isfinite, start)):
        raise ValueError(f"acrobot state must be finite: {start}")
    t1, t2, w1, w2 = start
    torque = TORQUES[a]
    (
        c_d1_0, c_d1_1, i1, i2, c_d2_0, c_d2_1, c_phi2_0, c_phi1_0, c_phi1_2, c_a2_0, c_a2_1,
        half_pi,
    ) = _CONSTANTS
    h, half, sixth, cos_, sin_ = _H, _HALF, _SIXTH, cos, sin
    try:
        for _ in range(N_SUBSTEPS):
            # classic RK4: stage k's derivative is (w1_k, w2_k, acc1_k, acc2_k), its
            # accelerations taken at the stage's angles (t1, t2 in stage 1, else s1, s2)
            cos2, sin2 = cos_(t2), sin_(t2)
            d1 = c_d1_0 + (c_d1_1 + cos2) + i1 + i2
            d2 = (c_d2_0 + c_d2_1 * cos2) + i2
            phi2 = c_phi2_0 * cos_(t1 + t2 - half_pi)
            phi1 = (
                c_phi1_0 * w2**2 * sin2 - w2 * w1 * sin2 + c_phi1_2 * cos_(t1 - half_pi) + phi2
            )
            acc2_1 = (
                torque + (d2 / d1) * phi1 - c_a2_0 * w1**2 * sin2 - phi2
            ) / (c_a2_1 - d2**2 / d1)
            acc1_1 = -(d2 * acc2_1 + phi1) / d1

            w1_2, w2_2 = w1 + half * acc1_1, w2 + half * acc2_1
            s1, s2 = t1 + half * w1, t2 + half * w2
            cos2, sin2 = cos_(s2), sin_(s2)
            d1 = c_d1_0 + (c_d1_1 + cos2) + i1 + i2
            d2 = (c_d2_0 + c_d2_1 * cos2) + i2
            phi2 = c_phi2_0 * cos_(s1 + s2 - half_pi)
            phi1 = (
                c_phi1_0 * w2_2**2 * sin2 - w2_2 * w1_2 * sin2
                + c_phi1_2 * cos_(s1 - half_pi) + phi2
            )
            acc2_2 = (
                torque + (d2 / d1) * phi1 - c_a2_0 * w1_2**2 * sin2 - phi2
            ) / (c_a2_1 - d2**2 / d1)
            acc1_2 = -(d2 * acc2_2 + phi1) / d1

            w1_3, w2_3 = w1 + half * acc1_2, w2 + half * acc2_2
            s1, s2 = t1 + half * w1_2, t2 + half * w2_2
            cos2, sin2 = cos_(s2), sin_(s2)
            d1 = c_d1_0 + (c_d1_1 + cos2) + i1 + i2
            d2 = (c_d2_0 + c_d2_1 * cos2) + i2
            phi2 = c_phi2_0 * cos_(s1 + s2 - half_pi)
            phi1 = (
                c_phi1_0 * w2_3**2 * sin2 - w2_3 * w1_3 * sin2
                + c_phi1_2 * cos_(s1 - half_pi) + phi2
            )
            acc2_3 = (
                torque + (d2 / d1) * phi1 - c_a2_0 * w1_3**2 * sin2 - phi2
            ) / (c_a2_1 - d2**2 / d1)
            acc1_3 = -(d2 * acc2_3 + phi1) / d1

            w1_4, w2_4 = w1 + h * acc1_3, w2 + h * acc2_3
            s1, s2 = t1 + h * w1_3, t2 + h * w2_3
            cos2, sin2 = cos_(s2), sin_(s2)
            d1 = c_d1_0 + (c_d1_1 + cos2) + i1 + i2
            d2 = (c_d2_0 + c_d2_1 * cos2) + i2
            phi2 = c_phi2_0 * cos_(s1 + s2 - half_pi)
            phi1 = (
                c_phi1_0 * w2_4**2 * sin2 - w2_4 * w1_4 * sin2
                + c_phi1_2 * cos_(s1 - half_pi) + phi2
            )
            acc2_4 = (
                torque + (d2 / d1) * phi1 - c_a2_0 * w1_4**2 * sin2 - phi2
            ) / (c_a2_1 - d2**2 / d1)
            acc1_4 = -(d2 * acc2_4 + phi1) / d1

            t1 = t1 + sixth * (w1 + 2.0 * w1_2 + 2.0 * w1_3 + w1_4)
            t2 = t2 + sixth * (w2 + 2.0 * w2_2 + 2.0 * w2_3 + w2_4)
            w1 = w1 + sixth * (acc1_1 + 2.0 * acc1_2 + 2.0 * acc1_3 + acc1_4)
            w2 = w2 + sixth * (acc2_1 + 2.0 * acc2_2 + 2.0 * acc2_3 + acc2_4)
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
