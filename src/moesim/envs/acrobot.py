"""Acrobot: the classic two-link underactuated swing-up task.

Only the joint between the links is actuated (torque -1/0/+1).  The state
is (theta1, theta2, omega1, omega2); the tip height is
-cos(theta1) - cos(theta1 + theta2), and an episode ends when it rises
above the goal height.  Reward is -1 per step.  Dynamics constants follow
the standard control-literature formulation; integration is classic
fourth-order Runge-Kutta with substeps.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class AcrobotConfig:
    horizon: int
    m1: float = 1.0
    m2: float = 1.0
    l1: float = 1.0
    lc1: float = 0.5
    lc2: float = 0.5
    i1: float = 1.0
    i2: float = 1.0
    gravity: float = 9.8
    n_substeps: int = 4
    goal_height: float = 1.0


def acrobot_step(cfg: AcrobotConfig, x: StateVec, a: ActionId) -> tuple[np.ndarray, float]:
    """One decision step: RK4-integrate the equations of motion for dt with
    the chosen constant torque, wrap angles, clip velocities; reward -1.

    Runs on Python floats and keeps the operation order of the same
    equations on numpy float64 scalars, `**` included, so both give the
    same bits wherever numpy's scalar sin/cos agree with `math`'s.  Raises
    `ValueError` on a non-finite state, and when the integration overflows
    (where numpy would return inf or NaN).
    """
    start = tuple(map(float, x))
    if not all(map(isfinite, start)):
        raise ValueError(f"acrobot state must be finite: {list(start)}")
    t1, t2, w1, w2 = start
    m1, m2, l1, lc1, lc2, i1, i2, g = (
        cfg.m1, cfg.m2, cfg.l1, cfg.lc1, cfg.lc2, cfg.i1, cfg.i2, cfg.gravity,
    )
    # c_<x>_<k>: the k-th constant part of the equation for x, folded once.
    # Only a leftmost run of a product or sum is folded: folding constants
    # further right would reassociate floating-point operations.
    c_d1_0 = m1 * lc1**2
    c_d1_1 = l1**2 + lc2**2
    c_d1_2 = 2 * l1 * lc2
    c_d2_0 = lc2**2
    c_d2_1 = l1 * lc2
    c_phi2_0 = m2 * lc2 * g
    c_phi1_0 = -m2 * l1 * lc2
    c_phi1_1 = 2 * m2 * l1 * lc2
    c_phi1_2 = (m1 * lc1 + m2 * l1) * g
    c_a2_0 = m2 * l1 * lc2
    c_a2_1 = m2 * lc2**2 + i2
    torque = TORQUES[a]

    def accelerations(t1: float, t2: float, w1: float, w2: float) -> tuple[float, float]:
        cos2, sin2 = cos(t2), sin(t2)
        d1 = c_d1_0 + m2 * (c_d1_1 + c_d1_2 * cos2) + i1 + i2
        d2 = m2 * (c_d2_0 + c_d2_1 * cos2) + i2
        phi2 = c_phi2_0 * cos(t1 + t2 - HALF_PI)
        phi1 = (
            c_phi1_0 * w2**2 * sin2 - c_phi1_1 * w2 * w1 * sin2
            + c_phi1_2 * cos(t1 - HALF_PI) + phi2
        )
        acc2 = (
            torque + (d2 / d1) * phi1 - c_a2_0 * w1**2 * sin2 - phi2
        ) / (c_a2_1 - d2**2 / d1)
        return -(d2 * acc2 + phi1) / d1, acc2

    h = DT / cfg.n_substeps
    half, sixth = 0.5 * h, h / 6.0
    try:
        for _ in range(cfg.n_substeps):
            # classic RK4; stage k's derivative is (its velocities, its accelerations)
            a1_1, a2_1 = accelerations(t1, t2, w1, w2)
            w1_2, w2_2 = w1 + half * a1_1, w2 + half * a2_1
            a1_2, a2_2 = accelerations(t1 + half * w1, t2 + half * w2, w1_2, w2_2)
            w1_3, w2_3 = w1 + half * a1_2, w2 + half * a2_2
            a1_3, a2_3 = accelerations(t1 + half * w1_2, t2 + half * w2_2, w1_3, w2_3)
            w1_4, w2_4 = w1 + h * a1_3, w2 + h * a2_3
            a1_4, a2_4 = accelerations(t1 + h * w1_3, t2 + h * w2_3, w1_4, w2_4)
            t1 = t1 + sixth * (w1 + 2 * w1_2 + 2 * w1_3 + w1_4)
            t2 = t2 + sixth * (w2 + 2 * w2_2 + 2 * w2_3 + w2_4)
            w1 = w1 + sixth * (a1_1 + 2 * a1_2 + 2 * a1_3 + a1_4)
            w2 = w2 + sixth * (a2_1 + 2 * a2_2 + 2 * a2_3 + a2_4)
        if not all(map(isfinite, (t1, t2, w1, w2))):
            raise OverflowError  # an inf or NaN that no operation raised for
    except (OverflowError, ValueError) as exc:  # also `**` overflow, cos/sin of inf
        raise ValueError(f"acrobot step overflowed from state {list(start)}") from exc
    return np.array([
        (t1 + pi) % TWO_PI - pi,
        (t2 + pi) % TWO_PI - pi,
        min(max(w1, -MAX_VEL1), MAX_VEL1),
        min(max(w2, -MAX_VEL2), MAX_VEL2),
    ]), -1.0


def tip_height(x: StateVec) -> float:
    return float(-np.cos(x[0]) - np.cos(x[0] + x[1]))


def tip_heights(X: np.ndarray) -> np.ndarray:
    """`tip_height` of each row of X, with the same bits."""
    return -np.cos(X[:, 0]) - np.cos(X[:, 0] + X[:, 1])


def _sample_initial(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-INIT_NOISE, INIT_NOISE, size=4)


def make_acrobot(cfg: AcrobotConfig) -> Environment:
    return Environment(
        dim=4,
        n_actions=3,
        horizon=cfg.horizon,
        step=lambda x, a: acrobot_step(cfg, x, a),
        sample_initial=_sample_initial,
        is_terminal=lambda x: tip_height(x) >= cfg.goal_height,
        is_terminal_many=lambda X: tip_heights(X) >= cfg.goal_height,
    )


def acrobot_heuristic_policy() -> Policy:
    """Energy-pumping swing-up: torque along the actuated joint's velocity.

    Reaches tip height 1.0 from near-rest starts in under ~300 steps.
    """

    def act(x: StateVec) -> ActionId:
        return 2 if x[3] >= 0 else 0

    return Policy.deterministic(act, 3, lambda X: np.where(X[:, 3] >= 0, 2, 0))
