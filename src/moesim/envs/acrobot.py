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

import numpy as np

from ..core import ActionId, Policy, StateVec
from .base import Environment

TORQUES = (-1.0, 0.0, 1.0)


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
    dt: float = 0.2
    n_substeps: int = 4
    max_vel1: float = 4.0 * np.pi
    max_vel2: float = 9.0 * np.pi
    goal_height: float = 1.0
    init_noise: float = 0.1


def _derivatives(cfg: AcrobotConfig, s: np.ndarray, torque: float) -> np.ndarray:
    theta1, theta2, w1, w2 = s
    m1, m2, l1, lc1, lc2, i1, i2, g = (
        cfg.m1, cfg.m2, cfg.l1, cfg.lc1, cfg.lc2, cfg.i1, cfg.i2, cfg.gravity,
    )
    d1 = m1 * lc1**2 + m2 * (l1**2 + lc2**2 + 2 * l1 * lc2 * np.cos(theta2)) + i1 + i2
    d2 = m2 * (lc2**2 + l1 * lc2 * np.cos(theta2)) + i2
    phi2 = m2 * lc2 * g * np.cos(theta1 + theta2 - np.pi / 2)
    phi1 = (
        -m2 * l1 * lc2 * w2**2 * np.sin(theta2)
        - 2 * m2 * l1 * lc2 * w2 * w1 * np.sin(theta2)
        + (m1 * lc1 + m2 * l1) * g * np.cos(theta1 - np.pi / 2)
        + phi2
    )
    a2 = (
        torque + (d2 / d1) * phi1 - m2 * l1 * lc2 * w1**2 * np.sin(theta2) - phi2
    ) / (m2 * lc2**2 + i2 - d2**2 / d1)
    a1 = -(d2 * a2 + phi1) / d1
    return np.array([w1, w2, a1, a2])


def _rk4_step(cfg: AcrobotConfig, s: np.ndarray, torque: float, h: float) -> np.ndarray:
    k1 = _derivatives(cfg, s, torque)
    k2 = _derivatives(cfg, s + 0.5 * h * k1, torque)
    k3 = _derivatives(cfg, s + 0.5 * h * k2, torque)
    k4 = _derivatives(cfg, s + h * k3, torque)
    return s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _wrap(angle: float) -> float:
    return float((angle + np.pi) % (2 * np.pi) - np.pi)


def acrobot_step(cfg: AcrobotConfig, x: StateVec, a: ActionId) -> tuple[np.ndarray, float]:
    """One decision step: RK4-integrate the equations of motion for dt with
    the chosen constant torque, wrap angles, clip velocities; reward -1."""
    s = np.asarray(x, dtype=np.float64).copy()
    torque = TORQUES[a]
    h = cfg.dt / cfg.n_substeps
    for _ in range(cfg.n_substeps):
        s = _rk4_step(cfg, s, torque, h)
    s[0] = _wrap(s[0])
    s[1] = _wrap(s[1])
    s[2] = float(np.clip(s[2], -cfg.max_vel1, cfg.max_vel1))
    s[3] = float(np.clip(s[3], -cfg.max_vel2, cfg.max_vel2))
    return s, -1.0


def tip_height(x: StateVec) -> float:
    return float(-np.cos(x[0]) - np.cos(x[0] + x[1]))


def tip_heights(X: np.ndarray) -> np.ndarray:
    """`tip_height` of each row of X, with the same bits."""
    return -np.cos(X[:, 0]) - np.cos(X[:, 0] + X[:, 1])


def make_acrobot(cfg: AcrobotConfig) -> Environment:
    def sample_initial(rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-cfg.init_noise, cfg.init_noise, size=4)

    return Environment(
        dim=4,
        n_actions=3,
        horizon=cfg.horizon,
        step=lambda x, a: acrobot_step(cfg, x, a),
        sample_initial=sample_initial,
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
