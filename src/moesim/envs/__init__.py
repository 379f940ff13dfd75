from .base import (
    Environment,
    generate_trajectories,
    make_eps_greedy,
)
from .windy import make_windy2d, windy2d_step
from .planning_toy import (
    make_planning_toy,
    planning_toy_policies,
    planning_toy_parametric_model,
    planning_toy_reward_model,
    planning_toy_step,
)
from .acrobot import (
    acrobot_heuristic_policy,
    acrobot_step,
    make_acrobot,
    tip_height,
)

__all__ = [
    "Environment",
    "generate_trajectories",
    "make_eps_greedy",
    "make_windy2d",
    "windy2d_step",
    "make_planning_toy",
    "planning_toy_policies",
    "planning_toy_parametric_model",
    "planning_toy_reward_model",
    "planning_toy_step",
    "acrobot_heuristic_policy",
    "acrobot_step",
    "make_acrobot",
    "tip_height",
]
