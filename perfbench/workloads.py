"""The benchmark's workloads: one moesim experiment config each, and the
fixed list of repetitions a run times.

A run first makes one untimed warm-up repetition of the config whose master
seed is the benchmark's `--seed`, so every run checks moesim on another
input.  It then times equal rounds over `timed_reps` of the config with
master seed `TIMED_SEED`.  That list does not depend on `--seed`: each timed
sample is the same work on every run and every commit.  Across seeds the
work of one repetition moves a lot (one `windy_mcts` repetition makes 20,879
to 40,121 estimate calls over master seeds 0-7), which would bury the host's
own noise and any change under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

TIMED_SEED = 0


def _windy_mcts(seed: int) -> dict:
    return {
        "name": "bench-windy-mcts",
        "env": {"kind": "windy2d"},
        "behavior": {"kind": "eps_greedy", "eps": 0.3},
        "n_behavior_trajectories": 20,
        "model": {"kind": "env_analytic"},
        "selector": {"mcts_budget": 32},
        "sim": {"n_rollouts": 2, "horizon": 60, "gamma": 1.0},
        "estimators": ["mcts_moe"],
        "seed": seed,
        "rollout_log": True,
    }


def _windy_batch250(seed: int) -> dict:
    # the `reproduce consistency` config at its largest batch, seeded the way
    # reproduce_consistency seeds it
    from moesim.experiments import derive_seed
    from moesim.reproduce import windy_consistency_config

    cfg = windy_consistency_config(seed=derive_seed(seed, 250))
    cfg["n_behavior_trajectories"] = 250
    cfg["rollout_log"] = True
    return cfg


def _acrobot_dr(seed: int) -> dict:
    return {
        "name": "bench-acrobot-dr",
        "env": {"kind": "acrobot", "horizon": 200},
        "behavior": {"kind": "eps_greedy", "eps": 0.1},
        "n_behavior_trajectories": 6,
        "model": {"kind": "ridge"},
        "sim": {"n_rollouts": 8, "horizon": 200, "gamma": 1.0},
        "estimators": ["moe", "DR", "WDR"],
        "seed": seed,
        "rollout_log": True,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], dict]
    headline: str  # estimator whose error is value_abs_err
    timed_reps: tuple[int, ...]
    rep_s: float  # typical seconds per repetition here; sets the number of rounds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("windy_mcts", _windy_mcts, "mcts_moe", (0,), 3.3),
        Workload("windy_batch250", _windy_batch250, "moe", (0,), 5.0),
        Workload("acrobot_dr", _acrobot_dr, "DR", (0,), 8.5),
    )
}
