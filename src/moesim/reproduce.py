"""Canned experiment reproductions behind the `reproduce` CLI subcommand.

Three studies ship with documented default configs:

* table1       the windy 2-D comparison of the standalone experts against
               the greedy mixture (sign pattern of the value estimates)
* table2       the planning toy with oracle errors, including the search
               over simulation horizons (the published numbers omit the
               horizon, so the search reports whether any small horizon
               reproduces them exactly; the estimator ordering is the
               robust outcome)
* consistency  windy 2-D value RMSE of the greedy mixture as the behavior
               batch grows
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    derive_seed,
    run_experiment,
    run_repetition,
    validate_config,
)


def windy_table1_config(seed: int = 0, n_repetitions: int = 100) -> dict:
    return {
        "name": "windy2d-value-comparison",
        "env": {"kind": "windy2d"},
        "behavior": {"kind": "env_scripted"},
        "n_behavior_trajectories": 10,
        "model": {"kind": "env_analytic"},
        "sim": {"n_rollouts": 8, "horizon": 60, "gamma": 1.0},
        "estimators": ["p", "np", "moe"],
        "n_repetitions": n_repetitions,
        "n_true_rollouts": 20,
        "seed": seed,
    }


def planning_toy_config(horizon: int, reward_variant: str, seed: int = 0) -> dict:
    return {
        "name": f"planning-toy-{reward_variant}",
        "env": {"kind": "planning_toy", "horizon": horizon},
        "behavior": {"kind": "env_scripted"},
        "n_behavior_trajectories": 2,
        "model": {"kind": "env_analytic", "reward_variant": reward_variant},
        "selector": {"mcts_budget": 256},
        "sim": {"n_rollouts": 1, "horizon": horizon, "gamma": 1.0},
        "estimators": ["p", "np", "moe_true", "mcts_moe_true"],
        "n_repetitions": 1,
        "n_true_rollouts": 1,
        "seed": seed,
        # the oracle-error studies grant the true Lipschitz constants:
        # unit-slope translations and a coordinate-sum reward
        "bound": {"l_t": 1.0, "l_r": math.sqrt(2.0)},
        "initial_states": [[0.0, 0.0]],
        "eps_traj": True,
    }


def windy_consistency_config(seed: int = 0, n_repetitions: int = 20) -> dict:
    return {
        "name": "windy2d-consistency",
        "env": {"kind": "windy2d"},
        "behavior": {"kind": "eps_greedy", "eps": 0.5},
        "n_behavior_trajectories": 10,  # overridden per batch size
        "model": {"kind": "env_analytic"},
        "sim": {"n_rollouts": 24, "horizon": 60, "gamma": 1.0},
        "estimators": ["moe"],
        "n_repetitions": n_repetitions,
        "n_true_rollouts": 100,
        "seed": seed,
        "eps_traj": False,
    }


# Published reference values for the planning toy (absolute value-estimate
# errors), keyed by reward-model variant, in estimator order
# (parametric, nonparametric, greedy mixture, planned mixture).
TABLE2_TARGETS = {
    "accurate": (32.5, 39.0, 39.5, 17.0),
    "inaccurate": (46.5, 39.0, 41.5, 19.5),
}
TABLE2_ESTIMATORS = ("p", "np", "moe_true", "mcts_moe_true")
TABLE2_DEFAULT_HORIZON = 16  # nonparametric error matches both rows here


def reproduce_table1(seed: int = 0, jobs: int = 1, n_repetitions: int = 100) -> dict:
    """Run the windy comparison and check the qualitative pattern per rep:
    nonparametric never reaches the goal, parametric overestimates, and the
    mixture lands strictly closest to the truth."""
    report = run_experiment(windy_table1_config(seed, n_repetitions), jobs=jobs)
    checks = []
    for rec in report.per_repetition:
        est = rec["estimates"]
        v = rec["v_true"]
        np_capped = est["np"]["capped"]
        p_over = est["p"]["v_hat"] > v
        moe_best = abs(est["moe"]["v_hat"] - v) < min(
            abs(est["p"]["v_hat"] - v), abs(est["np"]["v_hat"] - v)
        )
        checks.append(bool(np_capped and p_over and moe_best))
    return {
        "name": "table1",
        "package_version": __version__,
        "report": json.loads(report.to_json()),
        "pattern_fraction": sum(checks) / len(checks),
        "pattern_by_rep": checks,
    }


def _toy_errors(horizon: int, variant: str, seed: int,
                estimators: tuple[str, ...] = TABLE2_ESTIMATORS) -> dict[str, float]:
    cfg = validate_config(planning_toy_config(horizon, variant, seed))
    cfg["estimators"] = list(estimators)
    rec = run_repetition(cfg, 0)
    return {
        name: abs(rec["estimates"][name]["v_hat"] - rec["v_true"])
        for name in estimators
    }


def search_table2_horizon(seed: int = 0) -> dict:
    """Scan simulation horizons 2 to 24 for one reproducing the published
    error quadruples exactly (both reward-model variants).

    The cheap estimators gate the scan; the planned mixture only runs when
    they already match.  Returns the matching horizon (or None) plus the
    per-horizon errors of the gate estimators.
    """
    gate = ("p", "np", "moe_true")
    scanned = {}
    match = None
    for h in range(2, 25):
        errs = {}
        ok = True
        for variant, target in TABLE2_TARGETS.items():
            e = _toy_errors(h, variant, seed, estimators=gate)
            errs[variant] = e
            ok = ok and all(
                abs(e[name] - target[i]) < 1e-9 for i, name in enumerate(gate)
            )
        scanned[h] = errs
        if ok:
            full = {
                variant: _toy_errors(h, variant, seed)
                for variant in TABLE2_TARGETS
            }
            if all(
                abs(full[variant]["mcts_moe_true"] - TABLE2_TARGETS[variant][3]) < 1e-9
                for variant in TABLE2_TARGETS
            ):
                match = h
                break
    return {"match": match, "scanned": {str(h): v for h, v in scanned.items()}}


def reproduce_table2(seed: int = 0) -> dict:
    """Errors of all four estimators on both reward-model variants, at the
    horizon recovered by the search (or the pinned default when the search
    finds no exact reproduction)."""
    found = search_table2_horizon(seed=seed)
    horizon = found["match"] if found["match"] is not None else TABLE2_DEFAULT_HORIZON
    rows = {}
    ordering = {}
    for variant, target in TABLE2_TARGETS.items():
        errs = _toy_errors(horizon, variant, seed)
        rows[variant] = errs
        ordering[variant] = {
            "mcts_strictly_smallest": all(
                errs["mcts_moe_true"] < errs[o] for o in ("p", "np", "moe_true")
            ),
            "greedy_worse_than_mcts": errs["moe_true"] > errs["mcts_moe_true"],
            "published": list(target),
        }
    return {
        "name": "table2",
        "package_version": __version__,
        "horizon": horizon,
        "exact_match_horizon": found["match"],
        "errors": rows,
        "ordering": ordering,
    }


def reproduce_consistency(
    seed: int = 0,
    jobs: int = 1,
    batch_sizes: tuple[int, ...] = (10, 50, 250),
    n_repetitions: int = 20,
) -> dict:
    """Median value-RMSE of the greedy mixture as the behavior batch grows."""
    # each batch's config seed is derived from the master seed, so check that first
    validate_config(windy_consistency_config(seed, n_repetitions))
    medians = {}
    details = {}
    for n_traj in batch_sizes:
        cfg = windy_consistency_config(seed=derive_seed(seed, n_traj), n_repetitions=n_repetitions)
        cfg["n_behavior_trajectories"] = n_traj
        report = run_experiment(cfg, jobs=jobs)
        errs = [
            abs(rec["estimates"]["moe"]["v_hat"] - rec["v_true"])
            for rec in report.per_repetition
        ]
        medians[n_traj] = float(np.median(errs))
        details[str(n_traj)] = errs
    sizes = list(batch_sizes)
    decreasing = all(medians[a] > medians[b] for a, b in zip(sizes, sizes[1:]))
    return {
        "name": "consistency",
        "package_version": __version__,
        "batch_sizes": sizes,
        "median_abs_error": {str(k): v for k, v in medians.items()},
        "per_rep_abs_error": details,
        "strictly_decreasing": decreasing,
    }


def write_report(payload: dict, out_dir: str | Path, filename: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / filename
    path.write_text(json.dumps(payload, sort_keys=True, indent=1))
    return path
