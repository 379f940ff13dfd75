"""Experiment orchestration: config-driven data generation, model fitting,
estimator execution, aggregation, and error-map export.

Configs are plain nested dicts (JSON on disk), validated against a schema
so mistakes are reported with their field path.  Every repetition derives
its own seeds from the master seed and its index, so repetitions are
independent and can run in any order or in parallel with identical
results.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from jsonschema import Draft7Validator

from . import __version__
from .baselines import ISInput, ModelValueFunctions, is_estimate
from .core import Dataset, Metric, Policy, Trajectory
from .envs import (
    AcrobotConfig,
    ODESpec,
    Windy2DConfig,
    acrobot_heuristic_policy,
    filter_dataset_by_height,
    make_acrobot,
    make_eps_greedy,
    make_planning_toy,
    make_windy2d,
    ode_env,
    planning_toy_parametric_model,
    planning_toy_policies,
)
from .envs.base import Environment, generate_trajectories
from .envs.planning_toy import BEHAVIOR_STARTS
from .envs.windy import windy_behavior_policy, windy_eval_policy, windy_no_wind_model
from .errors import BoundParams, choose_radius, global_lipschitz, parametric_residuals
from .errors import InsufficientPairsError, LipschitzEstimates
from .models import (
    NONPARAMETRIC,
    PARAMETRIC,
    NonparametricModel,
    NoSupportError,
    ParametricFitConfig,
    fit_parametric,
)
from .selection import SelectionContext, SelectorConfig, greedy_select
from .simulator import SimConfig, rollout_policy, simulate_value, trajectory_error
from .simulator import evaluate_policy_true

MODEL_ESTIMATORS = ("p", "np", "moe", "mcts_moe", "moe_true", "mcts_moe_true")
IS_ESTIMATORS = ("IS", "WIS", "PDIS", "CWPDIS", "DR", "WDR")


def derive_seed(master: int, *path: int) -> int:
    """Deterministic child seed from the master seed and an index path."""
    ss = np.random.SeedSequence([int(master), *[int(p) for p in path]])
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def _requires_for(kind: str, *fields: str) -> dict:
    """Schema clause: an object whose `kind` is `kind` must name `fields`."""
    return {
        "if": {"properties": {"kind": {"const": kind}}, "required": ["kind"]},
        "then": {"required": list(fields)},
    }


CONFIG_SCHEMA = {
    "type": "object",
    "required": ["name", "env", "behavior", "model", "sim", "estimators"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "env": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["windy2d", "planning_toy", "acrobot", "ode"]},
                "horizon": {"type": "integer", "minimum": 1},
                "wind_slope": {"type": "number", "minimum": 0},
                "step_size": {"type": "number", "exclusiveMinimum": 0},
                "goal_box": {"type": "array"},
                "start_box": {"type": "array"},
                "goal_height": {"type": "number"},
                "height_filter": {"type": ["number", "null"]},
                "spec_path": {"type": "string"},
            },
            **_requires_for("ode", "spec_path"),
        },
        "behavior": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["env_scripted", "eps_greedy"]},
                "eps": {"type": "number", "minimum": 0, "maximum": 1},
                "trigger": {
                    "type": ["object", "null"],
                    "required": ["dim", "greater_than"],
                    "additionalProperties": False,
                    "properties": {
                        "dim": {"type": "integer", "minimum": 0},
                        "greater_than": {"type": "number"},
                    },
                },
            },
            **_requires_for("eps_greedy", "eps"),
        },
        "eval_policy": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["env_default", "constant_action"]},
                "action": {"type": "integer", "minimum": 0},
            },
            **_requires_for("constant_action", "action"),
        },
        "n_behavior_trajectories": {"type": "integer", "minimum": 1},
        "model": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["env_analytic", "ridge", "mlp"]},
                "reward_variant": {"enum": ["accurate", "inaccurate"]},
                "ridge_lambda": {"type": "number", "minimum": 0},
                "hidden": {"type": "integer", "minimum": 1},
                "layers": {"type": "integer", "minimum": 1, "maximum": 2},
                "epochs": {"type": "integer", "minimum": 1},
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "metric_weights": {
            "type": ["array", "null"],
            "items": {"type": "number", "exclusiveMinimum": 0},
        },
        "selector": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "alpha_r": {"type": "number", "minimum": 0},
                "mcts_budget": {"type": "integer", "minimum": 1},
            },
        },
        "sim": {
            "type": "object",
            "required": ["n_rollouts", "horizon", "gamma"],
            "additionalProperties": False,
            "properties": {
                "n_rollouts": {"type": "integer", "minimum": 1},
                "horizon": {"type": "integer", "minimum": 1},
                "gamma": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            },
        },
        "estimators": {
            "type": "array",
            "minItems": 1,
            "items": {"enum": list(MODEL_ESTIMATORS) + list(IS_ESTIMATORS)},
        },
        "n_repetitions": {"type": "integer", "minimum": 1},
        "n_true_rollouts": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "bound": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "l_t": {"type": ["number", "null"], "minimum": 0},
                "l_r": {"type": ["number", "null"], "minimum": 0},
            },
        },
        "initial_states": {"type": ["array", "null"]},
        "eps_traj": {"type": "boolean"},
        "mcts_trace": {"type": "boolean"},
        "rollout_log": {"type": "boolean"},
    },
}

_DEFAULTS = {
    "eval_policy": {"kind": "env_default"},
    "n_behavior_trajectories": 10,
    "metric_weights": None,
    "selector": {},
    "n_repetitions": 1,
    "n_true_rollouts": 20,
    "seed": 0,
    "bound": {},
    "initial_states": None,
    "eps_traj": True,
    "mcts_trace": False,
    "rollout_log": False,
}

_SELECTOR_DEFAULTS = {
    "alpha_r": 0.0,
    "mcts_budget": 128,
}


def schema_reference() -> dict:
    """The config schema plus every default, for the CLI's generated
    documentation."""
    return {
        "schema": CONFIG_SCHEMA,
        "defaults": dict(_DEFAULTS),
        "selector_defaults": dict(_SELECTOR_DEFAULTS),
    }


class ConfigError(ValueError):
    """Invalid experiment config; the message carries the field path."""


def validate_config(cfg: dict) -> dict:
    """Validate and return the config with defaults filled in."""
    errors = sorted(
        Draft7Validator(CONFIG_SCHEMA).iter_errors(cfg), key=lambda e: e.json_path
    )
    if errors:
        msgs = "; ".join(f"{e.json_path}: {e.message}" for e in errors)
        raise ConfigError(msgs)
    merged = dict(_DEFAULTS)
    merged.update(cfg)
    return merged


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _box(value, fallback):
    if value is None:
        return fallback
    (x0, x1), (y0, y1) = value
    return ((float(x0), float(x1)), (float(y0), float(y1)))


def build_env(env_cfg: dict):
    """Returns (environment, env handle) where the handle keeps whatever the
    scripted policies and analytic models need (configs, specs)."""
    kind = env_cfg["kind"]
    if kind == "windy2d":
        cfg = Windy2DConfig(
            step_size=env_cfg.get("step_size", 1.0),
            wind_slope=env_cfg.get("wind_slope", 0.03),
            goal_box=_box(env_cfg.get("goal_box"), Windy2DConfig().goal_box),
            start_box=_box(env_cfg.get("start_box"), Windy2DConfig().start_box),
            horizon=env_cfg.get("horizon", 60),
        )
        return make_windy2d(cfg), cfg
    if kind == "planning_toy":
        horizon = env_cfg.get("horizon", 16)
        return make_planning_toy(horizon), horizon
    if kind == "acrobot":
        cfg = AcrobotConfig(
            goal_height=env_cfg.get("goal_height", 1.0),
            horizon=env_cfg.get("horizon", 300),
        )
        return make_acrobot(cfg), cfg
    if kind == "ode":
        spec = ODESpec.from_json(env_cfg["spec_path"])
        return ode_env(spec), spec
    raise ConfigError(f"env.kind: unknown environment {kind!r}")


def _check_fits_env(cfg: dict, env: Environment) -> None:
    """Reject config values that must fit the built environment's action
    count or state dimension, naming the field."""
    kind = cfg["env"]["kind"]
    pol = cfg["eval_policy"]
    if pol.get("kind") == "constant_action" and pol["action"] >= env.n_actions:
        raise ConfigError(
            f"eval_policy.action: {pol['action']} is not an action of {kind} "
            f"(actions 0..{env.n_actions - 1})"
        )
    trigger = cfg["behavior"].get("trigger")
    if trigger and trigger["dim"] >= env.dim:
        raise ConfigError(
            f"behavior.trigger.dim: {trigger['dim']} is not a dimension of {kind} "
            f"(dimensions 0..{env.dim - 1})"
        )
    weights = cfg["metric_weights"]
    if weights and len(weights) != env.dim:
        raise ConfigError(
            f"metric_weights: {len(weights)} entries for the {env.dim}-D states of {kind}"
        )


def build_eval_policy(cfg: dict, env: Environment, handle) -> Policy:
    pol_cfg = cfg.get("eval_policy", {"kind": "env_default"})
    if pol_cfg.get("kind", "env_default") == "constant_action":
        a = pol_cfg["action"]
        return Policy.deterministic(lambda x: a, env.n_actions)
    kind = cfg["env"]["kind"]
    if kind == "windy2d":
        return windy_eval_policy(handle)
    if kind == "planning_toy":
        return planning_toy_policies()[0]
    if kind == "acrobot":
        return acrobot_heuristic_policy()
    return Policy.deterministic(lambda x: 0, env.n_actions)


def build_behavior_policy(cfg: dict, env: Environment, handle, eval_policy: Policy) -> Policy:
    beh = cfg["behavior"]
    if beh["kind"] == "env_scripted":
        kind = cfg["env"]["kind"]
        if kind == "windy2d":
            return windy_behavior_policy(handle)
        if kind == "planning_toy":
            return planning_toy_policies()[1]
        return eval_policy
    trigger = None
    if beh.get("trigger"):
        dim = beh["trigger"]["dim"]
        threshold = beh["trigger"]["greater_than"]
        trigger = lambda x: x[dim] > threshold  # noqa: E731
    return make_eps_greedy(eval_policy, beh["eps"], trigger=trigger)


def build_parametric(cfg: dict, dataset: Dataset, handle):
    model_cfg = cfg["model"]
    kind = model_cfg["kind"]
    if kind == "env_analytic":
        env_kind = cfg["env"]["kind"]
        if env_kind == "windy2d":
            return windy_no_wind_model(handle)
        if env_kind == "planning_toy":
            return planning_toy_parametric_model(
                model_cfg.get("reward_variant", "accurate")
            )
        raise ConfigError(f"model.kind: no analytic model for env {env_kind!r}")
    if kind == "ridge":
        fit_cfg = ParametricFitConfig(
            learner="ridge_per_action",
            ridge_lambda=model_cfg.get("ridge_lambda", 1e-6),
            seed=model_cfg.get("seed", 0),
        )
        return fit_parametric(dataset, fit_cfg)
    fit_cfg = ParametricFitConfig(
        learner="mlp",
        mlp_hidden=model_cfg.get("hidden", 64),
        mlp_layers=model_cfg.get("layers", 1),
        mlp_epochs=model_cfg.get("epochs", 2000),
        mlp_learning_rate=model_cfg.get("learning_rate", 0.05),
        seed=model_cfg.get("seed", 0),
    )
    return fit_parametric(dataset, fit_cfg)


# ---------------------------------------------------------------------------
# From config to SelectionContext
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Batch:
    """The data stage of one repetition: the environment, the evaluation
    policy, the behavior rollouts with their logged action probabilities,
    and the datasets built from them."""

    env: Environment
    handle: object
    eval_policy: Policy
    trajectories: list[Trajectory]
    probs: list[np.ndarray]
    dataset: Dataset  # every logged transition; the parametric expert fits on it
    visible: Dataset  # after env.height_filter; what the nonparametric expert reads


def generate_batch(cfg: dict, rep: int) -> Batch:
    """Roll out the behavior policy of a validated config for repetition
    `rep` and build its datasets."""
    env, handle = build_env(cfg["env"])
    _check_fits_env(cfg, env)
    eval_policy = build_eval_policy(cfg, env, handle)
    behavior = build_behavior_policy(cfg, env, handle, eval_policy)
    starts = BEHAVIOR_STARTS if cfg["env"]["kind"] == "planning_toy" else None
    trajectories, probs = generate_trajectories(
        env, behavior, cfg["n_behavior_trajectories"],
        seed=derive_seed(cfg["seed"], rep, 0), starts=starts,
    )
    dataset = Dataset.from_trajectories(trajectories, env.n_actions)
    height = cfg["env"].get("height_filter")
    visible = dataset if height is None else filter_dataset_by_height(dataset, height)
    return Batch(env, handle, eval_policy, trajectories, probs, dataset, visible)


def build_context(cfg: dict, rep: int) -> tuple[Batch, SelectionContext]:
    """The data stage of a validated config's repetition `rep`, and the
    selection context over it: both experts, the parametric residuals, the
    global Lipschitz ratios, the radius C = mean residual / l_t, and the
    bound constants (the config's `bound` entries override the estimated
    ratios).  The context estimates errors; `ctx.oracle()` shares its scans
    for the oracle estimators."""
    batch = generate_batch(cfg, rep)
    env, ds = batch.env, batch.visible
    metric = (
        Metric(np.array(cfg["metric_weights"]))
        if cfg["metric_weights"]
        else Metric.euclidean(env.dim)
    )
    parametric = build_parametric(cfg, batch.dataset, batch.handle)
    residuals = parametric_residuals(ds, parametric, metric)
    try:
        lips = global_lipschitz(ds, metric)
    except InsufficientPairsError:
        lips = LipschitzEstimates(0.0, 0.0, 0)
    radius = choose_radius(residuals[0], lips.l_t)
    override = cfg["bound"]
    bound = BoundParams(
        l_t=lips.l_t if override.get("l_t") is None else override["l_t"],
        l_r=lips.l_r if override.get("l_r") is None else override["l_r"],
        gamma=cfg["sim"]["gamma"],
    )
    ctx = SelectionContext(
        parametric, NonparametricModel(ds, metric), ds, metric, radius, bound,
        batch.eval_policy, lips, residuals,
        alpha_r=cfg["selector"].get("alpha_r", _SELECTOR_DEFAULTS["alpha_r"]),
        true_step=env.step, is_terminal=env.is_terminal,
    )
    return batch, ctx


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------


class RepetitionError(RuntimeError):
    """A runtime failure inside one repetition; the message names the
    repetition and the stage (data and context, truth rollouts, IS inputs,
    or an estimator) before the original error's message, which is chained
    as the cause."""


@contextmanager
def _stage(rep: int, stage: str):
    """Re-raise a runtime error of `stage` as a `RepetitionError`; config
    errors pass through unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except Exception as exc:
        raise RepetitionError(f"repetition {rep}, {stage}: {exc}") from exc


def run_repetition(cfg: dict, rep: int) -> dict:
    """Generate data, fit models, run every requested estimator once.

    Pure function of (validated config, repetition index): all randomness
    flows from seeds derived off the master seed and `rep`, so repetitions
    can run in any order.  A runtime failure raises `RepetitionError`,
    naming `rep` and the stage it happened in.
    """
    with _stage(rep, "data and context"):
        batch, ctx_est = build_context(cfg, rep)
    env, eval_policy, metric = batch.env, batch.eval_policy, ctx_est.metric
    sim_cfg = cfg["sim"]
    gamma = sim_cfg["gamma"]
    horizon = sim_cfg["horizon"]
    ctx_true = ctx_est.oracle() if any(
        name.endswith("_true") for name in cfg["estimators"]
    ) else None

    with _stage(rep, "truth rollouts"):
        v_true = evaluate_policy_true(
            env, eval_policy, cfg["n_true_rollouts"], horizon, gamma,
            seed=derive_seed(cfg["seed"], rep, 1),
        )
    initial_override = (
        [np.array(s, dtype=np.float64) for s in cfg["initial_states"]]
        if cfg["initial_states"]
        else None
    )

    budget = cfg["selector"].get("mcts_budget", _SELECTOR_DEFAULTS["mcts_budget"])
    record: dict = {"rep": rep, "v_true": v_true, "radius": ctx_est.radius, "estimates": {}}
    for name in cfg["estimators"]:
        if name in IS_ESTIMATORS:
            continue
        forced = {"p": PARAMETRIC, "np": NONPARAMETRIC}.get(name)
        mode = "mcts" if name.startswith("mcts") else "greedy"
        ctx = ctx_true if name.endswith("_true") else ctx_est
        sel = SelectorConfig(mode=mode, mcts_budget=budget)
        trace = [] if (cfg["mcts_trace"] and mode == "mcts") else None
        with _stage(rep, f"estimator {name}"):
            estimate = simulate_value(
                ctx,
                SimConfig(
                    n_rollouts=sim_cfg["n_rollouts"], horizon=horizon, gamma=gamma,
                    selector=sel, seed=derive_seed(cfg["seed"], rep, 3),
                ),
                initial_states=initial_override,
                forced_model=forced,
                mcts_trace=trace,
            )
            entry = {
                "v_hat": estimate.v_hat,
                "n_unreached_goal": estimate.n_unreached_goal,
                "capped": estimate.capped,
                "model_usage": estimate.model_usage,
            }
            if cfg["eps_traj"]:
                entry["eps_traj"] = _mean_traj_error(
                    env, eval_policy, estimate.trajectories, metric, horizon,
                    derive_seed(cfg["seed"], rep, 4),
                )
        if trace is not None:
            entry["mcts_trace"] = trace
        if cfg["rollout_log"]:
            entry["rollouts"] = estimate.rollout_records
        record["estimates"][name] = entry

    requested_is = [name for name in cfg["estimators"] if name in IS_ESTIMATORS]
    if requested_is:
        with _stage(rep, "IS inputs"):
            is_input = ISInput.build(
                batch.trajectories, batch.probs, eval_policy, gamma,
            )
            value_model = None
            if any(name in ("DR", "WDR") for name in requested_is):
                value_model = ModelValueFunctions(
                    ctx_est.parametric, eval_policy, horizon, gamma,
                    is_terminal=env.is_terminal, is_terminal_many=env.is_terminal_many,
                )
        for name in requested_is:
            with _stage(rep, f"estimator {name}"):
                record["estimates"][name] = {
                    "v_hat": is_estimate(is_input, name, value_model=value_model)
                }
    return record


def _mean_traj_error(env, policy, sim_trajectories, metric, horizon, seed) -> float:
    errs = []
    for i, sim in enumerate(sim_trajectories):
        if not sim.transitions:
            continue
        rng = np.random.default_rng([seed, i])
        truth = rollout_policy(env, policy, sim.transitions[0].x, horizon, rng)
        errs.append(trajectory_error(sim, truth, metric))
    return float(np.mean(errs)) if errs else 0.0


# ---------------------------------------------------------------------------
# Full experiment
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    """Per-repetition records plus aggregates; serializes to stable JSON."""

    name: str
    config: dict
    per_repetition: list[dict]
    aggregates: dict

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "package_version": __version__,
            "config": self.config,
            "per_repetition": self.per_repetition,
            "aggregates": self.aggregates,
        }
        return json.dumps(payload, sort_keys=True, indent=1)


def _worker(args: tuple[str, int]) -> dict:
    cfg_json, rep = args
    return run_repetition(json.loads(cfg_json), rep)


def run_experiment(
    cfg: dict, jobs: int = 1, rep_order: Sequence[int] | None = None
) -> ExperimentReport:
    """Run all repetitions and aggregate RMSEs.

    `rep_order` only reorders execution; the report is always sorted by
    repetition index and identical for any order (seed isolation).
    """
    cfg = validate_config(cfg)
    order = list(rep_order) if rep_order is not None else list(range(cfg["n_repetitions"]))
    if sorted(order) != list(range(cfg["n_repetitions"])):
        raise ValueError("rep_order must be a permutation of the repetitions")
    if jobs > 1:
        cfg_json = json.dumps(cfg)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_worker, [(cfg_json, r) for r in order]))
    else:
        records = [run_repetition(cfg, r) for r in order]
    records.sort(key=lambda r: r["rep"])
    return ExperimentReport(
        name=cfg["name"],
        config=cfg,
        per_repetition=records,
        aggregates=aggregate(cfg, records),
    )


def aggregate(cfg: dict, records: list[dict]) -> dict:
    """RMSE against the per-repetition true value, mean trajectory error,
    and RMSE relative to plain importance sampling when it was run."""
    out: dict = {}
    names = cfg["estimators"]
    for name in names:
        sq = []
        traj_errs = []
        for rec in records:
            est = rec["estimates"][name]
            sq.append((est["v_hat"] - rec["v_true"]) ** 2)
            if "eps_traj" in est:
                traj_errs.append(est["eps_traj"])
        entry = {"rmse": math.sqrt(sum(sq) / len(sq))}
        if traj_errs:
            entry["mean_eps_traj"] = float(np.mean(traj_errs))
        out[name] = entry
    if "IS" in names and out["IS"]["rmse"] > 0:
        for name in names:
            out[name]["relative_rmse"] = out[name]["rmse"] / out["IS"]["rmse"]
    return out


# ---------------------------------------------------------------------------
# Error maps
# ---------------------------------------------------------------------------

MAP_HEADER = (
    "x0,x1,action,true_eps_np,est_eps_np,true_eps_p,est_eps_p,selected,correct"
)


def emit_error_maps(cfg: dict, grid: dict, out_path: str | Path) -> list[dict]:
    """For every grid point and action on a 2-D domain: true and estimated
    one-step errors of both experts, the greedy selection, and whether it
    matched the truly-better expert.  Actions neither expert can simulate
    are left out.  Writes the CSV and returns the rows."""
    cfg = validate_config(cfg)
    if grid["resolution"] < 1:
        raise ConfigError("resolution: the grid needs at least 1 point per axis")
    if build_env(cfg["env"])[0].dim != 2:
        raise ConfigError("env.kind: error maps need a 2-D environment")
    batch, ctx = build_context(cfg, 0)
    env = batch.env

    (x_lo, x_hi) = grid["x_range"]
    (y_lo, y_hi) = grid["y_range"]
    n = grid["resolution"]
    rows = []
    for x0 in np.linspace(x_lo, x_hi, n):
        for x1 in np.linspace(y_lo, y_hi, n):
            x = np.array([x0, x1])
            for a in range(env.n_actions):
                if ctx.available_models(a):
                    rows.append(_map_row(ctx, env, x, a))
    with Path(out_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MAP_HEADER.split(","))
        for row in rows:
            writer.writerow(
                [
                    repr(row["x0"]), repr(row["x1"]), row["action"],
                    repr(row["true_eps_np"]), repr(row["est_eps_np"]),
                    repr(row["true_eps_p"]), repr(row["est_eps_p"]),
                    row["selected"], int(row["correct"]),
                ]
            )
    return rows


def _true_error(ctx: SelectionContext, kind: str, x: np.ndarray, a: int, true_next) -> float:
    """Actual one-step state error of one expert; inf where it has no
    prediction for action a."""
    try:
        pred_next, _ = ctx.model(kind).predict(x, a)
    except NoSupportError:
        return math.inf
    return ctx.metric.distance(true_next, pred_next)


def _map_row(ctx: SelectionContext, env, x: np.ndarray, a: int) -> dict:
    true_next, _ = env.step(x, a)
    true_np = _true_error(ctx, NONPARAMETRIC, x, a, true_next)
    true_p = _true_error(ctx, PARAMETRIC, x, a, true_next)
    est_np = ctx.estimate(NONPARAMETRIC, x, a)
    est_p = ctx.estimate(PARAMETRIC, x, a)
    selected = greedy_select(ctx, x, a)
    label = selected
    if selected == PARAMETRIC and not est_np.supported:
        label = "parametric_fallback"
    better_np = true_np < true_p
    correct = (selected == NONPARAMETRIC) == better_np or true_np == true_p
    return {
        "x0": float(x[0]),
        "x1": float(x[1]),
        "action": a,
        "true_eps_np": float(true_np),
        "est_eps_np": float(est_np.eps_t),
        "true_eps_p": float(true_p),
        "est_eps_p": float(est_p.eps_t),
        "selected": label,
        "correct": bool(correct),
    }
