"""Experiment orchestration: config-driven data generation, model fitting,
estimator execution, aggregation, and error-map export.

Configs are plain nested dicts (JSON on disk), validated against a JSON
Schema by a small checker of this module, so mistakes are reported with
their field path.  Every repetition derives its own seeds from the master
seed and its index, so repetitions are independent and can run in any
order or in parallel with identical results.
"""

from __future__ import annotations

import copy
import json
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from numbers import Number
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .baselines import VARIANTS as IS_ESTIMATORS
from .baselines import ISInput, ModelValueFunctions, is_estimate
from .core import Dataset, Metric, Policy, Trajectory
from .envs import (
    acrobot_heuristic_policy,
    make_acrobot,
    make_eps_greedy,
    make_planning_toy,
    make_windy2d,
    planning_toy_parametric_model,
    planning_toy_policies,
)
from .envs.acrobot import tip_heights
from .envs.base import Environment, generate_trajectories
from .envs.planning_toy import BEHAVIOR_STARTS, REWARD_VARIANTS
from .envs.windy import windy_behavior_policy, windy_eval_policy, windy_no_wind_model
from .errors import BoundParams, choose_radius, global_lipschitz, parametric_residuals
from .models import (
    NONPARAMETRIC,
    PARAMETRIC,
    DynamicsModel,
    MLPModel,
    NonparametricModel,
    RidgePerActionModel,
)
from .selection import SelectionContext, greedy_select
from .simulator import SimConfig, rollout_policy, simulate_value, trajectory_error
from .simulator import evaluate_policy_true

MODEL_ESTIMATORS = ("p", "np", "moe", "mcts_moe", "moe_true", "mcts_moe_true")


def derive_seed(master: int, *path: int) -> int:
    """Deterministic child seed from the master seed and an index path."""
    ss = np.random.SeedSequence([int(master), *[int(p) for p in path]])
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

REQUIRED = "<required>"

# Every key of a config section, with its default, stated once: the builders
# read a section through `settings`, and `moesim schema` prints this table.
# A section with a `kind` accepts only the keys of its kind, and must give
# those marked REQUIRED.  `validate_config` fills in none of these, so a
# report embeds each section as it was written.
SECTIONS = {
    "env": {
        "windy2d": {"horizon": 60},
        "planning_toy": {"horizon": 16},
        "acrobot": {"horizon": 300, "height_filter": None},
    },
    "behavior": {
        "env_scripted": {},
        "eps_greedy": {"eps": REQUIRED},
    },
    "eval_policy": {
        "env_default": {},
        "constant_action": {"action": REQUIRED},
    },
    "model": {
        "env_analytic": {"reward_variant": "accurate"},
        "ridge": {"ridge_lambda": 1e-6},
        "mlp": {"hidden": 64, "layers": 1, "epochs": 2000, "learning_rate": 0.05, "seed": 0},
    },
    "selector": {"mcts_budget": 128},
    "bound": {"l_t": None, "l_r": None},  # None: the estimated ratio
}
_KINDED = ("env", "behavior", "eval_policy", "model")


def settings(section: str, given: dict) -> dict:
    """A validated config section with the defaults of its kind filled in."""
    table = SECTIONS[section]
    return {**(table[given["kind"]] if section in _KINDED else table), **given}


def _kinded(section: str, properties: dict) -> dict:
    """Schema of a section with a `kind`, one of the table's kinds."""
    return {
        "type": "object",
        "required": ["kind"],
        "additionalProperties": False,
        "properties": {"kind": {"enum": list(SECTIONS[section])}, **properties},
    }


CONFIG_SCHEMA = {
    "type": "object",
    "required": ["name", "env", "behavior", "model", "sim", "estimators"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "env": _kinded("env", {
            "horizon": {"type": "integer", "minimum": 1},
            "height_filter": {"type": ["number", "null"]},
        }),
        "behavior": _kinded("behavior", {
            "eps": {"type": "number", "minimum": 0, "maximum": 1},
        }),
        "eval_policy": _kinded("eval_policy", {
            "action": {"type": "integer", "minimum": 0},
        }),
        "n_behavior_trajectories": {"type": "integer", "minimum": 1},
        "model": _kinded("model", {
            "reward_variant": {"enum": list(REWARD_VARIANTS)},
            "ridge_lambda": {"type": "number", "minimum": 0},
            "hidden": {"type": "integer", "minimum": 1},
            "layers": {"type": "integer", "minimum": 1, "maximum": 2},
            "epochs": {"type": "integer", "minimum": 1},
            "learning_rate": {"type": "number", "exclusiveMinimum": 0},
            "seed": {"type": "integer", "minimum": 0},
        }),
        "metric_weights": {
            "type": ["array", "null"],
            "minItems": 1,
            "items": {"type": "number", "exclusiveMinimum": 0},
        },
        "selector": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
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
            "uniqueItems": True,
            "items": {"enum": list(MODEL_ESTIMATORS) + list(IS_ESTIMATORS)},
        },
        "n_repetitions": {"type": "integer", "minimum": 1},
        "n_true_rollouts": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "bound": {
            "type": "object",
            "additionalProperties": False,
            "properties": {k: {"type": ["number", "null"], "minimum": 0} for k in SECTIONS["bound"]},
        },
        "initial_states": {"type": ["array", "null"], "minItems": 1,
                           "items": {"type": "array", "items": {"type": "number"}}},
        "eps_traj": {"type": "boolean"},
        "mcts_trace": {"type": "boolean"},
        "rollout_log": {"type": "boolean"},
    },
}

# the top-level defaults, which `validate_config` fills in
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


def schema_reference() -> dict:
    """The config schema, the top-level defaults and every section's keys
    with their defaults, for the CLI's generated documentation."""
    return copy.deepcopy({"schema": CONFIG_SCHEMA, "defaults": _DEFAULTS, "sections": SECTIONS})


class ConfigError(ValueError):
    """Invalid experiment config; the message carries the field path."""


# JSON Schema's types, as jsonschema's Draft 7 checks them: a bool is
# neither an integer nor a number, and an integral float is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}
_BOUNDS = {  # keyword: (broken when, wording)
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
}


def _equal(a, b) -> bool:
    """jsonschema's equality, under which a bool equals only itself
    (`True != 1`) and arrays and objects compare item by item."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return len(a) == len(b) and all(k in b and _equal(v, b[k]) for k, v in a.items())
    return a is b or a == b


def _schema_errors(schema: dict, value, path: str = "$") -> list[tuple[str, str]]:
    """(JSON path, message) of every rule of the JSON Schema `schema` that
    `value` breaks, worded and ordered as jsonschema's
    `Draft7Validator.iter_errors` reports them: the keywords in the
    schema's order, depth first.  It knows only the keywords CONFIG_SCHEMA
    uses, and raises on any other, so no rule is skipped silently."""
    errors = []
    for keyword, rule in schema.items():
        if keyword == "type":
            types = [rule] if isinstance(rule, str) else rule
            if not any(_TYPES[t](value) for t in types):
                errors.append((path, f"{value!r} is not of type {', '.join(map(repr, types))}"))
        elif keyword == "enum":
            if not any(_equal(value, option) for option in rule):
                errors.append((path, f"{value!r} is not one of {rule!r}"))
        elif keyword in _BOUNDS:
            broken, wording = _BOUNDS[keyword]
            if _TYPES["number"](value) and broken(value, rule):
                errors.append((path, f"{value!r} {wording} {rule!r}"))
        elif keyword == "minItems":
            if isinstance(value, list) and len(value) < rule:
                wording = "should be non-empty" if rule == 1 else "is too short"
                errors.append((path, f"{value!r} {wording}"))
        elif keyword == "uniqueItems" and rule is True:
            if isinstance(value, list) and any(
                _equal(a, b) for i, a in enumerate(value) for b in value[:i]
            ):
                errors.append((path, f"{value!r} has non-unique elements"))
        elif keyword == "items" and isinstance(rule, dict):
            if isinstance(value, list):
                for i, item in enumerate(value):
                    errors += _schema_errors(rule, item, f"{path}[{i}]")
        elif keyword == "required":
            if isinstance(value, dict):
                errors += [(path, f"{key!r} is a required property")
                           for key in rule if key not in value]
        elif keyword == "properties":
            if isinstance(value, dict):
                for key, sub in rule.items():
                    if key in value:
                        errors += _schema_errors(sub, value[key], f"{path}.{key}")
        elif keyword == "additionalProperties" and rule is False:
            known = schema.get("properties", {})
            extras = [k for k in value if k not in known] if isinstance(value, dict) else []
            if extras:
                names = ", ".join(map(repr, sorted(extras, key=str)))
                verb = "was" if len(extras) == 1 else "were"
                errors.append(
                    (path, f"Additional properties are not allowed ({names} {verb} unexpected)")
                )
        else:
            raise ValueError(f"config schema rule {keyword}: {rule!r} is not checked")
    return errors


def _non_finite(value, path: str = "$") -> list[tuple[str, str]]:
    """(JSON path, message) of every NaN or infinite number in a config
    value; Python's `json` reads `NaN` and `Infinity`, and the schema's
    `number` accepts them."""
    if isinstance(value, float) and not math.isfinite(value):
        return [(path, f"{value} is not a finite number")]
    if isinstance(value, dict):
        return [e for key, v in value.items() for e in _non_finite(v, f"{path}.{key}")]
    if isinstance(value, list):
        return [e for i, v in enumerate(value) for e in _non_finite(v, f"{path}[{i}]")]
    return []


def _integers(schema: dict, value):
    """A valid config value with every number at an `"integer"` position of
    `schema` as an int; the schema's `integer` admits integral floats."""
    if isinstance(value, dict):
        return {k: _integers(schema.get("properties", {}).get(k, {}), v) for k, v in value.items()}
    if isinstance(value, list):
        return [_integers(schema.get("items", {}), v) for v in value]
    return int(value) if schema.get("type") == "integer" else value


def validate_config(cfg: dict) -> dict:
    """Validate and return the config with the top-level defaults filled in
    and its integer fields as ints.  Every number must be finite.  A
    section must give the keys its kind requires, and no key its kind does
    not read."""
    errors = sorted(_schema_errors(CONFIG_SCHEMA, cfg) + _non_finite(cfg), key=lambda e: e[0])
    if errors:
        raise ConfigError("; ".join(f"{path}: {message}" for path, message in errors))
    merged = {**copy.deepcopy(_DEFAULTS), **_integers(CONFIG_SCHEMA, cfg)}
    for section in _KINDED:
        kind = merged[section]["kind"]
        reads = SECTIONS[section][kind]
        for key in merged[section]:
            if key != "kind" and key not in reads:
                raise ConfigError(
                    f"{section}.{key}: {section} kind {kind!r} does not read it "
                    f"(it reads {', '.join(reads) or 'no other key'})"
                )
        for key, default in reads.items():
            if default is REQUIRED and key not in merged[section]:
                raise ConfigError(f"{section}.{key}: {section} kind {kind!r} requires it")
    return merged


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Task:
    """What one environment kind provides: the environment, its default
    evaluation policy, its scripted behavior policy, its analytic experts
    by reward variant (None when it has none), and, each only where the
    kind has one, the fixed starts of the behavior rollouts and the height
    of each state row that `env.height_filter` compares."""

    env: Environment
    eval_policy: Policy
    behavior_policy: Policy
    analytic: dict[str, Callable[[], DynamicsModel]] | None
    behavior_starts: tuple[np.ndarray, ...] | None = None
    height: Callable[[np.ndarray], np.ndarray] | None = None


def build_task(env_cfg: dict) -> Task:
    """The task of a validated `env` section: the one place that reads the
    environment kind."""
    env_cfg = settings("env", env_cfg)
    kind = env_cfg["kind"]
    if kind == "windy2d":
        return Task(  # one analytic expert, whose reward of -1 a step is exact
            make_windy2d(env_cfg["horizon"]), windy_eval_policy(), windy_behavior_policy(),
            # called through this module's global, which the benchmark's tracer wraps
            {"accurate": lambda: windy_no_wind_model()},
        )
    if kind == "planning_toy":
        return Task(
            make_planning_toy(env_cfg["horizon"]), *planning_toy_policies(),
            {v: (lambda v=v: planning_toy_parametric_model(v)) for v in REWARD_VARIANTS},
            behavior_starts=BEHAVIOR_STARTS,
        )
    env = make_acrobot(env_cfg["horizon"])
    heuristic = acrobot_heuristic_policy()
    return Task(env, heuristic, heuristic, None, height=tip_heights)


def _check_fits_env(cfg: dict, task: Task) -> None:
    """Reject config values that must fit the task: its action count, state
    dimension, horizon or analytic experts, naming the field."""
    env, kind = task.env, cfg["env"]["kind"]
    model = cfg["model"]
    if model["kind"] == "env_analytic" and task.analytic is None:
        raise ConfigError(f"model.kind: {kind} has no analytic model")
    if "reward_variant" in model and len(task.analytic) == 1:
        raise ConfigError(f"model.reward_variant: {kind} has one analytic model")
    pol = cfg["eval_policy"]
    if pol["kind"] == "constant_action" and pol["action"] >= env.n_actions:
        raise ConfigError(
            f"eval_policy.action: {pol['action']} is not an action of {kind} "
            f"(actions 0..{env.n_actions - 1})"
        )
    weights = cfg["metric_weights"]
    if weights and len(weights) != env.dim:
        raise ConfigError(
            f"metric_weights: {len(weights)} entries for the {env.dim}-D states of {kind}"
        )
    for i, state in enumerate(cfg["initial_states"] or ()):
        if len(state) != env.dim:
            raise ConfigError(f"initial_states: state {i} is not a {env.dim}-D state of {kind}")
    if cfg["sim"]["horizon"] > env.horizon and set(cfg["estimators"]) & set(IS_ESTIMATORS):
        raise ConfigError(
            f"sim.horizon: {cfg['sim']['horizon']} steps, but the IS estimators reweight "
            f"logged {kind} trajectories of at most {env.horizon}"
        )


def build_eval_policy(cfg: dict, task: Task) -> Policy:
    """The evaluation policy a validated config names on its task."""
    pol = cfg["eval_policy"]
    if pol["kind"] == "constant_action":
        a = pol["action"]
        return Policy.deterministic(lambda x: a, task.env.n_actions)
    return task.eval_policy


def fit_parametric(ds: Dataset, model_cfg: dict) -> DynamicsModel:
    """Fit the learned expert that a validated `model` section of kind
    "ridge" or "mlp" describes, on every transition of `ds`."""
    if len(ds) == 0:
        raise ValueError("cannot fit a parametric model on an empty dataset")
    m = settings("model", model_cfg)
    if m["kind"] == "ridge":
        return RidgePerActionModel(ds.dim, ds.n_actions, m["ridge_lambda"]).fit(ds)
    model = MLPModel(ds.dim, ds.n_actions, m["hidden"], m["layers"], seed=m["seed"])
    return model.fit(ds, m["epochs"], m["learning_rate"])


# ---------------------------------------------------------------------------
# From config to SelectionContext
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Batch:
    """The data stage of one repetition: the task, the evaluation policy,
    the behavior rollouts with their logged action probabilities, and the
    datasets built from them."""

    task: Task
    eval_policy: Policy
    trajectories: list[Trajectory]
    probs: list[np.ndarray]
    dataset: Dataset  # every logged transition; the parametric expert fits on it
    visible: Dataset  # after env.height_filter; what the nonparametric expert reads


def generate_batch(cfg: dict, rep: int) -> Batch:
    """Roll out the behavior policy of a validated config for repetition
    `rep` and build its datasets."""
    task = build_task(cfg["env"])
    _check_fits_env(cfg, task)
    eval_policy = build_eval_policy(cfg, task)
    beh = settings("behavior", cfg["behavior"])
    behavior = task.behavior_policy
    if beh["kind"] == "eps_greedy":
        behavior = make_eps_greedy(eval_policy, beh["eps"])
    trajectories, probs = generate_trajectories(
        task.env, behavior, cfg["n_behavior_trajectories"],
        seed=derive_seed(cfg["seed"], rep, 0), starts=task.behavior_starts,
    )
    dataset = Dataset.from_trajectories(trajectories, task.env.n_actions)
    # drop the rows that start above the height; every initial state survives
    height = settings("env", cfg["env"]).get("height_filter")
    visible = dataset if height is None else dataset.select(task.height(dataset.starts) <= height)
    return Batch(task, eval_policy, trajectories, probs, dataset, visible)


def build_context(cfg: dict, rep: int) -> tuple[Batch, SelectionContext]:
    """The data stage of a validated config's repetition `rep`, and the
    selection context over it: both experts, the parametric residuals, the
    global Lipschitz ratios, the radius C = mean residual / l_t, and the
    bound constants (the config's `bound` entries override the estimated
    ratios).  The context estimates errors; `ctx.oracle(env.step)` shares
    its scans for the oracle estimators."""
    batch = generate_batch(cfg, rep)
    env, ds = batch.task.env, batch.visible
    metric = (
        Metric(np.array(cfg["metric_weights"]))
        if cfg["metric_weights"]
        else Metric.euclidean(env.dim)
    )
    model = settings("model", cfg["model"])
    if model["kind"] == "env_analytic":
        parametric = batch.task.analytic[model["reward_variant"]]()
    else:
        parametric = fit_parametric(batch.dataset, cfg["model"])
    residuals = parametric_residuals(ds, parametric, metric)
    given = {k: v for k, v in settings("bound", cfg["bound"]).items() if v is not None}
    lips = global_lipschitz(ds, metric)
    # an overflowed ratio must be given, and the given value then also sets
    # the radius and the nonparametric fallback ratios
    lips = lips.with_given(given)
    radius = choose_radius(residuals[0], lips.l_t)
    bound = BoundParams(
        l_t=given.get("l_t", lips.l_t), l_r=given.get("l_r", lips.l_r),
        gamma=cfg["sim"]["gamma"],
    )
    ctx = SelectionContext(
        parametric, NonparametricModel(ds, metric, radius), bound,
        batch.eval_policy, lips, residuals, is_terminal=env.is_terminal,
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
    env, eval_policy = batch.task.env, batch.eval_policy
    metric, radius = ctx_est.nonparametric.metric, ctx_est.nonparametric.radius
    sim_cfg = cfg["sim"]
    gamma = sim_cfg["gamma"]
    horizon = sim_cfg["horizon"]
    ctx_true = ctx_est.oracle(env.step) if any(
        name.endswith("_true") for name in cfg["estimators"]
    ) else None

    with _stage(rep, "truth rollouts"):
        v_true = evaluate_policy_true(
            env, eval_policy, cfg["n_true_rollouts"], horizon, gamma,
            seed=derive_seed(cfg["seed"], rep, 1),
        )

    budget = settings("selector", cfg["selector"])["mcts_budget"]
    record: dict = {"rep": rep, "v_true": v_true, "radius": radius, "estimates": {}}
    truths: dict = {}  # the eps_traj true rollouts, which every estimator shares
    for name in cfg["estimators"]:
        if name in IS_ESTIMATORS:
            continue
        single = {"p": PARAMETRIC, "np": NONPARAMETRIC}
        mode = single.get(name, "mcts" if name.startswith("mcts") else "greedy")
        ctx = ctx_true if name.endswith("_true") else ctx_est
        trace = [] if (cfg["mcts_trace"] and mode == "mcts") else None
        with _stage(rep, f"estimator {name}"):
            estimate = simulate_value(
                ctx,
                SimConfig(
                    n_rollouts=sim_cfg["n_rollouts"], horizon=horizon, gamma=gamma,
                    mode=mode, mcts_budget=budget, seed=derive_seed(cfg["seed"], rep, 3),
                ),
                initial_states=cfg["initial_states"],
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
                    derive_seed(cfg["seed"], rep, 4), truths,
                )
        if trace is not None:
            entry["mcts_trace"] = trace
        if cfg["rollout_log"]:
            entry["rollouts"] = estimate.rollout_records
        record["estimates"][name] = entry

    requested_is = [name for name in cfg["estimators"] if name in IS_ESTIMATORS]
    if requested_is:
        with _stage(rep, "IS inputs"):
            # reweight the first sim.horizon steps, the horizon v_true has:
            # views of the logged prefixes, which `rollouts` validated
            logged = [
                Trajectory.view(traj.states[: horizon + 1], traj.actions[:horizon],
                                traj.rewards[:horizon], traj.terminated and len(traj) <= horizon)
                for traj in batch.trajectories
            ]
            is_input = ISInput.build(
                logged, [p[:horizon] for p in batch.probs], eval_policy, gamma,
            )
            value_model = None
            if any(name in ("DR", "WDR") for name in requested_is):
                value_model = ModelValueFunctions(
                    ctx_est.parametric, eval_policy, horizon, gamma,
                    terminal_many=env.terminal_many,
                )
        for name in requested_is:
            with _stage(rep, f"estimator {name}"):
                record["estimates"][name] = {
                    "v_hat": is_estimate(is_input, name, value_model=value_model)
                }
    return record


def _mean_traj_error(env, policy, sim_trajectories, metric, horizon, seed, truths) -> float:
    """Mean trajectory error of the nonempty simulated rollouts against
    true rollouts from their starts; simulated rollout i is replayed with
    the generator seeded by [seed, i].

    `truths` memoizes the replays for the other estimators of the
    repetition, which share `seed`: keyed on the start's float64 bytes
    alone for a deterministic policy, whose replay takes no draw, and on
    (start, i) otherwise.  The missing ones are rolled in one batch."""
    ids = [i for i, sim in enumerate(sim_trajectories) if len(sim)]
    keys = [
        (sim_trajectories[i].states[0].tobytes(), i if policy.actions_fn is None else None)
        for i in ids
    ]
    missing: dict = {}
    for key, i in zip(keys, ids):
        if key not in truths:
            missing.setdefault(key, i)
    if missing:
        rolled = rollout_policy(
            env, policy, [sim_trajectories[i].states[0] for i in missing.values()], horizon,
            seed, list(missing.values()),
        )
        truths.update(zip(missing, rolled))
    errs = [trajectory_error(sim_trajectories[i], truths[key], metric) for i, key in zip(ids, keys)]
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


def run_experiment(cfg: dict, jobs: int = 1) -> ExperimentReport:
    """Run all repetitions and aggregate RMSEs.

    The report lists the repetitions by index; each is a pure function of
    the config and its index, so serial and parallel runs give the same
    report.
    """
    if jobs < 1:
        raise ConfigError(f"jobs: {jobs} parallel repetitions; give at least 1")
    cfg = validate_config(cfg)
    reps = range(cfg["n_repetitions"])
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        cfg_json = json.dumps(cfg)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_worker, [(cfg_json, r) for r in reps]))
    else:
        records = [run_repetition(cfg, r) for r in reps]
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
    are left out.  Writes the CSV, making its directory, and returns the
    rows; a rejected config or grid writes nothing."""
    cfg = validate_config(cfg)
    if grid["resolution"] < 1:
        raise ConfigError("resolution: the grid needs at least 1 point per axis")
    for key in ("x_range", "y_range"):
        if not all(map(math.isfinite, grid[key])):
            raise ConfigError(f"{key}: {list(grid[key])} must be finite")
    if build_task(cfg["env"]).env.dim != 2:
        raise ConfigError("env.kind: error maps need a 2-D environment")
    batch, ctx = build_context(cfg, 0)
    env = batch.task.env
    oracle = ctx.oracle(env.step)

    (x_lo, x_hi) = grid["x_range"]
    (y_lo, y_hi) = grid["y_range"]
    n = grid["resolution"]
    rows = []
    for x0 in np.linspace(x_lo, x_hi, n):
        for x1 in np.linspace(y_lo, y_hi, n):
            x = np.array([x0, x1])
            for a in range(env.n_actions):
                if ctx.available_models(a):
                    rows.append(_map_row(ctx, oracle, x, a))
    import csv

    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", newline="") as fh:
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


def _map_row(ctx: SelectionContext, oracle: SelectionContext, x: np.ndarray, a: int) -> dict:
    true_np = oracle.estimate(NONPARAMETRIC, x, a).eps_t
    true_p = oracle.estimate(PARAMETRIC, x, a).eps_t
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
