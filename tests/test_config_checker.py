"""The package's config checker against jsonschema's Draft 7 validator,
the checker `validate_config` used before: same errors, same wording,
same order, on mutations of the shipped configs."""

import copy
import functools
import json
import math
import operator
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moesim.experiments
from helpers import jsonschema_errors
from moesim.experiments import (
    CONFIG_SCHEMA, ConfigError, _schema_errors, run_experiment, validate_config,
)
from moesim.reproduce import planning_toy_config, windy_consistency_config, windy_table1_config

README = Path(__file__).resolve().parents[1] / "README.md"

# every optional key set, so that mutations reach every rule of the schema
FULL = {
    "name": "every-key",
    "env": {"kind": "acrobot", "horizon": 50, "height_filter": 0.5},
    "behavior": {"kind": "eps_greedy", "eps": 0.3},
    "eval_policy": {"kind": "constant_action", "action": 1},
    "n_behavior_trajectories": 4,
    "model": {"kind": "mlp", "hidden": 8, "layers": 2, "epochs": 10,
              "learning_rate": 0.1, "seed": 1},
    "metric_weights": [1.0, 2.0, 1.0, 1.0],
    "selector": {"mcts_budget": 8},
    "sim": {"n_rollouts": 2, "horizon": 40, "gamma": 0.9},
    "estimators": ["p", "np", "moe", "mcts_moe", "IS", "DR"],
    "n_repetitions": 2,
    "n_true_rollouts": 3,
    "seed": 5,
    "bound": {"l_t": 1.0, "l_r": None},
    "initial_states": [[0.0, 0.0, 0.0, 0.0]],
    "eps_traj": False,
    "mcts_trace": True,
    "rollout_log": False,
}

BASES = [
    *(json.loads(block) for block in
      re.findall(r"^```json\n(.*?)^```$", README.read_text(), re.M | re.S)),
    windy_table1_config(),
    planning_toy_config(16, "accurate"),
    planning_toy_config(12, "inaccurate"),
    windy_consistency_config(),
    FULL,
]


def subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)
    if "items" in schema:
        yield from subschemas(schema["items"])


KEYWORDS = {
    "type", "enum", "minimum", "maximum", "exclusiveMinimum", "minItems", "uniqueItems",
    "items", "required", "properties", "additionalProperties",
}
KEYS = sorted({key for s in subschemas(CONFIG_SCHEMA) for key in s.get("properties", {})})
WORDS = sorted({word for s in subschemas(CONFIG_SCHEMA) for word in s.get("enum", [])})

# NaN is left out: jsonschema finds repeated array items by sorting, so
# whether it sees a repeated NaN depends on where the sort puts it
SCALARS = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-2, 3) | st.integers(-(2**70), 2**70),
    st.sampled_from([0.0, 1.0, 2.0, 3.0, -1.0, 0.5, 1.5, 1e-6, 1e300, math.inf, -math.inf]),
    st.sampled_from(WORDS + ["", "x"]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS + ["surprise"]), inner, max_size=2),
    max_leaves=4,
)


def containers(value):
    """Every dict and list inside `value`, itself included."""
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from containers(item)


@st.composite
def mutated_configs(draw):
    """A shipped config with one to three edits: a value replaced by one of
    another type, a bool, an integral float or a value out of range, a key
    deleted or added, or an array item repeated or appended."""
    cfg = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(list(containers(cfg))))
        op = draw(st.sampled_from(["set", "delete", "add", "repeat"]))
        if isinstance(target, dict):
            if op in ("set", "delete") and target:
                key = draw(st.sampled_from(sorted(target)))
                if op == "set":
                    target[key] = draw(VALUES)
                else:
                    del target[key]
            else:
                target[draw(st.sampled_from(KEYS + ["surprise", "Kind"]))] = draw(VALUES)
        elif op in ("set", "delete", "repeat") and target:
            i = draw(st.integers(0, len(target) - 1))
            if op == "set":
                target[i] = draw(VALUES)
            elif op == "delete":
                del target[i]
            else:
                target.append(target[i])
        else:
            target.append(draw(VALUES))
    return cfg


def outcome(cfg):
    """The validated config, or the `ConfigError` message."""
    try:
        return validate_config(cfg)
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(mutated_configs())
@example({**windy_table1_config(), "estimators": ["p", True, 1]})
@example({**windy_table1_config(), "estimators": ["p", "moe", "p"]})
@example({**windy_table1_config(), "n_repetitions": 3.0, "seed": True})
def test_validate_config_equals_the_jsonschema_path(cfg):
    assert _schema_errors(CONFIG_SCHEMA, cfg) == jsonschema_errors(CONFIG_SCHEMA, cfg)
    with mock.patch.object(moesim.experiments, "_schema_errors", jsonschema_errors):
        expected = outcome(copy.deepcopy(cfg))
    assert outcome(cfg) == expected


@pytest.mark.parametrize("cfg", BASES, ids=lambda cfg: cfg["name"])
def test_every_base_config_is_valid(cfg):
    # a mutation then breaks a valid config, not an already broken one
    validate_config(cfg)


@pytest.mark.parametrize("edit, message", [
    ({"estimators": ["p", True, 1]},
     "$.estimators[1]: True is not one of ['p', 'np', 'moe', 'mcts_moe', 'moe_true', "
     "'mcts_moe_true', 'IS', 'WIS', 'PDIS', 'CWPDIS', 'DR', 'WDR']; "
     "$.estimators[2]: 1 is not one of ['p', 'np', 'moe', 'mcts_moe', 'moe_true', "
     "'mcts_moe_true', 'IS', 'WIS', 'PDIS', 'CWPDIS', 'DR', 'WDR']"),
    ({"estimators": ["np", "np"]}, "$.estimators: ['np', 'np'] has non-unique elements"),
    ({"n_repetitions": True}, "$.n_repetitions: True is not of type 'integer'"),
    ({"n_repetitions": 2.5}, "$.n_repetitions: 2.5 is not of type 'integer'"),
    ({"metric_weights": []}, "$.metric_weights: [] should be non-empty"),
    ({"metric_weights": [True]}, "$.metric_weights[0]: True is not of type 'number'"),
    ({"metric_weights": "w"}, "$.metric_weights: 'w' is not of type 'array', 'null'"),
    ({"sim": {"n_rollouts": 0, "gamma": 0}},
     # sorted by path
     "$.sim: 'horizon' is a required property; "
     "$.sim.gamma: 0 is less than or equal to the minimum of 0; "
     "$.sim.n_rollouts: 0 is less than the minimum of 1"),
    ({"b": 1, "a": 2}, "$: Additional properties are not allowed ('a', 'b' were unexpected)"),
    ({"behavior": {"kind": "eps_greedy", "eps": 1.5}},
     "$.behavior.eps: 1.5 is greater than the maximum of 1"),
], ids=["bool_is_not_one", "repeated_estimator", "bool_is_no_integer", "fraction",
        "empty_array", "bool_is_no_number", "type_list", "required_and_bounds",
        "extra_keys_sorted", "maximum"])
def test_messages_keep_the_jsonschema_wording(edit, message):
    cfg = {**windy_table1_config(), **edit}
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert str(err.value) == message


def test_an_integral_float_is_an_integer():
    assert validate_config({**windy_table1_config(), "n_repetitions": 3.0})["n_repetitions"] == 3.0


def integer_paths(schema, path=()):
    """The key path of every `"integer"` field of `schema`."""
    if schema.get("type") == "integer":
        yield path
    for key, sub in schema.get("properties", {}).items():
        yield from integer_paths(sub, path + (key,))


# a small run that reads every integer field of the schema
EVERY_INTEGER = {
    "name": "every-integer",
    "env": {"kind": "windy2d", "horizon": 8},
    "behavior": {"kind": "eps_greedy", "eps": 0.5},
    "eval_policy": {"kind": "constant_action", "action": 1},
    "n_behavior_trajectories": 4,
    "model": {"kind": "mlp", "hidden": 4, "layers": 2, "epochs": 3, "seed": 1},
    "selector": {"mcts_budget": 4},
    "sim": {"n_rollouts": 2, "horizon": 5, "gamma": 0.9},
    "estimators": ["p", "np", "moe", "mcts_moe"],
    "n_repetitions": 2,
    "n_true_rollouts": 2,
    "seed": 3,
}


@pytest.mark.parametrize("path", list(integer_paths(CONFIG_SCHEMA)), ids=".".join)
def test_an_integral_float_runs_as_its_int(path):
    # the report, config included, is the int twin's
    cfg = copy.deepcopy(EVERY_INTEGER)
    *outer, key = path
    section = functools.reduce(operator.getitem, outer, cfg)
    section[key] = float(section[key])
    assert run_experiment(cfg).to_json() == run_experiment(EVERY_INTEGER).to_json()


def test_the_schema_uses_only_the_checked_keywords():
    # a keyword added to the schema must be taught to the checker first
    assert {keyword for s in subschemas(CONFIG_SCHEMA) for keyword in s} == KEYWORDS


@pytest.mark.parametrize("schema", [
    {"pattern": "^a"}, {"additionalProperties": {"type": "string"}},
    {"uniqueItems": False}, {"items": [{"type": "string"}]},
], ids=["pattern", "additional_properties_schema", "unique_items_false", "tuple_items"])
def test_an_unchecked_keyword_raises(schema):
    with pytest.raises(ValueError, match="is not checked"):
        _schema_errors(schema, ["a"])
