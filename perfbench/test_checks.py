"""The benchmark's own tests: every correctness check passes on moesim's
output and fails on a deliberately perturbed copy of it; the trace leaves
records unchanged and accounts for the whole repetition.

    python3 -m pytest perfbench -q
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import (  # noqa: E402
    Capture,
    check_doubly_robust,
    check_estimate,
    check_lipschitz,
    check_repetition,
    check_windy_truth,
)
from moesim.core import Dataset, Metric, Transition  # noqa: E402
from moesim.errors import global_lipschitz  # noqa: E402
from moesim.experiments import run_repetition, validate_config  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

TINY = {
    "name": "tiny-windy",
    "env": {"kind": "windy2d"},
    "behavior": {"kind": "eps_greedy", "eps": 0.35},
    "n_behavior_trajectories": 4,
    "model": {"kind": "env_analytic"},
    "sim": {"n_rollouts": 2, "horizon": 40, "gamma": 1.0},
    "estimators": ["moe", "DR", "WDR"],
    "n_true_rollouts": 4,
    "seed": 123,
    "rollout_log": True,
}


@pytest.fixture(scope="module")
def tiny():
    cfg = validate_config(TINY)
    capture = Capture()
    with capture.patches():
        record = run_repetition(cfg, 0)
    return cfg, record, capture


def failed(results):
    return [name for name, ok, _ in results if not ok]


def test_every_check_passes_on_moesim_output(tiny):
    cfg, record, capture = tiny
    results = check_repetition(cfg, 0, record, capture, {})
    assert failed(results) == []
    names = {name for name, _, _ in results}
    assert {"windy_truth", "global_lipschitz", "estimate_moe", "recursive_DR",
            "recursive_WDR", "estimates_captured"} <= names


def test_windy_truth_fails_on_perturbed_value(tiny):
    cfg, record, _ = tiny
    bad = dict(record, v_true=record["v_true"] + 0.25)
    assert not check_windy_truth(cfg, 0, bad)[1]
    assert not check_windy_truth(cfg, 1, record)[1]  # another repetition's starts


def _perturbed_lips(result, **change):
    return type(result)(**{**result.__dict__, **change})


def test_lipschitz_fails_on_perturbed_constants(tiny):
    _, _, capture = tiny
    ds, metric, result = capture.lipschitz[0]
    assert check_lipschitz(ds, metric, result, {})[1]
    for change in ({"l_t": result.l_t * (1 + 1e-8)}, {"l_r": result.l_r + 1e-6}):
        assert not check_lipschitz(ds, metric, _perturbed_lips(result, **change), {})[1]


def test_lipschitz_check_covers_the_gram_path():
    """Above 3000 same-action rows moesim switches to gram distances."""
    rng = np.random.default_rng(0)
    n = 3100
    X = rng.uniform(0, 10, size=(n, 2))
    Y = X + 0.1 * np.sin(X)
    trs = [Transition(X[i], 0, float(-np.cos(X[i, 0])), Y[i], traj_id=i) for i in range(n)]
    ds = Dataset(trs, [X[0]], 2, 1)
    metric = Metric.euclidean(2)
    result = global_lipschitz(ds, metric)
    assert check_lipschitz(ds, metric, result, {})[1]
    bad = _perturbed_lips(result, l_t=result.l_t * (1 - 1e-8))
    assert not check_lipschitz(ds, metric, bad, {})[1]


@pytest.mark.parametrize("perturb", ["v_hat", "return_range", "usage", "steps"])
def test_estimate_check_fails_on_perturbed_estimate(tiny, perturb):
    cfg, record, capture = tiny
    entry = copy.deepcopy(record["estimates"]["moe"])
    estimate = capture.estimates[0]
    horizon = cfg["sim"]["horizon"]
    assert check_estimate("moe", entry, estimate, horizon)[1]
    if perturb == "v_hat":
        entry["v_hat"] += 0.5
    elif perturb == "return_range":
        # a consistent log and estimate whose first return is impossible
        entry["rollouts"][0]["return"] = 0.0
        estimate = copy.copy(estimate)
        estimate.per_rollout_returns = [r["return"] for r in entry["rollouts"]]
        entry["v_hat"] = float(np.mean(estimate.per_rollout_returns))
    elif perturb == "usage":
        entry["model_usage"]["parametric"] += 1
    else:
        entry["rollouts"][0]["steps"] += 1
    assert not check_estimate("moe", entry, estimate, horizon)[1]


@pytest.mark.parametrize("variant", ["DR", "WDR"])
def test_doubly_robust_fails_on_perturbed_estimate(tiny, variant):
    _, record, capture = tiny
    assert failed(check_doubly_robust(record, capture)) == []
    bad = copy.deepcopy(record)
    bad["estimates"][variant]["v_hat"] += 1e-6
    assert failed(check_doubly_robust(bad, capture)) == [f"recursive_{variant}"]


def test_doubly_robust_fails_on_perturbed_control_variate(tiny):
    _, record, capture = tiny
    # v at the first logged step enters both estimators with weight 1/n
    first = capture.v_calls[0][0]
    bad = copy.copy(capture)
    bad.v_calls = [(x, rem, val + (1.0 if x is first else 0.0)) for x, rem, val in capture.v_calls]
    assert failed(check_doubly_robust(record, bad)) == [
        "recursive_DR", "recursive_WDR"
    ]


def test_trace_keeps_records_and_covers_the_repetition(tiny):
    cfg, record, _ = tiny
    tracer = Tracer()
    traced, wall, layers = tracer.traced_repetition(run_repetition, cfg, 0)
    assert json.dumps(traced, sort_keys=True) == json.dumps(record, sort_keys=True)
    self_total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    assert self_total == pytest.approx(layers["experiments.rep_s"], rel=1e-9)
    assert layers["experiments.rep_s"] <= wall
    assert layers["selection.estimate_calls"] > 0
    assert layers["baselines.q_calls"] > 0
    # the patches are gone afterwards
    import moesim.experiments as experiments
    from moesim.errors import global_lipschitz as original

    assert experiments.global_lipschitz is original
