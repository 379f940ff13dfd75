"""Spans and counts for the traced run, recorded from outside the package.

Every traced function becomes a span: its name (prefixed by the layer, the
moesim module it belongs to), start, end and the index of the enclosing
span.  Spans live in flat typed arrays so that the ~130k spans of a
`windy_mcts` repetition stay small, and are written to a sidecar file when
the run ends.  `Policy.probs` is only counted: it is called ~400k times per
`acrobot_dr` repetition and is a leaf whose time belongs to its callers.
"""

from __future__ import annotations

import json
import statistics
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from patching import Patches

LAYERS = (
    "selection", "errors", "core", "envs", "models", "simulator", "baselines",
    "experiments",
)

ROOT_SPAN = "experiments.run_repetition"

# (where callers look the function up, span name)
SPANS = (
    ("moesim.experiments:generate_trajectories", "envs.generate_trajectories"),
    ("moesim.core:Dataset.from_trajectories", "core.dataset_build"),
    ("moesim.experiments:fit_parametric", "models.fit"),
    ("moesim.experiments:windy_no_wind_model", "models.fit"),
    ("moesim.experiments:parametric_residuals", "errors.residuals"),
    ("moesim.experiments:choose_radius", "errors.choose_radius"),
    ("moesim.experiments:evaluate_policy_true", "simulator.truth"),
    ("moesim.experiments:simulate_value", "simulator.simulate"),
    ("moesim.experiments:rollout_policy", "simulator.rollout_policy"),
    ("moesim.experiments:trajectory_error", "simulator.trajectory_error"),
    ("moesim.baselines:ISInput.build", "baselines.is_input"),
    ("moesim.baselines:ModelValueFunctions.q", "baselines.q"),
    ("moesim.simulator:mcts_select", "selection.mcts_select"),
    ("moesim.simulator:greedy_select", "selection.greedy_select"),
    ("moesim.selection:greedy_select", "selection.greedy_select"),
    ("moesim.selection:np_error_estimate", "errors.np_estimate"),
    ("moesim.selection:p_error_estimate", "errors.p_estimate"),
    ("moesim.core:Dataset.neighbor_rows", "core.neighbor_query"),
    ("moesim.core:Dataset.nearest_index", "core.neighbor_query"),
    ("moesim.models:NonparametricModel.predict", "models.np_predict"),
)


class Tracer:
    """Collects spans and counts while its patches are applied."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.policy_probs_calls = 0
        self.estimate_keys: set[tuple[str, bytes, int]] = set()
        self.lipschitz_pairs = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records one span."""
        nid = self._id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack,
        )

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def patches(self) -> Patches:
        patches = Patches()
        for target, name in SPANS:
            patches.wrap(target, lambda fn, name=name: self.span(name, fn))

        def estimate(fn):
            inner = self.span("selection.estimate", fn)
            keys = self.estimate_keys

            def traced(ctx, kind, x, a):
                keys.add((kind, x.tobytes(), a))
                return inner(ctx, kind, x, a)

            return traced

        def lipschitz(fn):
            inner = self.span("errors.lipschitz", fn)

            def traced(*args, **kwargs):
                result = inner(*args, **kwargs)
                self.lipschitz_pairs = result.n_pairs
                return result

            return traced

        def is_estimate(fn):
            dr = self.span("baselines.dr", fn)
            other = self.span("baselines.is", fn)

            def traced(inp, variant, value_model=None):
                call = dr if variant in ("DR", "WDR") else other
                return call(inp, variant, value_model=value_model)

            return traced

        def policy_probs(fn):
            def counted(policy, x):
                self.policy_probs_calls += 1
                return fn(policy, x)

            return counted

        patches.wrap("moesim.selection:SelectionContext.estimate", estimate)
        patches.wrap("moesim.experiments:global_lipschitz", lipschitz)
        patches.wrap("moesim.experiments:is_estimate", is_estimate)
        patches.wrap("moesim.core:Policy.probs", policy_probs)
        return patches

    def traced_repetition(self, run_repetition, cfg: dict, rep: int):
        """Run one repetition under a root span with every patch applied;
        returns (record, wall seconds, per-layer metrics of this repetition)."""
        first = len(self.name)
        self.policy_probs_calls = 0
        self.estimate_keys = set()
        self.lipschitz_pairs = 0
        root = self.span(ROOT_SPAN, run_repetition)
        with self.patches():
            t0 = perf_counter()
            record = root(cfg, rep)
            wall = perf_counter() - t0
        return record, wall, self.layer_metrics(first)

    def _arrays(self, first: int = 0):
        name = np.frombuffer(self.name, dtype=np.int32)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:]
        dur = (
            np.frombuffer(self.end, dtype=np.float64)[first:]
            - np.frombuffer(self.start, dtype=np.float64)[first:]
        )
        return name, parent, dur

    def layer_metrics(self, first: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since index `first`
        (one repetition, rooted at spans[first])."""
        name, parent, dur = self._arrays(first)
        n = len(name)
        local_parent = parent - first
        has_parent = parent >= first
        child_time = np.bincount(
            local_parent[has_parent], weights=dur[has_parent], minlength=n
        )
        self_time = dur - child_time

        def ids(prefix: str) -> np.ndarray:
            return np.array(
                [i for i, s in enumerate(self.names) if s == prefix or s.startswith(prefix + ".")],
                dtype=np.int32,
            )

        def of(span: str) -> np.ndarray:
            return np.isin(name, ids(span))

        def total(span: str) -> float:
            return float(dur[of(span)].sum())

        def count(span: str) -> int:
            return int(of(span).sum())

        def p50(span: str, scale: float) -> float:
            d = dur[of(span)]
            return float(np.median(d)) * scale if len(d) else 0.0

        m = {
            "selection.estimate_calls": count("selection.estimate"),
            "selection.estimate_distinct": len(self.estimate_keys),
            "selection.mcts_decisions": count("selection.mcts_select"),
            "selection.mcts_decision_ms": p50("selection.mcts_select", 1e3),
            "selection.greedy_decisions": count("selection.greedy_select"),
            "selection.greedy_decision_us": p50("selection.greedy_select", 1e6),
            "errors.lipschitz_s": total("errors.lipschitz"),
            "errors.lipschitz_pairs": self.lipschitz_pairs,
            "errors.residuals_s": total("errors.residuals"),
            "errors.np_estimate_s": total("errors.np_estimate"),
            "errors.p_estimate_s": total("errors.p_estimate"),
            "core.neighbor_queries": count("core.neighbor_query"),
            "core.neighbor_query_s": total("core.neighbor_query"),
            "core.policy_probs_calls": self.policy_probs_calls,
            "core.dataset_build_s": total("core.dataset_build"),
            "envs.generate_s": total("envs.generate_trajectories"),
            "models.np_predicts": count("models.np_predict"),
            "models.fit_s": total("models.fit"),
            "simulator.simulate_s": total("simulator.simulate"),
            "simulator.truth_s": total("simulator.truth"),
            "baselines.dr_s": total("baselines.dr"),
            "baselines.q_calls": count("baselines.q"),
            "experiments.rep_s": float(dur[0]),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = float(self_time[of(layer)].sum())
        return m

    def write_sidecar(self, path: Path, meta: dict) -> None:
        """All spans of the run as compressed arrays plus a JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        name, parent, _ = self._arrays()
        np.savez_compressed(
            path,
            name=name,
            parent=parent,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            header=np.array(json.dumps({"names": self.names, **meta})),
        )


def summarize(samples: list[dict[str, float]], overheads: list[float]) -> dict:
    """Median over traced repetitions of every per-layer metric."""
    out = {
        key: statistics.median(s[key] for s in samples) for key in samples[0]
    }
    out["trace.overhead_s"] = statistics.median(overheads)
    return out
