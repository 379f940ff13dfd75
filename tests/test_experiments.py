"""Experiment orchestration, reports, error maps, and the CLI."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import general_path

import moesim.errors
import moesim.experiments
from moesim.cli import build_parser
from moesim.cli import main as cli_main
from moesim.core import Dataset, Metric, Neighbors, Policy, Trajectory, Transition
from moesim.experiments import (
    ConfigError,
    RepetitionError,
    SECTIONS,
    build_context,
    derive_seed,
    emit_error_maps,
    fit_parametric,
    generate_batch,
    run_experiment,
    run_repetition,
    validate_config,
)
from moesim.errors import global_lipschitz, np_error_estimate, parametric_residuals
from moesim.models import NONPARAMETRIC, PARAMETRIC, MLPModel, RidgePerActionModel
from moesim.reproduce import (
    planning_toy_config,
    reproduce_consistency,
    reproduce_table1,
    windy_consistency_config,
    windy_table1_config,
)

GOLDEN = Path(__file__).parent / "golden" / "tiny_windy_report.json"
MCTS_GOLDEN = Path(__file__).parent / "golden" / "tiny_windy_mcts_report.json"
ACROBOT_GOLDEN = Path(__file__).parent / "golden" / "tiny_acrobot_report.json"
BATCH250_GOLDEN = Path(__file__).parent / "golden" / "windy_batch250_rep0.json"
TABLE2_GOLDEN = Path(__file__).parent / "golden" / "table2.json"

# the hash of `Metric.distance` on fixed 4-D rows, pair by pair and as
# matching rows, then of a 50-repetition table 1, whose eps_traj sums
# distances along every rollout
PORTABLE_RUN = """
import hashlib, json
import numpy as np
from moesim.core import Metric
from moesim.reproduce import reproduce_table1
rng = np.random.default_rng(5)
X, Y = rng.normal(size=(2, 500, 4)) * 10.0 ** rng.uniform(-4, 4, size=4)
m = Metric(10.0 ** rng.uniform(-2, 2, size=4))
d = np.append(m.distance(X, Y), [m.distance(x, y) for x, y in zip(X, Y)])
print(hashlib.sha256(d.tobytes()).hexdigest())
print(hashlib.sha256(json.dumps(reproduce_table1(n_repetitions=50)).encode()).hexdigest())
"""


def dynamic_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernels per CPU
    at run time, which `OPENBLAS_CORETYPE` then overrides."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


def tiny_config(**overrides):
    cfg = {
        "name": "tiny-windy",
        "env": {"kind": "windy2d"},
        "behavior": {"kind": "eps_greedy", "eps": 0.35},
        "n_behavior_trajectories": 4,
        "model": {"kind": "env_analytic"},
        "sim": {"n_rollouts": 2, "horizon": 40, "gamma": 1.0},
        "estimators": ["p", "np", "moe", "IS", "WIS", "PDIS", "CWPDIS", "DR", "WDR"],
        "n_repetitions": 2,
        "n_true_rollouts": 4,
        "seed": 123,
    }
    cfg.update(overrides)
    return cfg


def batch250_config(master):
    """The `reproduce consistency` config at 250 trajectories, seeded as
    `reproduce_consistency` seeds that batch size."""
    cfg = windy_consistency_config(seed=derive_seed(master, 250))
    cfg["n_behavior_trajectories"] = 250
    return validate_config(cfg)


def batch250_document(monkeypatch):
    """The text of `golden/windy_batch250_rep0.json`: the record of rep 0 at
    master seed 0; the global ratios of rep 0's data at master seeds 0-7;
    and the first 20 neighbour scans of that record, with the
    nonparametric estimate at each, in `float.hex`.  A scan's local ratios
    are `np_error_estimate`'s at a nearest distance of 1, and its pairs
    those of `global_lipschitz` over the neighbourhood's rows alone, which
    must give the same ratios."""
    calls = []
    scan = Dataset.neighbor_rows

    def recorded(ds, x, a, c, metric):
        near = scan(ds, x, a, c, metric)
        if len(calls) < 20:
            calls.append((ds, near, metric))
        return near

    monkeypatch.setattr(Dataset, "neighbor_rows", recorded)
    record = run_repetition(batch250_config(0), 0)
    monkeypatch.undo()
    # every scan is of the context's dataset, whose global scan it falls back on
    ds, _, metric = calls[0]
    fallback = global_lipschitz(ds, metric)
    local = []
    for _, near, _ in calls:
        est = np_error_estimate(ds, near, metric, fallback)
        ratios = np_error_estimate(ds, Neighbors(near.nearest, 1.0, near.rows), metric, fallback)
        keep = np.zeros(len(ds), dtype=bool)
        keep[near.rows] = True
        alone = global_lipschitz(ds.select(keep), metric)
        if alone.n_pairs:
            assert (alone.l_t, alone.l_r) == (ratios.eps_t, ratios.eps_r)
        local.append({
            "rows": len(near.rows), "eps_t": est.eps_t.hex(), "eps_r": est.eps_r.hex(),
            "l_t": ratios.eps_t.hex(), "l_r": ratios.eps_r.hex(), "n_pairs": alone.n_pairs,
        })
    scans = []
    for master in range(8):
        ds = generate_batch(batch250_config(master), 0).visible
        lips = global_lipschitz(ds, Metric.euclidean(ds.dim))
        scans.append({"l_t": lips.l_t.hex(), "l_r": lips.l_r.hex(), "n_pairs": lips.n_pairs})
    doc = {"record": record, "global_lipschitz": scans, "np_error_estimate": local}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


class TestConfigValidation:
    def test_error_messages_carry_field_paths(self):
        bad = tiny_config()
        bad["estimators"] = ["p", "MAGIC"]
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert "estimators[1]" in str(err.value)

    def test_missing_required_section(self):
        bad = tiny_config()
        del bad["sim"]
        with pytest.raises(ConfigError):
            validate_config(bad)

    def test_unknown_top_level_key_rejected(self):
        bad = tiny_config(surprise=1)
        with pytest.raises(ConfigError):
            validate_config(bad)

    def test_defaults_filled(self):
        cfg = validate_config(tiny_config())
        assert cfg["n_true_rollouts"] == 4
        assert cfg["metric_weights"] is None
        assert cfg["eval_policy"] == {"kind": "env_default"}

    def test_validated_configs_share_no_default(self):
        first = validate_config(tiny_config())
        first["selector"]["mcts_budget"] = 8
        first["bound"]["l_t"] = 2.0
        first["eval_policy"]["kind"] = "constant_action"
        second = validate_config(tiny_config())
        assert (second["selector"], second["bound"]) == ({}, {})
        assert second["eval_policy"] == {"kind": "env_default"}

    def test_every_readme_config_is_valid(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```json\n(.*?)^```$", readme, re.M | re.S)
        assert blocks  # the "Configs" section shows at least one
        for block in blocks:
            validate_config(json.loads(block))

    def test_schema_reference_shares_no_table(self):
        first = moesim.experiments.schema_reference()
        first["defaults"]["selector"]["mcts_budget"] = 8
        first["sections"]["selector"]["mcts_budget"] = 8
        second = moesim.experiments.schema_reference()
        assert second["defaults"]["selector"] == {}
        assert second["sections"]["selector"] == {"mcts_budget": 128}
        assert validate_config(tiny_config())["selector"] == {}

    def test_sections_are_kept_as_written(self):
        # a report embeds the validated config: no section default fills in
        given = tiny_config(model={"kind": "ridge"}, selector={})
        cfg = validate_config(given)
        for section in ("env", "behavior", "model", "selector"):
            assert cfg[section] == given[section]

    def test_the_table_names_every_section_key_the_schema_types(self):
        props = moesim.experiments.CONFIG_SCHEMA["properties"]
        for section in ("env", "behavior", "eval_policy", "model"):
            kinds = SECTIONS[section]
            assert props[section]["properties"]["kind"]["enum"] == list(kinds)
            read = {key for keys in kinds.values() for key in keys}
            assert read | {"kind"} == set(props[section]["properties"])
        for section in ("selector", "bound"):
            assert set(SECTIONS[section]) == set(props[section]["properties"])


class TestRunExperiment:
    def test_single_repetition_rmse_identity(self):
        cfg = tiny_config(n_repetitions=1, estimators=["p"])
        report = run_experiment(cfg)
        rec = report.per_repetition[0]
        expect = abs(rec["estimates"]["p"]["v_hat"] - rec["v_true"])
        assert report.aggregates["p"]["rmse"] == pytest.approx(expect, abs=1e-12)

    def test_rmse_recomputable_from_records(self):
        report = run_experiment(tiny_config())
        for name, agg in report.aggregates.items():
            sq = [
                (rec["estimates"][name]["v_hat"] - rec["v_true"]) ** 2
                for rec in report.per_repetition
            ]
            assert agg["rmse"] == pytest.approx(math.sqrt(np.mean(sq)), abs=1e-12)

    def test_byte_identical_reports_same_seed(self):
        a = run_experiment(tiny_config()).to_json()
        b = run_experiment(tiny_config()).to_json()
        assert a == b

    def test_different_seed_changes_report(self):
        a = run_experiment(tiny_config()).to_json()
        b = run_experiment(tiny_config(seed=124)).to_json()
        assert a != b

    def test_matches_golden_schema_and_values(self):
        report = run_experiment(tiny_config())
        assert report.to_json() == GOLDEN.read_text()

    def test_matches_mcts_ridge_golden(self):
        # UCT selection with its traces, a ridge expert, and nonzero IS and
        # WIS weights: what the env_analytic greedy fixture above cannot see
        cfg = {
            "name": "tiny-windy-mcts",
            "env": {"kind": "windy2d"},
            "behavior": {"kind": "eps_greedy", "eps": 0.05},
            "n_behavior_trajectories": 6,
            "model": {"kind": "ridge"},
            "selector": {"mcts_budget": 16},
            "sim": {"n_rollouts": 2, "horizon": 40, "gamma": 1.0},
            "estimators": ["moe", "mcts_moe", "IS", "WIS", "DR", "WDR"],
            "n_repetitions": 2,
            "n_true_rollouts": 4,
            "seed": 5,
            "mcts_trace": True,
        }
        report = run_experiment(cfg)
        assert report.per_repetition[0]["estimates"]["IS"]["v_hat"] != 0.0
        assert report.per_repetition[0]["estimates"]["WIS"]["v_hat"] != 0.0
        assert report.to_json() == MCTS_GOLDEN.read_text()

    def test_matches_acrobot_golden(self):
        # pins the acrobot dynamics: the behaviour data (through the radius
        # and model usage) and every true state (through eps_traj)
        cfg = {
            "name": "tiny-acrobot",
            "env": {"kind": "acrobot", "horizon": 40},
            "behavior": {"kind": "eps_greedy", "eps": 0.3},
            "n_behavior_trajectories": 4,
            "model": {"kind": "ridge"},
            "sim": {"n_rollouts": 2, "horizon": 40, "gamma": 1.0},
            "estimators": ["p", "np", "moe", "IS", "WIS", "DR", "WDR"],
            "n_repetitions": 1,
            "n_true_rollouts": 4,
            "eps_traj": True,
            "seed": 11,
        }
        assert run_experiment(cfg).to_json() == ACROBOT_GOLDEN.read_text()

    def test_matches_windy_batch250_golden(self, monkeypatch):
        # the only golden whose actions have thousands of rows, so the only
        # one that runs the pruned global scan and local scans of 100+ rows
        assert batch250_document(monkeypatch) == BATCH250_GOLDEN.read_text()

    @pytest.mark.skipif(
        not dynamic_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS"
    )
    def test_distances_and_table1_do_not_depend_on_the_blas_kernel(self):
        # the kernels of older x86 CPUs, forced one per process, give the
        # default run's bytes: no distance goes through BLAS
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", PORTABLE_RUN], stdout=subprocess.PIPE, text=True,
                env={**env, **({"OPENBLAS_CORETYPE": core} if core else {})},
            )
            for core in (None, "Haswell", "Sandybridge", "Prescott")
        ]
        outputs = [run.communicate()[0] for run in runs]
        assert [run.returncode for run in runs] == [0] * 4
        assert outputs[1:] == outputs[:1] * 3

    def test_batch250_greedy_picks_take_few_local_scans(self, monkeypatch):
        # the global ratios decide all but a few of rep 0's 276 greedy picks
        # (`SelectionContext.decided`), so only those scan their neighbourhood
        scans = []
        local_scan = moesim.errors._local_scan
        monkeypatch.setattr(
            moesim.errors, "_local_scan", lambda *args: scans.append(1) or local_scan(*args)
        )
        run_repetition(batch250_config(0), 0)
        assert 0 < len(scans) <= 5

    @settings(max_examples=6, deadline=None)
    @given(order=st.permutations(range(3)))
    def test_repetitions_in_any_order_equal_the_report(self, order):
        # repetitions run one after another in one process, in any order,
        # give the report's records: none reads state another left behind
        cfg = validate_config(tiny_config(n_repetitions=3))
        records = sorted((run_repetition(cfg, r) for r in order), key=lambda rec: rec["rep"])
        report = run_experiment(cfg)
        assert json.dumps(records, sort_keys=True) == json.dumps(
            report.per_repetition, sort_keys=True
        )

    @pytest.mark.parametrize(
        "run",
        [
            lambda: run_experiment(tiny_config(), jobs=0),
            lambda: reproduce_table1(jobs=0, n_repetitions=1),
            lambda: reproduce_consistency(jobs=-1, batch_sizes=(10,), n_repetitions=1),
        ],
        ids=["run_experiment", "table1", "consistency"],
    )
    def test_jobs_below_one_is_a_config_error(self, run):
        with pytest.raises(ConfigError, match=r"^jobs: -?\d+ parallel repetitions"):
            run()

    def test_parallel_jobs_match_serial(self):
        cfg = tiny_config(n_repetitions=3)
        serial = run_experiment(cfg, jobs=1)
        parallel = run_experiment(cfg, jobs=2)
        assert serial.to_json() == parallel.to_json()

    def test_repetition_seed_isolation(self):
        # the same repetition index produces the same record no matter which
        # other repetitions ran before it
        cfg = validate_config(tiny_config(n_repetitions=2))
        solo = run_repetition(cfg, 1)
        after_other = [run_repetition(cfg, 0), run_repetition(cfg, 1)][1]
        assert json.dumps(solo, sort_keys=True) == json.dumps(after_other, sort_keys=True)

    def test_is_family_reweights_the_simulated_horizon(self):
        # on-policy with deterministic windy steps every logged trajectory
        # is the true one; they run 60 steps, the simulated horizon is 10
        cfg = tiny_config(
            behavior={"kind": "eps_greedy", "eps": 0.0}, seed=1,
            sim={"n_rollouts": 2, "horizon": 10, "gamma": 1.0},
            estimators=["IS", "WIS", "PDIS", "CWPDIS", "DR", "WDR"],
        )
        rec = run_repetition(validate_config(cfg), 0)
        assert rec["v_true"] == -10.0
        assert {name: e["v_hat"] for name, e in rec["estimates"].items()} == {
            name: -10.0 for name in cfg["estimators"]
        }

    def test_relative_rmse_normalizes_by_plain_is(self):
        report = run_experiment(tiny_config())
        agg = report.aggregates
        assert agg["IS"]["relative_rmse"] == pytest.approx(1.0)
        for name, entry in agg.items():
            assert entry["relative_rmse"] == pytest.approx(
                entry["rmse"] / agg["IS"]["rmse"]
            )


class TestTable1Pattern:
    def test_pattern_holds_on_a_small_slice(self):
        cfg = windy_table1_config(seed=5, n_repetitions=5)
        report = run_experiment(cfg)
        for rec in report.per_repetition:
            est = rec["estimates"]
            assert est["np"]["capped"]
            assert est["p"]["v_hat"] > rec["v_true"]
            assert abs(est["moe"]["v_hat"] - rec["v_true"]) < min(
                abs(est["p"]["v_hat"] - rec["v_true"]),
                abs(est["np"]["v_hat"] - rec["v_true"]),
            )


class TestBuildContext:
    def test_applies_bound_overrides_and_reward_weight(self):
        cfg = planning_toy_config(16, "accurate")
        _, ctx = build_context(validate_config(cfg), 0)
        assert ctx.bound.l_t == 1.0
        assert ctx.bound.l_r == math.sqrt(2.0)

    @pytest.mark.parametrize("bound", [{}, {"l_t": 1.5}])
    def test_an_overflowing_global_ratio_needs_a_given_l_t(self, monkeypatch, bound):
        # two behaviour starts 1e-160 apart, both moving right, to distinct
        # next states: the estimated transition ratio overflows
        trajectories = [
            Trajectory([[0.0, 0.0], [1.0, 0.0]], [3], [-1.0]),
            Trajectory([[1e-160, 0.0], [2.0, 0.0]], [3], [-1.0]),
        ]
        monkeypatch.setattr(moesim.experiments, "generate_trajectories",
                            lambda *a, **k: (trajectories, [np.ones(1)] * 2))
        cfg = validate_config(tiny_config(bound=bound, estimators=["p", "np", "moe"]))
        if not bound:
            with pytest.raises(RepetitionError) as err:
                run_repetition(cfg, 0)
            assert str(err.value) == (
                "repetition 0, data and context: the global transition Lipschitz ratio of "
                "action 3 overflows to inf: two of its starts nearly coincide; give bound.l_t "
                "in the config instead"
            )
            return
        batch, ctx = build_context(cfg, 0)
        assert ctx.bound.l_t == 1.5
        # the given l_t also sets the radius, C = mean finite residual / l_t
        residuals, _ = parametric_residuals(batch.visible, ctx.parametric, ctx.nonparametric.metric)
        assert ctx.nonparametric.radius == float(residuals[np.isfinite(residuals)].mean()) / 1.5 > 0
        rec = run_repetition(cfg, 0)
        assert all(math.isfinite(e["v_hat"]) for e in rec["estimates"].values())

    def test_one_scan_serves_estimated_and_oracle_errors(self, monkeypatch):
        calls = []
        for name in ("parametric_residuals", "global_lipschitz"):
            fn = getattr(moesim.experiments, name)
            monkeypatch.setattr(
                moesim.experiments, name,
                lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k),
            )
        cfg = planning_toy_config(8, "accurate")
        cfg["selector"]["mcts_budget"] = 8
        cfg["estimators"] = ["moe", "moe_true", "mcts_moe_true"]
        run_repetition(validate_config(cfg), 0)
        assert sorted(calls) == ["global_lipschitz", "parametric_residuals"]


def each_kind_config(kind):
    """One small repetition on environment `kind`."""
    env = {
        "windy2d": {"kind": "windy2d", "horizon": 30},
        "planning_toy": {"kind": "planning_toy", "horizon": 8},
        "acrobot": {"kind": "acrobot", "horizon": 30, "height_filter": 0.0},
    }[kind]
    model = {"kind": "env_analytic", "reward_variant": "inaccurate"} if kind == "planning_toy" \
        else {"kind": "ridge"}
    return tiny_config(
        env=env, model=model, n_repetitions=1, n_behavior_trajectories=3,
        sim={"n_rollouts": 2, "horizon": 8, "gamma": 1.0},
        estimators=["p", "np", "moe", "IS", "WIS"],
    )


class TestTasks:
    @pytest.mark.parametrize("kind", ["windy2d", "planning_toy", "acrobot"])
    def test_one_repetition_of_each_env_kind(self, kind):
        cfg = validate_config(each_kind_config(kind))
        batch, ctx = build_context(cfg, 0)
        task = batch.task
        assert (task.analytic is None) == (kind == "acrobot")
        assert (task.behavior_starts is not None) == (kind == "planning_toy")
        assert (task.height is not None) == ("height_filter" in SECTIONS["env"][kind])
        assert len(batch.trajectories) == 3 and len(batch.dataset) > 0
        rec = run_repetition(cfg, 0)
        assert all(math.isfinite(e["v_hat"]) for e in rec["estimates"].values())

    def test_env_analytic_without_one_exits_2_before_any_rollout(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(moesim.experiments, "generate_trajectories",
                            lambda *a, **k: calls.append(a))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(env={"kind": "acrobot"})))
        assert cli_main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "config error: model.kind: acrobot has no analytic model" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "report.json").exists()


def tiny_dataset():
    rng = np.random.default_rng(3)
    transitions = [
        Transition(rng.normal(size=2), i % 2, float(rng.normal()), rng.normal(size=2), 0, i)
        for i in range(8)
    ]
    return Dataset(transitions, [transitions[0].x], 2, 3)


def written_out(capsys, section, given):
    """`given` with every default that `moesim schema` prints for it."""
    assert cli_main(["schema"]) == 0
    printed = json.loads(capsys.readouterr().out)["sections"][section]
    keys = printed[given["kind"]] if "kind" in given else printed
    return {**{k: v for k, v in keys.items() if v != "<required>"}, **given}


class TestFitParametricDefaults:
    # the defaults a bare `model` section fits with, bit for bit, and the
    # ones `moesim schema` prints for each section
    def test_ridge(self):
        ds = tiny_dataset()
        got = fit_parametric(ds, {"kind": "ridge"})
        want = RidgePerActionModel(ds.dim, ds.n_actions, 1e-6).fit(ds)
        assert got.coefs[2] is None and want.coefs[2] is None
        for a in range(2):
            assert got.coefs[a].tobytes() == want.coefs[a].tobytes()

    def test_mlp(self):
        ds = tiny_dataset()
        got = fit_parametric(ds, {"kind": "mlp"})
        want = MLPModel(ds.dim, ds.n_actions, 64, 1, seed=0).fit(ds, 2000, 0.05)
        assert got.fitted_actions == want.fitted_actions == {0, 1}
        for g, w in zip(got.params.weights + got.params.biases,
                        want.params.weights + want.params.biases):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("kind", ["ridge", "mlp"])
    def test_printed_defaults_written_out(self, capsys, kind):
        ds = tiny_dataset()
        bare = fit_parametric(ds, {"kind": kind})
        full = fit_parametric(ds, written_out(capsys, "model", {"kind": kind}))
        got = bare.coefs if kind == "ridge" else bare.params.weights + bare.params.biases
        want = full.coefs if kind == "ridge" else full.params.weights + full.params.biases
        assert [g is None or g.tobytes() for g in got] == [w is None or w.tobytes() for w in want]

    @pytest.mark.parametrize(
        "env, model", [("windy2d", "ridge"), ("planning_toy", "env_analytic"), ("acrobot", "ridge")]
    )
    def test_bare_sections_run_as_their_printed_defaults(self, capsys, env, model):
        bare = tiny_config(
            env={"kind": env}, model={"kind": model}, n_repetitions=1,
            behavior={"kind": "eps_greedy", "eps": 0.2}, n_behavior_trajectories=2,
            sim={"n_rollouts": 1, "horizon": 6, "gamma": 1.0}, selector={}, bound={},
            estimators=["p", "moe", "mcts_moe", "IS"], n_true_rollouts=1,
        )
        full = dict(bare, **{
            section: written_out(capsys, section, bare[section])
            for section in ("env", "behavior", "model", "selector", "bound")
        })
        assert full["env"]["horizon"] == SECTIONS["env"][env]["horizon"]
        assert json.dumps(run_repetition(validate_config(bare), 0)) == json.dumps(
            run_repetition(validate_config(full), 0)
        )


class TestErrorMaps:
    def _grid(self):
        return {"x_range": [-2.0, 12.0], "y_range": [0.0, 14.0], "resolution": 8}

    def test_grid_shape_and_fallback_labels(self, tmp_path):
        cfg = windy_table1_config(seed=2, n_repetitions=1)
        rows = emit_error_maps(cfg, self._grid(), tmp_path / "maps.csv")
        assert len(rows) == 8 * 8 * 4
        fallback_rows = [r for r in rows if r["selected"] == "parametric_fallback"]
        assert fallback_rows, "grid should include off-data fallback points"
        for r in fallback_rows:
            assert not np.isfinite(r["est_eps_np"])
        near_data = [r for r in rows if r["selected"] == "nonparametric"]
        for r in near_data:
            assert r["est_eps_np"] < r["est_eps_p"]

    def test_correct_fraction_recount_from_csv(self, tmp_path):
        cfg = windy_table1_config(seed=3, n_repetitions=1)
        path = tmp_path / "maps.csv"
        rows = emit_error_maps(cfg, self._grid(), path)
        reported = sum(1 for r in rows if r["correct"]) / len(rows)
        with path.open() as fh:
            reader = csv.DictReader(fh)
            recount = [int(row["correct"]) for row in reader]
        assert sum(recount) / len(recount) == pytest.approx(reported)

    def test_estimates_equal_the_builders_context(self, tmp_path):
        cfg = windy_table1_config(seed=2, n_repetitions=1)
        rows = emit_error_maps(cfg, self._grid(), tmp_path / "maps.csv")
        _, ctx = build_context(validate_config(cfg), 0)
        for r in rows:
            x = np.array([r["x0"], r["x1"]])
            assert r["est_eps_np"] == ctx.estimate(NONPARAMETRIC, x, r["action"]).eps_t
            assert r["est_eps_p"] == ctx.estimate(PARAMETRIC, x, r["action"]).eps_t

    def test_rejects_non_2d_env(self, tmp_path):
        cfg = tiny_config(env={"kind": "acrobot"}, model={"kind": "mlp", "epochs": 1})
        with pytest.raises(ConfigError):
            emit_error_maps(cfg, self._grid(), tmp_path / "maps.csv")


class TestCLI:
    @pytest.mark.parametrize("command", ["error-maps"])
    def test_jobs_is_rejected_where_it_does_nothing(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--config", "c.json", "--jobs", "2"])

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x"}))
        assert cli_main(["evaluate", "--config", str(bad), "--out", str(tmp_path)]) == 2
        missing = tmp_path / "nope.json"
        assert cli_main(["evaluate", "--config", str(missing), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "section, value",
        [
            ("behavior", {"kind": "eps_greedy"}),
            ("behavior", {"kind": "eps_greedy", "eps": 0.1, "trigger": {"dim": 1}}),
            ("env", {"kind": "ode"}),
            ("eval_policy", {"kind": "constant_action"}),
            ("selector", {"mcts_budgt": 4}),
            ("selector", {"horizon": 8}),
            ("selector", {"delta_coeff": "transition"}),
            ("model", {"kind": "env_analytic", "ridge_lamda": 0.1}),
            ("sim", {"n_rollouts": 2, "horizon": 40, "gamma": 1.0, "seed": 1}),
            ("bound", {"lt": 1.0}),
            ("env", {"kind": "windy2d", "wind_slope": 0.1}),
            ("env", {"kind": "windy2d", "step_size": 0.5}),
            ("env", {"kind": "windy2d", "goal_box": [[9, 12], [9, 12]]}),
            ("env", {"kind": "windy2d", "start_box": [[0, 1], [0, 1]]}),
            ("env", {"kind": "windy2d", "goal_height": 1.0}),
            ("model", {"kind": "mlp", "layers": 3}),
            ("model", {"kind": "ridge", "ridge_lambda": -1}),
            ("model", {"kind": "mlp", "learning_rate": 0}),
            ("model", {"kind": "forest"}),
            ("selector", {"mcts_budget": 0}),
            ("selector", {"alpha_r": 0.5}),
        ],
        ids=[
            "eps_greedy_without_eps", "trigger_without_threshold", "ode_without_spec",
            "constant_action_without_action", "selector_typo", "selector_horizon",
            "selector_delta_coeff", "model_typo", "sim_unknown_key", "bound_typo",
            "env_wind_slope", "env_step_size", "env_goal_box", "env_start_box",
            "env_goal_height", "model_three_layers", "model_negative_ridge_lambda",
            "model_zero_learning_rate", "model_unknown_kind", "selector_zero_budget",
            "selector_alpha_r",
        ],
    )
    def test_config_mistakes_exit_2(self, tmp_path, section, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(**{section: value})))
        assert cli_main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "command",
        [["evaluate"], ["evaluate", "--seed", "3"], ["evaluate", "--mcts-trace"],
         ["evaluate", "--rollout-log"], ["error-maps"], ["error-maps", "--seed", "1"]],
        ids=["evaluate", "evaluate_seed", "evaluate_mcts_trace", "evaluate_rollout_log",
             "error_maps", "error_maps_seed"],
    )
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, command):
        # an override must not index the config before it is known to be an object
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        argv = [command[0], "--config", str(cfg_path), "--out", str(tmp_path), *command[1:]]
        assert cli_main(argv) == 2
        assert "config error: $: [1, 2] is not of type 'object'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("content, message", [
        (None, "Is a directory"),
        (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["directory", "undecodable"])
    @pytest.mark.parametrize("command", ["evaluate", "error-maps"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, command, content, message):
        cfg_path = tmp_path / "cfg.json"
        if content is None:
            cfg_path.mkdir()
        else:
            cfg_path.write_bytes(content)
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {cfg_path}: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("which", ["table1", "consistency"])
    def test_negative_reproduce_seed_exits_2(self, tmp_path, capsys, which):
        # consistency derives its configs' seeds from the master seed
        assert cli_main(["reproduce", which, "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert "config error: $.seed: -1 is less than the minimum of 0" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []

    def test_declared_model_seed_is_accepted(self):
        cfg = validate_config(tiny_config(model={"kind": "mlp", "seed": 3}))
        assert cfg["model"]["seed"] == 3

    @pytest.mark.parametrize("resolution", ["0", "-3"])
    def test_error_maps_resolution_below_one_exits_2(self, tmp_path, resolution):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(windy_table1_config(seed=1, n_repetitions=1)))
        code = cli_main([
            "error-maps", "--config", str(cfg_path), "--out", str(tmp_path),
            "--resolution", resolution,
        ])
        assert code == 2
        assert not (tmp_path / "error_maps.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--x-min", "--x-max", "--y-min", "--y-max"])
    def test_error_maps_non_finite_range_exits_2(self, tmp_path, capsys, flag, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(windy_table1_config(seed=1, n_repetitions=1)))
        code = cli_main([
            "error-maps", "--config", str(cfg_path), "--out", str(tmp_path),
            f"{flag}={value}", "--resolution", "3",  # "-inf" alone would read as a flag
        ])
        assert code == 2
        key = "x_range" if flag.startswith("--x") else "y_range"
        assert re.search(rf"config error: {key}: \[.*{value}.*\] must be finite",
                         capsys.readouterr().err)
        assert not (tmp_path / "error_maps.csv").exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_a_file"])
    @pytest.mark.parametrize(
        "command",
        [["evaluate", "--config", "{cfg}"], ["error-maps", "--config", "{cfg}"],
         ["reproduce", "table2"]],
        ids=["evaluate", "error_maps", "reproduce"],
    )
    def test_out_that_is_a_file_exits_2_before_any_work(
        self, tmp_path, capsys, command, below
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(windy_table1_config(seed=1, n_repetitions=1)))
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken / "sub" if below else taken
        argv = [arg.format(cfg=cfg_path) for arg in command] + ["--out", str(out)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: --out: {taken} exists and is not a directory\n"
        assert captured.out == ""  # no repetition ran, no table was printed
        assert taken.read_text() == "kept"

    @pytest.mark.parametrize("cfg, flags", [
        ({"name": "x"}, []),
        (windy_table1_config(seed=1, n_repetitions=1), ["--resolution", "0"]),
        (tiny_config(env={"kind": "acrobot"}, model={"kind": "ridge"}), []),
    ], ids=["schema", "resolution", "not_2d"])
    def test_rejected_error_maps_config_makes_no_directory(self, tmp_path, cfg, flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "maps" / "deep"
        assert cli_main(["error-maps", "--config", str(cfg_path), "--out", str(out), *flags]) == 2
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("seed", ["0", "3", "-1"])
    def test_reproduce_table2_rejects_seed(self, tmp_path, capsys, seed):
        # the study is deterministic: a seed would change nothing
        assert cli_main(["reproduce", "table2", "--seed", seed, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: --seed: table2 is deterministic and takes no seed\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_reproduce_table2_matches_golden(self, tmp_path, capsys):
        assert cli_main(["reproduce", "table2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table2.json").read_bytes() == TABLE2_GOLDEN.read_bytes()
        assert capsys.readouterr().out == (
            "horizon: 16\n"
            "  accurate: p=39, np=39, moe_true=46.5, mcts_moe_true=18\n"
            "  inaccurate: p=63.5, np=39, moe_true=58.5, mcts_moe_true=16.5\n"
            f"wrote {tmp_path / 'table2.json'}\n"
        )

    def test_reproduce_table2_rejects_jobs(self, tmp_path):
        code = cli_main(["reproduce", "table2", "--jobs", "2", "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "table2.json").exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize(
        "command",
        [["evaluate", "--config", "{cfg}"], ["reproduce", "table1"], ["reproduce", "consistency"]],
        ids=["evaluate", "table1", "consistency"],
    )
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, command, jobs):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        argv = [arg.format(cfg=cfg_path) for arg in command]
        assert cli_main(argv + ["--jobs", jobs, "--out", str(tmp_path)]) == 2
        assert "config error: --jobs:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize(
        "section, value, field",
        [
            ("eval_policy", {"kind": "constant_action", "action": 7}, "eval_policy.action"),
            ("metric_weights", [1.0, 1.0, 1.0], "metric_weights"),
            ("metric_weights", [], "$.metric_weights"),
            ("env", {"kind": "windy2d", "height_filter": 0.0}, "env.height_filter"),
            ("initial_states", [[0.0]], "initial_states"),
            ("initial_states", [[0.0, "a"]], "$.initial_states[0][1]"),
            ("initial_states", [], "$.initial_states"),
            ("sim", {"n_rollouts": 2, "horizon": 61, "gamma": 1.0}, "sim.horizon"),
            # keys that the section's kind does not read, or that only fit
            # another env kind
            ("model", {"kind": "env_analytic", "reward_variant": "accurate"},
             "model.reward_variant"),
            ("model", {"kind": "ridge", "reward_variant": "inaccurate"}, "model.reward_variant"),
            ("model", {"kind": "mlp", "ridge_lambda": 0.1}, "model.ridge_lambda"),
            ("model", {"kind": "env_analytic", "ridge_lambda": 0.1}, "model.ridge_lambda"),
            ("model", {"kind": "ridge", "hidden": 8}, "model.hidden"),
            ("model", {"kind": "ridge", "layers": 2}, "model.layers"),
            ("model", {"kind": "ridge", "epochs": 10}, "model.epochs"),
            ("model", {"kind": "ridge", "learning_rate": 0.1}, "model.learning_rate"),
            ("model", {"kind": "ridge", "seed": 3}, "model.seed"),
            ("model", {"kind": "env_analytic", "seed": 0}, "model.seed"),
            ("behavior", {"kind": "env_scripted", "eps": 0.1}, "behavior.eps"),
            ("behavior", {"kind": "env_scripted", "trigger": None}, "$.behavior"),
            ("eval_policy", {"kind": "env_default", "action": 0}, "eval_policy.action"),
            ("eval_policy", {}, "$.eval_policy"),
            ("env", {"kind": "planning_toy", "height_filter": None}, "env.height_filter"),
            ("env", {"kind": "ode"}, "$.env.kind"),
        ],
        ids=["action_out_of_range", "metric_weights_length",
             "metric_weights_empty",
             "height_filter_off_acrobot", "initial_state_length", "initial_state_not_a_number",
             "initial_states_empty", "sim_horizon_beyond_logged_steps",
             "reward_variant_off_planning_toy", "reward_variant_on_ridge",
             "ridge_lambda_on_mlp", "ridge_lambda_on_env_analytic", "hidden_on_ridge",
             "layers_on_ridge", "epochs_on_ridge", "learning_rate_on_ridge", "seed_on_ridge",
             "seed_on_env_analytic", "eps_on_env_scripted", "trigger_on_env_scripted",
             "action_on_env_default", "eval_policy_without_kind",
             "height_filter_on_planning_toy", "unknown_env_kind"],
    )
    @pytest.mark.parametrize("command", ["evaluate", "error-maps"])
    def test_values_that_must_fit_the_env_exit_2(
        self, tmp_path, capsys, command, section, value, field
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(**{section: value})))
        assert cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize(
        "section, value, field",
        [
            ("initial_states", [[math.nan, 0.0]], "$.initial_states[0][0]"),
            ("metric_weights", [1.0, math.nan], "$.metric_weights[1]"),
            ("metric_weights", [math.inf, 1.0], "$.metric_weights[0]"),
            ("bound", {"l_t": math.nan}, "$.bound.l_t"),
            ("bound", {"l_t": math.inf}, "$.bound.l_t"),
            ("behavior", {"kind": "eps_greedy", "eps": math.nan}, "$.behavior.eps"),
            ("sim", {"n_rollouts": 2, "horizon": 40, "gamma": math.nan}, "$.sim.gamma"),
            ("model", {"kind": "ridge", "ridge_lambda": math.inf}, "$.model.ridge_lambda"),
        ],
        ids=["initial_state_nan", "metric_weight_nan", "metric_weight_inf", "l_t_nan",
             "l_t_inf", "eps_nan", "gamma_nan", "ridge_lambda_inf"],
    )
    @pytest.mark.parametrize("command", ["evaluate", "error-maps"])
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, command, section, value, field):
        # Python's json writes and reads NaN and Infinity
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(**{section: value})))
        assert cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("command", ["evaluate", "error-maps"])
    def test_duplicate_estimators_exit_2(self, tmp_path, capsys, command):
        # a repeated estimator would run twice and keep one record entry
        cfg = windy_table1_config(seed=1, n_repetitions=1)
        cfg["estimators"] = ["moe", "moe"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: $.estimators: ")
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # validates and builds, but the true acrobot overflows when eps_traj
        # replays the simulated rollout from this start
        cfg = tiny_config(
            env={"kind": "acrobot"}, model={"kind": "ridge"}, estimators=["p"],
            n_repetitions=1, initial_states=[[0.0, 0.0, 0.0, 400.0]],
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert "error: repetition 0, estimator p: acrobot step overflowed" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "report.json").exists()

    @staticmethod
    def diverging_truth_rollouts(monkeypatch):
        def diverge(*args, **kwargs):
            raise FloatingPointError("diverged: non-finite true state")

        monkeypatch.setattr(moesim.experiments, "evaluate_policy_true", diverge)

    def test_diverging_truth_rollouts_name_repetition_and_stage(
        self, tmp_path, capsys, monkeypatch
    ):
        self.diverging_truth_rollouts(monkeypatch)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(model={"kind": "ridge"}, estimators=["moe"])))
        code = cli_main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 1
        assert "error: repetition 0, truth rollouts: diverged:" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_repetition_error_chains_the_cause(self, monkeypatch):
        self.diverging_truth_rollouts(monkeypatch)
        cfg = validate_config(tiny_config(model={"kind": "ridge"}, estimators=["moe"]))
        with pytest.raises(RepetitionError) as err:
            run_repetition(cfg, 1)
        assert str(err.value) == "repetition 1, truth rollouts: diverged: non-finite true state"
        assert isinstance(err.value.__cause__, FloatingPointError)

    @staticmethod
    def invalid_eval_policy_partway(monkeypatch):
        """The evaluation policy's probabilities sum to 2 above height 3:
        valid at the windy starts, invalid partway through a rollout."""
        build = moesim.experiments.build_eval_policy

        def invalid_partway(cfg, task):
            policy = build(cfg, task)
            return Policy(policy.n_actions,
                          lambda x: policy.probs(x) * (2.0 if x[1] > 3.0 else 1.0))

        monkeypatch.setattr(moesim.experiments, "build_eval_policy", invalid_partway)

    @pytest.mark.parametrize("behavior, stage", [
        ({"kind": "eps_greedy", "eps": 0.3}, "data and context"),  # the behaviour rollouts
        ({"kind": "env_scripted"}, "truth rollouts"),
        # the scripted behaviour never asks the evaluation policy, and a
        # stand-in truth value skips the truth rollouts, so the invalid
        # probabilities first meet the estimator's simulated rollouts
        # a simulated rollout also names the rollout and the step: the first
        # state above height 3 is reached on step 3, where the policy samples
        # (p, moe) or a planning decision steps past it (mcts_moe)
        ({"kind": "env_scripted"}, "estimator p: rollout 0, step 3"),
        ({"kind": "env_scripted"}, "estimator moe: rollout 0, step 3"),
        ({"kind": "env_scripted"}, "estimator mcts_moe: rollout 0, step 0"),
    ])
    def test_invalid_policy_probabilities_name_repetition_and_stage(
        self, tmp_path, capsys, monkeypatch, behavior, stage
    ):
        self.invalid_eval_policy_partway(monkeypatch)
        estimator = "moe"
        if stage.startswith("estimator "):
            estimator = stage.removeprefix("estimator ").partition(":")[0]
            monkeypatch.setattr(moesim.experiments, "evaluate_policy_true", lambda *a, **k: -10.0)
        cfg = tiny_config(behavior=behavior, estimators=[estimator], n_repetitions=1)
        message = f"repetition 0, {stage}: policy probabilities must be nonnegative and sum to 1"
        with pytest.raises(RepetitionError) as err:
            run_repetition(validate_config(cfg), 0)
        assert str(err.value) == message
        assert isinstance(err.value.__cause__, ValueError)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("env", ["windy2d", "acrobot"])
    def test_diverged_model_fails_dr_rollouts(self, env):
        cfg = tiny_config(
            env={"kind": env}, seed=1, n_behavior_trajectories=4, n_repetitions=1,
            model={"kind": "mlp", "epochs": 200, "learning_rate": 1e6, "hidden": 8},
            estimators=["DR"],
        )
        with np.errstate(all="ignore"), pytest.raises(RepetitionError) as err:
            run_repetition(validate_config(cfg), 0)
        assert str(err.value).startswith(
            "repetition 0, estimator DR: model predicted a non-finite state or reward "
            "at rollout step "
        )

    @pytest.mark.parametrize("estimator", ["p", "moe", "mcts_moe"])
    def test_diverged_model_fails_simulated_rollouts_naming_the_step(self, estimator):
        cfg = tiny_config(
            env={"kind": "acrobot"}, seed=1, n_behavior_trajectories=4, n_repetitions=1,
            model={"kind": "mlp", "epochs": 200, "learning_rate": 1e6, "hidden": 8},
            estimators=[estimator], selector={"mcts_budget": 8},
        )
        with np.errstate(all="ignore"), pytest.raises(RepetitionError) as err:
            run_repetition(validate_config(cfg), 0)
        assert re.fullmatch(
            f"repetition 0, estimator {estimator}: "
            r"rollout \d+: non-finite state or reward at trajectory step \d+",
            str(err.value),
        )

    @pytest.mark.parametrize("start, message", [
        ([math.nan, 0.0, 0.0, 0.0], "acrobot state must be finite: [nan, 0.0, 0.0, 0.0]"),
        ([0.0, 0.0, -math.inf, 0.0], "acrobot state must be finite: [0.0, 0.0, -inf, 0.0]"),
        ([0.0, 0.0, 0.0, 400.0], "acrobot step overflowed from state [0.0, 0.0, 0.0, 400.0]"),
    ])
    def test_oracle_step_on_a_bad_state_names_the_estimator(self, start, message):
        # moe_true steps the true acrobot from each simulated state, the
        # first of which is the given start; a config file cannot give a
        # non-finite start, so it is set after validation
        cfg = validate_config(tiny_config(
            env={"kind": "acrobot"}, seed=1, n_behavior_trajectories=4, n_repetitions=1,
            model={"kind": "ridge"}, estimators=["moe_true"],
        ))
        cfg["initial_states"] = [start]
        with pytest.raises(RepetitionError) as err:
            run_repetition(cfg, 0)
        assert str(err.value) == f"repetition 0, estimator moe_true: rollout 0, step 0: {message}"
        assert isinstance(err.value.__cause__, ValueError)

    def test_error_maps_subcommand(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(windy_table1_config(seed=1, n_repetitions=1)))
        code = cli_main([
            "error-maps", "--config", str(cfg_path), "--out", str(tmp_path),
            "--resolution", "5",
        ])
        assert code == 0
        header = (tmp_path / "error_maps.csv").read_text().splitlines()[0]
        assert header == (
            "x0,x1,action,true_eps_np,est_eps_np,true_eps_p,est_eps_p,selected,correct"
        )

    def test_error_maps_seed_overrides_the_config(self, tmp_path):
        def write_maps(cfg, out, *extra):
            cfg_path = tmp_path / f"{out}.json"
            cfg_path.write_text(json.dumps(cfg))
            args = ["error-maps", "--config", str(cfg_path), "--out", str(tmp_path / out)]
            assert cli_main(args + ["--resolution", "4", *extra]) == 0
            return (tmp_path / out / "error_maps.csv").read_bytes()

        flagged = write_maps(windy_table1_config(seed=1, n_repetitions=1), "flag", "--seed", "7")
        assert flagged == write_maps(windy_table1_config(seed=7, n_repetitions=1), "config")
        assert flagged != write_maps(windy_table1_config(seed=1, n_repetitions=1), "plain")

    def test_error_maps_skip_actions_no_expert_can_simulate(self, tmp_path):
        # the scripted behavior never takes action 2, so the ridge expert is
        # unfitted there and the nonparametric expert has no data for it
        cfg = windy_table1_config(seed=0, n_repetitions=1)
        cfg["model"] = {"kind": "ridge"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli_main([
            "error-maps", "--config", str(cfg_path), "--out", str(tmp_path),
            "--resolution", "3",
        ])
        assert code == 0
        with (tmp_path / "error_maps.csv").open() as fh:
            actions = {int(row["action"]) for row in csv.DictReader(fh)}
        assert 2 not in actions and actions

    def test_schema_subcommand(self, capsys):
        assert cli_main(["schema"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "schema" in payload and "defaults" in payload
        assert payload["sections"]["selector"]["mcts_budget"] == 128

    def test_diagnostic_logs(self, tmp_path):
        cfg = tiny_config(
            estimators=["mcts_moe"],
            n_repetitions=1,
            selector={"mcts_budget": 8},
            sim={"n_rollouts": 1, "horizon": 6, "gamma": 1.0},
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli_main([
            "evaluate", "--config", str(cfg_path), "--out", str(tmp_path),
            "--mcts-trace", "--rollout-log",
        ])
        assert code == 0
        rollouts = (tmp_path / "rollouts.jsonl").read_text().strip().splitlines()
        assert len(rollouts) == 1
        row = json.loads(rollouts[0])
        assert row["estimator"] == "mcts_moe"
        assert set(row) >= {"rollout", "seed", "return", "steps", "model_usage"}
        traces = (tmp_path / "mcts_trace.jsonl").read_text().strip().splitlines()
        assert traces and json.loads(traces[0])["chosen"] in (
            "parametric", "nonparametric",
        )


class TestDoublyRobustTripwire:
    """DR and WDR of the benchmark's `acrobot_dr` config (ridge expert,
    model-rollout control variates) at master seeds 0 and 7, pinned to the
    values that one-rollout-at-a-time control variates gave.  The windy
    golden fixture cannot see these: it runs no ridge expert and its IS
    weights are all zero.  Only the estimators and the number of true
    rollouts differ from the benchmark config; neither feeds DR or WDR."""

    @pytest.mark.parametrize(
        "seed, dr, wdr",
        [
            (0, -200.00000000000023, -199.99999999999997),
            (7, -200.00000000000003, -199.99999999999997),
        ],
    )
    def test_acrobot_dr_values(self, seed, dr, wdr):
        cfg = validate_config({
            "name": "acrobot-dr-tripwire",
            "env": {"kind": "acrobot", "horizon": 200},
            "behavior": {"kind": "eps_greedy", "eps": 0.1},
            "n_behavior_trajectories": 6,
            "model": {"kind": "ridge"},
            "sim": {"n_rollouts": 8, "horizon": 200, "gamma": 1.0},
            "estimators": ["DR", "WDR"],
            "n_true_rollouts": 1,
            "seed": seed,
        })
        estimates = run_repetition(cfg, 0)["estimates"]
        assert estimates["DR"]["v_hat"] == dr
        assert estimates["WDR"]["v_hat"] == wdr


@pytest.mark.parametrize("config", [
    windy_table1_config(seed=3, n_repetitions=1),
    tiny_config(env={"kind": "acrobot", "horizon": 60}, model={"kind": "ridge"},
                sim={"n_rollouts": 6, "horizon": 60, "gamma": 1.0},
                estimators=["p", "moe", "mcts_moe", "DR", "WDR"], selector={"mcts_budget": 4},
                mcts_trace=True, rollout_log=True, n_repetitions=1),
])
def test_eps_traj_replays_each_start_once_as_the_general_path_does(monkeypatch, config):
    # the estimators of a repetition share one true rollout per start; the
    # evaluation policy without its action function, whose replays could
    # depend on their draws, shares one per (start, rollout) instead, and
    # the records must not differ
    cfg = validate_config(config)
    rolled = []
    replay = moesim.experiments.rollout_policy

    def recorded(env, policy, starts, *args):
        rolled.extend(np.asarray(x).tobytes() for x in starts)
        return replay(env, policy, starts, *args)

    monkeypatch.setattr(moesim.experiments, "rollout_policy", recorded)
    record = run_repetition(cfg, 0)
    assert len(rolled) == len(set(rolled)) > 0
    direct = len(rolled)
    build = moesim.experiments.build_eval_policy
    monkeypatch.setattr(
        moesim.experiments, "build_eval_policy", lambda c, task: general_path(build(c, task))
    )
    rolled.clear()
    assert run_repetition(cfg, 0) == record
    assert len(rolled) >= direct
