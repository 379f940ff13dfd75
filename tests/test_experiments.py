"""Experiment orchestration, reports, error maps, and the CLI."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import moesim.experiments
from moesim.cli import build_parser
from moesim.cli import main as cli_main
from moesim.core import read_dataset_csv
from moesim.envs import DivergedError
from moesim.experiments import (
    ConfigError,
    RepetitionError,
    build_context,
    emit_error_maps,
    run_experiment,
    run_repetition,
    validate_config,
)
from moesim.models import NONPARAMETRIC, PARAMETRIC
from moesim.reproduce import planning_toy_config, windy_table1_config

GOLDEN = Path(__file__).parent / "golden" / "tiny_windy_report.json"
MCTS_GOLDEN = Path(__file__).parent / "golden" / "tiny_windy_mcts_report.json"


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


def diverging_ode_config(tmp_path):
    """An ODE config whose truth rollouts diverge: x' = x^2 from x = 0.1
    blows up at t = 10, so the 2-step behaviour rollouts stay finite and
    the 40-step truth rollouts do not."""
    spec = {
        "state_names": ["x"], "actions": [[]], "rhs": ["x*x"], "reward": "-x",
        "dt": 0.05, "steps_per_decision": 20, "initial_states": [[0.1]],
        "horizon": 2,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    return tiny_config(
        env={"kind": "ode", "spec_path": str(tmp_path / "spec.json")},
        model={"kind": "ridge"}, estimators=["moe"],
    )


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

    def test_rep_order_permutation_is_invisible(self):
        cfg = tiny_config(n_repetitions=3)
        forward = run_experiment(cfg)
        permuted = run_experiment(cfg, rep_order=[2, 0, 1])
        assert forward.to_json() == permuted.to_json()

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
        cfg["selector"]["alpha_r"] = 0.5
        _, ctx = build_context(validate_config(cfg), 0)
        assert ctx.bound.l_t == 1.0
        assert ctx.bound.l_r == math.sqrt(2.0)
        assert ctx.alpha_r == 0.5

    def test_one_scan_serves_estimated_and_oracle_errors(self, monkeypatch):
        calls = []
        for name in ("parametric_residuals", "global_lipschitz"):
            fn = getattr(moesim.experiments, name)
            monkeypatch.setattr(
                moesim.experiments, name,
                lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k),
            )
        cfg = planning_toy_config(8, "accurate", budget=8)
        cfg["estimators"] = ["moe", "moe_true", "mcts_moe_true"]
        run_repetition(validate_config(cfg), 0)
        assert sorted(calls) == ["global_lipschitz", "parametric_residuals"]


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
    def test_generate_fit_evaluate_round_trip(self, tmp_path):
        cfg = tiny_config(model={"kind": "ridge", "ridge_lambda": 0.001})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))

        assert cli_main(["generate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        ds, pb = read_dataset_csv(tmp_path / "dataset.csv")
        assert len(ds) > 0 and pb is not None

        assert cli_main([
            "fit", "--config", str(cfg_path), "--data", str(tmp_path / "dataset.csv"),
            "--out", str(tmp_path),
        ]) == 0
        assert (tmp_path / "model.json").exists()

        assert cli_main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report["aggregates"]) == set(cfg["estimators"])

    def test_generated_dataset_is_the_builders(self, tmp_path):
        cfg = tiny_config()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["generate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        loaded, _ = read_dataset_csv(tmp_path / "dataset.csv")
        batch, _ = build_context(validate_config(cfg), 0)
        assert len(loaded) == len(batch.dataset)
        for got, want in zip(loaded.transitions, batch.dataset.transitions):
            assert np.array_equal(got.x, want.x) and np.array_equal(got.x_next, want.x_next)
            assert (got.a, got.r, got.traj_id, got.t) == (want.a, want.r, want.traj_id, want.t)

    @pytest.mark.parametrize("command", ["generate", "fit", "error-maps"])
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
        ],
        ids=[
            "eps_greedy_without_eps", "trigger_without_threshold", "ode_without_spec",
            "constant_action_without_action", "selector_typo", "selector_horizon",
            "selector_delta_coeff", "model_typo", "sim_unknown_key", "bound_typo",
        ],
    )
    def test_config_mistakes_exit_2(self, tmp_path, section, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(**{section: value})))
        assert cli_main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "report.json").exists()

    def test_declared_model_seed_is_accepted(self):
        cfg = validate_config(tiny_config(model={"kind": "ridge", "seed": 3}))
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

    def test_reproduce_table2_rejects_jobs(self, tmp_path):
        code = cli_main(["reproduce", "table2", "--jobs", "2", "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "table2.json").exists()

    @pytest.mark.parametrize(
        "section, value, field",
        [
            ("eval_policy", {"kind": "constant_action", "action": 7}, "eval_policy.action"),
            ("behavior", {"kind": "eps_greedy", "eps": 0.3,
                          "trigger": {"dim": 5, "greater_than": 1.0}}, "behavior.trigger.dim"),
            ("metric_weights", [1.0, 1.0, 1.0], "metric_weights"),
        ],
        ids=["action_out_of_range", "trigger_dim_out_of_range", "metric_weights_length"],
    )
    @pytest.mark.parametrize("command", ["evaluate", "generate"])
    def test_values_that_must_fit_the_env_exit_2(
        self, tmp_path, capsys, command, section, value, field
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(**{section: value})))
        assert cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "dataset.csv").exists()

    def test_runtime_error_exit_code(self, tmp_path):
        # validates against the schema but fails to build: the ODE spec file
        # does not exist
        cfg = tiny_config(env={"kind": "ode", "spec_path": str(tmp_path / "no.json")})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1

    def test_diverging_truth_rollouts_name_repetition_and_stage(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(diverging_ode_config(tmp_path)))
        with np.errstate(all="ignore"):
            code = cli_main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 1
        assert "error: repetition 0, truth rollouts: diverged:" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_repetition_error_chains_the_cause(self, tmp_path):
        with np.errstate(all="ignore"), pytest.raises(RepetitionError) as err:
            run_experiment(diverging_ode_config(tmp_path), rep_order=[1, 0])
        assert str(err.value).startswith("repetition 1, truth rollouts: diverged:")
        assert isinstance(err.value.__cause__, DivergedError)

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
        assert payload["selector_defaults"]["mcts_budget"] == 128

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
