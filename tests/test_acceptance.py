"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured quantities.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs them silently as ordinary tests.
"""

import json
import time

import numpy as np
import pytest

from helpers import (
    DeterministicMDP,
    flatten,
    mlp_loss,
    rollforward_state_error,
    simulate_bound_instance,
    state_error_closed_form,
    unflatten_like,
)

from moesim.baselines import ISInput, is_estimate
from moesim.core import Metric, trajectory_return
from moesim.envs.base import generate_trajectories, make_eps_greedy
from moesim.errors import BoundParams
from moesim.experiments import run_repetition, validate_config
from moesim.models import (
    NONPARAMETRIC,
    PARAMETRIC,
    mlp_gradient,
    mlp_init,
)
from moesim.reproduce import (
    TABLE2_TARGETS,
    reproduce_consistency,
    reproduce_table1,
    reproduce_table2,
    windy_table1_config,
    write_report,
)
from moesim.selection import greedy_select


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


class TestCriterion01BoundSoundness:
    def test_bound_holds_on_1000_random_instances(self):
        # 1-D instances can make the bound mathematically tight (triangle
        # inequalities saturate), so the comparison carries an IEEE-rounding
        # slack of 1e-12 relative; anything beyond that is a real violation
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        violations = 0
        worst_margin = np.inf
        for _ in range(1000):
            gap, bound = simulate_bound_instance(rng, horizon=5)
            worst_margin = min(worst_margin, bound - gap)
            if gap > bound + 1e-12 * max(1.0, bound):
                violations += 1
        elapsed = time.monotonic() - start
        report(
            "criterion 1 (bound soundness)",
            violations == 0 and elapsed < 10.0,
            f"violations={violations}/1000, min(bound-gap)={worst_margin:.3e} "
            f"(rounding slack 1e-12), runtime={elapsed:.2f}s (<10s)",
        )


class TestCriterion02ClosedForm:
    def test_iterated_recursion_equals_explicit_sum(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            t_len = int(rng.integers(1, 15))
            eps = rng.uniform(0.0, 3.0, size=t_len)
            p = BoundParams(float(rng.uniform(0.0, 2.0)), 1.0, 1.0)
            delta = 0.0
            for k in range(t_len):
                delta = rollforward_state_error(delta, p, eps[k])
            closed = state_error_closed_form(eps, p, t_len)
            worst = max(worst, abs(delta - closed))
        report(
            "criterion 2 (state-error closed form)",
            worst <= 1e-12 * max(1.0, closed),
            f"max |iterated - closed| = {worst:.3e} over 100 sequences (tol 1e-12)",
        )


class TestCriterion03PlanningToyOrdering:
    def test_ordering_with_true_errors(self):
        payload = reproduce_table2()
        ok = True
        details = [f"horizon {payload['horizon']}"]
        for variant in TABLE2_TARGETS:
            orders = payload["ordering"][variant]
            ok = ok and orders["mcts_strictly_smallest"]
            ok = ok and orders["greedy_worse_than_mcts"]
            details.append(
                f"{variant}: " + ", ".join(
                    f"{k}={v:.4g}" for k, v in payload["errors"][variant].items()
                )
            )
        report("criterion 3 (planning-toy ordering)", ok, "; ".join(details))


class TestCriterion04WindyPattern:
    def test_sign_pattern_100_reps(self):
        payload = reproduce_table1(seed=0, n_repetitions=100)
        frac = payload["pattern_fraction"]
        report(
            "criterion 4 (windy sign pattern)",
            frac >= 0.95,
            f"pattern fraction {frac:.3f} over 100 repetitions (need >= 0.95)",
        )


class TestCriterion05OnPolicyExactness:
    def test_ratio_variants_equal_mean_return(self):
        from moesim.core import Policy

        rng = np.random.default_rng(11)
        mdp = DeterministicMDP()
        greedy = Policy.deterministic(lambda x: 0 if x[0] < 2 else 1, 2)
        worst = 0.0
        for _ in range(50):
            horizon = int(rng.integers(2, 7))
            env = mdp.env(horizon)
            base = make_eps_greedy(greedy, float(rng.uniform(0.1, 0.9)))
            trajs, probs = generate_trajectories(
                env, base, int(rng.integers(5, 40)), seed=int(rng.integers(1e6))
            )
            gamma = float(rng.uniform(0.5, 1.0))
            inp = ISInput.build(trajs, probs, base, gamma)
            mean_return = float(
                np.mean([trajectory_return(t, gamma) for t in trajs])
            )
            for variant in ("IS", "WIS", "PDIS", "CWPDIS"):
                worst = max(worst, abs(is_estimate(inp, variant) - mean_return))
        report(
            "criterion 5 (on-policy exactness)",
            worst <= 1e-12,
            f"max deviation from mean return {worst:.3e} over 50 datasets (tol 1e-12)",
        )


class TestCriterion06ISConsistency:
    def test_is_lands_within_three_standard_errors(self):
        from moesim.core import Policy

        mdp = DeterministicMDP()
        horizon = 5
        env = mdp.env(horizon)
        eval_policy = Policy.deterministic(lambda x: 0 if x[0] < 2 else 1, 2)
        behavior = make_eps_greedy(eval_policy, 0.4)
        # exhaustive rollout of the deterministic pair: a single trajectory
        from moesim.simulator import rollout_policy

        (truth,) = rollout_policy(env, eval_policy, [np.array([0.0])], horizon, seed=0, ids=[0])
        v_true = trajectory_return(truth, 1.0)
        trajs, probs = generate_trajectories(env, behavior, 10_000, seed=99)
        inp = ISInput.build(trajs, probs, eval_policy, 1.0)
        estimate = is_estimate(inp, "IS")
        # standard error of the mean of the weighted returns
        rho_g = []
        for traj, pb, pe in zip(inp.trajectories, inp.behavior_probs, inp.eval_probs):
            w = float(np.prod(np.asarray(pe) / np.asarray(pb)))
            rho_g.append(w * trajectory_return(traj, 1.0))
        se = float(np.std(rho_g, ddof=1) / np.sqrt(len(rho_g)))
        gap = abs(estimate - v_true)
        report(
            "criterion 6 (IS consistency sanity)",
            gap <= 3 * se,
            f"|IS - v| = {gap:.4f} vs 3*SE = {3 * se:.4f} "
            f"(v={v_true}, IS={estimate:.4f}, n=10000)",
        )


class TestCriterion07EmpiricalConsistency:
    def test_median_rmse_strictly_decreasing(self):
        start = time.monotonic()
        payload = reproduce_consistency(
            seed=0, batch_sizes=(10, 50, 250), n_repetitions=20
        )
        elapsed = time.monotonic() - start
        med = payload["median_abs_error"]
        report(
            "criterion 7 (empirical consistency)",
            payload["strictly_decreasing"] and elapsed < 300.0,
            f"medians {med['10']:.3f} > {med['50']:.3f} > {med['250']:.3f}, "
            f"runtime={elapsed:.1f}s (<300s)",
        )


class TestCriterion08SelectionQuality:
    def test_probe_classes_are_perfect(self):
        from moesim.errors import (
            choose_radius,
            global_lipschitz,
            parametric_residuals,
        )
        from moesim.experiments import generate_batch
        from moesim.models import NonparametricModel
        from moesim.selection import SelectionContext

        cfg = validate_config(windy_table1_config(seed=4, n_repetitions=1))
        batch = generate_batch(cfg, 0)
        env, ds, eval_policy = batch.task.env, batch.dataset, batch.eval_policy
        metric = Metric.euclidean(2)
        pmodel = batch.task.analytic["accurate"]()
        residuals = parametric_residuals(ds, pmodel, metric)
        lips = global_lipschitz(ds, metric)
        radius = choose_radius(residuals[0], lips.l_t)
        ctx = SelectionContext(
            pmodel, NonparametricModel(ds, metric, radius),
            BoundParams(lips.l_t, lips.l_r, 1.0), eval_policy, lips, residuals,
            is_terminal=env.is_terminal,
        )

        on_data = [(tr.x, tr.a) for tr in ds.transitions]
        np_picks = sum(
            1 for x, a in on_data if greedy_select(ctx, x, a) == NONPARAMETRIC
        )
        far_points = [np.array(p) for p in [(30.0, 30.0), (-15.0, 20.0),
                                            (25.0, -5.0), (40.0, 0.0)]]
        all_starts = np.stack([tr.x for tr in ds.transitions])
        fallback_picks = 0
        n_far = 0
        for x in far_points:
            assert metric.distance(all_starts, x).min() > radius
            for a in range(env.n_actions):
                n_far += 1
                est = ctx.estimate(NONPARAMETRIC, x, a)
                if not est.supported and greedy_select(ctx, x, a) == PARAMETRIC:
                    fallback_picks += 1
        report(
            "criterion 8 (selection at probe classes)",
            np_picks == len(on_data) and fallback_picks == n_far,
            f"on-trajectory nonparametric {np_picks}/{len(on_data)}, "
            f"beyond-radius parametric fallback {fallback_picks}/{n_far} "
            f"(radius C={radius:.3f})",
        )


class TestCriterion09GradientCheck:
    def test_twenty_random_networks(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for trial in range(20):
            n_in = int(rng.integers(2, 5))
            n_out = int(rng.integers(1, 4))
            hidden = int(rng.integers(2, 6))
            layers = int(rng.integers(1, 3))
            params = mlp_init(n_in, n_out, hidden, layers, rng)
            X = rng.normal(size=(int(rng.integers(2, 8)), n_in))
            Y = rng.normal(size=(len(X), n_out))
            g = flatten(mlp_gradient(params, X, Y))
            flat = flatten(params)
            num = np.zeros_like(flat)
            h = 1e-5
            for i in range(len(flat)):
                up = flat.copy()
                up[i] += h
                dn = flat.copy()
                dn[i] -= h
                num[i] = (
                    mlp_loss(unflatten_like(params, up), X, Y)
                    - mlp_loss(unflatten_like(params, dn), X, Y)
                ) / (2 * h)
            rel = np.max(np.abs(g - num) / np.maximum(np.abs(num), 1e-8))
            worst = max(worst, float(rel))
        report(
            "criterion 9 (gradient check)",
            worst < 1e-4,
            f"max relative error {worst:.3e} over 20 networks (tol 1e-4)",
        )


class TestCriterion10AcrobotFilter:
    def test_full_fallback_under_empty_visibility(self):
        cfg = {
            "name": "acrobot-height-filter",
            "env": {"kind": "acrobot", "horizon": 250, "height_filter": -2.5},
            "behavior": {"kind": "env_scripted"},
            "n_behavior_trajectories": 12,
            "model": {"kind": "mlp", "hidden": 64, "layers": 1, "epochs": 400,
                      "learning_rate": 0.02},
            "sim": {"n_rollouts": 6, "horizon": 250, "gamma": 1.0},
            "estimators": ["p", "np", "moe"],
            "n_repetitions": 1,
            "n_true_rollouts": 2,
            "seed": 17,
            "eps_traj": False,
        }
        rec = run_repetition(validate_config(cfg), 0)
        est = rec["estimates"]
        np_never_attains = (
            est["np"]["n_unreached_goal"] == cfg["sim"]["n_rollouts"]
        )
        gap = abs(est["moe"]["v_hat"] - est["p"]["v_hat"])
        moe_fell_back = est["moe"]["model_usage"][NONPARAMETRIC] == 0
        report(
            "criterion 10 (height-filter fallback)",
            np_never_attains and gap <= 1e-9 and moe_fell_back,
            f"np unreached {est['np']['n_unreached_goal']}/{cfg['sim']['n_rollouts']}, "
            f"|v_moe - v_p| = {gap:.2e} (tol 1e-9), "
            f"moe nonparametric steps = {est['moe']['model_usage'][NONPARAMETRIC]}",
        )


class TestCriterion11Determinism:
    def test_reproduce_outputs_are_byte_identical(self, tmp_path):
        from moesim.cli import main as cli_main

        pairs = []
        for run in ("a", "b"):
            out = tmp_path / f"t2-{run}"
            assert cli_main(["reproduce", "table2", "--out", str(out)]) == 0
            pairs.append((out / "table2.json").read_bytes())
        table2_ok = pairs[0] == pairs[1]

        t1 = [
            write_report(
                reproduce_table1(seed=3, n_repetitions=8),
                tmp_path / f"t1-{run}", "table1.json",
            ).read_bytes()
            for run in ("a", "b")
        ]
        table1_ok = t1[0] == t1[1]

        cons = [
            write_report(
                reproduce_consistency(seed=3, batch_sizes=(10, 40), n_repetitions=4),
                tmp_path / f"c-{run}", "consistency.json",
            ).read_bytes()
            for run in ("a", "b")
        ]
        consistency_ok = cons[0] == cons[1]
        report(
            "criterion 11 (reproduce determinism)",
            table1_ok and table2_ok and consistency_ok,
            f"byte-identical: table1={table1_ok}, table2={table2_ok}, "
            f"consistency={consistency_ok}",
        )
