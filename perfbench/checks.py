"""Correctness checks on a repetition's outputs, computed apart from moesim.

Each check compares a program output against something the benchmark
computes itself or against a property the method guarantees:

* windy ground truth: every truth rollout is replayed with the benchmark's
  own windy step, from the same start draws, and `v_true` must match exactly;
* global Lipschitz constants: an exact all-pairs scan, to 1e-9 relative
  (moesim's gram-distance path differs in the 15th digit);
* estimator properties: `v_hat` is the mean of the rollout returns, each
  return lies in [-horizon, -1], and `model_usage` sums to the simulated
  steps;
* DR/WDR: both are recomputed from the program's `ISInput` and control
  variates with the backward recursion of the estimators.

A check returns `(name, ok, detail)`.  Capturing the outputs the record does
not carry (the Lipschitz scan's input and result, the value estimates, the
IS input and the control variates) is done by `Capture`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from patching import Patches

REL_TOL = 1e-9

# moesim's default windy geometry, restated: x' = x + step*unit(a) - (slope*y, 0)
WINDY_STEP = 1.0
WINDY_SLOPE = 0.03
WINDY_GOAL = ((8.5, 12.0), (9.0, 11.2))
WINDY_START = ((0.0, 0.5), (0.0, 0.5))
WINDY_TURN_Y = 9.2  # the evaluation policy climbs below this height, then goes right

Check = tuple[str, bool, str]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def child_seed(master: int, *path: int) -> int:
    return int(np.random.SeedSequence([master, *path]).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Output capture
# ---------------------------------------------------------------------------


@dataclass
class Capture:
    """Outputs of one repetition that its record does not hold."""

    lipschitz: list = field(default_factory=list)  # (dataset, metric, result)
    estimates: list = field(default_factory=list)  # ValueEstimate per model estimator
    is_calls: list = field(default_factory=list)  # (variant, ISInput, value model, result)
    q_calls: list = field(default_factory=list)  # (x, a, remaining, value)
    v_calls: list = field(default_factory=list)  # (x, remaining, value)

    def patches(self) -> Patches:
        patches = Patches()

        def lipschitz(fn):
            def captured(ds, metric):
                result = fn(ds, metric)
                self.lipschitz.append((ds, metric, result))
                return result

            return captured

        def simulate(fn):
            def captured(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.estimates.append(result)
                return result

            return captured

        def is_estimate(fn):
            def captured(inp, variant, value_model=None):
                result = fn(inp, variant, value_model=value_model)
                self.is_calls.append((variant, inp, value_model, result))
                return result

            return captured

        def q(fn):
            def captured(model, x, a, remaining):
                value = fn(model, x, a, remaining)
                self.q_calls.append((x, a, remaining, value))
                return value

            return captured

        def v(fn):
            def captured(model, x, remaining):
                value = fn(model, x, remaining)
                self.v_calls.append((x, remaining, value))
                return value

            return captured

        patches.wrap("moesim.experiments:global_lipschitz", lipschitz)
        patches.wrap("moesim.experiments:simulate_value", simulate)
        patches.wrap("moesim.experiments:is_estimate", is_estimate)
        patches.wrap("moesim.baselines:ModelValueFunctions.q", q)
        patches.wrap("moesim.baselines:ModelValueFunctions.v", v)
        return patches


# ---------------------------------------------------------------------------
# Windy ground truth
# ---------------------------------------------------------------------------


def windy_true_value(master_seed: int, rep: int, n: int, horizon: int) -> float:
    """Mean return of the windy evaluation policy over n true rollouts, from
    the start draws moesim makes for (master seed, rep)."""
    seed = child_seed(master_seed, rep, 1)
    (gx0, gx1), (gy0, gy1) = WINDY_GOAL
    (sx0, sx1), (sy0, sy1) = WINDY_START
    total = 0.0
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        x = float(rng.uniform(sx0, sx1))
        y = float(rng.uniform(sy0, sy1))
        ret = 0.0
        for _ in range(horizon):
            ux, uy = (0.0, 1.0) if y < WINDY_TURN_Y else (1.0, 0.0)
            x, y = (x + WINDY_STEP * ux) + (-WINDY_SLOPE * y), (y + WINDY_STEP * uy) + 0.0
            ret += -1.0
            if gx0 <= x <= gx1 and gy0 <= y <= gy1:
                break
        total += ret
    return total / n


def check_windy_truth(cfg: dict, rep: int, record: dict) -> Check:
    expected = windy_true_value(
        cfg["seed"], rep, cfg["n_true_rollouts"], cfg["sim"]["horizon"]
    )
    got = record["v_true"]
    return ("windy_truth", got == expected, f"v_true {got!r}, replay {expected!r}")


# ---------------------------------------------------------------------------
# Global Lipschitz constants
# ---------------------------------------------------------------------------


def exact_pair_ratios(
    X: np.ndarray, Y: np.ndarray, R: np.ndarray, block: int = 512
) -> tuple[float, float, int]:
    """Max |y_i - y_j| / |x_i - x_j| and |r_i - r_j| / |x_i - x_j| over all
    pairs i < j with distinct starts, from exact coordinate differences."""
    n = len(X)
    best_t = best_r = 0.0
    used = 0

    def sq_dists(A: np.ndarray, lo: int, hi: int) -> np.ndarray:
        out = np.zeros((hi - lo, n - lo))
        for k in range(A.shape[1]):
            diff = A[lo:hi, k, None] - A[None, lo:, k]
            out += diff * diff
        return out

    for lo in range(0, n - 1, block):
        hi = min(lo + block, n)
        dx2 = sq_dists(X, lo, hi)
        upper = np.arange(lo, hi)[:, None] < np.arange(lo, n)[None, :]
        keep = upper & (dx2 > 0.0)
        if not keep.any():
            continue
        used += int(keep.sum())
        dx2 = dx2[keep]
        dy2 = sq_dists(Y, lo, hi)[keep]
        dr = np.abs(R[lo:hi, None] - R[None, lo:])[keep]
        best_t = max(best_t, float(np.sqrt((dy2 / dx2).max())))
        best_r = max(best_r, float((dr / np.sqrt(dx2)).max()))
    return best_t, best_r, used


def exact_lipschitz(transitions, weights: np.ndarray, n_actions: int) -> tuple[float, float, int]:
    """Exact global same-action ratios of a list of transitions."""
    best_t = best_r = 0.0
    used = 0
    for a in range(n_actions):
        rows = [tr for tr in transitions if tr.a == a]
        if len(rows) < 2:
            continue
        X = np.array([tr.x for tr in rows]) * weights
        Y = np.array([tr.x_next for tr in rows]) * weights
        R = np.array([tr.r for tr in rows])
        bt, br, n = exact_pair_ratios(X, Y, R)
        best_t, best_r, used = max(best_t, bt), max(best_r, br), used + n
    return best_t, best_r, used


def dataset_key(ds) -> str:
    h = hashlib.sha256()
    for tr in ds.transitions:
        h.update(tr.x.tobytes())
        h.update(tr.x_next.tobytes())
        h.update(np.array([tr.a, tr.r]).tobytes())
    return h.hexdigest()


def check_lipschitz(ds, metric, result, exact_cache: dict) -> Check:
    """`exact_cache` maps a dataset's content hash to its exact scan, so the
    scan runs once per distinct dataset in a run."""
    key = dataset_key(ds)
    if key not in exact_cache:
        exact_cache[key] = exact_lipschitz(ds.transitions, metric.weights, ds.n_actions)
    l_t, l_r, n_pairs = exact_cache[key]
    ok = close(result.l_t, l_t) and close(result.l_r, l_r)
    return (
        "global_lipschitz",
        ok,
        f"program ({result.l_t!r}, {result.l_r!r}, {result.n_pairs}), "
        f"exact ({l_t!r}, {l_r!r}, {n_pairs})",
    )


# ---------------------------------------------------------------------------
# Estimator properties
# ---------------------------------------------------------------------------


def check_estimate(name: str, entry: dict, estimate, horizon: int) -> Check:
    """`entry` is the record's estimate (with its rollout log); `estimate`
    the ValueEstimate moesim returned for it."""
    rollouts = entry["rollouts"]
    returns = [r["return"] for r in rollouts]
    problems = []
    if returns != list(estimate.per_rollout_returns):
        problems.append("rollout log differs from the returned estimate")
    if not close(entry["v_hat"], math.fsum(returns) / len(returns)):
        problems.append(f"v_hat {entry['v_hat']!r} is not the mean of {returns}")
    if not all(-horizon <= ret <= -1.0 for ret in returns):
        problems.append(f"a return lies outside [-{horizon}, -1]: {returns}")
    steps = sum(len(traj) for traj in estimate.trajectories)
    if sum(r["steps"] for r in rollouts) != steps:
        problems.append("rollout log steps differ from the simulated trajectories")
    if sum(entry["model_usage"].values()) != steps:
        problems.append(f"model_usage {entry['model_usage']} does not sum to {steps} steps")
    for r in rollouts:
        if sum(r["model_usage"].values()) != r["steps"]:
            problems.append(f"rollout {r['rollout']} usage does not sum to its steps")
    return (f"estimate_{name}", not problems, "; ".join(problems) or "ok")


# ---------------------------------------------------------------------------
# Doubly robust estimators
# ---------------------------------------------------------------------------


def control_variates(capture: Capture) -> tuple[dict, dict]:
    q = {(x.tobytes(), a, rem): val for x, a, rem, val in capture.q_calls}
    v = {(x.tobytes(), rem): val for x, rem, val in capture.v_calls}
    return q, v


def doubly_robust(inp, q: dict, v: dict, horizon: int) -> tuple[float, float]:
    """(DR, WDR) by backward recursion over time.

    DR:  V_t = v_t + w_t (r_t + gamma V_{t+1} - q_t) per trajectory, V_end = 0,
         averaged over trajectories.
    WDR: G_t = sum over live trajectories of W_{t-1} v_t + W_t (r_t - q_t),
         plus gamma G_{t+1}, where W_t is the cumulative ratio up to t
         normalized over all trajectories (frozen after a trajectory ends)
         and W_{-1} = 1/n.
    """
    gamma = inp.gamma
    n = len(inp.trajectories)
    steps = []  # per trajectory: (w_t, r_t, q_t, v_t)
    for traj, pb, pe in zip(inp.trajectories, inp.behavior_probs, inp.eval_probs):
        rows = []
        for t, tr in enumerate(traj.transitions):
            rem = horizon - t
            rows.append(
                (float(pe[t]) / float(pb[t]), tr.r, q[(tr.x.tobytes(), tr.a, rem)],
                 v[(tr.x.tobytes(), rem)])
            )
        steps.append(rows)

    dr_values = []
    for rows in steps:
        value = 0.0
        for w, r, qt, vt in reversed(rows):
            value = vt + w * (r + gamma * value - qt)
        dr_values.append(value)
    dr = math.fsum(dr_values) / n

    t_max = max(len(rows) for rows in steps)
    cum = [[1.0] * (t_max + 1) for _ in range(n)]  # cum[i][t + 1] = rho_{0:t}
    for i, rows in enumerate(steps):
        for t in range(t_max):
            w = rows[t][0] if t < len(rows) else 1.0
            cum[i][t + 1] = cum[i][t] * w
    wdr = 0.0
    for t in reversed(range(t_max)):
        prev = math.fsum(cum[i][t] for i in range(n))
        now = math.fsum(cum[i][t + 1] for i in range(n))
        g = 0.0
        for i, rows in enumerate(steps):
            if t >= len(rows):
                continue
            _, r, qt, vt = rows[t]
            w_prev = cum[i][t] / prev if prev > 0 else 0.0
            w_now = cum[i][t + 1] / now if now > 0 else 0.0
            g += w_prev * vt + w_now * (r - qt)
        wdr = g + gamma * wdr
    return dr, wdr


def check_doubly_robust(record: dict, capture: Capture) -> list[Check]:
    q, v = control_variates(capture)
    out = []
    for variant, inp, value_model, result in capture.is_calls:
        if variant not in ("DR", "WDR"):
            continue
        recursion = dict(zip(("DR", "WDR"), doubly_robust(inp, q, v, value_model.horizon)))
        got = record["estimates"][variant]["v_hat"]
        ok = got == result and close(got, recursion[variant])
        out.append((f"recursive_{variant}", ok, f"program {got!r}, recursion {recursion[variant]!r}"))
    return out


# ---------------------------------------------------------------------------
# All checks of one repetition
# ---------------------------------------------------------------------------


def check_repetition(
    cfg: dict, rep: int, record: dict, capture: Capture, exact_cache: dict
) -> list[Check]:
    horizon = cfg["sim"]["horizon"]
    out: list[Check] = []
    if cfg["env"]["kind"] == "windy2d":
        out.append(check_windy_truth(cfg, rep, record))
    else:
        ok = -horizon <= record["v_true"] <= -1.0
        out.append(("true_value_range", ok, f"v_true {record['v_true']!r}"))
    for ds, metric, result in capture.lipschitz:
        out.append(check_lipschitz(ds, metric, result, exact_cache))
    model_names = [n for n in cfg["estimators"] if "rollouts" in record["estimates"][n]]
    out.append((
        "estimates_captured",
        len(model_names) == len(capture.estimates),
        f"{len(model_names)} logged, {len(capture.estimates)} returned",
    ))
    for name, estimate in zip(model_names, capture.estimates):
        out.append(check_estimate(name, record["estimates"][name], estimate, horizon))
    out.extend(check_doubly_robust(record, capture))
    return out
