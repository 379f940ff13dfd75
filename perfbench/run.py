"""Benchmark of moesim's experiment pipeline: one workload per process.

    python3 perfbench/run.py --workload windy_mcts --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a moesim source tree; the package is imported from its
`src/` directory.  With `--trace 0` the last stdout line is a JSON object with
the end-to-end metrics (reps_per_s, rep_s_p50, setup_s, peak_rss_mb,
value_abs_err); with `--trace 1` it holds the per-layer metrics of a traced
run, and the spans go to `perfbench/out/`.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One compute thread per process: BLAS and OpenMP pools are pinned before
# numpy loads, here and in every process this one starts.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5

sys.path.insert(0, str(SRC))


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_moesim():
    """moesim's experiment API, from this tree's src/ and nowhere else."""
    import moesim.experiments as experiments

    if Path(experiments.__file__).resolve().parents[1] != SRC:
        fail(f"imported moesim from {experiments.__file__}, not from {SRC}")
    return experiments


def setup_probe(workload: str, seed: int) -> None:
    """What the workload process does before its first repetition."""
    from workloads import WORKLOADS

    experiments = import_moesim()
    experiments.validate_config(WORKLOADS[workload].config(seed))
    print("ready", flush=True)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time from starting a fresh interpreter until it could
    start its first repetition, over SETUP_PROBES sequential processes."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or line.strip() != "ready":
            fail("setup probe failed")
        times.append(elapsed)
    return statistics.median(times)


class Ledger:
    """Repetitions and checks attempted and failed; failures are printed."""

    def __init__(self) -> None:
        self.reps = [0, 0]
        self.checks = [0, 0]

    def rep(self, ok: bool, label: str, detail: str = "") -> None:
        self.reps[0] += 1
        if not ok:
            self.reps[1] += 1
            print(f"FAILED repetition {label}: {detail}", flush=True)

    def check(self, results, label: str) -> None:
        for name, ok, detail in results:
            self.checks[0] += 1
            if not ok:
                self.checks[1] += 1
                print(f"FAILED check {name} on {label}: {detail}", flush=True)

    @property
    def attempted(self) -> int:
        return self.reps[0] + self.checks[0]

    @property
    def failed(self) -> int:
        return self.reps[1] + self.checks[1]


def run_workload(args: argparse.Namespace) -> dict:
    from workloads import TIMED_SEED, WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_s = setup_seconds(workload.name, args.seed) if not args.trace else None

    experiments = import_moesim()
    from checks import Capture, check_repetition
    from tracing import Tracer, summarize

    seeded = experiments.validate_config(workload.config(args.seed))
    cfg = experiments.validate_config(workload.config(TIMED_SEED))
    ledger = Ledger()
    exact_cache: dict = {}

    def checked(c: dict, rep: int, label: str):
        """One repetition with its outputs captured, then its checks;
        returns (record, record JSON, wall seconds), or None if it raised."""
        capture = Capture()
        try:
            with capture.patches():
                t0 = time.perf_counter()
                record = experiments.run_repetition(c, rep)
                wall = time.perf_counter() - t0
        except Exception as exc:  # a repetition that raises is a failed operation
            ledger.rep(False, label, repr(exc))
            return None
        ledger.rep(True, label)
        ledger.check(check_repetition(c, rep, record, capture, exact_cache), label)
        return record, json.dumps(record, sort_keys=True), wall

    checked(seeded, 0, f"warm-up seed {args.seed} rep 0")

    # Equal rounds over the timed list; their number depends only on
    # --seconds, so every run attempts the same operations.
    per_round = len(workload.timed_reps) * workload.rep_s * (2 if args.trace else 1)
    rounds = max(1, round(args.seconds / per_round))
    tracer = Tracer() if args.trace else None
    first_json: dict[int, str] = {}
    times, errors, layer_samples, overheads = [], [], [], []
    for r in range(rounds):
        for rep in workload.timed_reps:
            label = f"seed {TIMED_SEED} rep {rep} round {r}"
            result = checked(cfg, rep, label)
            if result is None:
                continue
            record, text, wall = result
            times.append(wall)
            head = record["estimates"][workload.headline]
            errors.append(abs(head["v_hat"] - record["v_true"]))
            first_json.setdefault(rep, text)
            more = [("repeatable", text == first_json[rep], "record differs from round 0")]
            if tracer is not None:
                traced, traced_wall, layers = tracer.traced_repetition(
                    experiments.run_repetition, cfg, rep
                )
                same = json.dumps(traced, sort_keys=True) == text
                more.append(("traced_identical", same, "traced record differs"))
                layer_samples.append(layers)
                overheads.append(traced_wall - wall)
            ledger.check(more, label)

    if not times:
        fail("no timed repetition completed")
    if tracer is not None:
        tracer.write_sidecar(
            OUT / f"trace-{workload.name}-seed{args.seed}.npz",
            {"workload": workload.name, "seed": TIMED_SEED,
             "reps": list(workload.timed_reps), "rounds": rounds},
        )
        metrics = summarize(layer_samples, overheads)
    else:
        metrics = {
            "reps_per_s": len(times) / sum(times),
            "rep_s_p50": statistics.median(times),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "value_abs_err": statistics.fmean(errors),
        }
    print(
        f"{workload.name}: warm-up seed {args.seed}, then {rounds} round(s) of reps "
        f"{list(workload.timed_reps)} at seed {TIMED_SEED}; repetitions attempted "
        f"{ledger.reps[0]} failed {ledger.reps[1]}; checks attempted "
        f"{ledger.checks[0]} failed {ledger.checks[1]}"
    )
    return {
        "correct": ledger.checks[1] == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def with_units(metrics: dict) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def run_all(args: argparse.Namespace) -> None:
    """Each workload in its own process, one after the other."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


def main(argv=None) -> None:
    args = parse_args(argv)
    from workloads import WORKLOADS

    if not (SRC / "moesim" / "__init__.py").is_file():
        fail(f"no moesim sources under {SRC}; run from a moesim source tree")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return
    if args.workload == "all":
        run_all(args)
        return
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    result = run_workload(args)
    metrics = with_units(result["metrics"])
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
