"""Steadiness of the end-to-end metrics: run a workload k times, each with
another seed, and compare each metric's quartile spread with its bound.

    python3 perfbench/steady.py --workload windy_mcts --runs 10 --seed0 100

For every metric in BENCHMARK.json's end_to_end list it prints the median,
the first and third quartiles (`statistics.quantiles(values, n=4)`), the
spread (q3 - q1) / median and that spread as a share of the metric's bound.
The share of failed operations must be the same in every run.  Raw results
go to perfbench/out/steady-<workload>-<seed0>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)

    results = []
    for i in range(args.runs):
        res = run_once(args.workload, args.seed0 + i, args.seconds, 0)
        results.append(res)
        values = {k: round(m["value"], 4) for k, m in res["metrics"].items()}
        print(f"seed {args.seed0 + i}: {res['failed']}/{res['attempted']} failed {values}", flush=True)

    out = HERE / "out" / f"steady-{args.workload}-{args.seed0}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {args.runs} runs, failed shares {sorted(shares)}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        print(
            f"  {name:14s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
            f"spread {spread:.2%} bound {metric['bound']:.0%} "
            f"({spread / metric['bound']:.2f} of bound)"
        )


if __name__ == "__main__":
    main()
