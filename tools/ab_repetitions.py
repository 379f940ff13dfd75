"""Paired A/B timing of one benchmark repetition in two moesim source trees.

    python tools/ab_repetitions.py PARENT CHANGE [--workloads a,b] [--rounds N] [--seed N]

Each tree's `src/moesim` is copied under a temporary package name, which
works because the package imports itself only relatively, so both run in
this one process.  The workload configs come from CHANGE's
`perfbench/workloads.py` at master seed `--seed`, by default its timed
seed `TIMED_SEED`; another seed checks a claim on inputs that were not
used while the change was written.  After one untimed repetition
per side, each round times `run_repetition(cfg, 0)` once per side, and the
sides take turns going first, so that drift in the host's speed falls on
both.  It prints, per workload, the first 8 hex digits of the sha256 of
each side's warm-up record (as sorted-key JSON), both medians, the
parent/change ratio of the medians (above 1: the change is faster), the
rounds the change won and the parent's interquartile range as a share of
its median.  When the two records differ it prints "records differ" and
exits with status 1 before timing anything, since the two sides then
compute different things.  It has no bounds and no other gates.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np


def load_workloads(tree: Path):
    """CHANGE's `perfbench/workloads.py`; some configs import `moesim`, so
    the tree's `src` goes on the path first."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    return importlib.import_module("workloads")


def record_hash(record: dict) -> str:
    """The first 8 hex digits of the sha256 of the record as sorted-key JSON."""
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:8]


def import_copy(tree: Path, name: str, tmp: Path):
    """`moesim.experiments` of the tree, copied to the package `name`."""
    shutil.copytree(
        tree / "src" / "moesim", tmp / name, ignore=shutil.ignore_patterns("__pycache__")
    )
    return importlib.import_module(f"{name}.experiments")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", help="comma-separated names (default: all)")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--seed", type=int, help="master seed (default: the timed seed)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    workloads = load_workloads(args.change.resolve())
    seed = workloads.TIMED_SEED if args.seed is None else args.seed
    names = args.workloads.split(",") if args.workloads else list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [
            import_copy(args.parent.resolve(), "ab_parent_moesim", Path(tmp)),
            import_copy(args.change.resolve(), "ab_change_moesim", Path(tmp)),
        ]
        print(
            "workload        parent_rec  change_rec  parent_s  change_s  parent/change  "
            "change_wins  parent_iqr"
        )
        for name in names:
            config = workloads.WORKLOADS[name].config(seed)
            cfgs = [exp.validate_config(config) for exp in sides]
            parent_rec, change_rec = (  # untimed warm-up
                record_hash(exp.run_repetition(cfg, 0)) for exp, cfg in zip(sides, cfgs)
            )
            if parent_rec != change_rec:
                print(f"{name:<15} {parent_rec:>10}  {change_rec:>10}  records differ")
                return 1
            times: list[list[float]] = [[], []]
            for r in range(args.rounds):
                for k in (0, 1) if r % 2 == 0 else (1, 0):
                    t0 = time.perf_counter()
                    sides[k].run_repetition(cfgs[k], 0)
                    times[k].append(time.perf_counter() - t0)
            parent, change = (statistics.median(t) for t in times)
            wins = sum(c < p for p, c in zip(*times))
            q1, q3 = np.percentile(times[0], [25, 75])
            print(
                f"{name:<15} {parent_rec:>10}  {change_rec:>10}  {parent:8.4f}  {change:8.4f}  "
                f"{parent / change:13.3f}  {f'{wins}/{args.rounds}':>11}  "
                f"{(q3 - q1) / parent:10.1%}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
