"""Command-line entry point.

Subcommands:
  evaluate     run the full experiment described by a config file and
               write the report JSON
  schema       print the config schema with its defaults
  error-maps   export the per-grid-point model-error comparison CSV
  reproduce    run one of the canned studies: table1 | table2 | consistency
               (table2 is one fixed deterministic run and takes neither
               --seed nor --jobs)

Exit codes: 0 success, 2 config error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    ConfigError,
    emit_error_maps,
    run_experiment,
)
from .reproduce import (
    reproduce_consistency,
    reproduce_table1,
    reproduce_table2,
    write_report,
)


def _load_config(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"$: {cfg!r} is not of type 'object'")
    return cfg


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError(f"--jobs: {jobs} parallel repetitions; give at least 1")


def _check_out(out: str) -> Path:
    """The `--out` directory, checked before any work: it, or else the
    nearest of its parents that exists, must be a directory.  It is made
    only when the results are written."""
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out: {existing} exists and is not a directory")
    return path


def _cmd_evaluate(args: argparse.Namespace) -> None:
    _check_jobs(args.jobs)
    out = _check_out(args.out)
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.mcts_trace:
        cfg["mcts_trace"] = True
    if args.rollout_log:
        cfg["rollout_log"] = True
    report = run_experiment(cfg, jobs=args.jobs)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(report.to_json())
    _write_diagnostic_jsonl(report, out)
    print(f"wrote {path}")
    for name, agg in sorted(report.aggregates.items()):
        line = f"  {name}: rmse={agg['rmse']:.6g}"
        if "relative_rmse" in agg:
            line += f" relative={agg['relative_rmse']:.4g}"
        print(line)


def _write_diagnostic_jsonl(report, out: Path) -> None:
    """Per-rollout and per-decision JSON lines, when the config asked for
    them to be collected."""
    for key in ("rollouts", "mcts_trace"):
        lines = [
            {"rep": rec["rep"], "estimator": name, **row}
            for rec in report.per_repetition
            for name, est in rec["estimates"].items()
            for row in est.get(key, [])
        ]
        if lines:
            path = out / f"{key}.jsonl"
            with path.open("w") as fh:
                for row in lines:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
            print(f"wrote {path}")


def _cmd_schema(args: argparse.Namespace) -> None:
    from .experiments import schema_reference

    print(json.dumps(schema_reference(), indent=1, sort_keys=True))


def _cmd_error_maps(args: argparse.Namespace) -> None:
    path = _check_out(args.out) / "error_maps.csv"
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    grid = {
        "x_range": [args.x_min, args.x_max],
        "y_range": [args.y_min, args.y_max],
        "resolution": args.resolution,
    }
    rows = emit_error_maps(cfg, grid, path)
    correct = sum(1 for r in rows if r["correct"]) / len(rows)
    print(f"wrote {path} ({len(rows)} rows, correct-selection fraction {correct:.3f})")


def _cmd_reproduce(args: argparse.Namespace) -> None:
    seed = args.seed if args.seed is not None else 0
    _check_jobs(args.jobs)
    out = _check_out(args.out)
    if args.which == "table2" and args.seed is not None:
        raise ConfigError("--seed: table2 is deterministic and takes no seed")
    if args.which == "table2" and args.jobs != 1:
        raise ConfigError("--jobs: table2 runs its repetitions in one process")
    if args.which == "table1":
        payload = reproduce_table1(seed=seed, jobs=args.jobs)
        print(f"pattern fraction: {payload['pattern_fraction']:.2f}")
    elif args.which == "table2":
        payload = reproduce_table2()
        print(f"horizon: {payload['horizon']}")
        for variant, errs in payload["errors"].items():
            print(f"  {variant}: " + ", ".join(f"{k}={v:.4g}" for k, v in errs.items()))
    else:
        payload = reproduce_consistency(seed=seed, jobs=args.jobs)
        print("median abs error by batch size:", payload["median_abs_error"])
    path = write_report(payload, out, f"{args.which}.json")
    print(f"wrote {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moesim",
        description="Batch off-policy evaluation with a mixture-of-experts simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config_required: bool = True) -> None:
        if config_required:
            p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default="out", help="output directory")

    p_eval = sub.add_parser("evaluate", help="run a full experiment")
    common(p_eval)
    p_eval.add_argument("--jobs", type=int, default=1, help="parallel repetitions")
    p_eval.add_argument("--mcts-trace", action="store_true",
                        help="log per-decision planner statistics")
    p_eval.add_argument("--rollout-log", action="store_true",
                        help="log per-rollout returns and model usage")
    p_eval.set_defaults(fn=_cmd_evaluate)

    p_schema = sub.add_parser("schema", help="print the config schema and defaults")
    p_schema.set_defaults(fn=_cmd_schema)

    p_maps = sub.add_parser("error-maps", help="export model-error grids")
    common(p_maps)
    p_maps.add_argument("--x-min", type=float, default=-4.0)
    p_maps.add_argument("--x-max", type=float, default=14.0)
    p_maps.add_argument("--y-min", type=float, default=-1.0)
    p_maps.add_argument("--y-max", type=float, default=15.0)
    p_maps.add_argument("--resolution", type=int, default=20)
    p_maps.set_defaults(fn=_cmd_error_maps)

    p_rep = sub.add_parser("reproduce", help="run a canned study")
    p_rep.add_argument("which", choices=["table1", "table2", "consistency"])
    common(p_rep, config_required=False)
    p_rep.add_argument("--jobs", type=int, default=1,
                       help="parallel repetitions (table1 and consistency)")
    p_rep.set_defaults(fn=_cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
