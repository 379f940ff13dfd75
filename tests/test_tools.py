"""The paired A/B timing tool under `tools/` runs end to end."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

from moesim.experiments import run_repetition, validate_config

ROOT = Path(__file__).resolve().parents[1]


def ab_repetitions(parent: Path, change: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_repetitions.py"), str(parent), str(change),
         "--rounds", "1", "--workloads", "windy_mcts", *args],
        capture_output=True, text=True, timeout=300,
    )


def load(path: Path):
    """The module at `path`, imported without putting its folder on sys.path."""
    spec = importlib.util.spec_from_file_location(f"_test_tools_{path.stem}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_repetitions_runs_one_round_of_a_tree_against_itself():
    run = ab_repetitions(ROOT, ROOT)
    assert run.returncode == 0, run.stderr
    out = run.stdout.splitlines()
    assert out[0].split() == [
        "workload", "parent_rec", "change_rec", "parent_s", "change_s", "parent/change",
        "change_wins", "parent_iqr",
    ]
    name, parent_rec, change_rec, parent, change, ratio, wins, iqr = out[1].split()
    assert name == "windy_mcts" and wins in ("0/1", "1/1") and iqr == "0.0%"
    assert parent_rec == change_rec and len(parent_rec) == 8 and int(parent_rec, 16) >= 0
    assert float(ratio) > 0.0 and float(parent) > 0.0 and float(change) > 0.0


def test_ab_repetitions_refuses_to_time_trees_whose_records_differ(tmp_path):
    # a parent whose records carry another true value computes something else
    shutil.copytree(ROOT / "src" / "moesim", tmp_path / "src" / "moesim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    experiments = tmp_path / "src" / "moesim" / "experiments.py"
    text = experiments.read_text()
    assert text.count('"v_true": v_true,') == 1
    experiments.write_text(text.replace('"v_true": v_true,', '"v_true": v_true + 1.0,'))
    run = ab_repetitions(tmp_path, ROOT)
    assert run.returncode == 1
    out = run.stdout.splitlines()
    name, parent_rec, change_rec, *rest = out[1].split()
    assert name == "windy_mcts" and parent_rec != change_rec
    assert " ".join(rest) == "records differ" and len(out) == 2


def test_ab_repetitions_runs_the_workloads_at_the_given_seed():
    workloads = load(ROOT / "perfbench" / "workloads.py")
    tool = load(ROOT / "tools" / "ab_repetitions.py")
    recs = {}
    for seed in (None, 7):
        run = ab_repetitions(ROOT, ROOT, *([] if seed is None else ["--seed", str(seed)]))
        assert run.returncode == 0, run.stderr
        _, parent_rec, change_rec, *_ = run.stdout.splitlines()[1].split()
        assert parent_rec == change_rec
        recs[seed] = parent_rec
    config = workloads.WORKLOADS["windy_mcts"].config(7)
    assert recs[7] == tool.record_hash(run_repetition(validate_config(config), 0))
    assert recs[7] != recs[None]
