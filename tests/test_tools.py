"""The paired A/B timing tool under `tools/` runs end to end."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_repetitions_runs_one_round_of_a_tree_against_itself():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_repetitions.py"), str(ROOT), str(ROOT),
         "--rounds", "1", "--workloads", "windy_mcts"],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout.splitlines()
    assert out[0].split() == [
        "workload", "parent_s", "change_s", "parent/change", "change_wins", "parent_iqr",
    ]
    name, parent, change, ratio, wins, iqr = out[1].split()
    assert name == "windy_mcts" and wins in ("0/1", "1/1") and iqr == "0.0%"
    assert float(ratio) > 0.0 and float(parent) > 0.0 and float(change) > 0.0
