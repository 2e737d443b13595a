import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_verify_theorems_reports_three_ok_cases():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_theorems.py")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert sum(line.endswith("-> OK") for line in out.stdout.splitlines()) == 3


def test_bench_pairs_runs_one_pair_of_identical_trees(tmp_path):
    record = tmp_path / "pairs.json"
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(ROOT), str(ROOT),
         "--pairs", "1", "--seed", "11", "--workload", "fig3_quartic",
         "--out", str(record)],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    pairs = json.loads(record.read_text())["pairs"]
    assert set(pairs) == {"fig3_quartic"}
    run = pairs["fig3_quartic"]
    assert run["seeds"] == [11] and run["problems"] == []
    assert run["identical_csvs"] == 1 and run["differing_csvs"] == {}
    for side in ("parent", "change"):
        for metric in ("cpu_s", "peak_rss_mb"):
            assert len(run[side][metric]["runs"]) == 1
            assert run[side][metric]["median"] > 0
