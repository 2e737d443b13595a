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
