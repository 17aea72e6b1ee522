"""Quick runs of the benchmark in perfbench/, so that it cannot rot unnoticed."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep", "collision"])
def test_benchmark_quick_run_is_correct(workload):
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--quick"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
