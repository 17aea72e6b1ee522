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


def test_benchmark_traced_quick_run_finds_every_layer():
    # trace mode wraps every function perfbench/tracing.py names, so a renamed one fails here
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0", "--quick",
                          "--trace", "1"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    calls = {name: m["value"] for name, m in result["metrics"].items() if name.endswith(".calls")}
    assert calls["cli.main.calls"] == 3
    # two diagrams and one curve, each classified in one array call
    assert calls["analysis.sweep_diagram.calls"] == 2
    assert calls["analysis.classify.calls"] == 3
    # one current report per command, and no scalar search loop calling with_param point by point
    assert calls["thermo.thermo_report.calls"] == 3
    assert calls["model.with_param.calls"] <= 20
