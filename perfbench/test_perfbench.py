"""Smoke tests of the benchmark: quick mode on every workload, repeatable traced counts,
and the check that repeat runs of a query reproduce its first run.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
ROOT = RUN.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args) -> dict:
    out = subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT, capture_output=True, text=True,
                         timeout=300, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_every_end_to_end_metric(workload):
    result = bench("--workload", workload, "--seed", "0", "--quick")
    assert result["correct"] is True
    assert result["attempted"] == 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == next(m["unit"] for m in SPEC["end_to_end"] if m["name"] == name)
    assert result["metrics"]["success_ratio"]["value"] == 1 - result["failed"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_call_counts_repeat_exactly(workload):
    first, second = (bench("--workload", workload, "--seed", "3", "--trace", "1", "--quick") for _ in range(2))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    calls = {name: m["value"] for name, m in first["metrics"].items() if name.endswith(".calls")}
    assert calls == {name: m["value"] for name, m in second["metrics"].items() if name.endswith(".calls")}
    assert sum(calls.values()) > 0


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in RUN.parent.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""


def test_repeat_runs_must_reproduce_the_first(tmp_path):
    sys.path.insert(0, str(RUN.parent))
    import run

    outputs = iter(["a", "a", "b"])

    class Fixed:
        checks = 0

        @staticmethod
        def run(q):
            (q.workdir / "out.csv").write_text(next(outputs), encoding="utf-8")
            return 0

        @classmethod
        def check(cls, q, result):
            cls.checks += 1
            return None

    class Query:
        workdir, machine, cli_seed = tmp_path, {}, 0

    runner = run.Runner(Fixed, lambda k: Query)
    for _ in range(3):
        runner.execute(1)
    assert Fixed.checks == 1
    assert runner.attempted == 3
    assert [(f["query"], f["wrong"]) for f in runner.failures] == [(1, True)]
