"""Self-test of the benchmark on its smallest rung (``--smoke``).

It checks the output schema and every metric name and unit against
``BENCHMARK.json`` and the layer table, never a timing: the values depend
on the machine.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMED = [w["name"] for w in SPEC["workloads"]]
# Every workload the command accepts, timed or not.
WORKLOADS = ["complex-ladder", "verify-stream", "cli-batch"]


def bench(*args, cwd=None):
    return subprocess.run([sys.executable, "bench/run.py", *args], capture_output=True, text=True,
                          cwd=cwd or BENCH.parent, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))


def test_layer_table_uses_declared_names(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH.parent / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    layer_names = {m["name"] for m in SPEC["per_layer"]}
    e2e_names = {m["name"] for m in SPEC["end_to_end"]}
    for layer_metrics, moves, on in workloads.LAYER_TABLE:
        assert set(layer_metrics) <= layer_names
        assert set(moves) <= e2e_names
        assert set(on) <= set(WORKLOADS)
    assert set(workloads.WORKLOADS) == set(workloads.WHY) == set(WORKLOADS)
    assert set(TIMED) <= set(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = bench("--workload", TIMED[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
