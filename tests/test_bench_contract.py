"""What the benchmark under bench/ calls of the package must keep working.

The benchmark runs the package from a checkout and may not change with it,
so a renamed function, option or file it relies on breaks every benchmark
run. These tests run its entry point once, traced, and one operation of
three more workloads in process on shrunken inputs.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_traced_mc_ref_run_reports_every_per_layer_metric(tmp_path):
    # a copy of the checkout keeps the run's work files out of the repository
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_ref", "--seed", "3",
         "--seconds", "0.01", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # the environment line, the summary line and the result line, nothing else
    env, summary, last = proc.stdout.strip().splitlines()
    assert env.startswith("env ") and summary.startswith("mc_ref: ")
    result = json.loads(last, parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {metric["name"] for metric in declared["per_layer"]}
    assert names <= set(result["metrics"])
    for name in names:
        value = result["metrics"][name]["value"]
        assert value is None or (
            isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value)
        ), (name, value)
    # the set-up builds the reference pool with make_pool
    assert result["metrics"]["synth.make_pool.us_per_instance"]["value"] > 0


def _reject_constant(name):
    """A result line is strict JSON: NaN and +-Infinity do not parse."""
    raise ValueError(f"non-finite constant {name} in the result line")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads


# workload class, its parameters in bench/spec.json, the shrunken values
SHRUNKEN = [
    ("McLarge", "mc_large", {"size": 3000, "budgets": [30, 150]}),
    ("RealRun", "real_run", {"size": 3000, "budget": 100}),
    ("Collect", "collect", {"inputs": 20}),
]


@pytest.mark.parametrize("name,key,shrunken", SHRUNKEN, ids=[row[0] for row in SHRUNKEN])
def test_one_workload_operation_passes_its_checks(
    name, key, shrunken, workloads, tmp_path, monkeypatch, capsys
):
    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    params = copy.deepcopy(spec["workloads"][key])
    params.update(shrunken)
    # Collect.setup pins the process to one CPU and sets the proxy bypass
    for variable in ("NO_PROXY", "no_proxy"):
        monkeypatch.delenv(variable, raising=False)
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    workload = getattr(workloads, name)(params, spec["gate"], 5, tmp_path)
    tally = workloads.Tally()
    try:
        workload.setup()
        workload.prepare(tally)
        result = workload.op(0)
        assert workload.check_op(0, result, tally) > 0
        workload.finish(tally)
    finally:
        workload.close()
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.messages
    assert capsys.readouterr().out == ""  # library code prints nothing to stdout
