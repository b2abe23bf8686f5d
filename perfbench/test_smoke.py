"""Smoke tests for the benchmark: ``python -m pytest perfbench/test_smoke.py``.

Every workload runs once at a tiny horizon with tracing on; the run must print
every end-to-end and per-layer metric with its unit, and the per-layer self
times must fit in the traced wall time.  The tracer itself is checked on a
nested call, and the benchmark must refuse to run without the program.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

LINE = re.compile(r"^(\S+) (\S+) (\S+) (\S+) n=(\S+)$")


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_prints_every_metric(workload):
    done = _bench(
        "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1",
        "--horizon", "30",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        m = LINE.match(line)
        if m and m.group(1) == workload:
            printed[m.group(2)] = (float(m.group(3)), m.group(4))
    expected = dict(run.END_TO_END + run.UNBOUNDED)
    expected.update(run.per_layer_names())
    for name, unit in expected.items():
        assert name in printed, f"{name} not printed"
        assert printed[name][1] == unit, f"{name} printed with unit {printed[name][1]}"

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.per_layer_names()}

    self_total = sum(v for name, (v, _) in printed.items() if name.endswith(".self_s"))
    assert 0 < self_total <= printed["trace.wall_s"][0] * workloads.parallelism(workload)


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_nests_evaluate_over_gram_packed():
    run.import_program()
    from bandit_lab import dictionary, harness, kernels, policies
    from bandit_lab.kernels import KernelSpec, StatePoint

    original = kernels.gram_packed
    tr = tracer.Tracer()
    tr.install()
    try:
        for mod in (kernels, policies, dictionary, harness):
            assert mod.gram_packed is not original
        s = StatePoint(context=[0.1, 0.2], action=[0.3])
        kernels.evaluate(KernelSpec("gaussian"), s, s)
    finally:
        tr.uninstall()
    for mod in (kernels, policies, dictionary, harness):
        assert mod.gram_packed is original

    by_name = {span[2]: span for span in tr.spans}
    outer, inner = by_name["kernels.evaluate"], by_name["kernels.gram_packed"]
    assert inner[1] == outer[0]
    calls, self_ns, _ = tr.self_times()
    assert calls == {"kernels.evaluate": 1, "kernels.gram_packed": 1}
    assert self_ns["kernels.evaluate"] == (outer[4] - outer[3]) - (inner[4] - inner[3])
    assert self_ns["kernels.gram_packed"] == inner[4] - inner[3]
    assert tr.counts["kernels.entries"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "exact_bump", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
