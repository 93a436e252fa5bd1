"""One traced iteration of each benchmark workload, through perfbench's own
workloads and tracing modules, unedited.

A change to what the benchmark calls (a name, a signature, a file it
reads) then fails here rather than only when the benchmark runs.
"""

import importlib
import math
from pathlib import Path

import pytest

import labelnoise

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("tracing")


@pytest.mark.parametrize("name", ["desk", "scale", "simulate"])
def test_a_traced_iteration_of_each_workload_fails_nothing(name, perfbench, tmp_path, monkeypatch):
    workloads, tracing = perfbench
    monkeypatch.chdir(tmp_path)  # the workloads write under ./.perfbench-out
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(1)
    if name == "desk":
        inputs = inputs[:1]  # its first pipeline seed only
    workload.reset()
    tracer = tracing.Tracer()
    tracer.install(labelnoise)
    try:
        it = workload.run(inputs, tracer)
    finally:
        tracer.uninstall()
    workload.check(inputs, it)
    assert it.failed == 0, [o for o in it.outcomes if not o[1]]
    assert it.digests
    metrics, _ = tracing.iteration_layers(tracer.spans, tracer.counters[0], wall=1.0)
    assert all(math.isfinite(v) for v in metrics.values())
