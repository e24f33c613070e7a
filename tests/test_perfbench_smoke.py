"""Each benchmark workload, shrunk to a few tasks, must still set up and run
one checked pass without a failed operation, so a change to a signature
the benchmark calls fails here rather than in a benchmark run."""

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TINY = {
    "expert_rollout": dict(tasks=3),
    "memory_rollout": dict(tasks=3, budget=10, store_entries=60),
    "offline_split_train": dict(tasks=3, train_samples=30, epochs=3),
}


@pytest.fixture
def workloads_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("workloads")
    yield module
    for name in ("workloads", "probe"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(workloads_module, tmp_path, name):
    workload = replace(workloads_module.WORKLOADS[name], **TINY[name])
    inputs = tmp_path / "inputs"
    workloads_module.setup(workload, seed=1, root=inputs)
    result = workloads_module.run_pass(workload, inputs, tmp_path / "out", check=True)
    assert result.failed == 0, result.checks
    assert result.ops > 0
