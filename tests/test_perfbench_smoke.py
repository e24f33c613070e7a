"""Each benchmark workload, shrunk to a few tasks, must still set up and run
one checked pass without a failed operation, so a change to a signature
the benchmark calls fails here rather than in a benchmark run.  Its outputs
must also digest as golden_digests.json records, so a change of any output
byte fails here too; a change that alters outputs on purpose rewrites that
file and says so."""

import importlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = Path(__file__).with_name("golden_digests.json")

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


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_outputs_match_the_golden_digest(
    workloads_module, tmp_path, monkeypatch, name, seed
):
    # relative paths, as perfbench/run.py passes them: the memory policy's
    # trajectories record a config hash of the --store path as given
    monkeypatch.chdir(tmp_path)
    workload = replace(workloads_module.WORKLOADS[name], **TINY[name])
    workloads_module.setup(workload, seed=seed, root=Path("setup-0"))
    result = workloads_module.run_pass(workload, Path("setup-0"), Path("out"), check=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert result.digest == golden[name][str(seed)]
