"""The pair runner's summary (tools/bench_pairs.py), on fixed numbers and
without running a benchmark."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def test_summary_of_fixed_runs(bench_pairs):
    parent = [
        {"wall_s": w, "steps_per_s": r}
        for w, r in [(1.0, 400.0), (2.0, 380.0), (3.0, 410.0), (4.0, 390.0), (5.0, 400.0)]
    ]
    change = [
        {"wall_s": w, "steps_per_s": r}
        for w, r in [(0.5, 650.0), (2.5, 600.0), (2.0, 400.0), (4.0, 700.0), (1.234567, 380.0)]
    ]
    block = bench_pairs.summarize(SPEC, parent, change)
    assert block["wall_s"] == {
        "unit": "s",
        "bound": 0.25,
        "parent": {"median": 3.0, "q1": 1.5, "q3": 4.5, "runs": [1.0, 2.0, 3.0, 4.0, 5.0]},
        "change": {"median": 2.0, "q1": 0.8675, "q3": 3.25, "runs": [0.5, 2.5, 2.0, 4.0, 1.235]},
        # pair 3 is a tie, which neither side wins
        "change_wins": 3,
        "parent_wins": 1,
        "median_change": "-33.3%",
    }
    steps = block["steps_per_s"]
    assert steps["parent"]["median"] == 400.0 and steps["change"]["median"] == 600.0
    assert (steps["change_wins"], steps["parent_wins"]) == (3, 2)
    assert steps["median_change"] == "+50.0%"
    # the committed files' shape: plain JSON, metrics in the spec's order
    assert list(json.loads(json.dumps(block))) == ["wall_s", "steps_per_s"]


def test_summary_needs_matched_pairs(bench_pairs):
    run = {"wall_s": 1.0, "steps_per_s": 1.0}
    with pytest.raises(ValueError, match="two or more pairs"):
        bench_pairs.summarize(SPEC, [run, run], [run])
    with pytest.raises(ValueError, match="two or more pairs"):
        bench_pairs.summarize(SPEC, [run], [run])


def test_digests_record_whether_the_outputs_are_equal(bench_pairs):
    same = bench_pairs.digest_block({"parent": {"b", "a"}, "change": {"a", "b"}})
    assert same == {"parent": ["a", "b"], "change": ["a", "b"], "outputs_equal": True}
    # a change that gives other outputs in any run does not keep them
    differ = bench_pairs.digest_block({"parent": {"a"}, "change": {"a", "c"}})
    assert differ == {"parent": ["a"], "change": ["a", "c"], "outputs_equal": False}
    assert json.loads(json.dumps(differ)) == differ


def test_spec_is_the_benchmarks(bench_pairs):
    # the metrics summarized are the ones the benchmark bounds
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"] for m in spec} >= {m["name"] for m in SPEC}
    assert all({"name", "unit", "better", "bound"} <= set(m) for m in spec)


def fake_checkout(root: Path, side: str) -> Path:
    """The files a benchmark run reads, marked with the side's name, plus
    what earlier runs and imports leave behind."""
    (root / "src" / "lhnav" / "__pycache__").mkdir(parents=True)
    (root / "src" / "lhnav" / "__init__.py").write_text(f"SIDE = {side!r}\n")
    (root / "src" / "lhnav" / "__pycache__" / "stale.pyc").write_text("")
    (root / "perfbench" / ".perfbench_work").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(f"# {side}\n")
    (root / ".perfbench_work").mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": SPEC}))
    (root / "README.md").write_text("not read by a run\n")
    return root


def test_every_run_starts_from_one_directory_holding_its_sides_files(
    bench_pairs, tmp_path, monkeypatch
):
    checkouts = {side: fake_checkout(tmp_path / side, side) for side in ("parent", "change")}
    runs = []

    def fake_run(command, cwd, **kwargs):
        cwd = Path(cwd)
        side = (cwd / "perfbench" / "run.py").read_text()[2:].strip()
        assert (cwd / "src" / "lhnav" / "__init__.py").read_text() == f"SIDE = {side!r}\n"
        staged = sorted(str(p.relative_to(cwd)) for p in cwd.rglob("*"))
        runs.append((cwd, side, staged, command[1]))
        (cwd / ".perfbench_work").mkdir()  # what a run leaves behind
        result = {"correct": True, "metrics": {
            "wall_s": {"value": 1.0}, "steps_per_s": {"value": 100.0}}}
        stdout = f"  output digest {side}\n{json.dumps(result)}\n"
        return subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([
        "--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
        "--workload", "expert_rollout", "--seed", "2", "--pairs", "3", "--out", str(out),
    ]) == 0
    assert [side for _, side, _, _ in runs] == ["parent", "change", "change", "parent", "parent", "change"]
    assert len({cwd for cwd, _, _, _ in runs}) == 1
    assert runs[0][0] not in (tmp_path / "parent", tmp_path / "change")
    for _, _, staged, script in runs:
        assert script == "perfbench/run.py"
        assert staged == [
            "BENCHMARK.json", "perfbench", "perfbench/run.py",
            "src", "src/lhnav", "src/lhnav/__init__.py",
        ]
    digests = json.loads(out.read_text())["end_to_end_digests"]["expert_rollout"]
    assert digests == {"parent": ["parent"], "change": ["change"], "outputs_equal": False}
