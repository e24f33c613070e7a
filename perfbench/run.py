"""lhnav benchmark: one workload per invocation.

    python3 perfbench/run.py --workload expert_rollout --seed 1 --seconds 12 --trace 0

Sets the workload's inputs up from the seed (several times, to time the
set-up), runs timed passes in a process of the workload's own, checks
their outputs and prints every metric by name and unit.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.  It
exits 1 when an output check fails and 2 when the program cannot be run.

Run it from the root of a checkout; it reads and writes only there, under
`.perfbench_work/`.  The metrics are described in WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REFERENCE_S, probe_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# set-up runs at least SETUP_REPS times and until SETUP_MIN_S have passed,
# so that a set-up of a fraction of a second still gets a steady median
SETUP_REPS = 3
SETUP_MIN_S = 2.0
CHILD_TIMEOUT_S = 150  # the whole run has to end within 180 s
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, by the nearest-rank rule."""
    ranked = sorted(values)
    n = len(ranked)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ranked[rank - 1]
    raise ValueError(f"{n} samples are too few for a tail with ten beyond it")


def timed_setups(
    workload, seed: int, work: Path, reps: int, min_s: float
) -> tuple[list[float], list[float], list[str]]:
    """Set the inputs up at least `reps` times and for `min_s` seconds.
    Returns each set-up's time in seconds and in reference seconds, and
    each tree's digest.  The first tree is the one the passes use."""
    from workloads import setup, tree_digest

    times, ref_times, digests = [], [], []
    while len(times) < reps or sum(times) < min_s:
        root = work / f"setup-{len(times)}"
        before = probe_s()
        start = time.perf_counter()
        setup(workload, seed, root)
        times.append(time.perf_counter() - start)
        ref_times.append(times[-1] * REFERENCE_S / ((before + probe_s()) / 2))
        digests.append(tree_digest(root))
        if len(times) > 1:
            shutil.rmtree(root)
    return times, ref_times, digests


def run_child(args, work: Path, deadline: float) -> dict:
    result = work / "result.json"
    command = [
        sys.executable,
        str(HERE / "passes.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        # relative to the child's working directory: the store path is part
        # of the run's config hash, which every trajectory records, so an
        # absolute path would change the outputs with the checkout's location
        "--inputs", "setup-0",
        "--out", "out",
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--result", str(result),
    ]
    if args.trace:
        command += ["--spans", str(WORK / f"spans-{args.workload}.jsonl")]
    # the child's stdout is free for lhnav's own output; ours stays clean
    proc = subprocess.run(
        command,
        cwd=work,
        stdout=subprocess.DEVNULL,
        timeout=max(deadline - time.monotonic(), 1.0),
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited with {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed, and the failed checks.  The first
    pass is checked in full.  A later pass that reproduces its digest has
    the same outputs, so it fails as many operations; one that does not
    fails all of them."""
    attempted = failed = 0
    problems = []
    for p in passes:
        attempted += p["ops"]
        problems += p["checks"]
        if p["digest"] != passes[0]["digest"]:
            failed += p["ops"]
            problems.append("a pass's outputs differ from the first pass's")
        else:
            failed += min(passes[0]["failed"], p["ops"])
    return attempted, failed, problems


def speed(probe: float) -> float:
    """Reference seconds per measured second, given a probe time."""
    return REFERENCE_S / probe


def end_to_end(workload, passes: list[dict], setup_s: list[float], peak_rss_mb: float):
    """The end-to-end metrics in reference seconds, plus the details
    printed beside them.  `setup_s` is in reference seconds already."""
    wall = statistics.median(p["wall_s"] * speed(p["probe_s"]) for p in passes)
    # one sample per episode, its median over the passes: the tail then
    # depends on the input size, not on how often the inputs were repeated
    per_pass = [
        [d * speed(q) for d, q in zip(p["episode_s"], p["episode_probe_s"])]
        for p in passes
        if p["episode_s"]
    ]
    episodes = [statistics.median(times) for times in zip(*per_pass)]
    pct, tail_s = tail(episodes)
    first = passes[0]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (wall, "s"),
    }
    extra = {}
    if workload.train_samples:
        train_s = statistics.median(p["train_s"] * speed(p["train_probe_s"]) for p in passes)
        split_s = statistics.median(p["split_s"] * speed(p["probe_s"]) for p in passes)
        # a training sample is one imitation step; sample-epochs are the
        # steps training processes
        metrics["steps_per_s"] = (first["samples"] * workload.epochs / train_s, "1/s")
        extra["train_sample_epochs_per_s"] = (metrics["steps_per_s"][0], "1/s")
        extra["split_tasks_per_s"] = (first["split_tasks"] / split_s, "1/s")
    else:
        metrics["steps_per_s"] = (first["steps"] / wall, "1/s")
    metrics["episode_ms.p50"] = (1000.0 * statistics.median(episodes), "ms")
    metrics["episode_ms.tail"] = (1000.0 * tail_s, "ms")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    notes = {
        "passes": len(passes),
        "wall_s": "measured median {:.4g} s, speed factor {:.3g}".format(
            statistics.median(p["wall_s"] for p in passes),
            statistics.median(speed(p["probe_s"]) for p in passes),
        ),
        "episode_ms.tail": f"p{pct:g} of n={len(episodes)} episodes, each the median of {len(per_pass)} passes",
        "digest": first["digest"],
    }
    return metrics, extra, notes


def per_layer(result: dict) -> tuple[dict, float]:
    """Per-layer metrics of the traced passes (medians over the passes) and
    the median count of `field_from` misses.  Per-function times are
    measured seconds; the trace.* pass times are reference seconds."""
    from tracer import SPAN_NAMES

    passes = [s for s in result["sections"] if s["name"] == "pass"]
    setups = [s for s in result["sections"] if s["name"] == "setup"]

    def median(values):
        return statistics.median(list(values))

    def count(name):
        return median(s["counts"].get(name, 0) for s in passes)

    metrics = {}
    for name in SPAN_NAMES:
        sections = setups if name == "scenegen.generate_scene" else passes
        for index, suffix, unit in ((0, "calls", "count"), (2, "self_s", "s"), (1, "total_s", "s")):
            metrics[f"{name}.{suffix}"] = (
                median(s["stats"].get(name, (0, 0.0, 0.0))[index] for s in sections), unit)
    misses = count("expert.field_from.misses")
    lookups = metrics["expert.field_from.calls"][0]
    retrievals = metrics["memory.LongTermStore.retrieve_topk.calls"][0]
    hits = count("memory.LongTermStore.retrieve_topk.hits")
    metrics.update({
        "expert.compute_field.cells": (count("expert.compute_field.cells"), "count"),
        "expert.field_from.hit_ratio": ((lookups - misses) / lookups if lookups else 0.0, "ratio"),
        "world.apply_action.collisions": (count("world.apply_action.collisions"), "count"),
        "memory.LongTermStore.rank.entries_scanned": (
            count("memory.LongTermStore.rank.entries_scanned"), "count"),
        "memory.LongTermStore.retrieve_topk.hit_ratio": (
            hits / retrievals if retrievals else 0.0, "ratio"),
        "policy.loss_and_grad.samples": (count("policy.loss_and_grad.samples"), "count"),
        "trajectory.Trajectory.save.bytes": (count("trajectory.Trajectory.save.bytes"), "bytes"),
        "trajectory.Trajectory.load.bytes": (count("trajectory.Trajectory.load.bytes"), "bytes"),
    })
    untraced = median(p["wall_s"] * speed(p["probe_s"]) for p in result["passes"])
    traced = median(p["wall_s"] * speed(p["probe_s"]) for p in result["traced"])
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.traced_wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics, misses


def self_check(workload, result: dict, metrics: dict, misses: float) -> list[str]:
    """The tracer's counts must add up; returns what does not."""
    untraced, traced = result["passes"], result["traced"]
    problems = []
    if traced[0]["digest"] != untraced[0]["digest"]:
        problems.append("tracing changed the outputs")
    if result["unwrapped"]:
        problems.append(f"tracer missed bindings: {result['unwrapped']}")
    if result["scene_mismatches"]:
        problems.append(f"regenerated scenes differ: {result['scene_mismatches']}")
    signatures = {
        json.dumps([{k: v[0] for k, v in s["stats"].items()}, s["counts"]], sort_keys=True)
        for s in result["sections"]
        if s["name"] == "pass"
    }
    if len(signatures) != 1:
        problems.append("call counts differ between traced passes")
    first = traced[0]
    if workload.train_samples:
        expect = {
            "world.apply_action": first["imitation_steps"],
            "policy.collect_imitation_dataset": first["imitation_episodes"],
            "memory.forget_and_append": first["imitation_steps"],
            "splitter.render_step_instruction": first["split_tasks"],
        }
    else:
        expect = {
            "world.apply_action": first["steps"],
            "runner.run_episode": workload.tasks,
            "memory.forget_and_append": first["steps"] if workload.store_entries else 0,
        }
    expect["expert.compute_field"] = misses
    for name, want in expect.items():
        calls = metrics[f"{name}.calls"][0]
        if calls != want:
            problems.append(f"{name}.calls is {calls:g}, expected {want:g}")
    return problems


def layer_shares(result: dict, metrics: dict) -> dict[str, float]:
    """Each module's share of a traced pass, by self time."""
    from tracer import SPAN_NAMES

    shares: dict[str, float] = {}
    for name in SPAN_NAMES:
        if name != "scenegen.generate_scene":
            module = name.split(".")[0]
            shares[module] = shares.get(module, 0.0) + metrics[f"{name}.self_s"][0]
    pass_wall = statistics.median(s["wall_s"] for s in result["sections"] if s["name"] == "pass")
    shares = {m: v / pass_wall for m, v in sorted(shares.items(), key=lambda kv: -kv[1])}
    shares["(benchmark code)"] = 1.0 - sum(shares.values())
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "lhnav" / "__init__.py").is_file():
        return fail(f"no lhnav sources under {ROOT / 'src'}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        reps = (1, 0.0) if args.trace else (SETUP_REPS, SETUP_MIN_S)
        measured_setup_s, setup_s, setup_digests = timed_setups(
            workload, args.seed, work, *reps
        )
        result = run_child(args, work, started + CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = []
    if len(set(setup_digests)) != 1:
        problems.append("set-up wrote different inputs on repeated runs")
    passes = result["passes"]
    attempted, failed, pass_problems = tally(passes)
    problems += pass_problems
    if args.trace:
        traced = result["traced"]
        traced_attempted, traced_failed, traced_problems = tally(traced)
        attempted += traced_attempted
        failed += traced_failed
        problems += [f"traced pass: {m}" for m in traced_problems]
        metrics, misses = per_layer(result)
        problems += self_check(workload, result, metrics, misses)
        shares = layer_shares(result, metrics)
        print(f"workload {args.workload}  seed {args.seed}  traced run: "
              f"{len(passes)} untraced + {len(traced)} traced passes")
        print("layer shares of a traced pass (self time): " + ", ".join(
            f"{m} {v:.1%}" for m, v in shares.items()))
        for name, (value, unit) in metrics.items():
            print(f"  {name:<52} {value:>14.6g} {unit}")
    else:
        metrics, extra, notes = end_to_end(workload, passes, setup_s, result["peak_rss_mb"])
        notes["setup_s"] = f"measured median {statistics.median(measured_setup_s):.4g} s"
        print(f"workload {args.workload}  seed {args.seed}  passes {notes['passes']}  "
              f"set-ups {len(setup_s)}  (times in reference seconds, see probe.py)")
        for name, (value, unit) in {**metrics, **extra}.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:<28} {value:>14.6g} {unit}{note}")
        print(f"  {'failed_frac':<28} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} operations)")
        print(f"  output digest {notes['digest']}")
    if failed and not problems:
        problems.append(f"{failed} operations failed")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
