"""Benchmark two checkouts in alternating pairs.

    python3 tools/bench_pairs.py --parent ../lhnav-parent --change . \\
        --workload offline_split_train --seed 2 --pairs 10 \\
        --out BENCH_x.json --key end_to_end

Runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`, T
being the `run_seconds` of the change's BENCHMARK.json, once per side in
every pair.  Before each run the side's `src/`, `perfbench/` and
BENCHMARK.json are copied into one temporary directory, emptied first,
and the run starts there: both sides run from the same path, so the
directory a checkout sits in cannot favour one side.  The parent runs first
in even pairs (0, 2, ...), the change first in odd ones, so a drift of the
machine's speed does not favour one side.  Each --workload gets its own
pairs, one workload after another.  A run that fails or whose outputs do
not check stops the tool.

The summary goes under `--key` in the `--out` JSON file (other keys of an
existing file are kept): per workload, per end-to-end metric of the
change's BENCHMARK.json, the runs of each side in pair order with their
median and quartiles, the pairs each side won and the change of the
median.  Each side's output digests go under `<key>_digests`, per
workload, with `outputs_equal`: whether both sides gave the same set of
digests, as a change that keeps the outputs bit-equal must.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# what a benchmark run reads of a checkout, and what it leaves there
STAGED = ("src", "perfbench", "BENCHMARK.json")
LEFT_OUT = shutil.ignore_patterns("__pycache__", ".perfbench_work")


def rounded(value: float) -> float:
    return float(f"{value:.4g}")


def side(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {
        "median": rounded(statistics.median(runs)),
        "q1": rounded(q1),
        "q3": rounded(q3),
        "runs": runs,
    }


def summarize(spec: list[dict], parent: list[dict], change: list[dict]) -> dict:
    """The end-to-end block of one workload.  `spec` is BENCHMARK.json's
    end_to_end list; `parent` and `change` hold one {metric: value} dict
    per run, in pair order.  Runs are kept to four significant digits, and
    the statistics are those of the kept runs."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError(f"need two or more pairs, got {len(parent)} and {len(change)} runs")
    block = {}
    for metric in spec:
        name, better = metric["name"], metric["better"]
        p = [rounded(run[name]) for run in parent]
        c = [rounded(run[name]) for run in change]
        sign = 1 if better == "higher" else -1
        p_side, c_side = side(p), side(c)
        block[name] = {
            "unit": metric["unit"],
            "bound": metric["bound"],
            "parent": p_side,
            "change": c_side,
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
            "parent_wins": sum(sign * (a - b) > 0 for a, b in zip(p, c)),
            "median_change": f"{c_side['median'] / p_side['median'] - 1:+.1%}",
        }
    return block


def digest_block(seen: dict[str, set[str]]) -> dict:
    """The digests of one workload: each side's, sorted, and whether the
    two sides' sets are equal."""
    block = {name: sorted(digests) for name, digests in seen.items()}
    block["outputs_equal"] = seen["parent"] == seen["change"]
    return block


def stage(checkout: Path, workdir: Path) -> None:
    """Empty `workdir`, then copy the STAGED files of `checkout` into it."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name in STAGED:
        if (checkout / name).is_dir():
            shutil.copytree(checkout / name, workdir / name, ignore=LEFT_OUT)
        else:
            shutil.copy2(checkout / name, workdir / name)


def run_once(
    checkout: Path, workdir: Path, workload: str, seed: int, seconds: float
) -> tuple[dict, str]:
    """One untraced benchmark run of `checkout`, staged in `workdir`: its
    end-to-end metrics and output digest."""
    stage(checkout, workdir)
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=workdir, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(
            f"bench_pairs: {workload} seed {seed} in {checkout} failed "
            f"(exit {proc.returncode}):\n{proc.stdout}{proc.stderr}"
        )
    digest = next(line.split()[-1] for line in lines if line.strip().startswith("output digest"))
    return {name: m["value"] for name, m in result["metrics"].items()}, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--key", default="end_to_end")
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    blocks, digests = {}, {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        workdir = Path(tmp) / "checkout"
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            seen = {"parent": set(), "change": set()}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for name in order:
                    metrics, digest = run_once(
                        getattr(args, name), workdir, workload, args.seed, benchmark["run_seconds"])
                    runs[name].append(metrics)
                    seen[name].add(digest)
                print(f"{workload} pair {pair}: " + "  ".join(
                    f"{name} {runs[name][-1]['steps_per_s']:.4g}/s" for name in ("parent", "change")),
                    file=sys.stderr)
            blocks[workload] = summarize(benchmark["end_to_end"], runs["parent"], runs["change"])
            digests[workload] = digest_block(seen)

    data = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    data.setdefault(args.key, {}).update(blocks)
    data.setdefault(f"{args.key}_digests", {}).update(digests)
    args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
