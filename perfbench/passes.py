"""The workload's own process: timed passes over inputs that run.py set up.

Untraced, it runs the passes that fill the given seconds and reports each
pass and the process's peak resident memory.  Traced, it runs half of
those passes untraced, then installs the tracer, regenerates the scenes
inside a set-up section, and runs the other half traced.  The spans are
written out when the process ends.  The result goes to a JSON file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from probe import REFERENCE_S  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, PassResult, run_pass, scene_seeds  # noqa: E402

MIN_PASSES = 2


def pass_count(workload, seconds: float) -> int:
    """Passes that fill `seconds` at the workload's nominal pass time.  The
    count depends only on the arguments, so every run of a workload does
    the same work."""
    return max(MIN_PASSES, round(seconds / workload.pass_s))


def run_passes(workload, inputs: Path, out: Path, count: int, trace_section=None) -> list[dict]:
    """`count` passes; the first one's outputs are checked in full, the
    others must reproduce its digest.  A pass that raises counts all its
    operations as failed and ends the loop."""
    passes = []
    while len(passes) < count:
        try:
            result = run_pass(workload, inputs, out, not passes, trace_section)
            passes.append(dataclasses.asdict(result))
        except Exception:
            traceback.print_exc()
            message = traceback.format_exc().strip().splitlines()[-1]
            result = PassResult(
                0.0, REFERENCE_S, [], [], workload.ops, workload.ops, "", checks=(message,)
            )
            passes.append(dataclasses.asdict(result))
            break
    return passes


def regenerate_scenes(inputs: Path, seed: int) -> list[str]:
    """Scene generation as set-up does it; returns mismatches with the
    scene files set-up wrote."""
    from lhnav import scenegen

    mismatches = []
    for scene_seed in scene_seeds(seed):
        scene = scenegen.generate_scene(seed=scene_seed)
        path = inputs / "scenes" / f"{scene.scene_id}.json"
        if scene.to_dict() != json.loads(path.read_text(encoding="utf-8")):
            mismatches.append(scene.scene_id)
    return mismatches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default="")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    inputs, out = Path(args.inputs), Path(args.out)

    count = pass_count(workload, args.seconds)
    if not args.trace:
        result = {"passes": run_passes(workload, inputs, out, count)}
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # half the passes untraced, half traced: the difference in pass
        # time is the tracing overhead
        half = max(2, round(count / 2))
        untraced = run_passes(workload, inputs, out, half)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.section("setup"):
                mismatches = regenerate_scenes(inputs, args.seed)
            traced = run_passes(
                workload, inputs, out, half, trace_section=lambda: tracer.section("pass")
            )
            unwrapped = tracer.unwrapped_bindings()
        finally:
            tracer.uninstall()
        if args.spans:
            tracer.write_spans(args.spans)
        result = {
            "passes": untraced,
            "traced": traced,
            "sections": tracer.sections,
            "unwrapped": unwrapped,
            "scene_mismatches": mismatches,
        }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
