"""Command-line entry points: scene/task generation, rollouts, trajectory
splitting, and metric reports.

Every value comes from a flag.  Without --llm-endpoint, gen-tasks samples
tasks offline.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .files import InputFileError, OutputFileError, write_document
from .runner import POLICIES, RunConfig, format_report_table, load_report, run_suite
from .scenegen import generate_scene
from .splitter import render_step_instruction, split_trajectory, tag_segment
from .taskforge import (
    MAX_STAGES,
    MIN_STAGES,
    LlmNetworkError,
    LlmParseError,
    SceneTooSparseError,
    TaskValidationError,
    generate_via_llm,
    load_tasks,
    sample_task,
    save_tasks,
)
from .trajectory import Trajectory
from .world import ROBOTS, Action, Scene


def _load_scenes(args) -> dict[str, Scene]:
    """The scenes under --scenes; two files that hold one scene id are a
    usage error."""
    p = Path(args.scenes)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    scenes: dict[str, Scene] = {}
    file_of: dict[str, Path] = {}
    for path in files:
        scene = Scene.load(path)
        first = file_of.setdefault(scene.scene_id, path)
        if first != path:
            args.usage_error(f"scene files {first} and {path} both hold {scene.scene_id!r}")
        scenes[scene.scene_id] = scene
    if not scenes:
        args.usage_error(f"no scene files under {args.scenes}")
    return scenes


def _parse_stage_range(text: str) -> list[int]:
    """N or LO..HI; argparse turns a rejection into a usage error."""
    lo, sep, hi = text.partition("..")
    try:
        stages = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}") from None
    if not stages or not MIN_STAGES <= stages[0] <= stages[-1] <= MAX_STAGES:
        raise argparse.ArgumentTypeError(
            f"stage range {text!r} is not a nonempty range within {MIN_STAGES}..{MAX_STAGES}"
        )
    return stages


def cmd_gen_scene(args) -> int:
    try:
        scene = generate_scene(
            seed=args.seed, size=args.size, regions=args.regions, objects_per_region=args.objects
        )
    except ValueError as exc:
        args.usage_error(str(exc))
    path = Path(args.out) / f"{scene.scene_id}.json"
    scene.save(path)
    print(f"wrote {path}")
    return 0


def cmd_gen_tasks(args) -> int:
    if args.count < 1:
        args.usage_error(f"--count must be at least 1, got {args.count}")
    scenes = _load_scenes(args)
    endpoint = args.llm_endpoint
    robot = ROBOTS[args.robot]
    tasks = []
    scene_list = [scenes[k] for k in sorted(scenes)]
    seed = args.seed
    while len(tasks) < args.count:
        if not scene_list:
            args.usage_error(f"no scene under --scenes {args.scenes} can host a task")
        scene = scene_list[len(tasks) % len(scene_list)]
        if endpoint:
            try:
                task = generate_via_llm(
                    scene, robot, endpoint, seed=seed, allowed_stages=args.subtasks
                )
            except (LlmNetworkError, LlmParseError, TaskValidationError) as exc:
                args.usage_error(f"no task from {endpoint} for seed {seed}: {exc}")
            tasks.append(task)
        else:
            try:
                tasks.append(sample_task(scene, robot, seed=seed, allowed_stages=args.subtasks))
            except SceneTooSparseError as exc:
                print(f"dropping scene {scene.scene_id}: {exc}", file=sys.stderr)
                scene_list.remove(scene)
        seed += 1
    save_tasks(tasks, args.out)
    print(f"wrote {len(tasks)} tasks to {args.out}")
    return 0


def cmd_rollout(args) -> int:
    try:
        cfg = RunConfig(
            budget=args.budget,
            seed=args.seed,
            policy=args.policy,
            workers=args.workers,
            store_path=args.store,
            out_dir=args.out,
        )
    except ValueError as exc:
        args.usage_error(str(exc))
    scenes = _load_scenes(args)
    try:
        report = run_suite(scenes, load_tasks(args.tasks), cfg)
    except TaskValidationError as exc:
        args.usage_error(f"task file {args.tasks}: {exc}")
    print(format_report_table(report))
    return 0


def cmd_split(args) -> int:
    scenes = _load_scenes(args)
    p = Path(args.trajectories)
    files = sorted(p.glob("*.jsonl")) if p.is_dir() else [p]
    if not files:
        args.usage_error(f"no trajectory files (*.jsonl) under {p}")
    out_tasks = []
    for f in files:
        traj = Trajectory.load(f)
        scene = scenes.get(traj.scene_id)
        if scene is None:
            args.usage_error(
                f"trajectory {f} is from scene {traj.scene_id!r}, "
                f"which is not among the scenes in {args.scenes}"
            )
        try:
            windows = traj.replay(scene)
        except ValueError as exc:
            args.usage_error(f"trajectory {f}: {exc}")
        for span, steps, contexts in windows:
            # a stop can only end a window, so the others are its first steps
            actions = [s.action for s in steps if s.action != Action.STOP]
            if not actions:
                continue
            tagged = [
                replace(seg, tags=tag_segment(contexts, seg)) for seg in split_trajectory(actions)
            ]
            task = render_step_instruction(
                contexts[0].goal, tagged, source_task_id=traj.task_id, source_subtask=span.index
            )
            out_tasks.append(vars(task))
    write_document(args.out, out_tasks)
    print(f"wrote {len(out_tasks)} step-by-step tasks to {args.out}")
    return 0


def cmd_report(args) -> int:
    report = load_report(args.results)
    if args.format == "json":
        print(json.dumps(report["aggregate"], sort_keys=True, indent=2))
    else:
        print(format_report_table(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lhnav", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="generate a synthetic scene")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=24)
    p.add_argument("--regions", type=int, default=4)
    p.add_argument("--objects", type=int, default=4)
    p.add_argument("--out", default="scenes")
    p.set_defaults(func=cmd_gen_scene, usage_error=p.error)

    p = sub.add_parser("gen-tasks", help="sample tasks for existing scenes")
    p.add_argument("--scenes", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument(
        "--subtasks", default="2..4", type=_parse_stage_range,
        help="navigation stage range, e.g. 2..4",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--robot", default="spot", choices=sorted(ROBOTS))
    p.add_argument(
        "--llm-endpoint", default="",
        help="chat-completion endpoint; without it, tasks are sampled offline",
    )
    p.add_argument("--out", default="tasks.json")
    p.set_defaults(func=cmd_gen_tasks, usage_error=p.error)

    p = sub.add_parser("rollout", help="run a policy over a task suite")
    p.add_argument("--scenes", required=True)
    p.add_argument("--tasks", required=True)
    p.add_argument("--policy", default="expert", choices=POLICIES)
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--store", default="", help="long-term store JSONL for the memory policy")
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_rollout, usage_error=p.error)

    p = sub.add_parser("split", help="split trajectories into step-by-step tasks")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", default="step_tasks.json")
    p.set_defaults(func=cmd_split, usage_error=p.error)

    p = sub.add_parser("report", help="dump a report as json or table")
    p.add_argument("--results", required=True)
    p.add_argument("--format", default="table", choices=["json", "table"])
    p.set_defaults(func=cmd_report, usage_error=p.error)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a bad input file, or an output path that cannot
    be written, is a usage error of that command."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputFileError, OutputFileError) as exc:
        args.usage_error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
