"""Episode orchestration: run tasks against a policy, record trajectories,
judge subtasks, and aggregate metrics into a report.

A navigation subtask ends when the policy emits stop (success is judged at
that pose) or when the step budget truncates it.  Success is judged by the
one step context that every step at a pose shares (StepContext.at_target),
at most once per pose; the policy, oracle success and the grab or release
after a window read its verdict.  Later subtasks always run regardless of
earlier failures, from wherever the agent stands, because the stage-
conditional metrics need every success flag.  Episodes are independent: a
suite can fan out over processes and still reduce to the same aggregates.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

from . import metrics as metrics_mod
from .expert import UnreachableTargetError, geodesic_distance
from .files import InputFileError, read_document, write_document
from .metrics import EpisodeResult, SubtaskRecord
from .policy import (
    ExpertPolicy,
    LinearSoftmaxBackend,
    MemoryPolicy,
    Policy,
    RandomPolicy,
    StopPolicy,
)
from .memory import LongTermStore
from .taskforge import (
    GRAB, MOVE_TO, TaskSpec, TaskValidationError, check_reachable, sample_spawn, validate_task
)
from .trajectory import StepRecord, SubtaskSpan, Trajectory
from .world import Action, AgentState, Scene, StepContext, apply_action, stock_robot, validate_state


# each policy's name and its builder, which makes a fresh policy for one
# episode of a task from the run's config and the memory policy's store
POLICIES = {
    "expert": lambda cfg, task, store: ExpertPolicy(),
    "random": lambda cfg, task, store: RandomPolicy(task.id, cfg.seed),
    "memory": lambda cfg, task, store: MemoryPolicy(
        LinearSoftmaxBackend(seed=cfg.seed), store=store
    ),
    "stop": lambda cfg, task, store: StopPolicy(),
}


@dataclass(frozen=True)
class RunConfig:
    budget: int = 500          # steps per navigation subtask
    seed: int = 0
    policy: str = "expert"
    workers: int = 1
    store_path: str = ""
    out_dir: str = ""

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; choose from {tuple(POLICIES)}")
        if self.store_path and self.policy != "memory":
            raise ValueError(f"only the memory policy reads a store, not {self.policy!r}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        # hashed once, here: the config is frozen, and replace builds a new one
        stable = {
            k: v
            for k, v in asdict(self).items()
            if k not in ("workers", "out_dir")
        }
        blob = json.dumps(stable, sort_keys=True).encode("utf-8")
        object.__setattr__(self, "_hash", hashlib.sha256(blob).hexdigest()[:12])

    def config_hash(self) -> str:
        """The first 12 hex digits of the sha256 of the config's canonical
        JSON, leaving out workers and out_dir, which change no output."""
        return self._hash


def make_policy(
    cfg: RunConfig, task: TaskSpec, store: LongTermStore | None = None
) -> Policy:
    """A fresh policy for one episode of the task.  The memory policy reads
    the given store, which it never writes; without one its store is
    empty."""
    return POLICIES[cfg.policy](cfg, task, store)


def run_episode(
    scene: Scene,
    task: TaskSpec,
    policy: Policy,
    cfg: RunConfig,
    start: AgentState | None = None,
) -> tuple[Trajectory, EpisodeResult]:
    """Run one task to completion and judge every subtask.

    A grab succeeds when the move window just before it ended at the
    target, the arm is empty and the object is portable; a release, when
    that window ended at the target and the arm holds the object.  An
    interaction with no move window before it fails; only a task that
    validate_task rejects has one.
    """
    if task.scene_id != scene.scene_id:
        raise ValueError(
            f"task {task.id!r} pairs with {task.scene_id!r}, not {scene.scene_id!r}"
        )
    robot = stock_robot(task.robot)
    state = start if start is not None else sample_spawn(scene, task)
    validate_state(scene, state)

    steps: list[StepRecord] = []
    spans: list[SubtaskSpan] = []
    records: list[SubtaskRecord] = []
    stage = -1
    # the verdict on the pose where the last move window ended
    at_target = False

    for sub_idx, sub in enumerate(task.subtasks):
        if sub.kind == MOVE_TO:
            stage += 1
            target = scene.object(sub.object_id)
            geo = geodesic_distance(scene, state.position, target.position)
            if geo == math.inf:
                raise UnreachableTargetError(
                    f"target {sub.object_id!r} unreachable in task {task.id!r}"
                )
            # floor keeps ground truth positive when a truncated predecessor
            # strands the agent on the target cell
            gt = max(geo, scene.cell_size)
            seg_start = len(steps)
            oracle_hit = False
            path_taken = 0.0
            # one context per pose: a state is immutable and a stop or a
            # blocked move returns the same object, so only a new state is
            # given a new context
            ctx = StepContext(scene, state, robot, sub.object_id, stage)
            for _ in range(cfg.budget):
                oracle_hit = oracle_hit or ctx.at_target
                action = policy.act(ctx)
                after, collided = apply_action(scene, state, action, robot)
                steps.append(StepRecord(state, action, collided))
                path_taken += math.dist(state.position, after.position)
                if after is not state:
                    state = after
                    ctx = StepContext(scene, state, robot, sub.object_id, stage)
                if action == Action.STOP:
                    break
            # the budget is positive, so the window has a last action
            stopped = action == Action.STOP
            # the pose after the last action belongs to this window too
            at_target = ctx.at_target
            oracle_hit = oracle_hit or at_target
            success = stopped and at_target
            ne = geodesic_distance(scene, state.position, target.position)
            records.append(
                SubtaskRecord(
                    success=success,
                    ne=ne,
                    gt=gt,
                    steps=len(steps) - seg_start,
                    path_taken=path_taken,
                    oracle_hit=oracle_hit,
                    truncated=not stopped,
                )
            )
            spans.append(
                SubtaskSpan(
                    index=sub_idx,
                    kind=MOVE_TO,
                    target_id=sub.object_id,
                    start=seg_start,
                    end=len(steps),
                    gt=gt,
                )
            )
            continue
        if sub.kind == GRAB:
            ok = at_target and state.holding is None and scene.object(sub.object_id).portable
            holding = sub.object_id
        else:  # release
            ok = at_target and state.holding == sub.object_id
            holding = None
        if ok:
            state = replace(state, holding=holding)
        spans.append(
            SubtaskSpan(
                index=sub_idx,
                kind=sub.kind,
                target_id=sub.object_id,
                start=len(steps),
                end=len(steps),
                gt=0.0,
                interaction_ok=ok,
            )
        )

    trajectory = Trajectory(
        task_id=task.id,
        scene_id=scene.scene_id,
        robot=robot.name,
        steps=steps,
        spans=spans,
        final_state=state,
        config_hash=cfg.config_hash(),
        seed=task.seed,
    )
    return trajectory, EpisodeResult(task_id=task.id, records=tuple(records))


def _episode_job(scenes, cfg, store, task) -> EpisodeResult:
    policy = make_policy(cfg, task, store)
    trajectory, result = run_episode(scenes[task.scene_id], task, policy, cfg)
    if cfg.out_dir:
        trajectory.save(Path(cfg.out_dir) / "trajectories" / f"{task.id}.jsonl")
    return result


def run_suite(
    scenes: dict[str, Scene],
    tasks: list[TaskSpec],
    cfg: RunConfig,
) -> dict:
    """Run every task, write trajectories, and aggregate a report.

    Every task is checked against its scene before any episode runs; an
    empty suite, a task from an unknown scene, and one that validate_task
    or check_reachable rejects raise a TaskValidationError.  The reduction
    sorts episodes by task id, so shuffled task order and any worker count
    produce the same report.  The memory policy's store is loaded once,
    before any episode, and LongTermStore.load refuses a bad file.  Each
    worker takes one contiguous chunk of tasks and one pickled copy of the
    scenes, caches included, and of the store.
    """
    if not tasks:
        raise TaskValidationError("the suite holds no tasks")
    for task in tasks:
        if task.scene_id not in scenes:
            raise TaskValidationError(
                f"task {task.id!r} is from scene {task.scene_id!r}, which the suite lacks"
            )
        scene = scenes[task.scene_id]
        validate_task(scene, task)
        check_reachable(scene, task)
    store = None
    if cfg.store_path:
        store = LongTermStore.load(cfg.store_path)
    job = partial(_episode_job, scenes, cfg, store)

    workers = min(cfg.workers, len(tasks))
    if workers > 1:
        # the pool, and multiprocessing with it, loads on a parallel run only
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(job, tasks, chunksize=math.ceil(len(tasks) / workers)))
    else:
        raw = list(map(job, tasks))

    by_id = {res.task_id: res for res in raw}
    results = [by_id[task_id] for task_id in sorted(by_id)]
    report = {
        "policy": cfg.policy,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
        "num_tasks": len(results),
        "aggregate": metrics_mod.aggregate(results),
        "per_task": {res.task_id: metrics_mod.episode_metrics(res) for res in results},
        "results": [res.to_dict() for res in results],
    }
    if cfg.out_dir:
        write_document(Path(cfg.out_dir) / "report.json", report)
    return report


def load_report(path: str | Path) -> dict:
    """A report written by run_suite; a missing or malformed file, or one
    without what format_report_table prints, raises an InputFileError."""
    report = read_document(path)
    agg = report.get("aggregate") if isinstance(report, dict) else None
    if not isinstance(agg, dict) or not {"policy", "num_tasks", "seed"} <= report.keys():
        raise InputFileError(f"{path}: a report needs policy, seed, num_tasks and aggregate")
    for name in metrics_mod.METRIC_ORDER:
        if type(agg.get(name)) not in (int, float):
            raise InputFileError(f"{path}: the aggregate has no number for {name!r}")
    return report


def format_report_table(report: dict) -> str:
    """Fixed-order metric table for terminal output."""
    agg = report["aggregate"]
    lines = [
        f"policy: {report['policy']}   tasks: {report['num_tasks']}   seed: {report['seed']}",
        "-" * 46,
    ]
    for name in metrics_mod.METRIC_ORDER:
        lines.append(f"{name.upper():>6}  {agg[name]:.4f}")
    return "\n".join(lines)
