"""The benchmark's three workloads: inputs made from a seed, one timed pass
through the public lhnav API, and the checks on every pass's outputs.

Scenes are the CLI default (24x24, 4 regions, 4 objects per region).  Task
stage counts cycle through 2, 3 and 4, so every seed gets the same mix.
Each timed pass loads its scenes from the workload's files, as a fresh
`lhnav` invocation does, so the geodesic field cache starts empty.  Why
each workload exists, and which mechanisms it exercises and bypasses, is
recorded in WORKLOADS.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

# Traced functions are called through their modules, so the tracer's
# wrappers see the calls.
from lhnav import cli, policy, runner, scenegen
from lhnav.memory import LongTermStore
from lhnav.policy import EmbeddingOracle, ExpertPolicy, LinearSoftmaxBackend, one_hot
from lhnav.runner import RunConfig, run_episode, run_suite
from lhnav.taskforge import SceneTooSparseError, load_tasks, sample_task, save_tasks
from lhnav.trajectory import Trajectory
from lhnav.world import ROBOTS, Action, Scene, observe
from probe import probe_s

SCENES = 20
STAGE_CYCLE = (2, 3, 4)
EXPERT_BUDGET = 300  # never reached by the expert on 24x24 scenes
PERFECT = ("sr", "osr", "spl", "isr", "csr", "cgt")


@dataclass(frozen=True)
class Workload:
    name: str
    pass_s: float        # nominal seconds per pass at the defining commit
    tasks: int           # evaluated (or split) tasks
    budget: int          # steps per navigation subtask
    store_entries: int = 0
    train_samples: int = 0   # imitation samples trained on (offline)
    epochs: int = 0

    @property
    def ops(self) -> int:
        """Operations per pass, not counting the offline pass's imitation
        episodes: episodes, or trajectory splits plus one training run."""
        return self.tasks + (1 if self.train_samples else 0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("expert_rollout", pass_s=5.0, tasks=40, budget=EXPERT_BUDGET),
        Workload("memory_rollout", pass_s=6.5, tasks=40, budget=25, store_entries=3000),
        Workload(
            "offline_split_train",
            pass_s=2.7,
            tasks=40,
            budget=EXPERT_BUDGET,
            train_samples=250,
            epochs=300,
        ),
    )
}


# -- inputs -------------------------------------------------------------------


def scene_seeds(seed: int) -> list[int]:
    return [1000 * seed + i for i in range(SCENES)]


def make_tasks(scenes: list[Scene], count: int, first_seed: int) -> list:
    """Round-robin over the scenes; stage counts cycle through STAGE_CYCLE."""
    robot = ROBOTS["spot"]
    tasks = []
    task_seed = first_seed
    while len(tasks) < count:
        scene = scenes[len(tasks) % len(scenes)]
        stages = [STAGE_CYCLE[len(tasks) % len(STAGE_CYCLE)]]
        try:
            tasks.append(sample_task(scene, robot, seed=task_seed, allowed_stages=stages))
        except SceneTooSparseError:
            pass
        task_seed += 1
        if task_seed - first_seed > 100 * count:
            raise RuntimeError("scenes too sparse to sample the workload's tasks")
    return tasks


def build_store(scenes: dict[str, Scene], tasks: list, entries: int) -> LongTermStore:
    """Long-term store by expert imitation: one (embedded observation,
    one-hot expert action) row per expert step, bucketed by target category."""
    store = LongTermStore()
    oracle = EmbeddingOracle()
    cfg = RunConfig(policy="expert", budget=EXPERT_BUDGET)
    for task in tasks:
        scene = scenes[task.scene_id]
        trajectory, _ = run_episode(scene, task, ExpertPolicy(), cfg)
        robot = ROBOTS[trajectory.robot]
        for span in trajectory.spans:
            if span.kind != "move_to":
                continue
            category = scene.object(span.target_id).category
            for step in trajectory.steps[span.start : span.end]:
                obs = observe(scene, step.state, robot)
                store.add(category, oracle.embed_observation(obs), one_hot(step.action))
                if len(store) == entries:
                    return store
    raise RuntimeError(f"store tasks gave only {len(store)} of {entries} entries")


def setup(workload: Workload, seed: int, root: Path) -> None:
    """Generate and write the workload's inputs under root."""
    scene_dir = root / "scenes"
    scene_dir.mkdir(parents=True)
    scenes = [scenegen.generate_scene(seed=s) for s in scene_seeds(seed)]
    for scene in scenes:
        scene.save(scene_dir / f"{scene.scene_id}.json")
    tasks = make_tasks(scenes, workload.tasks, first_seed=1000 * seed)
    save_tasks(tasks, root / "tasks.json")
    by_id = {s.scene_id: s for s in scenes}
    if workload.store_entries:
        # store tasks draw from a disjoint seed range, so no evaluated task
        # is in the store
        store_tasks = make_tasks(scenes, 100, first_seed=1000 * seed + 500)
        build_store(by_id, store_tasks, workload.store_entries).save(root / "store.jsonl")
    if workload.train_samples:
        cfg = RunConfig(policy="expert", budget=workload.budget, out_dir=str(root / "expert"))
        run_suite(by_id, tasks, cfg)


def load_scenes(scene_dir: Path) -> dict[str, Scene]:
    scenes = {}
    for path in sorted(scene_dir.glob("*.json")):
        scene = Scene.load(path)
        scenes[scene.scene_id] = scene
    return scenes


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -- timed passes ---------------------------------------------------------------


class EpisodeClock:
    """One timer per call of a patched function, with a machine-speed probe
    before each call.

    `durations` holds each call's wall time.  With `until_next`, a call's
    time runs until the next call starts (or until `stop`), which times a
    whole loop iteration that begins with that call.  `probes` holds the
    probe before each call and the one `probe()` adds at the end, so call
    i is bracketed by probes i and i + 1.  `probe_time` is the time spent
    probing, for the caller to take out of its own timings.  Without
    `probing`, there are no probes.
    """

    def __init__(self, owner, attr: str, probing: bool, until_next: bool = False):
        self.owner, self.attr, self.until_next = owner, attr, until_next
        self.probing = probing
        self.durations: list[float] = []
        self.probes: list[float] = []
        self.probe_time = 0.0
        self._open: float | None = None

    def probe(self) -> None:
        if not self.probing:
            return
        start = time.perf_counter()
        self.probes.append(probe_s())
        self.probe_time += time.perf_counter() - start

    def __enter__(self):
        raw = self.owner.__dict__[self.attr]
        self._raw = raw
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        clock = self

        def timed(*args, **kwargs):
            clock.stop(time.perf_counter())
            clock.probe()
            start = time.perf_counter()
            if clock.until_next:
                clock._open = start
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                clock.durations.append(time.perf_counter() - start)

        setattr(self.owner, self.attr, classmethod(timed) if isinstance(raw, classmethod) else timed)
        return self

    def stop(self, now: float) -> None:
        if self._open is not None:
            self.durations.append(now - self._open)
            self._open = None

    def episode_probes(self) -> list[float]:
        return [(a + b) / 2 for a, b in zip(self.probes, self.probes[1:])]

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self._raw)
        return False


@dataclass
class PassResult:
    wall_s: float         # timed part, probes taken out
    probe_s: float        # median machine-speed probe over the pass
    episode_s: list[float]
    episode_probe_s: list[float]  # mean of the probes around each episode
    ops: int              # operations attempted: episodes, splits, training runs
    failed: int
    digest: str
    steps: int = 0        # agent steps in the report (rollouts)
    split_tasks: int = 0
    split_s: float = 0.0
    imitation_episodes: int = 0
    imitation_steps: int = 0
    samples: int = 0      # samples trained on
    train_s: float = 0.0
    train_probe_s: float = 0.0
    checks: tuple = ()    # failed check messages


def _quiet_main(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"lhnav {argv[0]} exited with {code}")


def run_pass(
    workload: Workload, inputs: Path, out: Path, check: bool, trace_section=None
) -> PassResult:
    """One timed pass, then, with `check`, its output checks; the digest is
    always computed.  An untraced pass probes the machine's speed around
    every episode.  A traced pass enters `trace_section()` around its timed
    part instead, and does not probe inside it, so that no probe time lands
    in a span."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    if workload.train_samples:
        return _offline_pass(workload, inputs, out, check, trace_section)
    return _rollout_pass(workload, inputs, out, check, trace_section)


def _rollout_pass(workload, inputs: Path, out: Path, check: bool, trace_section) -> PassResult:
    policy = "memory" if workload.store_entries else "expert"
    argv = [
        "rollout",
        "--scenes", str(inputs / "scenes"),
        "--tasks", str(inputs / "tasks.json"),
        "--policy", policy,
        "--budget", str(workload.budget),
        "--seed", "0",
        "--out", str(out),
    ]
    if workload.store_entries:
        argv += ["--store", str(inputs / "store.jsonl")]
    first_probe = probe_s()
    timed = trace_section or contextlib.nullcontext
    with timed(), EpisodeClock(runner, "run_episode", trace_section is None) as clock:
        start = time.perf_counter()
        _quiet_main(argv)
        wall = time.perf_counter() - start - clock.probe_time
    clock.probe()
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    tasks = load_tasks(inputs / "tasks.json")
    failures = check_rollout(workload, tasks, report, out / "trajectories") if check else {}
    h = hashlib.sha256()
    h.update(json.dumps([report["aggregate"], report["per_task"]], sort_keys=True).encode())
    h.update(tree_digest(out / "trajectories").encode())
    return PassResult(
        wall_s=wall,
        probe_s=statistics.median([first_probe] + clock.probes),
        episode_s=clock.durations,
        episode_probe_s=clock.episode_probes(),
        ops=len(tasks),
        failed=len(failures),
        digest=h.hexdigest(),
        steps=sum(r["steps"] for res in report["results"] for r in res["records"]),
        checks=tuple(failures.values()),
    )


def check_rollout(workload: Workload, tasks, report: dict, traj_dir: Path) -> dict:
    """Failed checks by task id: the report covers every task once, each
    trajectory file agrees with its report record, and on the expert
    workload every stage-aware metric is exactly 1.0."""
    failures: dict[str, str] = {}
    results = {res["task_id"]: res for res in report["results"]}
    for task in tasks:
        res = results.get(task.id)
        if res is None:
            failures[task.id] = f"{task.id}: missing from the report"
            continue
        records = res["records"]
        path = traj_dir / f"{task.id}.jsonl"
        if not path.is_file():
            failures[task.id] = f"{task.id}: no trajectory file"
            continue
        traj = Trajectory.load(path)
        moves = [s for s in traj.spans if s.kind == "move_to"]
        if len(moves) != len(records) or len(records) != len(task.move_targets()):
            failures[task.id] = f"{task.id}: subtask count mismatch"
        elif any(s.end - s.start != r["steps"] for s, r in zip(moves, records)):
            failures[task.id] = f"{task.id}: trajectory steps disagree with the report"
        elif any(r["steps"] > workload.budget for r in records):
            failures[task.id] = f"{task.id}: a subtask ran past its budget"
        elif not all(math.isfinite(r["ne"]) for r in records):
            failures[task.id] = f"{task.id}: navigation error not finite"
        elif workload.store_entries == 0:
            metrics = report["per_task"][task.id]
            if any(metrics[m] != 1.0 for m in PERFECT):
                failures[task.id] = f"{task.id}: expert metrics not all 1.0: {metrics}"
    if len(results) != len(tasks) or report["num_tasks"] != len(tasks):
        failures["report"] = "report task count differs from the task file"
    if workload.store_entries == 0 and any(report["aggregate"][m] != 1.0 for m in PERFECT):
        failures["aggregate"] = f"expert aggregate not all 1.0: {report['aggregate']}"
    return failures


def _offline_pass(workload, inputs: Path, out: Path, check: bool, trace_section) -> PassResult:
    traj_dir = inputs / "expert" / "trajectories"
    steps_json = out / "steps.json"
    argv = [
        "split",
        "--trajectories", str(traj_dir),
        "--scenes", str(inputs / "scenes"),
        "--out", str(steps_json),
    ]
    first_probe = probe_s()
    probing = trace_section is None
    with (trace_section or contextlib.nullcontext)():
        start = time.perf_counter()
        with EpisodeClock(Trajectory, "load", probing, until_next=True) as clock:
            _quiet_main(argv)
            clock.stop(time.perf_counter())
            clock.probe()
        split_done = time.perf_counter()
        scenes = load_scenes(inputs / "scenes")
        backend = LinearSoftmaxBackend(seed=0)
        # imitation episodes over the tasks in order until there are
        # enough samples; training always sees exactly train_samples
        tasks, per_task, dataset = [], [], []
        for task in load_tasks(inputs / "tasks.json"):
            if len(dataset) >= workload.train_samples:
                break
            data = policy.collect_imitation_dataset(
                scenes[task.scene_id], task, backend, budget=workload.budget
            )
            tasks.append(task)
            per_task.append(data)
            dataset += data
        imitation_steps = len(dataset)
        dataset = dataset[: workload.train_samples]
        before_train = time.perf_counter()
        train_probes = [probe_s()] if probing else []
        train_start = time.perf_counter()
        train = policy.train_backend(backend, dataset, epochs=workload.epochs)
        end = time.perf_counter()
    train_probes.append(probe_s())

    split = json.loads(steps_json.read_text(encoding="utf-8"))
    failures = {}
    if check:
        failures.update(check_split(inputs, traj_dir, split))
        failures.update(check_training(traj_dir, tasks, per_task, train, backend))
    n_traj = len(list(traj_dir.glob("*.jsonl")))
    h = hashlib.sha256()
    h.update(tree_digest(traj_dir).encode())
    h.update(steps_json.read_bytes())
    h.update(backend.get_params().tobytes())
    return PassResult(
        wall_s=end - start - clock.probe_time - (train_start - before_train),
        probe_s=statistics.median([first_probe] + clock.probes + train_probes),
        episode_s=clock.durations,
        episode_probe_s=clock.episode_probes(),
        ops=n_traj + len(tasks) + 1,
        failed=len(failures),
        digest=h.hexdigest(),
        split_tasks=len(split),
        split_s=split_done - start - clock.probe_time,
        imitation_episodes=len(tasks),
        imitation_steps=imitation_steps,
        samples=len(dataset),
        train_s=end - train_start,
        train_probe_s=statistics.mean(train_probes),
        checks=tuple(failures.values()),
    )


def check_split(inputs: Path, traj_dir: Path, split: list) -> dict:
    """Failed checks by trajectory: one step-by-step task per nonempty
    move_to span, naming that span's target category, in file order."""
    failures: dict[str, str] = {}
    scenes = load_scenes(inputs / "scenes")
    produced: dict[str, list] = {}
    for task in split:
        produced.setdefault(task["source_task_id"], []).append(task)
    for path in sorted(traj_dir.glob("*.jsonl")):
        traj = Trajectory.load(path)
        scene = scenes[traj.scene_id]
        expected = [
            (span.index, scene.object(span.target_id).category)
            for span in traj.spans
            if span.kind == "move_to"
            and any(a != Action.STOP for a in traj.actions(span))
        ]
        got = produced.pop(traj.task_id, [])
        if [(t["source_subtask"], t["target"]) for t in got] != expected:
            failures[traj.task_id] = f"split {traj.task_id}: tasks do not match its spans"
        elif any(
            not t["steps"]
            or not t["instruction"].endswith(".")
            or t["target"] not in t["instruction"]
            for t in got
        ):
            failures[traj.task_id] = f"split {traj.task_id}: malformed step-by-step task"
    if produced:
        failures["split"] = f"split tasks from unknown trajectories: {sorted(produced)}"
    return failures


def check_training(traj_dir: Path, tasks, per_task, train, backend) -> dict:
    """Imitation labels equal the recorded expert actions of the same task,
    and training lowers a finite loss."""
    failures: dict[str, str] = {}
    for task, data in zip(tasks, per_task):
        recorded = Trajectory.load(traj_dir / f"{task.id}.jsonl").actions()
        if [int(a) for _, a in data] != [int(a) for a in recorded]:
            failures[f"collect:{task.id}"] = f"imitation labels of {task.id} differ from its expert trajectory"
    theta = backend.get_params()
    if not (math.isfinite(train.final_loss) and train.final_loss < train.losses[0]):
        failures["train"] = f"training did not lower the loss: {train.losses[0]} -> {train.final_loss}"
    elif not all(math.isfinite(x) for x in theta):
        failures["train"] = "trained parameters are not finite"
    return failures
