"""Forward task generation: sample multi-stage tasks from a scene, or fetch
them from an external chat-completion service and validate the reply.

A task chains two to four navigation stages.  Every grab follows a move to
the grabbed object and every release follows a move to the place receiving
it, so the arm bookkeeping always stays legal.  The offline template
backend is the default; the service client speaks a chat-completion wire
format and rejects replies that reference objects or regions the scene does
not contain.
"""

from __future__ import annotations

import json
import math
import random
import re
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from .expert import field_from, geodesic_distance
from .files import InputFileError, read_document, write_document
from .world import AgentState, RobotConfig, ROBOTS, Scene, normalize_heading, stock_robot

MOVE_TO = "move_to"
GRAB = "grab"
RELEASE = "release"

MIN_STAGES = 2
MAX_STAGES = 4
MIN_TARGET_SEPARATION = 2.0  # meters, geodesic, also spawn-to-first-target

_PROMPT_DIR = Path(__file__).parent / "prompts"


class SceneTooSparseError(ValueError):
    pass


class TaskValidationError(ValueError):
    pass


class LlmNetworkError(RuntimeError):
    pass


class LlmParseError(ValueError):
    pass


@dataclass(frozen=True)
class Subtask:
    kind: str  # move_to | grab | release
    object_id: str
    region_id: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in (MOVE_TO, GRAB, RELEASE):
            raise ValueError(f"unknown subtask kind {self.kind!r}")
        if not isinstance(self.object_id, str) or not isinstance(self.region_id, (str, type(None))):
            raise TypeError("object_id must be a string and region_id a string or null")


@dataclass(frozen=True)
class TaskSpec:
    id: str
    instruction: str
    subtasks: tuple[Subtask, ...]
    robot: str
    scene_id: str
    seed: int

    def __post_init__(self) -> None:
        if not all(isinstance(v, str) for v in (self.id, self.instruction, self.scene_id)):
            raise TypeError("id, instruction and scene_id must be strings")
        if type(self.seed) is not int:
            raise TypeError(f"seed must be an integer, not {self.seed!r}")
        stock_robot(self.robot)
        if not self.move_targets():
            raise ValueError("a task needs at least one move_to subtask")

    def move_targets(self) -> list[Subtask]:
        return [s for s in self.subtasks if s.kind == MOVE_TO]

    def to_dict(self) -> dict:
        return dict(vars(self), subtasks=[dict(vars(s)) for s in self.subtasks])

    @classmethod
    def from_dict(cls, d: dict) -> "TaskSpec":
        """The inverse of to_dict; an unknown key is a TypeError."""
        return cls(**{**d, "subtasks": tuple(Subtask(**s) for s in d["subtasks"])})


LLM_MODEL = "gpt-4"
LLM_TIMEOUT_S = 30.0


def load_prompt(name: str) -> str:
    """A prompt template shipped with the package; forward_task is the
    only one."""
    return (_PROMPT_DIR / f"{name}.txt").read_text(encoding="utf-8")


# -- validation ----------------------------------------------------------------


def validate_task(scene: Scene, task: TaskSpec) -> None:
    """Check the structural task invariants against a scene; raises
    TaskValidationError naming the task and the offending field."""

    def invalid(problem: str) -> TaskValidationError:
        return TaskValidationError(f"task {task.id!r}: {problem}")

    moves = task.move_targets()
    if not MIN_STAGES <= len(moves) <= MAX_STAGES:
        raise invalid(f"{len(moves)} navigation stages, need {MIN_STAGES}..{MAX_STAGES}")
    holding: str | None = None
    prev: Subtask | None = None
    for sub in task.subtasks:
        if not scene.has_object(sub.object_id):
            raise invalid(f"unknown object {sub.object_id!r}")
        obj = scene.object(sub.object_id)
        if sub.kind == MOVE_TO:
            if sub.region_id is None:
                raise invalid(f"move_to {sub.object_id!r} missing region")
            if not scene.has_region(sub.region_id):
                raise invalid(f"unknown region {sub.region_id!r}")
            if obj.region_id != sub.region_id:
                raise invalid(f"object {sub.object_id!r} is not in region {sub.region_id!r}")
        elif sub.kind == GRAB:
            if holding is not None:
                raise invalid(f"grab {sub.object_id!r} while already holding")
            if not obj.portable:
                raise invalid(f"grab target {sub.object_id!r} is not portable")
            if prev is None or prev.kind != MOVE_TO or prev.object_id != sub.object_id:
                raise invalid(f"grab {sub.object_id!r} not preceded by a move to it")
            holding = sub.object_id
        else:  # release
            if holding is None:
                raise invalid(f"release {sub.object_id!r} with empty arm")
            if holding != sub.object_id:
                raise invalid(f"release {sub.object_id!r} while holding {holding!r}")
            if prev is None or prev.kind != MOVE_TO:
                raise invalid(f"release {sub.object_id!r} not preceded by a move to its place")
            holding = None
        prev = sub


def check_reachable(scene: Scene, task: TaskSpec) -> None:
    """Each move target must be reachable from the one before it, or a
    TaskValidationError names the task and both targets.  A sampled task
    passes by construction: its targets share one free-space component."""
    # each query is toward a target, whose field its window needs anyway
    targets = [scene.object(sub.object_id) for sub in task.move_targets()]
    for prev, target in zip(targets, targets[1:]):
        if geodesic_distance(scene, prev.position, target.position) == math.inf:
            raise TaskValidationError(
                f"task {task.id!r}: target {target.id!r} is unreachable from {prev.id!r}"
            )


# -- template backend ------------------------------------------------------------


def _component_objects(scene: Scene) -> list:
    """The objects of the free-space component that holds the most of them,
    a tie going to the component of the smallest object id."""
    best: list = []
    placed: set[str] = set()
    for first in sorted(scene.objects, key=lambda o: o.id):
        if first.id not in placed:
            # first is the fixed end, so the queries share its cached field
            members = [
                o for o in scene.objects
                if geodesic_distance(scene, o.position, first.position) < math.inf
            ]
            placed.update(o.id for o in members)
            if len(members) > len(best):
                best = members
    return best


def _stage_candidates(objects, portable: bool) -> list:
    return sorted((o for o in objects if o.portable == portable), key=lambda o: o.id)


def _pick_target(rng: random.Random, scene: Scene, pool, prev_obj, used: set[str]):
    """Deterministically pick the next stage target, preferring a different
    region and a decent geodesic separation from the previous one."""
    candidates = [o for o in pool if o.id not in used]
    if prev_obj is not None:
        # the previous target is the fixed end, so all candidates share its
        # geodesic field
        gap = {o.id: geodesic_distance(scene, o.position, prev_obj.position) for o in candidates}
        spread = [
            o
            for o in candidates
            if o.region_id != prev_obj.region_id and gap[o.id] >= MIN_TARGET_SEPARATION
        ]
        if not spread:
            spread = [
                o
                for o in candidates
                if scene.cell_of(o.position) != scene.cell_of(prev_obj.position)
            ]
        candidates = spread or candidates
    if not candidates:
        return None
    return rng.choice(candidates)


def _instruction(scene: Scene, stages) -> str:
    """One clause per carry, joined by ", then ": "take A to B" for a pair
    of stages, "retrieve A" for a lone last one."""
    phrases = [f"the {o.category} in {scene.region(o.region_id).label}" for o in stages]
    carries = [phrases[i : i + 2] for i in range(0, len(phrases), 2)]
    return ", then ".join(
        f"take {c[0]} to {c[1]}" if len(c) == 2 else f"retrieve {c[0]}" for c in carries
    )


def _subtask_chain(stages) -> tuple[Subtask, ...]:
    """Stages alternate carry/place: M G M R [M G [M R]]."""
    subs: list[Subtask] = []
    for i, obj in enumerate(stages):
        subs.append(Subtask(kind=MOVE_TO, object_id=obj.id, region_id=obj.region_id))
        if i % 2 == 0:
            subs.append(Subtask(kind=GRAB, object_id=obj.id))
        else:
            subs.append(Subtask(kind=RELEASE, object_id=stages[i - 1].id))
    return tuple(subs)


def sample_task(
    scene: Scene,
    robot: RobotConfig | None = None,
    seed: int = 0,
    allowed_stages=None,
) -> TaskSpec:
    """Sample one task from the offline template backend, deterministic
    under the seed.

    allowed_stages restricts the number of navigation stages (default 2..4,
    capped by what the scene can support).  Every target comes from one
    free-space component, the one that holds the most objects, so each is
    reachable from the one before it.  A SceneTooSparseError depends on
    the scene and allowed_stages only, never on the seed.
    """
    robot = robot or ROBOTS["spot"]
    rng = random.Random(f"task:{scene.seed}:{seed}")
    objects = _component_objects(scene)
    if len({o.region_id for o in objects}) < 2:
        raise SceneTooSparseError("need objects in at least two regions")
    portables = _stage_candidates(objects, portable=True)
    receptacles = _stage_candidates(objects, portable=False)
    destinations = receptacles or portables
    if not portables or not destinations:
        raise SceneTooSparseError("need at least one portable object and one place")

    max_feasible = MAX_STAGES
    if len(portables) < 2:
        max_feasible = min(max_feasible, 2)
    if len(destinations) + len(portables) < 4:
        max_feasible = min(max_feasible, 3)
    if not receptacles:  # then every stage takes a portable of its own
        max_feasible = min(max_feasible, len(portables))
    allowed = [
        n
        for n in (allowed_stages or range(MIN_STAGES, MAX_STAGES + 1))
        if MIN_STAGES <= n <= max_feasible
    ]
    if not allowed:
        raise SceneTooSparseError("scene cannot support the requested stage count")
    n_stages = rng.choice(allowed)

    stages = []
    used: set[str] = set()
    prev = None
    for i in range(n_stages):
        pool = portables if i % 2 == 0 else destinations
        obj = _pick_target(rng, scene, pool, prev, used)
        if obj is None and i % 2 == 1:
            obj = _pick_target(rng, scene, portables, prev, used)
        if obj is None:
            raise SceneTooSparseError(f"no candidate for stage {i}")
        stages.append(obj)
        used.add(obj.id)
        prev = obj

    task = TaskSpec(
        id=f"task-{scene.seed}-{seed}",
        instruction=_instruction(scene, stages),
        subtasks=_subtask_chain(stages),
        robot=robot.name,
        scene_id=scene.scene_id,
        seed=seed,
    )
    validate_task(scene, task)
    return task


def sample_spawn(scene: Scene, task: TaskSpec) -> AgentState:
    """Deterministic spawn for a task: a uniform free cell at least
    MIN_TARGET_SEPARATION geodesic from the first target (falls back to the
    farthest reachable cell), with a uniform heading."""
    rng = random.Random(f"spawn:{task.scene_id}:{task.seed}")
    first = scene.object(task.move_targets()[0].object_id)
    field = field_from(scene, scene.cell_of(first.position))
    # flat indices sort row-major, as the cells they stand for
    reachable = sorted(field.steps)
    meters = {i: field.value[i] * scene.cell_size for i in reachable}
    eligible = [i for i in reachable if meters[i] >= MIN_TARGET_SEPARATION]
    if not eligible:
        eligible = [max(reachable, key=lambda i: (meters[i], i))]
    cell = divmod(rng.choice(eligible), scene.cols)
    heading = normalize_heading(rng.uniform(0.0, 360.0))
    return AgentState(position=scene.cell_center(cell), heading=heading)


# -- service backend ------------------------------------------------------------


def serialize_scene_for_prompt(scene: Scene) -> str:
    payload = {
        f"Region {r.id}: {r.label.title()}": sorted(
            o.category for o in scene.objects_in_region(r.id)
        )
        for r in scene.regions
        if scene.objects_in_region(r.id)
    }
    return json.dumps(payload, sort_keys=True)


def serialize_robot_for_prompt(robot: RobotConfig) -> str:
    return (
        f"{robot.name} moves {robot.forward_step} m per step, turns "
        f"{robot.turn_step} degrees, and carries three RGB cameras "
        f"(front, left, right) at {robot.camera_height} m with a "
        f"{robot.fov_per_camera} degree field of view each."
    )


_SUBTASK_TOKEN = re.compile(r"^(Move_to|Grab|Release)\(['\"]([^'\"]+)['\"]\)$")


def parse_reply(scene: Scene, robot: RobotConfig, content: str, seed: int = 0) -> TaskSpec:
    """Parse a service reply into a validated TaskSpec.

    The reply body is a dictionary with "Task instruction" and
    "Subtask list" entries; every referenced object and region must resolve
    against the scene.  The task must then pass validate_task and
    check_reachable, as a loaded one must before run_suite runs it.
    """
    try:
        data = json.loads(content)
    except json.JSONDecodeError:
        try:
            import ast

            data = ast.literal_eval(content)
        except (ValueError, SyntaxError) as exc:
            raise LlmParseError(f"reply is not a dictionary: {exc}") from exc
    if not isinstance(data, dict) or "Task instruction" not in data or "Subtask list" not in data:
        raise LlmParseError("reply must contain 'Task instruction' and 'Subtask list'")
    instruction = data["Task instruction"]
    tokens = data["Subtask list"]
    if not isinstance(tokens, list) or not tokens:
        raise LlmParseError("'Subtask list' must be a nonempty list")

    subtasks: list[Subtask] = []
    prev_move: Subtask | None = None
    for token in tokens:
        m = _SUBTASK_TOKEN.match(str(token).strip())
        if not m:
            raise LlmParseError(f"unparseable subtask token {token!r}")
        kind, arg = m.group(1), m.group(2)
        if kind == "Move_to":
            if "_" not in arg:
                raise TaskValidationError(f"move target {arg!r} lacks a region id")
            category, region_id = arg.rsplit("_", 1)
            if not scene.has_region(region_id):
                raise TaskValidationError(f"unknown region in {arg!r}")
            matches = sorted(
                (o for o in scene.objects_in_region(region_id) if o.category == category),
                key=lambda o: o.id,
            )
            if not matches:
                raise TaskValidationError(
                    f"no {category!r} in region {region_id!r} (token {arg!r})"
                )
            sub = Subtask(kind=MOVE_TO, object_id=matches[0].id, region_id=region_id)
            prev_move = sub
            subtasks.append(sub)
        else:
            if prev_move is None:
                raise TaskValidationError(f"{kind} {arg!r} has no preceding move")
            if kind == "Grab":
                target = scene.object(prev_move.object_id)
                if target.category != arg:
                    raise TaskValidationError(
                        f"grab names {arg!r} but the move went to {target.category!r}"
                    )
                subtasks.append(Subtask(kind=GRAB, object_id=target.id))
            else:
                held = next(
                    (s for s in reversed(subtasks) if s.kind == GRAB), None
                )
                if held is None or scene.object(held.object_id).category != arg:
                    raise TaskValidationError(f"release names unheld object {arg!r}")
                subtasks.append(Subtask(kind=RELEASE, object_id=held.object_id))

    import hashlib

    digest = hashlib.sha256(instruction.encode("utf-8")).hexdigest()[:8]
    task = TaskSpec(
        id=f"llm-task-{digest}-{seed}",
        instruction=instruction,
        subtasks=tuple(subtasks),
        robot=robot.name,
        scene_id=scene.scene_id,
        seed=seed,
    )
    validate_task(scene, task)
    check_reachable(scene, task)
    return task


def chat_completion(endpoint: str, system: str, user: str) -> str:
    """One blocking chat-completion round trip; returns the assistant body.

    Each call opens its own connection, so concurrent workers never share
    state.  An endpoint that is not a URL raises a network error too.
    """
    if not endpoint:
        raise ValueError("the LLM client needs an endpoint")
    body = {
        "model": LLM_MODEL,
        "temperature": 0,
        "messages": [
            {"role": "system", "content": system},
            {"role": "user", "content": user},
        ],
    }
    try:
        req = urllib.request.Request(
            endpoint,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=LLM_TIMEOUT_S) as resp:
            payload = json.loads(resp.read().decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise LlmParseError(f"response is not JSON: {exc}") from exc
    except (OSError, ValueError) as exc:  # URLError is an OSError
        raise LlmNetworkError(f"request to {endpoint} failed: {exc}") from exc
    try:
        return payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise LlmParseError(f"malformed chat completion payload: {exc}") from exc


def generate_via_llm(
    scene: Scene, robot: RobotConfig, endpoint: str, seed: int = 0, allowed_stages=None
) -> TaskSpec:
    """Request one task from a chat-completion endpoint and validate it.

    allowed_stages restricts the number of navigation stages, as in
    sample_task.  Network failures, unparseable replies, and invariant
    violations (a stage count outside allowed_stages among them) raise
    distinct error types.
    """
    content = chat_completion(
        endpoint,
        load_prompt("forward_task"),
        (
            f"Scene: {serialize_scene_for_prompt(scene)}\n"
            f"Robot: {serialize_robot_for_prompt(robot)}"
        ),
    )
    task = parse_reply(scene, robot, content, seed=seed)
    stages = len(task.move_targets())
    if allowed_stages is not None and stages not in allowed_stages:
        raise TaskValidationError(
            f"task {task.id!r}: {stages} navigation stages, "
            f"need one of {sorted(allowed_stages)}"
        )
    return task


# -- persistence ------------------------------------------------------------------


def save_tasks(tasks: list[TaskSpec], path: str | Path) -> None:
    write_document(path, [t.to_dict() for t in tasks])


def load_tasks(path: str | Path) -> list[TaskSpec]:
    """Tasks written by save_tasks; a missing or malformed file raises an
    InputFileError naming the path and, when entries are at fault, their
    indices.  Task ids are unique: a run keys its trajectories and results
    by them."""
    data = read_document(path)
    if not isinstance(data, list):
        raise InputFileError(f"{path}: a task file holds one JSON list of tasks")
    tasks = []
    entry_of: dict[str, int] = {}
    for number, entry in enumerate(data):
        try:
            task = TaskSpec.from_dict(entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFileError(f"{path} entry {number}: not a task ({exc!r})") from exc
        first = entry_of.setdefault(task.id, number)
        if first != number:
            raise InputFileError(f"{path} entries {first} and {number}: both are task {task.id!r}")
        tasks.append(task)
    return tasks
