"""Deterministic 2D grid environment with continuous agent pose.

The world is a single-floor occupancy grid (default 0.25 m cells) populated
with regioned object instances.  The agent moves with four atomic actions
(move forward +0.25 m, turn left/right +-30 deg, stop) and senses through
three cameras facing +60/0/-60 degrees relative to its heading.  A
navigation target counts as reached when the agent is within a 1 m geodesic
distance, the target sits inside a 60 degree frontal cone, and the line of
sight is clear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import NamedTuple

from .files import InputFileError, read_document, write_lines

CELL_SIZE = 0.25          # meters per grid cell
SUCCESS_RADIUS = 1.0      # meters, geodesic
SUCCESS_CONE_DEG = 60.0   # frontal cone for task success; task semantics, not camera fov

OCCUPIED = "#"
FREE = "."
_GRID_CHARS = frozenset((OCCUPIED, FREE))


class Action(IntEnum):
    """Atomic actions.  Index order doubles as the decision-vector layout
    (candidate 0 is stop)."""

    STOP = 0
    TURN_LEFT = 1
    MOVE_FORWARD = 2
    TURN_RIGHT = 3


ACTION_NAMES = {
    Action.STOP: "stop",
    Action.TURN_LEFT: "turn_left",
    Action.MOVE_FORWARD: "move_forward",
    Action.TURN_RIGHT: "turn_right",
}
ACTION_BY_NAME = {v: k for k, v in ACTION_NAMES.items()}


class SceneValidationError(ValueError):
    pass


class UnknownObjectError(KeyError):
    pass


@dataclass(frozen=True)
class Region:
    id: str
    label: str
    cells: tuple[tuple[int, int], ...]  # (row, col)


@dataclass(frozen=True)
class ObjectInstance:
    id: str
    category: str
    region_id: str
    position: tuple[float, float]  # meters (x, y)
    portable: bool

    def __post_init__(self) -> None:
        if type(self.portable) is not bool:
            raise TypeError(f"object {self.id!r}: portable must be a bool, not {self.portable!r}")


@dataclass(frozen=True)
class RobotConfig:
    name: str = "spot"
    camera_height: float = 0.5
    forward_step: float = 0.25
    turn_step: float = 30.0
    fov_per_camera: float = 60.0
    sensing_range: float = 5.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.forward_step) and self.forward_step > 0):
            raise ValueError(f"forward_step must be positive and finite, got {self.forward_step}")
        # NaN fails this test too; an infinite range senses the whole scene
        if not self.sensing_range > 0:
            raise ValueError(f"sensing_range must be positive, got {self.sensing_range}")
        if not 0 < self.turn_step <= 90:
            raise ValueError("turn_step must be in (0, 90]")
        if not 0 < self.fov_per_camera <= 180:
            raise ValueError("fov_per_camera must be in (0, 180]")


# Stock robot platforms; camera heights differ but only the name is persisted.
ROBOTS = {
    "spot": RobotConfig(name="spot", camera_height=0.5),
    "stretch": RobotConfig(name="stretch", camera_height=1.2),
}


def stock_robot(name: str) -> RobotConfig:
    """The stock robot a task or trajectory names."""
    if name not in ROBOTS:
        raise ValueError(f"unknown robot {name!r}; choose from {sorted(ROBOTS)}")
    return ROBOTS[name]


def normalize_heading(deg: float) -> float:
    """Wrap a heading into [0, 360)."""
    h = deg % 360.0
    return h if h != 360.0 else 0.0


def signed_angle(deg: float) -> float:
    """Wrap an angle difference into (-180, 180]."""
    a = deg % 360.0
    return a - 360.0 if a > 180.0 else a


@dataclass(frozen=True)
class AgentState:
    position: tuple[float, float]
    heading: float  # degrees in [0, 360)
    holding: str | None = None


# observe builds the three records below, about 6.5 per sensed pose, so each
# has one hand-written __init__ that fills its __dict__ item by item, where
# the generated frozen one calls object.__setattr__ once per field.  The
# dataclass still gives each its fields, eq, hash, repr and frozen assignment.
# AgentState and StepRecord keep the generated __init__: many of them stay
# alive, and a filled __dict__ costs 64 bytes more per record than the
# generated one's inline values.


@dataclass(frozen=True)
class SightedObject:
    object_id: str
    category: str
    bearing: float  # degrees relative to heading, (-180, 180]
    range: float    # meters, euclidean

    def __init__(self, object_id, category, bearing, range):
        fields = self.__dict__
        fields["object_id"] = object_id
        fields["category"] = category
        fields["bearing"] = bearing
        fields["range"] = range


@dataclass(frozen=True)
class View:
    direction: str  # "left" | "front" | "right"
    offset: float   # camera axis relative to heading
    objects: tuple[SightedObject, ...]

    def __init__(self, direction, offset, objects):
        fields = self.__dict__
        fields["direction"] = direction
        fields["offset"] = offset
        fields["objects"] = objects


@dataclass(frozen=True)
class Observation:
    views: tuple[View, View, View]

    def __init__(self, views):
        self.__dict__["views"] = views

    def visible(self) -> list[SightedObject]:
        return [o for v in self.views for o in v.objects]


class Scene:
    """Immutable occupancy grid plus regions and object instances.

    Rows index y (row 0 spans y in [0, cell)), columns index x.  The grid
    must be bordered by occupied cells so the agent can never leave it.
    """

    def __init__(
        self,
        grid: list[str] | tuple[str, ...],
        regions: list[Region] | tuple[Region, ...],
        objects: list[ObjectInstance] | tuple[ObjectInstance, ...],
        seed: int = 0,
        cell_size: float = CELL_SIZE,
    ):
        # the seed names the scene, so it is never rounded into another one
        if type(seed) is not int:
            raise TypeError(f"seed must be an integer, not {seed!r}")
        if type(cell_size) not in (int, float):
            raise TypeError(f"cell_size must be a number, not {cell_size!r}")
        self.grid = tuple(grid)
        self.regions = tuple(regions)
        self.objects = tuple(objects)
        self.seed = seed
        self.cell_size = float(cell_size)
        # the grid's size, read on every flat index, so counted once
        self.rows = len(self.grid)
        self.cols = len(self.grid[0]) if self.grid else 0
        self._objects_by_id = {o.id: o for o in self.objects}
        self._regions_by_id = {r.id: r for r in self.regions}
        self._region_of_cell = {c: r for r in self.regions for c in r.cells}
        # per-instance caches, pickled with the scene: the expert module's
        # geodesic fields keyed by source cell and legal moves of every flat
        # cell index, and the sensing lines of the last observed position
        self._field_cache: dict[tuple[int, int], object] = {}
        self._moves: list | None = None
        self._sight_memo: tuple | None = None
        self._validate()

    # -- geometry helpers ---------------------------------------------------

    @property
    def scene_id(self) -> str:
        return f"scene-{self.seed}"

    def is_free(self, row: int, col: int) -> bool:
        """False for occupied cells and for cells outside the grid; the
        bounds come first, so a negative index does not wrap."""
        return 0 <= row < self.rows and 0 <= col < self.cols and self.grid[row][col] == FREE

    def cell_of(self, point: tuple[float, float]) -> tuple[int, int]:
        x, y = point
        return math.floor(y / self.cell_size), math.floor(x / self.cell_size)

    def cell_center(self, cell: tuple[int, int]) -> tuple[float, float]:
        row, col = cell
        return ((col + 0.5) * self.cell_size, (row + 0.5) * self.cell_size)

    def object(self, object_id: str) -> ObjectInstance:
        try:
            return self._objects_by_id[object_id]
        except KeyError:
            raise UnknownObjectError(object_id) from None

    def has_object(self, object_id: str) -> bool:
        return object_id in self._objects_by_id

    def region(self, region_id: str) -> Region:
        return self._regions_by_id[region_id]

    def has_region(self, region_id: str) -> bool:
        return region_id in self._regions_by_id

    def region_at(self, cell: tuple[int, int]) -> Region | None:
        return self._region_of_cell.get(cell)

    def objects_in_region(self, region_id: str) -> list[ObjectInstance]:
        return [o for o in self.objects if o.region_id == region_id]

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        if not 0 < self.cell_size < math.inf:
            raise SceneValidationError(
                f"cell_size must be positive and finite, got {self.cell_size}"
            )
        if not self.grid or not self.grid[0]:
            raise SceneValidationError("grid must be nonempty")
        width = len(self.grid[0])
        for i, row in enumerate(self.grid):
            if len(row) != width:
                raise SceneValidationError(f"row {i} has inconsistent width")
            if not _GRID_CHARS.issuperset(row):
                raise SceneValidationError(f"row {i} contains invalid characters")
        border = (
            all(ch == OCCUPIED for ch in self.grid[0])
            and all(ch == OCCUPIED for ch in self.grid[-1])
            and all(row[0] == OCCUPIED and row[-1] == OCCUPIED for row in self.grid)
        )
        if not border:
            raise SceneValidationError("grid must be bordered by occupied cells")
        if len(self._regions_by_id) != len(self.regions):
            raise SceneValidationError("region ids must be unique")
        # a cell that is not a pair fails in the is_free call
        is_free = self.is_free
        seen_cells: set[tuple[int, int]] = set()
        for r in self.regions:
            for cell in r.cells:
                if not is_free(*cell):
                    raise SceneValidationError(
                        f"region {r.id!r} contains occupied cell {cell}"
                    )
                if cell in seen_cells:
                    raise SceneValidationError(f"cell {cell} assigned to two regions")
                seen_cells.add(cell)
        if len(self._objects_by_id) != len(self.objects):
            raise SceneValidationError("object ids must be unique")
        for o in self.objects:
            if not o.category:
                raise SceneValidationError(f"object {o.id!r} has empty category")
            if o.region_id not in self._regions_by_id:
                raise SceneValidationError(
                    f"object {o.id!r} references unknown region {o.region_id!r}"
                )
            cell = self.cell_of(o.position)
            if not self.is_free(*cell):
                raise SceneValidationError(f"object {o.id!r} sits in occupied cell")
            region = self._region_of_cell.get(cell)
            if region is None or region.id != o.region_id:
                raise SceneValidationError(
                    f"object {o.id!r} lies outside its region {o.region_id!r}"
                )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """The scene's constructor arguments, its regions and objects as the
        dicts of their fields; tuples are lists, so the dict equals the
        parsed scene file."""
        return {
            "grid": list(self.grid),
            "regions": [dict(vars(r), cells=[list(c) for c in r.cells]) for r in self.regions],
            "objects": [dict(vars(o), position=list(o.position)) for o in self.objects],
            "seed": self.seed,
            "cell_size": self.cell_size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scene":
        """The inverse of to_dict; an unknown key is a TypeError."""
        return cls(**{
            **data,
            "regions": [
                Region(**{**r, "cells": tuple(map(tuple, r["cells"]))}) for r in data["regions"]
            ],
            "objects": [
                ObjectInstance(**{**o, "position": tuple(o["position"])}) for o in data["objects"]
            ],
        })

    def save(self, path: str | Path) -> None:
        write_lines(path, [self.to_dict()])

    @classmethod
    def load(cls, path: str | Path) -> "Scene":
        """A scene written by save; a missing or malformed file raises an
        InputFileError naming the path."""
        data = read_document(path)
        try:
            return cls.from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFileError(f"{path}: not a scene ({exc!r})") from exc


def validate_state(scene: Scene, state: AgentState) -> None:
    if not scene.is_free(*scene.cell_of(state.position)):
        raise ValueError(f"agent position {state.position} is not in free space")
    if not 0 <= state.heading < 360:
        raise ValueError(f"heading {state.heading} not normalized")
    if state.holding is not None and not scene.has_object(state.holding):
        raise ValueError(f"held object {state.holding!r} not in scene")


# -- line of sight ----------------------------------------------------------


def line_of_sight(
    scene: Scene, a: tuple[float, float], b: tuple[float, float]
) -> bool:
    """True when the straight segment from a to b crosses no occupied cell.

    Amanatides-Woo traversal that stops at the first occupied cell; on an
    exact corner tie the column advances first, which makes occlusion
    deterministic.  Only the first cell needs a bounds check: the grid is
    bordered by occupied cells and each step moves to a 4-neighbour, so a
    walk that starts inside stops on the border before it can leave.
    """
    cs = scene.cell_size
    grid = scene.grid
    (x0, y0), (x1, y1) = a, b
    # floor of a float is an int
    row = math.floor(y0 / cs)
    col = math.floor(x0 / cs)
    row1 = math.floor(y1 / cs)
    col1 = math.floor(x1 / cs)
    if not (0 <= row < scene.rows and 0 <= col < scene.cols):
        return False
    cells = grid[row]  # the walk's current row of the grid
    if cells[col] != FREE:
        return False
    dx = x1 - x0
    dy = y1 - y0
    step_c = 1 if dx > 0 else -1
    step_r = 1 if dy > 0 else -1
    if dx != 0:
        next_x = (col + (1 if dx > 0 else 0)) * cs
        t_max_x = (next_x - x0) / dx
        t_delta_x = cs / abs(dx)
    else:
        t_max_x = math.inf
        t_delta_x = math.inf
    if dy != 0:
        next_y = (row + (1 if dy > 0 else 0)) * cs
        t_max_y = (next_y - y0) / dy
        t_delta_y = cs / abs(dy)
    else:
        t_max_y = math.inf
        t_delta_y = math.inf
    # the traversal can take at most this many boundary crossings
    for _ in range(abs(row1 - row) + abs(col1 - col) + 4):
        if row == row1 and col == col1:
            break
        if t_max_x <= t_max_y:
            col += step_c
            t_max_x += t_delta_x
        else:
            row += step_r
            t_max_y += t_delta_y
            cells = grid[row]
        if cells[col] != FREE:
            return False
    return True


# -- operations -------------------------------------------------------------


class StepResult(NamedTuple):
    state: AgentState
    collided: bool = False


def apply_action(scene: Scene, state: AgentState, action: Action, robot: RobotConfig) -> StepResult:
    """Apply one atomic action; the result unpacks as (state, collided).

    Forward moves are blocked (the same state back, collided set) when
    the destination cell is occupied or a diagonal neighbour joined only by
    a corner, which no geodesic field crosses; turns rotate by the robot's
    turn step; stop gives the same state back, and the caller that sees a
    stop action ends its window.
    """
    if action == Action.STOP:
        return StepResult(state)
    if action == Action.TURN_LEFT:
        heading = normalize_heading(state.heading + robot.turn_step)
        return StepResult(AgentState(state.position, heading, state.holding))
    if action == Action.TURN_RIGHT:
        heading = normalize_heading(state.heading - robot.turn_step)
        return StepResult(AgentState(state.position, heading, state.holding))
    rad = math.radians(state.heading)
    x, y = state.position
    nx = x + robot.forward_step * math.cos(rad)
    ny = y + robot.forward_step * math.sin(rad)
    row, col = scene.cell_of((nx, ny))
    r0, c0 = scene.cell_of(state.position)
    shut = row != r0 and col != c0 and not (scene.is_free(r0, col) or scene.is_free(row, c0))
    if shut or not scene.is_free(row, col):
        return StepResult(state, collided=True)
    return StepResult(AgentState((nx, ny), state.heading, state.holding))


# camera order also fixes the tie break: on a shared fov boundary the
# object goes to the camera with the smaller index.  observe tests the
# cameras in this order with their offsets written out.
CAMERA_OFFSETS = (("left", 60.0), ("front", 0.0), ("right", -60.0))


def _sight_lines(scene: Scene, position: tuple[float, float], sensing_range: float) -> list:
    """The heading-free part of sensing from one position: one
    [range, id, object, degrees(atan2) or None at the agent's own position,
    line of sight or None until first needed] per object within range,
    sorted, so ordered by (range, id) (ids are unique).

    Each scene keeps the lines of the last position it was sensed from, so
    a turn in place reuses them.
    """
    key = (position, sensing_range)
    memo = scene._sight_memo
    if memo is not None and memo[0] == key:
        return memo[1]
    ax, ay = position
    lines = []
    for obj in scene.objects:
        ox, oy = obj.position
        dx = ox - ax
        dy = oy - ay
        rng = math.hypot(dx, dy)
        if rng > sensing_range:
            continue
        deg = None if rng < 1e-9 else math.degrees(math.atan2(dy, dx))
        lines.append([rng, obj.id, obj, deg, None])
    lines.sort()
    scene._sight_memo = (key, lines)
    return lines


def observe(scene: Scene, state: AgentState, robot: RobotConfig) -> Observation:
    """Sense the scene through the three fixed cameras.

    An object is visible when its bearing falls within some camera's fov,
    its euclidean range is within the sensing range, and the line of sight
    crosses no occupied cell.  Each visible object lands in exactly one view,
    and each view lists its objects by range, then id.
    """
    half_fov = robot.fov_per_camera / 2.0
    low = -half_fov
    heading = state.heading
    position = state.position
    # the lines come sorted by (range, id), so every bucket is too
    left, front, right = [], [], []
    for line in _sight_lines(scene, position, robot.sensing_range):
        rng, _, obj, deg, clear = line
        if clear is False:  # occluded, whichever camera it falls in
            continue
        # every wrap below is signed_angle written out, the same arithmetic
        if deg is None:
            bearing = 0.0
        else:
            bearing = (deg - heading) % 360.0
            if bearing > 180.0:
                bearing -= 360.0
        # the camera tests in CAMERA_OFFSETS order; bearing is its own front
        # wrap, and bearing - -60.0 is bearing + 60.0, bit for bit
        off_axis = (bearing - 60.0) % 360.0
        if off_axis > 180.0:
            off_axis -= 360.0
        if low <= off_axis <= half_fov:
            bucket = left
        elif low <= bearing <= half_fov:
            bucket = front
        else:
            off_axis = (bearing + 60.0) % 360.0
            if off_axis > 180.0:
                off_axis -= 360.0
            if not low <= off_axis <= half_fov:
                continue
            bucket = right
        if clear is None:
            clear = line[4] = line_of_sight(scene, position, obj.position)
        if clear:
            bucket.append(SightedObject(obj.id, obj.category, bearing, rng))
    return Observation((
        View("left", 60.0, tuple(left)),
        View("front", 0.0, tuple(front)),
        View("right", -60.0, tuple(right)),
    ))


def bearing_to(state: AgentState, point: tuple[float, float]) -> float:
    """Bearing of a point relative to the agent heading, in (-180, 180]."""
    dx = point[0] - state.position[0]
    dy = point[1] - state.position[1]
    if math.hypot(dx, dy) < 1e-9:
        return 0.0
    return signed_angle(math.degrees(math.atan2(dy, dx)) - state.heading)


def subtask_success(scene: Scene, state: AgentState, target: str) -> bool:
    """Navigation success predicate for a single target.

    Requires geodesic distance <= 1 m, bearing inside the 60 degree frontal
    cone, and clear line of sight.  The cone is part of the task definition
    and does not scale with the camera fov.
    """
    obj = scene.object(target)
    dist = expert.geodesic_distance(scene, state.position, obj.position)
    if not dist <= SUCCESS_RADIUS:  # also rejects unreachable (inf)
        return False
    if abs(bearing_to(state, obj.position)) > SUCCESS_CONE_DEG / 2.0:
        return False
    return line_of_sight(scene, state.position, obj.position)


class _kept:
    """A value an instance works out on its first read and keeps in its
    __dict__, which shadows this non-data descriptor from then on; unlike
    functools.cached_property on Python 3.11, it takes no lock."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


@dataclass(frozen=True)
class StepContext:
    """One pose of a move window, with the window's target and stage; run_episode
    makes one per pose, Trajectory.replay one per recorded pose, and every step
    at that pose shares it.  observation, at_target and goal (the target's
    category) are worked out on first read and kept, so a pose is sensed and
    judged at most once, and only if read; policy.Policy says who reads what."""

    scene: Scene
    state: AgentState
    robot: RobotConfig
    target_id: str
    stage: int  # ordinal of the current navigation stage

    def __init__(self, scene, state, robot, target_id, stage):
        # a context per pose: one dict update costs half an object.__setattr__ per field
        vars(self).update(scene=scene, state=state, robot=robot, target_id=target_id, stage=stage)

    @_kept
    def observation(self) -> Observation:
        return observe(self.scene, self.state, self.robot)

    @_kept
    def at_target(self) -> bool:
        return subtask_success(self.scene, self.state, self.target_id)

    @_kept
    def goal(self) -> str:
        return self.scene.object(self.target_id).category


# expert imports this module's names at its top, so it is bound here, last;
# subtask_success looks geodesic_distance up on it at call time
from . import expert  # noqa: E402
