"""Geodesic shortest paths on the occupancy grid and the greedy expert policy.

Distances are 8-connected grid geodesics: axis steps cost one cell, diagonal
steps cost sqrt(2) cells, and a diagonal move is legal only when both
adjacent axis cells are free (no corner cutting).  Internally every distance
is kept as an integer pair (axis steps, diagonal steps) so two independent
implementations convert to meters through the identical expression and can
be compared bit-for-bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .world import Action, AgentState, Scene, bearing_to, subtask_success
from .world import RobotConfig, ROBOTS

SQRT2 = math.sqrt(2.0)

UNREACHABLE = math.inf


class UnreachableTargetError(ValueError):
    pass


def steps_to_meters(axis: int, diag: int, cell_size: float) -> float:
    """Canonical conversion from step counts to meters."""
    return (axis + diag * SQRT2) * cell_size


@dataclass
class GeodesicField:
    """Distances from one source cell to every reachable cell."""

    steps: dict[tuple[int, int], tuple[int, int]]  # cell -> (axis, diag)
    cell_size: float

    def distance(self, cell: tuple[int, int]) -> float:
        s = self.steps.get(cell)
        if s is None:
            return UNREACHABLE
        return steps_to_meters(s[0], s[1], self.cell_size)


def grid_neighbors(scene: Scene, cell: tuple[int, int]):
    """Yield (neighbor, is_diagonal) moves legal from a cell."""
    r, c = cell
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        if scene.is_free(r + dr, c + dc):
            yield (r + dr, c + dc), False
    for dr, dc in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
        if (
            scene.is_free(r + dr, c + dc)
            and scene.is_free(r + dr, c)
            and scene.is_free(r, c + dc)
        ):
            yield (r + dr, c + dc), True


def neighbor_table(scene: Scene) -> dict[tuple[int, int], tuple]:
    """Every free cell's grid_neighbors moves, in the same order; built
    once per scene."""
    if scene._moves is None:
        scene._moves = {
            cell: tuple(grid_neighbors(scene, cell)) for cell in scene.free_cells()
        }
    return scene._moves


def compute_field(scene: Scene, source: tuple[int, int]) -> GeodesicField:
    """Dijkstra over the 8-connected grid from a source cell."""
    moves = neighbor_table(scene)
    if source not in moves:
        raise ValueError(f"source cell {source} is occupied")
    steps: dict[tuple[int, int], tuple[int, int]] = {source: (0, 0)}
    # priority uses the float value axis + diag * SQRT2; distinct (axis,
    # diag) pairs cannot collide at grid scale because sqrt(2) is irrational
    value: dict[tuple[int, int], float] = {source: 0.0}
    heap: list[tuple[float, int, int]] = [(0.0, *source)]
    done: set[tuple[int, int]] = set()
    while heap:
        _, r, c = heapq.heappop(heap)
        cell = (r, c)
        if cell in done:
            continue
        done.add(cell)
        a, d = steps[cell]
        axis_step, axis_val = (a + 1, d), (a + 1) + d * SQRT2
        diag_step, diag_val = (a, d + 1), a + (d + 1) * SQRT2
        for nb, diag in moves[cell]:
            val = diag_val if diag else axis_val
            cur = value.get(nb)
            if cur is None or val < cur:
                steps[nb] = diag_step if diag else axis_step
                value[nb] = val
                heapq.heappush(heap, (val, *nb))
    return GeodesicField(steps=steps, cell_size=scene.cell_size)


def field_from(scene: Scene, source: tuple[int, int]) -> GeodesicField:
    """Cached field lookup; scenes are immutable so entries never go stale."""
    cache = scene._field_cache
    f = cache.get(source)
    if f is None:
        f = compute_field(scene, source)
        cache[source] = f
    return f  # type: ignore[return-value]


def geodesic_distance(
    scene: Scene, a: tuple[float, float], b: tuple[float, float]
) -> float:
    """Shortest 8-connected path length between the cells of two points.

    Returns math.inf when the points lie in different connected components.
    The field is the one from b's cell, so pass the fixed end (a goal) as
    b: every query toward one goal then shares one Dijkstra.  The distance
    is exactly symmetric, because the shortest (axis, diag) step pair is
    unique and diagonal legality does not depend on the direction.
    """
    ca = scene.cell_of(a)
    cb = scene.cell_of(b)
    if not scene.is_free(*ca):
        raise ValueError(f"point {a} lies in an occupied cell")
    if not scene.is_free(*cb):
        raise ValueError(f"point {b} lies in an occupied cell")
    return field_from(scene, cb).distance(ca)


# -- expert policy ----------------------------------------------------------

def _next_waypoint(
    scene: Scene, field: GeodesicField, cell: tuple[int, int]
) -> tuple[int, int] | None:
    """The adjacent cell that strictly descends the distance field; the
    fixed grid_neighbors order keeps the choice deterministic."""
    best = None
    best_key = field.steps[cell]
    best_val = best_key[0] + best_key[1] * SQRT2
    for nb, _ in neighbor_table(scene)[cell]:
        s = field.steps.get(nb)
        if s is None:
            continue
        val = s[0] + s[1] * SQRT2
        if val < best_val:
            best_val = val
            best = nb
    return best


def expert_next_action(
    scene: Scene,
    state: AgentState,
    target: str,
    robot: RobotConfig | None = None,
) -> Action:
    """Greedy pathfinder step toward a target object.

    Stops when the success predicate holds; otherwise turns toward the next
    waypoint while the heading error exceeds half a turn step, then moves
    forward.  A 180 degree tie turns left.
    """
    robot = robot or ROBOTS["spot"]
    if subtask_success(scene, state, target):
        return Action.STOP
    obj = scene.object(target)
    target_cell = scene.cell_of(obj.position)
    field = field_from(scene, target_cell)
    cell = scene.cell_of(state.position)
    if cell not in field.steps:
        raise UnreachableTargetError(f"target {target!r} unreachable from {cell}")
    if cell == target_cell:
        aim = obj.position
    else:
        waypoint = _next_waypoint(scene, field, cell)
        if waypoint is None:  # only the target cell itself has no descent
            aim = obj.position
        else:
            aim = scene.cell_center(waypoint)
    error = bearing_to(state, aim)
    if abs(error) <= robot.turn_step / 2.0:
        return Action.MOVE_FORWARD
    return Action.TURN_LEFT if error > 0 else Action.TURN_RIGHT

