"""Geodesic shortest paths on the occupancy grid and the greedy expert policy.

Distances are 8-connected grid geodesics: axis steps cost one cell, diagonal
steps cost sqrt(2) cells, and a diagonal move is legal only when both
adjacent axis cells are free (no corner cutting).  Cells are flat indices
i = row * cols + col.  Dijkstra keeps every distance internally as an integer
pair (axis steps, diagonal steps) and a field stores the pair's exact float
value axis + diag * sqrt(2), so two independent implementations that reduce
to the same pair agree bit-for-bit.

With only two step lengths Dijkstra needs no heap.  Cells settle in order of
distance, so the distances a settled cell offers its neighbours, its own
plus one axis step or plus one diagonal step, arrive in that order too: a
FIFO queue per step length stays sorted, and the nearer of the two heads is
the next cell to settle.  Distinct (axis, diag) pairs never tie at grid
scale, because sqrt(2) is irrational, so the settled distances are exactly
those of a heap; only the order among cells at one distance may differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .world import FREE, Action, Scene, StepContext, bearing_to, point_not_free

SQRT2 = math.sqrt(2.0)

UNREACHABLE = math.inf


class UnreachableTargetError(ValueError):
    pass


@dataclass
class GeodesicField:
    """Distances from one source cell to every cell, in cells."""

    value: list[float]  # flat index -> axis + diag * SQRT2; inf where unreachable
    steps: list[int]  # the reached flat indices, each once, in the order they settled


def neighbor_table(scene: Scene) -> list:
    """Per flat cell index, the legal moves as (axis moves, diagonal moves)
    of flat indices, in the order up, down, left, right and up-left,
    up-right, down-left, down-right; None for an occupied cell.  Built once
    per scene; the occupied border keeps each move on the grid, unwrapped."""
    if scene._moves is None:
        cols = scene.cols
        free = [ch == FREE for row in scene.grid for ch in row]
        moves: list = []
        for i, is_free in enumerate(free):
            if not is_free:
                moves.append(None)
                continue
            up, down, left, right = free[i - cols], free[i + cols], free[i - 1], free[i + 1]
            axis = []
            if up:
                axis.append(i - cols)
            if down:
                axis.append(i + cols)
            if left:
                axis.append(i - 1)
            if right:
                axis.append(i + 1)
            # a diagonal needs both axis cells it passes between
            diag = []
            if up and left and free[i - cols - 1]:
                diag.append(i - cols - 1)
            if up and right and free[i - cols + 1]:
                diag.append(i - cols + 1)
            if down and left and free[i + cols - 1]:
                diag.append(i + cols - 1)
            if down and right and free[i + cols + 1]:
                diag.append(i + cols + 1)
            moves.append((tuple(axis), tuple(diag)))
        scene._moves = moves
    return scene._moves


def compute_field(scene: Scene, source: tuple[int, int]) -> GeodesicField:
    """Dijkstra over the 8-connected grid from a source cell.

    The frontier is two FIFO queues, one per step length, each a list of
    distances and a list of cells read from a moving head.  A cell settles
    from the queue whose head is nearer; the module docstring says why
    that is the heap's order.  An entry whose cell has since been offered
    a shorter distance is skipped when it comes up.
    """
    if not scene.is_free(*source):
        raise ValueError(f"source cell {source} is occupied or outside the grid")
    moves = neighbor_table(scene)
    src = source[0] * scene.cols + source[1]
    # the (axis, diag) steps of each cell, as two int lists (no tuple per
    # cell), read only once the cell is reached
    axis_steps = [0] * len(moves)
    diag_steps = [0] * len(moves)
    value = [UNREACHABLE] * len(moves)
    value[src] = 0.0
    axis_val, axis_cell, axis_at = [0.0], [src], 0
    diag_val, diag_cell, diag_at = [], [], 0
    steps: list[int] = []
    while True:
        if axis_at < len(axis_val) and (
            diag_at == len(diag_val) or axis_val[axis_at] <= diag_val[diag_at]
        ):
            val, i = axis_val[axis_at], axis_cell[axis_at]
            axis_at += 1
        elif diag_at < len(diag_val):
            val, i = diag_val[diag_at], diag_cell[diag_at]
            diag_at += 1
        else:
            break
        if val > value[i]:  # superseded by a shorter pair offered later
            continue
        steps.append(i)
        a, d = axis_steps[i], diag_steps[i]
        axis_moves, diag_moves = moves[i]
        val = (a + 1) + d * SQRT2
        for j in axis_moves:
            if val < value[j]:
                value[j] = val
                axis_steps[j] = a + 1
                diag_steps[j] = d
                axis_val.append(val)
                axis_cell.append(j)
        val = a + (d + 1) * SQRT2
        for j in diag_moves:
            if val < value[j]:
                value[j] = val
                axis_steps[j] = a
                diag_steps[j] = d + 1
                diag_val.append(val)
                diag_cell.append(j)
    return GeodesicField(value=value, steps=steps)


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
        raise point_not_free(scene, a, ca)
    if not scene.is_free(*cb):
        raise point_not_free(scene, b, cb)
    return field_from(scene, cb).value[ca[0] * scene.cols + ca[1]] * scene.cell_size


# -- expert policy ----------------------------------------------------------

def _next_waypoint(scene: Scene, field: GeodesicField, i: int) -> int | None:
    """The adjacent flat cell that strictly descends the distance field;
    the fixed neighbor_table order keeps the choice deterministic."""
    value = field.value
    best = None
    best_val = value[i]
    axis_moves, diag_moves = neighbor_table(scene)[i]
    for j in axis_moves + diag_moves:
        if value[j] < best_val:
            best_val = value[j]
            best = j
    return best


def expert_next_action(ctx: StepContext) -> Action:
    """Greedy pathfinder step toward the context's target object.

    Stops when ctx.at_target, the context's subtask_success verdict, holds;
    otherwise turns toward the next waypoint of the target's field, read at
    the pose's cell (both kept on the context, which the verdict looked up
    already), while the heading error exceeds half a turn step, then moves
    forward.  A 180 degree tie turns left.
    """
    if ctx.at_target:
        return Action.STOP
    scene = ctx.scene
    field, i = ctx.field, ctx.cell
    if field.value[i] == UNREACHABLE:
        raise UnreachableTargetError(
            f"target {ctx.target_id!r} unreachable from {divmod(i, scene.cols)}"
        )
    waypoint = _next_waypoint(scene, field, i)
    if waypoint is None:  # only the target cell itself has no descent
        aim = scene.object(ctx.target_id).position
    else:
        aim = scene.cell_center(divmod(waypoint, scene.cols))
    error = bearing_to(ctx.state, aim)
    if abs(error) <= ctx.robot.turn_step / 2.0:
        return Action.MOVE_FORWARD
    return Action.TURN_LEFT if error > 0 else Action.TURN_RIGHT
