import math
import random

import pytest

from lhnav.expert import (
    SQRT2,
    UnreachableTargetError,
    _next_waypoint,
    compute_field,
    expert_next_action,
    geodesic_distance,
    neighbor_table,
)
from lhnav.policy import ExpertPolicy
from lhnav.runner import RunConfig, run_episode
from lhnav.scenegen import generate_scene
from lhnav.taskforge import MOVE_TO, Subtask, TaskSpec, sample_task
from lhnav.world import ROBOTS, Action, AgentState, Scene, subtask_success

from conftest import free_cells, scene_from
from reference_impls import (
    grid_neighbors,
    reference_compute_field,
    reference_neighbor_table,
    reference_next_waypoint,
    relaxation_distances,
)

SPOT = ROBOTS["spot"]


def expert_episode(scene, start, targets, budget=500):
    """The expert through an ordered target list, one navigation subtask
    per target."""
    task = TaskSpec(
        id="rollout",
        instruction="",
        subtasks=tuple(Subtask(kind=MOVE_TO, object_id=t) for t in targets),
        robot=SPOT.name,
        scene_id=scene.scene_id,
        seed=0,
    )
    return run_episode(scene, task, ExpertPolicy(), RunConfig(budget=budget), start=start)


def random_grid(rng, size):
    """A bordered square grid with about a quarter of its inner cells
    blocked."""
    rows = []
    for r in range(size):
        if r in (0, size - 1):
            rows.append("#" * size)
        else:
            rows.append(
                "#"
                + "".join("#" if rng.random() < 0.25 else "." for _ in range(size - 2))
                + "#"
            )
    return rows


def step_pair(value):
    """The one (axis, diag) pair whose value axis + diag * SQRT2 is exactly
    the given float."""
    pairs = [
        (round(value - d * SQRT2), d)
        for d in range(int(value / SQRT2) + 1)
        if round(value - d * SQRT2) + d * SQRT2 == value
    ]
    assert len(pairs) == 1, (value, pairs)
    return pairs[0]


class TestGeodesicDistance:
    def test_identity(self, corridor_scene):
        p = corridor_scene.cell_center((1, 3))
        assert geodesic_distance(corridor_scene, p, p) == 0.0

    def test_four_axis_steps_is_one_meter(self, corridor_scene):
        a = corridor_scene.cell_center((1, 1))
        b = corridor_scene.cell_center((1, 5))
        assert geodesic_distance(corridor_scene, a, b) == 1.0

    def test_disconnected_rooms_unreachable(self, sealed_scene):
        a = sealed_scene.object("cup-0").position
        b = sealed_scene.object("jar-0").position
        assert geodesic_distance(sealed_scene, a, b) == math.inf

    def test_occupied_endpoint_raises(self, corridor_scene):
        with pytest.raises(ValueError, match="occupied cell"):
            geodesic_distance(corridor_scene, (0.1, 0.1), (0.375, 0.375))

    @pytest.mark.parametrize(
        "point",
        [
            (-0.375, 0.625),  # left: (2, -2) would wrap onto free (1, 7)
            (2.625, 0.125),  # right: (0, 10) would wrap onto free (1, 1)
            (0.375, -0.375),  # above: (-2, 1) would count back to free (1, 1)
            (0.375, 0.875),  # below: (3, 1) is past the end of the grid
        ],
        ids=["left", "right", "above", "below"],
    )
    def test_off_grid_endpoint_raises(self, corridor_scene, point):
        inside = corridor_scene.cell_center((1, 3))
        for a, b in ((point, inside), (inside, point)):
            with pytest.raises(ValueError, match="outside the grid"):
                geodesic_distance(corridor_scene, a, b)

    def test_symmetry(self, open_scene):
        rng = random.Random(0)
        free = free_cells(open_scene)
        for _ in range(50):
            a = open_scene.cell_center(rng.choice(free))
            b = open_scene.cell_center(rng.choice(free))
            assert geodesic_distance(open_scene, a, b) == geodesic_distance(
                open_scene, b, a
            )

    def test_matches_relaxation_oracle_on_random_grids(self):
        rng = random.Random(2024)
        for trial in range(500):
            size = 20
            rows = random_grid(rng, size)
            free = [
                (r, c)
                for r in range(size)
                for c in range(size)
                if rows[r][c] == "."
            ]
            if len(free) < 2:
                continue
            scene = Scene(grid=rows, regions=[], objects=[], seed=trial)
            src = rng.choice(free)
            expected = relaxation_distances(rows, src)
            field = compute_field(scene, src)
            # exact: both reduce to (axis, diag) counts; occupied and
            # unreachable cells are inf
            for i, value in enumerate(field.value):
                cell = divmod(i, size)
                assert value * scene.cell_size == expected.get(cell, math.inf), (trial, cell)
            dst = rng.choice(free)
            assert geodesic_distance(
                scene, scene.cell_center(dst), scene.cell_center(src)
            ) == expected.get(dst, math.inf)

    def test_field_invariants(self, open_scene):
        cols = open_scene.cols
        field = compute_field(open_scene, (2, 2))
        assert field.value[2 * cols + 2] == 0.0
        # the reached cells are the finite ones, each listed once
        assert sorted(field.steps) == [i for i, v in enumerate(field.value) if v < math.inf]
        assert len(set(field.steps)) == len(field.steps)
        steps = {divmod(i, cols): step_pair(field.value[i]) for i in field.steps}
        # every other reached cell has a legal neighbor exactly one move
        # closer to the source, so distances decrease along a path to it
        for cell, (axis, diag) in steps.items():
            if cell == (2, 2):
                continue
            assert any(
                steps.get(nb) == ((axis, diag - 1) if is_diag else (axis - 1, diag))
                for nb, is_diag in grid_neighbors(open_scene, cell)
            ), cell


class TestFieldReuse:
    def test_one_field_per_move_target(self):
        for seed in range(12):
            generated = generate_scene(seed=seed + 300)
            task = sample_task(generated, seed=seed, allowed_stages=[2 + seed % 3])
            # a freshly loaded scene, as a CLI run has: sampling the task
            # filled the generated scene's cache
            scene = Scene.from_dict(generated.to_dict())
            run_episode(scene, task, ExpertPolicy(), RunConfig(budget=500))
            targets = {
                scene.cell_of(scene.object(sub.object_id).position)
                for sub in task.move_targets()
            }
            assert set(scene._field_cache) == targets
            assert targets <= {scene.cell_of(o.position) for o in scene.objects}

    def test_neighbor_table_is_grid_neighbors(self):
        for seed, size, regions in ((1, 24, 4), (2, 13, 2), (3, 31, 9)):
            scene = generate_scene(seed=seed, size=size, regions=regions)
            table = neighbor_table(scene)
            assert len(table) == scene.rows * scene.cols
            free = set(free_cells(scene))
            for i, moves in enumerate(table):
                cell = divmod(i, scene.cols)
                if cell not in free:
                    assert moves is None, cell
                    continue
                axis_moves, diag_moves = moves
                assert [(divmod(j, scene.cols), False) for j in axis_moves] + [
                    (divmod(j, scene.cols), True) for j in diag_moves
                ] == list(grid_neighbors(scene, cell))


class TestFieldMatchesReference:
    # the fields from every free cell: the two FIFO queues settle cells in
    # another order than the reference's heap among equal distances, and
    # each source gives them another mix of axis and diagonal offers; the
    # waypoints from every fifth

    @pytest.mark.parametrize("size, regions", [(13, 2), (24, 4), (31, 9)])
    def test_generated_scenes(self, size, regions):
        scene = generate_scene(seed=50, size=size, regions=regions)
        self._check(scene, free_cells(scene))

    def test_random_grids(self):
        # scattered blocks leave many cells with two equally close
        # neighbors, an axis and a diagonal one among them, where the
        # waypoint order decides, and free cells that no path reaches
        rng = random.Random(11)
        sealed = 0
        for trial in range(20):
            scene = Scene(grid=random_grid(rng, 16), regions=[], objects=[], seed=trial)
            sealed += self._check(scene, free_cells(scene))
        assert sealed > 0

    @staticmethod
    def _check(scene, sources):
        """Compare every source's field with the reference; the number of
        (source, free cell) pairs that stay unreachable."""
        moves = reference_neighbor_table(scene)
        n_free = len(moves)
        unreached = 0
        for k, source in enumerate(sources):
            field = compute_field(scene, source)
            ref = reference_compute_field(scene, source, moves)
            # exact floats, inf where unreachable
            expected = [ref.value(divmod(i, scene.cols)) for i in range(len(field.value))]
            assert field.value == expected, source
            # the reached set, each cell once: the tracer's
            # expert.compute_field.cells is len(steps)
            assert len(field.steps) == len(ref.steps), source
            assert sorted(field.steps) == sorted(r * scene.cols + c for r, c in ref.steps)
            unreached += n_free - len(ref.steps)
            if k % 5:
                continue
            for cell in ref.steps:
                waypoint = _next_waypoint(scene, field, cell[0] * scene.cols + cell[1])
                expected = reference_next_waypoint(scene, ref, cell, moves)
                assert (None if waypoint is None else divmod(waypoint, scene.cols)) == (
                    expected
                ), (source, cell)
        return unreached


def expert_step(scene, state, target):
    """The expert's action with the runner's verdict on the state."""
    return expert_next_action(scene, state, target, SPOT, subtask_success(scene, state, target))


class TestExpertNextAction:
    def test_forward_when_aligned(self, corridor_scene):
        s = AgentState(position=corridor_scene.cell_center((1, 1)), heading=0.0)
        assert expert_step(corridor_scene, s, "box-0") == Action.MOVE_FORWARD

    def test_target_behind_turns_left(self, corridor_scene):
        s = AgentState(position=corridor_scene.cell_center((1, 1)), heading=180.0)
        assert expert_step(corridor_scene, s, "box-0") == Action.TURN_LEFT

    def test_stop_when_success_holds(self, corridor_scene):
        s = AgentState(position=corridor_scene.cell_center((1, 5)), heading=0.0)
        assert expert_step(corridor_scene, s, "box-0") == Action.STOP

    def test_unreachable_target_raises(self, sealed_scene):
        s = AgentState(position=sealed_scene.cell_center((1, 1)), heading=0.0)
        with pytest.raises(UnreachableTargetError):
            expert_step(sealed_scene, s, "jar-0")


class TestExpertRollout:
    def test_near_terminal_start(self, corridor_scene):
        s = AgentState(position=corridor_scene.cell_center((1, 5)), heading=0.0)
        traj, _ = expert_episode(corridor_scene, s, ["box-0"])
        assert [r.action for r in traj.steps] == [Action.STOP]
        assert traj.actions(traj.spans[0])[-1] == Action.STOP

    def test_two_targets_in_line_gt_matches_oracle(self):
        rows = ["#" * 20, "#" + "." * 18 + "#", "#" * 20]
        scene = scene_from(
            rows,
            objects=[("m-0", "mug", (1, 9), True), ("p-0", "pot", (1, 17), True)],
        )
        start = AgentState(position=scene.cell_center((1, 1)), heading=0.0)
        traj, _ = expert_episode(scene, start, ["m-0", "p-0"])
        assert len(traj.spans) == 2
        assert all(traj.actions(s)[-1] == Action.STOP for s in traj.spans)
        # each leg's recorded length equals the geodesic from its start pose
        assert traj.spans[0].gt == geodesic_distance(
            scene, start.position, scene.object("m-0").position
        ) == 2.0
        second_start = traj.steps[traj.spans[1].start].state
        assert traj.spans[1].gt == geodesic_distance(
            scene, second_start.position, scene.object("p-0").position
        )
        # the expert stops within the success radius, so the second leg is
        # at most 1 m longer than target-to-target
        direct = geodesic_distance(
            scene, scene.object("m-0").position, scene.object("p-0").position
        )
        assert direct - 1.0 <= traj.spans[1].gt <= direct + 1.0

    def test_unreachable_second_target_errors_after_first(self, sealed_scene):
        start = AgentState(position=sealed_scene.cell_center((3, 3)), heading=0.0)
        with pytest.raises(UnreachableTargetError):
            expert_episode(sealed_scene, start, ["cup-0", "jar-0"])

    def test_budget_exhaustion_truncates(self):
        rows = ["#" * 30, "#" + "." * 28 + "#", "#" * 30]
        scene = scene_from(rows, objects=[("far-0", "flag", (1, 28), True)])
        start = AgentState(position=scene.cell_center((1, 1)), heading=0.0)
        traj, result = expert_episode(scene, start, ["far-0"], budget=5)
        assert len(traj.steps) == 5 and traj.actions(traj.spans[0])[-1] != Action.STOP
        (record,) = result.records
        assert record.truncated and not record.success


class TestExpertProperty:
    def test_expert_succeeds_on_generated_scenes(self):
        # quick slice of the acceptance property: per-target success and
        # NE <= 1 m on a couple dozen generated scene/task pairs
        for seed in range(25):
            scene = generate_scene(seed=seed + 1000, size=20, regions=4)
            task = sample_task(scene, seed=seed)
            traj, _ = run_episode(scene, task, ExpertPolicy(), RunConfig(budget=500))
            moves = [span for span in traj.spans if span.kind == MOVE_TO]
            assert len(moves) == len(task.move_targets())
            for span in moves:
                assert traj.actions(span)[-1] == Action.STOP
                final = traj.steps[span.end - 1].state  # pose at the stop
                assert subtask_success(scene, final, span.target_id)
                ne = geodesic_distance(
                    scene, final.position, scene.object(span.target_id).position
                )
                assert ne <= 1.0
