import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from lhnav.world import (
    ROBOTS, Action, AgentState, RobotConfig, Scene, StepContext, normalize_heading,
    subtask_success,
)

from conftest import free_cells, scene_from
from reference_impls import (
    grid_neighbors,
    reference_compute_field,
    reference_expert_next_action,
    reference_neighbor_table,
    reference_next_waypoint,
    reference_subtask_success,
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


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def matches_reference(scene, state, target, robot):
    """The verdict and action (or raised error) of subtask_success and
    expert_next_action, which read the pose's cell and the target's field
    off a step context, after checking that they are the reference's, which
    look each up on their own."""
    want_verdict = outcome(lambda: reference_subtask_success(scene, state, target))
    want_action = outcome(lambda: reference_expert_next_action(
        scene, state, target, robot, reference_subtask_success(scene, state, target)
    ))
    # the runner's order: the judge first, then the expert on the same context
    ctx = StepContext(scene, state, robot, target, 0)
    assert outcome(lambda: subtask_success(ctx)) == want_verdict
    assert outcome(lambda: expert_next_action(ctx)) == want_action
    # the expert first, which judges its context on the way
    ctx = StepContext(scene, state, robot, target, 1)
    assert outcome(lambda: expert_next_action(ctx)) == want_action
    return want_verdict, want_action


def expert_step(scene, state, target):
    """The expert's action on a fresh step context, which judges the state,
    once it matches the reference's."""
    matches_reference(scene, state, target, SPOT)
    return expert_next_action(StepContext(scene, state, SPOT, target, 0))


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


def nudged(heading, ulps):
    """A heading moved by ulps units in the last place, wrapped into [0, 360)."""
    for _ in range(abs(ulps)):
        heading = math.nextafter(heading, math.copysign(math.inf, ulps))
    return normalize_heading(heading)


ROBOT_CHOICES = [
    ROBOTS["spot"],
    ROBOTS["stretch"],
    RobotConfig(name="spot", turn_step=45.0),
    RobotConfig(name="spot", turn_step=10.0),
]


@st.composite
def judged_poses(draw):
    """(scene, state, target id, robot): a small bordered grid with about a
    quarter of its inner cells walled, at times with a wall column sealing
    its right part off; one to three objects at free cell centers; a pose
    at a free cell's center or off it, at or next to the target, in a wall
    or outside the grid; and a heading drawn freely, or at 0, 180 or half a
    turn step either way, give or take one ulp, from a neighbour cell's or
    the target's direction."""
    n_rows, n_cols = draw(st.integers(3, 8)), draw(st.integers(3, 9))
    walls = draw(st.lists(st.integers(0, 3), min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    seal = draw(st.integers(2, n_cols - 3)) if n_cols >= 5 and draw(st.booleans()) else None
    rows = []
    for r in range(n_rows):
        row = ""
        for c in range(n_cols):
            border = r in (0, n_rows - 1) or c in (0, n_cols - 1)
            wall = walls[r * n_cols + c] == 0 and (r, c) != (1, 1)
            row += "#" if border or wall or c == seal else "."
        rows.append(row)
    free = [(r, c) for r, row in enumerate(rows) for c, ch in enumerate(row) if ch == "."]
    occupied = [(r, c) for r, row in enumerate(rows) for c, ch in enumerate(row) if ch == "#"]
    cells = draw(st.lists(st.sampled_from(free), min_size=1, max_size=3, unique=True))
    objects = [(f"o-{k}", "box", cell, True) for k, cell in enumerate(cells)]
    scene = scene_from(rows, objects=objects)
    target = draw(st.sampled_from([o.id for o in scene.objects] + ["nope"]))
    goal = scene.object(target).position if target != "nope" else scene.objects[0].position
    offset = st.floats(-0.12, 0.12)
    kinds = ["center", "off-center", "target", "near-target", "wall", "outside"]
    kind = draw(st.sampled_from(kinds))
    if kind == "center":
        position = scene.cell_center(draw(st.sampled_from(free)))
    elif kind == "off-center":
        x, y = scene.cell_center(draw(st.sampled_from(free)))
        position = (x + draw(offset), y + draw(offset))
    elif kind == "target":
        position = goal
    elif kind == "near-target":
        position = (goal[0] + draw(offset), goal[1] + draw(offset))
    elif kind == "wall":
        position = scene.cell_center(draw(st.sampled_from(occupied)))
    else:
        position = draw(st.sampled_from([
            (-0.1, 0.3), (0.3, -0.1), (n_cols * 0.25 + 0.1, 0.3), (0.3, n_rows * 0.25 + 0.1),
        ]))
    robot = draw(st.sampled_from(ROBOT_CHOICES))
    if draw(st.booleans()):
        heading = draw(st.floats(0.0, 360.0, exclude_max=True))
    else:
        toward = math.degrees(math.atan2(goal[1] - position[1], goal[0] - position[0]))
        base = draw(st.sampled_from([45.0 * k for k in range(8)] + [toward]))
        half = robot.turn_step / 2.0
        turn = draw(st.sampled_from([0.0, 180.0, half, -half]))
        heading = nudged(normalize_heading(base + turn), draw(st.integers(-1, 1)))
    return scene, AgentState(position, heading), target, robot


class TestSharedLookupsMatchTheReference:
    """matches_reference on generated poses and on the edge cases the
    expert tests above do not reach: TestExpertNextAction runs its 180
    degree tie and its unreachable target through it too."""

    @settings(max_examples=400, deadline=None)
    @given(judged_poses())
    def test_generated_poses(self, case):
        matches_reference(*case)

    def test_a_pose_on_the_target_cell(self, corridor_scene):
        box = corridor_scene.object("box-0").position
        on = AgentState(box, 0.0)
        assert matches_reference(corridor_scene, on, "box-0", SPOT) == (True, Action.STOP)
        # off the target's point, inside its cell, facing away: the expert
        # aims at the object itself, as no neighbour descends
        near = AgentState((box[0] - 0.1, box[1]), 180.0)
        assert matches_reference(corridor_scene, near, "box-0", SPOT) == (False, Action.TURN_LEFT)

    @pytest.mark.parametrize("robot", ROBOT_CHOICES, ids=lambda r: f"{r.name}-{r.turn_step:g}")
    def test_headings_one_ulp_about_half_a_turn_step(self, corridor_scene, robot):
        # the next waypoint lies due east (0 degrees); at exactly half a turn
        # step off it the expert moves.  One ulp below 360 - half it turns
        # back; one ulp above half, (0 - heading) % 360 rounds to 360 - half
        # exactly, so it still moves
        half = robot.turn_step / 2.0
        actions = {}
        for heading in (half, normalize_heading(-half)):
            for ulps in (-1, 0, 1):
                s = AgentState(corridor_scene.cell_center((1, 1)), nudged(heading, ulps))
                actions[heading, ulps] = matches_reference(corridor_scene, s, "box-0", robot)[1]
        back = normalize_heading(-half)
        assert {actions[half, ulps] for ulps in (-1, 0, 1)} == {Action.MOVE_FORWARD}
        assert actions[back, 0] == actions[back, 1] == Action.MOVE_FORWARD
        assert actions[back, -1] == Action.TURN_LEFT


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
                assert StepContext(scene, final, SPOT, span.target_id, 0).at_target
                ne = geodesic_distance(
                    scene, final.position, scene.object(span.target_id).position
                )
                assert ne <= 1.0
