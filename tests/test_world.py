import dataclasses
import math
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhnav import world
from lhnav.trajectory import StepRecord
from lhnav.world import (
    ROBOTS,
    Action,
    AgentState,
    ObjectInstance,
    Observation,
    Region,
    RobotConfig,
    Scene,
    SceneValidationError,
    SightedObject,
    StepContext,
    UnknownObjectError,
    View,
    apply_action,
    line_of_sight,
    normalize_heading,
    observe,
    signed_angle,
    subtask_success,
)

from conftest import free_cells, scene_from
from reference_impls import (
    dataclass_built, grid_is_free, loop_observe, loop_validate, reference_apply_action,
    reference_line_of_sight, reference_observe,
)

SPOT = ROBOTS["spot"]


def state(x, y, heading=0.0, holding=None):
    return AgentState(position=(x, y), heading=heading, holding=holding)


class TestApplyAction:
    def test_forward_open_cell(self, open_scene):
        res = apply_action(open_scene, state(1.0, 1.0, 0.0), Action.MOVE_FORWARD, SPOT)
        assert res.state.position == (1.25, 1.0)
        assert res.state.heading == 0.0
        assert not res.collided

    def test_turn_left_adds_thirty(self, open_scene):
        res = apply_action(open_scene, state(1.0, 1.0, 90.0), Action.TURN_LEFT, SPOT)
        assert res.state.heading == 120.0
        assert res.state.position == (1.0, 1.0)

    def test_turn_right_subtracts_thirty(self, open_scene):
        res = apply_action(open_scene, state(1.0, 1.0, 0.0), Action.TURN_RIGHT, SPOT)
        assert res.state.heading == 330.0

    def test_blocked_forward_is_noop_with_flag(self, open_scene):
        # heading 180 from x=0.3 runs into the border wall
        res = apply_action(open_scene, state(0.3, 1.0, 180.0), Action.MOVE_FORWARD, SPOT)
        assert res.state.position == (0.3, 1.0)
        assert res.collided
        assert res.state.heading == 180.0

    def test_corner_only_join_blocks_a_diagonal_step(self):
        # two 2x2 pockets touch at one corner; a 45 degree step from near
        # that corner would land in the other pocket, from which no target
        # in the first is reachable
        from lhnav.expert import geodesic_distance

        rows = ["#######", "#..####", "#..####", "###..##", "###..##", "#######"]
        scene = scene_from(rows)
        s = state(0.74, 0.74, 45.0)
        assert scene.cell_of((0.74 + 0.25 * math.cos(math.pi / 4),) * 2) == (3, 3)
        assert geodesic_distance(scene, (0.9, 0.9), (0.3, 0.3)) == math.inf
        res = apply_action(scene, s, Action.MOVE_FORWARD, SPOT)
        assert res.collided and res.state == s
        # one free axis cell joins the two cells, so the same step goes through
        opened = scene_from(["#######", "#..####", "#...###", "###..##", "###..##", "#######"])
        res = apply_action(opened, s, Action.MOVE_FORWARD, SPOT)
        assert not res.collided and opened.cell_of(res.state.position) == (3, 3)

    def test_stop_flags_episode_stop(self, open_scene):
        s = state(1.0, 1.0, 30.0)
        res = apply_action(open_scene, s, Action.STOP, SPOT)
        # the same state object comes back, and nothing collided
        assert res.state is s and not res.collided

    def test_deterministic(self, open_scene):
        s = state(1.3, 2.2, 60.0)
        a = apply_action(open_scene, s, Action.MOVE_FORWARD, SPOT)
        b = apply_action(open_scene, s, Action.MOVE_FORWARD, SPOT)
        assert a == b

    def test_fuzz_stays_in_free_space(self, open_scene):
        rng = random.Random(123)
        s = state(1.0, 1.0, 0.0)
        for _ in range(100_000):
            action = Action(rng.randrange(1, 4))  # never stop
            s = apply_action(open_scene, s, action, SPOT).state
            assert open_scene.is_free(*open_scene.cell_of(s.position))


    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        size=st.sampled_from([13, 24, 31]),
        robot=st.sampled_from(
            [SPOT, RobotConfig(name="fine", forward_step=0.1, turn_step=7.5),
             RobotConfig(name="coarse", forward_step=0.3, turn_step=90.0)]
        ),
        data=st.data(),
    )
    def test_fuzz_generated_scenes(self, seed, size, robot, data):
        from lhnav.scenegen import generate_scene

        scene = generate_scene(seed=seed, size=size)
        cs = scene.cell_size
        row, col = data.draw(st.sampled_from(free_cells(scene)))
        fx, fy = data.draw(st.sampled_from([(0.5, 0.5), (0.0, 0.0)]) | st.tuples(
            st.floats(0.0, 0.999), st.floats(0.0, 0.999)))
        heading = data.draw(st.integers(0, 23).map(lambda k: k * 15.0) | st.floats(0.0, 359.999))
        holding = data.draw(st.none() | st.sampled_from([o.id for o in scene.objects]))
        s = state((col + fx) * cs, (row + fy) * cs, heading, holding)
        for action in data.draw(st.lists(st.sampled_from(list(Action)), max_size=60)):
            res = apply_action(scene, s, action, robot)
            # the state built directly is the dataclasses.replace one, bit
            # for bit (repr tells -0.0 from 0.0)
            ref = reference_apply_action(scene, s, action, robot)
            assert res == ref and repr(res) == repr(ref), (s, action)
            x, y = res.state.position
            assert grid_is_free(scene.grid, math.floor(y / cs), math.floor(x / cs)), (s, action)
            assert 0.0 <= res.state.heading < 360.0
            if action == Action.MOVE_FORWARD:
                rad = math.radians(s.heading)
                nx = s.position[0] + robot.forward_step * math.cos(rad)
                ny = s.position[1] + robot.forward_step * math.sin(rad)
                row0, col0 = math.floor(s.position[1] / cs), math.floor(s.position[0] / cs)
                row1, col1 = math.floor(ny / cs), math.floor(nx / cs)
                # a diagonal step between cells that touch at a corner only
                corner = row1 != row0 and col1 != col0 and not (
                    grid_is_free(scene.grid, row0, col1) or grid_is_free(scene.grid, row1, col0)
                )
                blocked = corner or not grid_is_free(scene.grid, row1, col1)
                assert res.collided == blocked
                assert res.state == (s if blocked else AgentState((nx, ny), s.heading, holding))
            else:
                # turns and stop never move the agent
                assert res.state.position == s.position and not res.collided
                if action == Action.STOP:
                    assert res.state is s
            s = res.state


class TestObserve:
    def test_object_ahead_in_center_view(self, corridor_scene):
        # box at cell (1,5); stand 4 cells west facing east
        obs = observe(corridor_scene, state(0.375, 0.375, 0.0), SPOT)
        front = obs.views[1]
        assert front.direction == "front"
        assert [o.object_id for o in front.objects] == ["box-0"]

    def test_boundary_bearing_goes_to_smaller_camera_index(self, open_scene):
        scene = scene_from(
            ["#########"] + ["#" + "." * 7 + "#" for _ in range(7)] + ["#########"],
            objects=[("o-1", "orb", (5, 5), True)],
        )
        target = scene.object("o-1").position
        ax, ay = target[0] - 1.0, target[1]
        # bearing exactly +60: on the left camera axis, outside the front fov
        obs = observe(scene, AgentState(position=(ax, ay), heading=300.0), SPOT)
        assert "o-1" in {o.object_id for o in obs.views[0].objects}
        assert "o-1" not in {o.object_id for o in obs.views[1].objects}
        # bearing exactly +30: shared fov edge, tie goes to the left camera
        obs = observe(scene, AgentState(position=(ax, ay), heading=330.0), SPOT)
        assert "o-1" in {o.object_id for o in obs.views[0].objects}
        assert "o-1" not in {o.object_id for o in obs.views[1].objects}
        # bearing exactly -30: shared edge of front and right, front wins
        obs = observe(scene, AgentState(position=(ax, ay), heading=30.0), SPOT)
        assert "o-1" in {o.object_id for o in obs.views[1].objects}
        assert "o-1" not in {o.object_id for o in obs.views[2].objects}

    def test_occluded_object_absent(self, open_scene):
        # the pillar at rows 6-7, cols 6-7 hides toy-0 (11,11) from (2,2)
        agent = state(0.625, 0.625, 45.0)
        obs = observe(open_scene, agent, SPOT)
        assert "toy-0" not in {o.object_id for o in obs.visible()}

    def test_views_partition_visible_set(self, open_scene):
        # no object in two views, and the union equals an independently
        # evaluated cone/range/sight predicate
        rng = random.Random(5)
        free = free_cells(open_scene)
        for _ in range(200):
            cell = rng.choice(free)
            s = state(*open_scene.cell_center(cell), heading=rng.uniform(0, 360))
            obs = observe(open_scene, s, SPOT)
            ids = [o.object_id for v in obs.views for o in v.objects]
            assert len(ids) == len(set(ids))
            expected = set()
            for obj in open_scene.objects:
                dx = obj.position[0] - s.position[0]
                dy = obj.position[1] - s.position[1]
                rng_m = math.hypot(dx, dy)
                if rng_m > SPOT.sensing_range:
                    continue
                bearing = signed_angle(
                    math.degrees(math.atan2(dy, dx)) - s.heading
                ) if rng_m > 1e-9 else 0.0
                if abs(bearing) > 90.0:  # three 60-degree cameras span +-90
                    continue
                if line_of_sight(open_scene, s.position, obj.position):
                    expected.add(obj.id)
            assert set(ids) == expected

    def test_out_of_range_invisible(self):
        rows = ["#" * 30, "#" + "." * 28 + "#", "#" * 30]
        scene = scene_from(rows, objects=[("far-0", "flag", (1, 27), True)])
        obs = observe(scene, state(0.375, 0.375, 0.0), SPOT)
        assert {o.object_id for o in obs.visible()} == set()  # ~6.6 m away, range is 5


def judged(scene, s, target):
    """subtask_success on a fresh step context of the state and target."""
    return subtask_success(StepContext(scene, s, SPOT, target, 0))


class TestSubtaskSuccess:
    def test_close_and_facing(self, corridor_scene):
        # 2 cells west of the box, facing it
        assert judged(corridor_scene, state(1.375, 0.375, 0.0), "box-0")

    def test_bearing_outside_cone(self, open_scene):
        obj = open_scene.object("box-0")
        ax, ay = obj.position[0] + 0.5, obj.position[1]  # 0.5 m east, facing west
        assert judged(open_scene, state(ax, ay, 180.0), "box-0")
        assert not judged(open_scene, state(ax, ay, 135.0), "box-0")

    def test_distance_bound(self, corridor_scene):
        # 6 cells away: 1.5 m geodesic, facing straight at it
        assert not judged(corridor_scene, state(0.375, 0.375, 0.0), "box-0")

    def test_unknown_target_raises(self, corridor_scene):
        with pytest.raises(UnknownObjectError):
            judged(corridor_scene, state(0.375, 0.375, 0.0), "nope")

    def test_success_implies_visible(self, open_scene):
        rng = random.Random(9)
        free = free_cells(open_scene)
        hits = 0
        for _ in range(500):
            cell = rng.choice(free)
            s = state(*open_scene.cell_center(cell), heading=rng.choice(range(0, 360, 15)))
            for obj in open_scene.objects:
                if judged(open_scene, s, obj.id):
                    hits += 1
                    assert obj.id in {o.object_id for o in observe(open_scene, s, SPOT).visible()}
        assert hits > 0  # the property actually fired


class TestStepContextGoal:
    def test_goal_is_the_target_category_looked_up_once(self, corridor_scene, monkeypatch):
        category = corridor_scene.object("box-0").category
        ctx = StepContext(corridor_scene, state(0.375, 0.375, 0.0), SPOT, "box-0", 0)
        looked_up = []
        lookup = corridor_scene.object
        monkeypatch.setattr(corridor_scene, "object", lambda i: looked_up.append(i) or lookup(i))
        assert [ctx.goal, ctx.goal] == [category, category]
        assert looked_up == ["box-0"]

    def test_a_context_without_a_target_senses_until_its_goal_is_read(self, corridor_scene):
        ctx = StepContext(corridor_scene, state(0.375, 0.375, 0.0), SPOT, "", 0)
        assert ctx.observation == observe(corridor_scene, ctx.state, SPOT)
        with pytest.raises(UnknownObjectError):
            ctx.goal


FLAWS = (
    "char", "width", "list-row", "border", "occupied", "duplicate", "negative", "outside",
    "float", "bool", "triple", "object",
)


@st.composite
def flawed_scenes(draw):
    """A scene that has not been validated: a bordered grid with random
    walls, two regions over its free cells and objects at their cell
    centres, with up to three flaws drawn from FLAWS."""
    n_rows = draw(st.integers(3, 8))
    n_cols = draw(st.integers(3, 8))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    grid = [
        [
            "#" if r in (0, n_rows - 1) or c in (0, n_cols - 1)
            or ((r, c) != (1, 1) and rnd.random() < 0.2) else "."
            for c in range(n_cols)
        ]
        for r in range(n_rows)
    ]
    free = [(r, c) for r in range(n_rows) for c in range(n_cols) if grid[r][c] == "."]
    occupied = [(r, c) for r in range(n_rows) for c in range(n_cols) if grid[r][c] == "#"]
    half = len(free) // 2
    cells = [free[:half], free[half:]]
    objects = []
    for i, (r, c) in enumerate(rnd.sample(free, min(3, len(free)))):
        objects.append(ObjectInstance(f"o-{i}", "box", str(int((r, c) in free[half:])),
                                      ((c + 0.5) * CS, (r + 0.5) * CS), True))
    rows_as_lists = set()
    for flaw in draw(st.lists(st.sampled_from(FLAWS), max_size=3)):
        row = rnd.randrange(n_rows)
        region = rnd.randrange(2)
        place = rnd.randint(0, len(cells[region]))
        if flaw in ("char", "border"):
            if flaw == "border":
                row = rnd.choice((0, n_rows - 1))
            if grid[row]:  # a width flaw may have cut it to nothing
                grid[row][rnd.randrange(len(grid[row]))] = "." if flaw == "border" else rnd.choice("x #")
        elif flaw == "width":
            if rnd.random() < 0.5:
                grid[row].append(".")
            elif grid[row]:
                grid[row].pop()
        elif flaw == "list-row":
            rows_as_lists.add(row)
        elif flaw == "object" and objects:
            o = objects.pop(rnd.randrange(len(objects)))
            r, c = rnd.choice(occupied + free)
            objects.append(ObjectInstance(o.id, o.category, o.region_id,
                                          ((c + 0.5) * CS, (r + 0.5) * CS), True))
        else:
            r, c = rnd.choice(free)
            cell = {
                "occupied": rnd.choice(occupied),
                "duplicate": (r, c),
                # an index that would wrap to a free cell, or to the border
                "negative": rnd.choice([(-rnd.randint(1, n_rows), c), (r, -rnd.randint(1, n_cols))]),
                "outside": rnd.choice([(n_rows, c), (r, n_cols + 2)]),
                "float": (float(r), float(c)),
                "bool": (True, c),
                "triple": (r, c, 0),
            }.get(flaw)
            if cell is not None:
                cells[region].insert(place, cell)
    grid = [row if i in rows_as_lists else "".join(row) for i, row in enumerate(grid)]
    regions = [Region(str(k), f"room-{k}", tuple(cells[k])) for k in range(2)]
    with mock.patch.object(Scene, "_validate", lambda self: None):
        return Scene(grid, regions, objects)


class TestSceneValidation:
    def test_unbordered_grid_rejected(self):
        with pytest.raises(SceneValidationError):
            Scene(grid=["...", "...", "..."], regions=[], objects=[])

    @pytest.mark.parametrize("cell_size", [0.0, -0.25, math.inf, math.nan])
    def test_cell_size_must_be_positive_and_finite(self, cell_size):
        # cell_of divides by it when the objects are checked
        with pytest.raises(SceneValidationError, match="cell_size"):
            Scene(grid=["###", "#.#", "###"], regions=[], objects=[], cell_size=cell_size)

    @pytest.mark.parametrize("seed", [5.7, 5.0, True, "5"])
    def test_seed_must_be_an_integer(self, seed):
        # the seed names the scene
        with pytest.raises(TypeError, match="seed"):
            Scene(grid=["###", "#.#", "###"], regions=[], objects=[], seed=seed)

    @pytest.mark.parametrize("cell_size", ["0.25", True])
    def test_cell_size_must_be_a_number(self, cell_size):
        with pytest.raises(TypeError, match="cell_size"):
            Scene(grid=["###", "#.#", "###"], regions=[], objects=[], cell_size=cell_size)

    def test_object_in_wall_rejected(self):
        from lhnav.world import ObjectInstance, Region

        rows = ["#####", "#...#", "#####"]
        region = Region(id="0", label="room", cells=((1, 1), (1, 2), (1, 3)))
        bad = ObjectInstance(
            id="x", category="box", region_id="0", position=(0.1, 0.1), portable=True
        )
        with pytest.raises(SceneValidationError):
            Scene(grid=rows, regions=[region], objects=[bad])

    @pytest.mark.parametrize(
        "cell, region_id",
        [((1, 3), "0"), ((1, 1), "1"), ((1, 2), "0")],
        ids=["other-region", "other-region-reversed", "no-region"],
    )
    def test_object_outside_its_region_rejected(self, cell, region_id):
        rows = ["#####", "#...#", "#####"]
        regions = [
            Region(id="0", label="room", cells=((1, 1),)),
            Region(id="1", label="hall", cells=((1, 3),)),
        ]
        x, y = (cell[1] + 0.5) * 0.25, (cell[0] + 0.5) * 0.25
        obj = ObjectInstance(
            id="x", category="box", region_id=region_id, position=(x, y), portable=True
        )
        with pytest.raises(SceneValidationError, match="lies outside its region"):
            Scene(grid=rows, regions=regions, objects=[obj])
        # in its own region the object is accepted
        home = (1, 1) if region_id == "0" else (1, 3)
        fine = ObjectInstance(
            id="x", category="box", region_id=region_id,
            position=((home[1] + 0.5) * 0.25, (home[0] + 0.5) * 0.25), portable=True,
        )
        assert Scene(grid=rows, regions=regions, objects=[fine]).object("x") == fine

    @pytest.mark.parametrize("portable", ["no", 0, 1, None])
    def test_portable_must_be_a_bool(self, portable):
        from lhnav.world import ObjectInstance

        with pytest.raises(TypeError, match="portable"):
            ObjectInstance(
                id="x", category="box", region_id="0", position=(0.4, 0.4), portable=portable
            )

    def test_is_free_matches_grid_lookup_including_outer_ring(self):
        from lhnav.scenegen import generate_scene

        for seed, size, regions in ((1, 24, 4), (2, 13, 2), (3, 31, 9)):
            scene = generate_scene(seed=seed, size=size, regions=regions)
            for r in range(-1, scene.rows + 1):
                for c in range(-1, scene.cols + 1):
                    assert scene.is_free(r, c) == grid_is_free(scene.grid, r, c), (r, c)

    @settings(max_examples=400, deadline=None)
    @given(scene=flawed_scenes())
    def test_checks_match_the_row_and_cell_loop(self, scene):
        # the same first error, message included, as the per-character row
        # test and the per-cell method lookup that _validate replaced
        def outcome(check):
            try:
                check(scene)
            except (SceneValidationError, TypeError, ValueError, IndexError) as exc:
                return type(exc), str(exc)
            return None

        assert outcome(Scene._validate) == outcome(loop_validate)

    def test_round_trip_is_bit_exact(self, tmp_path, two_room_scene):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        two_room_scene.save(p1)
        Scene.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestAngles:
    def test_normalize_heading(self):
        assert normalize_heading(370.0) == 10.0
        assert normalize_heading(-30.0) == 330.0
        assert normalize_heading(360.0) == 0.0

    def test_signed_angle_half_open(self):
        assert signed_angle(180.0) == 180.0
        assert signed_angle(-180.0) == 180.0
        assert signed_angle(190.0) == -170.0


class TestLineOfSight:
    def test_clear_and_blocked(self, open_scene):
        a = open_scene.cell_center((2, 2))
        b = open_scene.cell_center((2, 11))
        assert line_of_sight(open_scene, a, b)
        c = open_scene.cell_center((11, 11))
        assert not line_of_sight(open_scene, a, c)  # pillar in between


# -- sensing against the reference generator and per-camera signed_angle -------

CS = 0.25
# stock cameras, overlapping cameras (fov 90 and 180), a short and an
# unbounded sensing range
SENSING_ROBOTS = (
    ROBOTS["spot"],
    RobotConfig(name="wide", fov_per_camera=90.0),
    RobotConfig(name="panoramic", fov_per_camera=180.0),
    RobotConfig(name="short", sensing_range=1.5),
    RobotConfig(name="unbounded", fov_per_camera=90.0, sensing_range=math.inf),
)


@st.composite
def sensing_scenes(draw):
    """A bordered grid with random interior walls, one region over its free
    cells, and objects at cell centres (so many bearings are exact axis and
    fov-edge angles) or anywhere inside free cells."""
    n_rows = draw(st.integers(3, 12))
    n_cols = draw(st.integers(3, 12))
    walls = draw(st.sampled_from([0.0, 0.15, 0.35]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    grid = [
        "".join(
            "#" if r in (0, n_rows - 1) or c in (0, n_cols - 1)
            or ((r, c) != (1, 1) and rnd.random() < walls) else "."
            for c in range(n_cols)
        )
        for r in range(n_rows)
    ]
    free = [(r, c) for r in range(n_rows) for c in range(n_cols) if grid[r][c] == "."]
    objects = []
    for i in range(draw(st.integers(0, 8))):
        row, col = rnd.choice(free)
        if draw(st.booleans()):
            pos = ((col + 0.5) * CS, (row + 0.5) * CS)
        else:
            pos = ((col + rnd.uniform(0.01, 0.99)) * CS, (row + rnd.uniform(0.01, 0.99)) * CS)
        category = rnd.choice(["box", "cup", "bed"])
        objects.append(ObjectInstance(f"o-{i}", category, "0", pos, True))
    return Scene(grid, [Region("0", "room", tuple(free))], objects)


def coordinate(limit):
    """Anywhere from two cells before the grid to two cells past it, or
    exactly on a cell boundary or centre."""
    return st.one_of(
        st.floats(-2 * CS, limit + 2 * CS),
        st.integers(-2, int(limit / CS * 2) + 2).map(lambda k: k * CS / 2),
    )


@st.composite
def segments(draw, scene):
    xs, ys = coordinate(scene.cols * CS), coordinate(scene.rows * CS)
    a = (draw(xs), draw(ys))
    kind = draw(st.sampled_from(["any", "vertical", "horizontal", "zero", "corner"]))
    if kind == "vertical":
        b = (a[0], draw(ys))
    elif kind == "horizontal":
        b = (draw(xs), a[1])
    elif kind == "zero":
        b = a
    elif kind == "corner":
        # start on a cell corner and run diagonally, so the walk meets a
        # column and a row boundary at once at every crossing
        a = (draw(st.integers(0, scene.cols)) * CS, draw(st.integers(0, scene.rows)) * CS)
        t = draw(st.integers(-scene.rows, scene.rows)) * CS
        b = (a[0] + t, a[1] + draw(st.sampled_from([t, -t])))
    else:
        b = (draw(xs), draw(ys))
    return a, b


@st.composite
def poses(draw, scene):
    """Agent positions that repeat (so consecutive observations turn in
    place and reuse the sensing memo), with headings on the 15-degree grid
    that puts axis-aligned objects exactly on fov edges."""
    free = free_cells(scene)
    points = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["centre", "inside", "object", "beside", "anywhere"]))
        if kind in ("object", "beside") and scene.objects:
            x, y = draw(st.sampled_from(scene.objects)).position
            # "beside" is closer than 1e-9 m: still no bearing of its own
            points.append((x, y + 5e-10) if kind == "beside" else (x, y))
        elif kind == "anywhere":
            points.append((draw(coordinate(scene.cols * CS)), draw(coordinate(scene.rows * CS))))
        else:
            row, col = draw(st.sampled_from(free))
            fx, fy = (0.5, 0.5) if kind == "centre" else (draw(st.floats(0, 0.999)), draw(st.floats(0, 0.999)))
            points.append(((col + fx) * CS, (row + fy) * CS))
    heading = st.one_of(
        st.integers(0, 23).map(lambda k: k * 15.0),
        st.floats(0.0, 360.0, exclude_max=True),
    )
    calls = st.tuples(
        st.sampled_from(points), heading, st.integers(0, len(SENSING_ROBOTS) - 1)
    )
    return draw(st.lists(calls, min_size=1, max_size=24))


def bits(obs):
    """Everything an observation holds, floats by their exact bits."""
    return [
        (v.direction, v.offset.hex(), [
            (o.object_id, o.category, o.bearing.hex(), o.range.hex()) for o in v.objects
        ])
        for v in obs.views
    ]


class TestSensingMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), scene=sensing_scenes())
    def test_line_of_sight(self, data, scene):
        for _ in range(20):
            a, b = data.draw(segments(scene))
            assert line_of_sight(scene, a, b) == reference_line_of_sight(scene, a, b), (a, b)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), scene=sensing_scenes())
    def test_observe(self, data, scene):
        self._check(scene, data.draw(poses(scene)))

    def test_fov_edges_and_own_position(self):
        # an object under the agent, and axis-aligned objects exactly on
        # the shared fov edges of the stock cameras (heading 330: +30 on
        # the left/front edge, and -60) and of the overlapping ones
        scene = scene_from(
            ["#######", "#.....#", "#.....#", "#.....#", "#######"],
            objects=[("a", "box", (2, 2), True), ("b", "cup", (1, 2), True),
                     ("c", "bed", (2, 4), True)],
        )
        position = scene.object("a").position
        self._check(scene, [
            (position, heading, k)
            for heading in (330.0, 0.0, 30.0, 45.0, 315.0, 330.0)
            for k in range(len(SENSING_ROBOTS))
        ])

    def _check(self, scene, calls):
        for position, heading, k in calls:
            s = AgentState(position=position, heading=heading)
            robot = SENSING_ROBOTS[k]
            assert bits(observe(scene, s, robot)) == bits(reference_observe(scene, s, robot)), (
                position, heading, robot.name
            )

    def test_recorded_expert_states(self):
        # every state of expert episodes on generated scenes, in the order an
        # episode visits them
        from lhnav.policy import ExpertPolicy
        from lhnav.runner import RunConfig, run_episode
        from lhnav.scenegen import generate_scene
        from lhnav.taskforge import sample_task

        for seed in (1, 2):
            scene = generate_scene(seed=seed)
            for task_seed in range(3):
                traj, _ = run_episode(
                    scene, sample_task(scene, seed=task_seed), ExpertPolicy(), RunConfig()
                )
                for step in traj.steps:
                    assert bits(observe(scene, step.state, SPOT)) == bits(
                        reference_observe(scene, step.state, SPOT)
                    )

    def test_turn_in_place_reuses_the_sight_lines(self, open_scene, monkeypatch):
        calls = []

        def counted(scene, a, b):
            calls.append(b)
            return reference_line_of_sight(scene, a, b)

        monkeypatch.setattr(world, "line_of_sight", counted)
        position = open_scene.cell_center((3, 3))
        for heading in range(0, 360, 30):
            observe(open_scene, AgentState(position=position, heading=float(heading)), SPOT)
        # each object's line of sight is traced once, when it first falls
        # into a camera
        assert sorted(calls) == sorted(o.position for o in open_scene.objects)


# every fov edge of cameras that leave gaps (fov 20), abut (60) or overlap
# (90, 180): a camera axis plus or minus a half fov, as a bearing
EDGE_FOVS = (20.0, 60.0, 90.0, 180.0)
FOV_EDGES = sorted({
    signed_angle(axis + side * fov / 2.0)
    for axis in (60.0, 0.0, -60.0) for fov in EDGE_FOVS for side in (1, -1)
})


def ulps_around(value, n=2):
    """value and the n floats on either side of it."""
    out = [value]
    for direction in (math.inf, -math.inf):
        v = value
        for _ in range(n):
            v = math.nextafter(v, direction)
            out.append(v)
    return out


def edge_robots(scene, position):
    """Robots of every EDGE_FOVS fov, with the stock range, an unbounded one,
    and ranges exactly at an object's distance and one ulp short of it."""
    ranges = [5.0, math.inf]
    for obj in scene.objects:
        rng = math.hypot(obj.position[0] - position[0], obj.position[1] - position[1])
        if rng > 0:
            ranges += [rng, math.nextafter(rng, 0.0)]
    return [
        RobotConfig(name="edge", fov_per_camera=fov, sensing_range=rng)
        for fov in EDGE_FOVS for rng in ranges
    ]


def edge_headings(scene, position, edges=FOV_EDGES):
    """Headings in [0, 360) that put an object's bearing on one of `edges`,
    and the two floats on either side of each: the bearing lands on the
    edge exactly wherever the object's angle and the edge subtract exactly
    (objects at cell centres seen from a cell centre or from an object)."""
    headings = set()
    for obj in scene.objects:
        dx = obj.position[0] - position[0]
        dy = obj.position[1] - position[1]
        if math.hypot(dx, dy) < 1e-9:
            continue
        deg = math.degrees(math.atan2(dy, dx))
        for edge in edges:
            for h in ulps_around(normalize_heading(deg - edge)):
                headings.add(normalize_heading(h))
    return sorted(headings)


class TestObserveMatchesTheCameraLoop:
    """observe against the loop over the camera axes that it replaced
    (reference_impls.loop_observe): bearings and ranges bit for bit and every
    view in the same order, at the fov edges and one ulp either side."""

    @staticmethod
    def _check(scene, position, headings, robots):
        for robot in robots:
            for heading in headings:
                s = AgentState(position=position, heading=heading)
                assert bits(observe(scene, s, robot)) == bits(loop_observe(scene, s, robot)), (
                    position, heading.hex(), robot
                )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), scene=sensing_scenes())
    def test_generated_scenes_and_poses(self, data, scene):
        # objects listed against id order, so ties in range are broken by id
        scene = Scene(scene.grid, scene.regions, scene.objects[::-1])
        free = free_cells(scene)
        kind = data.draw(st.sampled_from(["object", "centre", "inside"]))
        if kind == "object" and scene.objects:
            # the agent stands on an object
            position = data.draw(st.sampled_from(scene.objects)).position
        else:
            row, col = data.draw(st.sampled_from(free))
            fx, fy = (0.5, 0.5) if kind != "inside" else (
                data.draw(st.floats(0, 0.999)), data.draw(st.floats(0, 0.999))
            )
            position = ((col + fx) * CS, (row + fy) * CS)
        headings = edge_headings(scene, position) or [0.0]
        # a sample of the edge headings keeps an example short
        headings = data.draw(st.lists(st.sampled_from(headings), min_size=1, max_size=12))
        headings += [data.draw(st.floats(0.0, 360.0, exclude_max=True))]
        robots = data.draw(st.lists(st.sampled_from(edge_robots(scene, position)), min_size=1, max_size=6))
        self._check(scene, position, headings, robots)

    def test_exact_edges_from_an_object_and_a_cell_centre(self):
        # objects at cell centres around the agent on the axes and the
        # diagonals: their angles are multiples of 45 degrees, so every
        # edge heading puts a bearing exactly on +-30 or +-90, which the
        # outputs show.  Objects at one range are listed against id order.
        scene = scene_from(
            ["#######", "#.....#", "#.....#", "#.....#", "#.....#", "#.....#", "#######"],
            objects=[("a", "box", (3, 3), True)] + [
                (f"o-{8 - i}", "cup", (3 + dr, 3 + dc), True)
                for i, (dr, dc) in enumerate(
                    [(0, 2), (2, 0), (0, -2), (-2, 0), (1, 1), (-1, 1), (1, -1), (-1, -1)]
                )
            ],
        )
        seen = set()
        for position in (scene.object("a").position, scene.cell_center((2, 2))):
            headings = edge_headings(scene, position, edges=(30.0, -30.0, 90.0, -90.0))
            robots = edge_robots(scene, position)
            self._check(scene, position, headings, robots)
            for robot in robots:
                for heading in headings:
                    obs = observe(scene, AgentState(position=position, heading=heading), robot)
                    seen.update(o.bearing for o in obs.visible())
        assert {30.0, -30.0, 90.0, -90.0} <= seen
        assert {math.nextafter(30.0, math.inf), math.nextafter(-30.0, -math.inf)} & seen


_SIGHTED = (SightedObject("cup-1", "cup", -30.0, 1.25), SightedObject("bed-0", "bed", 12.5, 2.0))
_VIEWS = (View("left", 60.0, ()), View("front", 0.0, _SIGHTED), View("right", -60.0, _SIGHTED[:1]))
# (class, its fields in order, the field to assign to): each record with
# every field given, and AgentState with its default holding too
RECORDS = [
    (AgentState, ((0.375, 1.125), 330.0, "cup-1"), "heading"),
    (AgentState, ((0.375, 1.125), 330.0), "holding"),
    (StepRecord, (AgentState((1, 2.5), 30.0), Action.MOVE_FORWARD, True), "collided"),
    (SightedObject, ("cup-1", "cup", -30.0, 1.25), "bearing"),
    (View, ("front", 0.0, _SIGHTED), "objects"),
    (Observation, (_VIEWS,), "views"),
]
RECORD_IDS = [f"{cls.__name__}-{len(args)}" for cls, args, _ in RECORDS]


class TestRecordsKeepDataclassBehaviour:
    """Each record as its class builds it, through a hand-written __init__
    or the generated one, equals, hashes, reprs and pickles as the one the
    generated frozen-dataclass __init__ builds, and stays frozen."""

    @pytest.mark.parametrize("cls, args, name", RECORDS, ids=RECORD_IDS)
    def test_like_the_dataclass_built_record(self, cls, args, name):
        built, reference = cls(*args), dataclass_built(cls, *args)
        by_keyword = cls(**{f.name: v for f, v in zip(dataclasses.fields(cls), args)})
        for record in (built, by_keyword):
            assert type(record) is cls
            assert record == reference and not record != reference
            assert hash(record) == hash(reference)
            assert repr(record) == repr(reference)
            assert list(vars(record).items()) == list(vars(reference).items())
            assert pickle.dumps(record) == pickle.dumps(reference)
            assert pickle.loads(pickle.dumps(record)) == reference
            assert dataclasses.replace(record) == reference
            assert dataclasses.astuple(record) == dataclasses.astuple(reference)

    @pytest.mark.parametrize("cls, args, name", RECORDS, ids=RECORD_IDS)
    def test_frozen(self, cls, args, name):
        record = cls(*args)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
        assert record == dataclass_built(cls, *args)

    def test_a_different_field_is_unequal(self):
        assert AgentState((0.5, 0.5), 30.0) != AgentState((0.5, 0.5), 60.0)
        assert AgentState((0.5, 0.5), 30.0) != AgentState((0.5, 0.5), 30.0, "cup-1")


class TestRobotConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("sensing_range", math.nan),
            ("sensing_range", 0.0),
            ("sensing_range", -1.0),
            ("forward_step", math.nan),
            ("forward_step", math.inf),
            ("forward_step", -math.inf),
            ("forward_step", 0.0),
        ],
    )
    def test_bad_sensing_or_step_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RobotConfig(**{field: value})

    def test_unbounded_sensing_range_accepted(self):
        assert RobotConfig(sensing_range=math.inf).sensing_range == math.inf


class TestScenePickle:
    def test_pickle_keeps_rows_and_cols(self):
        # the grid's size is set once, when the scene is made, and travels
        # with it to worker processes
        from lhnav.scenegen import generate_scene

        scene = generate_scene(seed=4, size=17)
        clone = pickle.loads(pickle.dumps(scene))
        assert (scene.rows, scene.cols) == (len(scene.grid), len(scene.grid[0])) == (17, 17)
        assert (clone.rows, clone.cols) == (17, 17)
        assert vars(clone)["rows"] == 17 and vars(clone)["cols"] == 17

    def test_pickle_keeps_the_caches(self, monkeypatch):
        # worker processes receive scenes by pickle: the geodesic fields,
        # the move table and the sensing memo that sampling tasks, running
        # expert episodes and observing filled travel with the scene, and
        # the clone senses and measures bit for bit as the original does
        from lhnav import expert
        from lhnav.expert import geodesic_distance
        from lhnav.policy import ExpertPolicy
        from lhnav.runner import RunConfig, run_episode
        from lhnav.scenegen import generate_scene
        from lhnav.taskforge import sample_task

        scene = generate_scene(seed=3)
        tasks = [sample_task(scene, seed=task_seed) for task_seed in range(3)]
        for task in tasks:
            traj, _ = run_episode(scene, task, ExpertPolicy(), RunConfig())
        state = traj.steps[-1].state
        observe(scene, state, SPOT)
        assert scene._field_cache and scene._moves is not None and scene._sight_memo is not None
        clone = pickle.loads(pickle.dumps(scene))
        assert clone.to_dict() == scene.to_dict()
        assert clone._moves == scene._moves and clone._sight_memo is not None
        assert clone._field_cache.keys() == scene._field_cache.keys()
        for source, field in scene._field_cache.items():
            assert [v.hex() for v in clone._field_cache[source].value] == [
                v.hex() for v in field.value
            ]
        # every query toward a target is answered from a travelled field
        monkeypatch.setattr(expert, "compute_field", None)
        targets = [scene.object(sub.object_id).position for t in tasks for sub in t.move_targets()]
        for a in targets:
            for b in targets:
                assert geodesic_distance(clone, a, b).hex() == geodesic_distance(scene, a, b).hex()
        assert bits(observe(clone, state, SPOT)) == bits(observe(scene, state, SPOT))
