import numpy as np
import pytest

from lhnav.memory import EMBED_DIM, N_ACTIONS
from lhnav.policy import LinearSoftmaxBackend
from lhnav.world import ObjectInstance, Region, Scene


class NarrowBackend(LinearSoftmaxBackend):
    """A linear softmax backend over k features instead of the shipped
    feature_dim, with its weights drawn as LinearSoftmaxBackend draws them.
    prepare_batch, loss_and_grad and train_backend read only W, b and
    feature_dim, so the loss and training tests run at small widths."""

    def __init__(self, k: int, seed: int = 0):
        self.feature_dim = k
        self.W = np.random.default_rng(seed).normal(0.0, 0.01, (N_ACTIONS, k))
        self.b = np.zeros(N_ACTIONS)


def pad(vector):
    """A vector zero-padded to EMBED_DIM, the one length of both memories'
    rows.  Zero padding changes no cosine and no mean, so a test keeps its
    hand-written vectors and expected values."""
    out = np.zeros(EMBED_DIM)
    out[: len(vector)] = vector
    return out


def free_cells(scene):
    """The free cells of a scene's grid, in row-major order."""
    return [
        (r, c) for r, row in enumerate(scene.grid) for c, ch in enumerate(row) if ch == "."
    ]


def scene_from(rows, objects=(), seed=0, label="room"):
    """Build a scene whose free cells form one region; objects are
    (id, category, (row, col), portable) tuples placed at cell centers."""
    free = tuple(
        (r, c)
        for r, row in enumerate(rows)
        for c, ch in enumerate(row)
        if ch == "."
    )
    regions = [Region(id="0", label=label, cells=free)]
    objs = []
    for obj_id, category, cell, portable in objects:
        x = (cell[1] + 0.5) * 0.25
        y = (cell[0] + 0.5) * 0.25
        objs.append(
            ObjectInstance(
                id=obj_id,
                category=category,
                region_id="0",
                position=(x, y),
                portable=portable,
            )
        )
    return Scene(grid=rows, regions=regions, objects=objs, seed=seed)


@pytest.fixture
def corridor_scene():
    rows = [
        "#########",
        "#.......#",
        "#########",
    ]
    return scene_from(rows, objects=[("box-0", "box", (1, 7), True)], label="corridor")


@pytest.fixture
def two_room_scene():
    """Bedroom with a bag, office with a desk, one doorway between them."""
    rows = [
        "############",
        "#.....#....#",
        "#.....#....#",
        "#..........#",
        "#.....#....#",
        "#.....#....#",
        "############",
    ]
    bedroom_cells = tuple(
        (r, c) for r in range(1, 6) for c in range(1, 6)
    )
    office_cells = tuple(
        (r, c) for r in range(1, 6) for c in range(7, 11)
    )
    hall_cells = ((3, 6),)
    regions = [
        Region(id="0", label="bedroom", cells=bedroom_cells),
        Region(id="4", label="office", cells=office_cells),
        Region(id="hall", label="hallway", cells=hall_cells),
    ]
    objects = [
        ObjectInstance(
            id="bag-0",
            category="bag",
            region_id="0",
            position=((1 + 0.5) * 0.25, (1 + 0.5) * 0.25),
            portable=True,
        ),
        ObjectInstance(
            id="desk-0",
            category="desk",
            region_id="4",
            position=((9 + 0.5) * 0.25, (4 + 0.5) * 0.25),
            portable=False,
        ),
    ]
    return Scene(grid=rows, regions=regions, objects=objects, seed=42)


@pytest.fixture
def sealed_scene():
    """Two rooms with no connecting door: disconnected free space."""
    rows = [
        "#########",
        "#...#...#",
        "#...#...#",
        "#...#...#",
        "#########",
    ]
    left = tuple((r, c) for r in range(1, 4) for c in range(1, 4))
    right = tuple((r, c) for r in range(1, 4) for c in range(5, 8))
    regions = [
        Region(id="0", label="cellar", cells=left),
        Region(id="1", label="vault", cells=right),
    ]
    objects = [
        ObjectInstance(
            id="cup-0", category="cup", region_id="0",
            position=((1 + 0.5) * 0.25, (1 + 0.5) * 0.25), portable=True,
        ),
        ObjectInstance(
            id="jar-0", category="jar", region_id="1",
            position=((6 + 0.5) * 0.25, (2 + 0.5) * 0.25), portable=True,
        ),
    ]
    return Scene(grid=rows, regions=regions, objects=objects, seed=7)


@pytest.fixture
def sealed_room_scene():
    """Three rooms in a row: a door joins the first two, a wall seals the
    third.  The cup and the desk share the larger component, the jar is
    alone in the sealed room."""
    rows = [
        "#############",
        "#...#...#...#",
        "#.......#...#",
        "#...#...#...#",
        "#############",
    ]

    def room(first_col):
        return tuple((r, c) for r in range(1, 4) for c in range(first_col, first_col + 3))

    def at(cell):
        return ((cell[1] + 0.5) * 0.25, (cell[0] + 0.5) * 0.25)

    regions = [
        Region(id="0", label="kitchen", cells=room(1)),
        Region(id="1", label="study", cells=room(5)),
        Region(id="2", label="pantry", cells=room(9)),
    ]
    objects = [
        ObjectInstance(
            id="cup-0", category="cup", region_id="0", position=at((1, 1)), portable=True,
        ),
        ObjectInstance(
            id="desk-1", category="desk", region_id="1", position=at((3, 7)), portable=False,
        ),
        ObjectInstance(
            id="jar-2", category="jar", region_id="2", position=at((2, 10)), portable=True,
        ),
    ]
    return Scene(grid=rows, regions=regions, objects=objects, seed=3)


@pytest.fixture
def open_scene():
    """A 14x14 single room with a central pillar for occlusion tests."""
    rows = []
    for r in range(14):
        if r == 0 or r == 13:
            rows.append("#" * 14)
        elif r in (6, 7):
            rows.append("#" + "." * 5 + "##" + "." * 5 + "#")
        else:
            rows.append("#" + "." * 12 + "#")
    return scene_from(
        rows,
        objects=[
            ("box-0", "box", (2, 2), True),
            ("lamp-0", "lamp", (2, 11), False),
            ("toy-0", "toy", (11, 11), True),
        ],
        label="den",
    )
