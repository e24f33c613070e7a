"""Synthetic scene generation: connected rooms on a bordered grid, objects
scattered inside, one hallway region holding the doorway cells.

Rooms are laid out on a lattice with one-cell walls between them; doorways
carved along a spanning tree (plus a few extras) keep all free space in one
connected component, which is what makes every sampled task feasible.
"""

from __future__ import annotations

import random

from .world import CELL_SIZE, FREE, OCCUPIED, ObjectInstance, Region, Scene

ROOM_LABELS = [
    "bedroom",
    "office",
    "kitchen",
    "living room",
    "bathroom",
    "storage",
    "studio",
    "library",
    "laundry",
    "pantry",
    "workshop",
    "lounge",
]

PORTABLE_CATEGORIES = [
    "bag",
    "box",
    "toy",
    "book",
    "cup",
    "pillow",
    "bottle",
    "hat",
    "folder",
    "basket",
]

RECEPTACLE_CATEGORIES = [
    "desk",
    "table",
    "shelf",
    "sofa",
    "bed",
    "counter",
    "cabinet",
    "sink",
    "bench",
    "dresser",
]


def generate_scene(
    seed: int,
    size: int = 24,
    regions: int = 4,
    objects_per_region: int = 4,
) -> Scene:
    """Build a connected multi-room scene, deterministic under the seed."""
    if size < 9:
        raise ValueError("size must be at least 9")
    if not 2 <= regions <= len(ROOM_LABELS):
        raise ValueError(f"regions must be in 2..{len(ROOM_LABELS)}")
    categories = len(PORTABLE_CATEGORIES) + len(RECEPTACLE_CATEGORIES)
    if not 2 <= objects_per_region <= categories:
        raise ValueError(
            f"objects per region must be in 2..{categories}, one per portable "
            f"or receptacle category, got {objects_per_region}"
        )
    rng = random.Random(f"scene:{seed}")

    # lattice of room slots, roughly square
    k_cols = 1
    while k_cols * k_cols < regions:
        k_cols += 1
    k_rows = (regions + k_cols - 1) // k_cols

    grid = [[OCCUPIED] * size for _ in range(size)]
    interior = size - 2  # cells inside the border
    room_h = (interior - (k_rows - 1)) // k_rows
    room_w = (interior - (k_cols - 1)) // k_cols
    if room_h < 3 or room_w < 3:
        raise ValueError("size too small for the requested region count")
    if objects_per_region > room_h * room_w:
        raise ValueError(
            f"{objects_per_region} objects per region do not fit in rooms of "
            f"{room_h * room_w} cells; lower the objects or raise the size"
        )

    room_cells: list[list[tuple[int, int]]] = []
    room_slot: list[tuple[int, int]] = []
    for idx in range(regions):
        sr, sc = divmod(idx, k_cols)
        top = 1 + sr * (room_h + 1)
        left = 1 + sc * (room_w + 1)
        cells = []
        for r in range(top, top + room_h):
            for c in range(left, left + room_w):
                grid[r][c] = FREE
                cells.append((r, c))
        room_cells.append(cells)
        room_slot.append((sr, sc))

    # doorways: spanning tree over the slot lattice plus a few extras
    slot_index = {slot: i for i, slot in enumerate(room_slot)}
    edges = []
    for i, (sr, sc) in enumerate(room_slot):
        for nb in ((sr, sc + 1), (sr + 1, sc)):
            if nb in slot_index:
                edges.append((i, slot_index[nb]))
    rng.shuffle(edges)
    parent = list(range(regions))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    door_cells: list[tuple[int, int]] = []

    def carve_door(i: int, j: int) -> None:
        (sri, sci), (srj, scj) = room_slot[i], room_slot[j]
        if sri == srj:  # horizontal neighbors share a vertical wall
            wall_c = 1 + max(sci, scj) * (room_w + 1) - 1
            top = 1 + sri * (room_h + 1)
            r = rng.randrange(top, top + room_h)
            grid[r][wall_c] = FREE
            door_cells.append((r, wall_c))
        else:
            wall_r = 1 + max(sri, srj) * (room_h + 1) - 1
            left = 1 + sci * (room_w + 1)
            c = rng.randrange(left, left + room_w)
            grid[wall_r][c] = FREE
            door_cells.append((wall_r, c))

    extra = []
    for i, j in edges:
        if find(i) != find(j):
            parent[find(i)] = find(j)
            carve_door(i, j)
        else:
            extra.append((i, j))
    for i, j in extra:
        if rng.random() < 0.3:
            carve_door(i, j)

    grid_rows = ["".join(row) for row in grid]

    labels = rng.sample(ROOM_LABELS, regions)
    region_list = [
        Region(id=str(i), label=labels[i], cells=tuple(sorted(room_cells[i])))
        for i in range(regions)
    ]
    region_list.append(Region(id="hall", label="hallway", cells=tuple(sorted(set(door_cells)))))

    objects: list[ObjectInstance] = []
    counter = 0
    for i in range(regions):
        n_portable = max(1, objects_per_region // 2)
        n_receptacle = max(1, objects_per_region - n_portable)
        cats = rng.sample(PORTABLE_CATEGORIES, n_portable) + rng.sample(
            RECEPTACLE_CATEGORIES, n_receptacle
        )
        spots = rng.sample(sorted(room_cells[i]), len(cats))
        for cat, cell in zip(cats, spots):
            portable = cat in PORTABLE_CATEGORIES
            x = (cell[1] + 0.5) * CELL_SIZE
            y = (cell[0] + 0.5) * CELL_SIZE
            objects.append(
                ObjectInstance(
                    id=f"{cat}-{counter}",
                    category=cat,
                    region_id=str(i),
                    position=(x, y),
                    portable=portable,
                )
            )
            counter += 1

    return Scene(grid=grid_rows, regions=region_list, objects=objects, seed=seed)
