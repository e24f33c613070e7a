"""Brute-force reference implementations the production code is tested
against.  Deliberately primitive: plain loops, no shared helpers."""

import dataclasses
import hashlib
import heapq
import math
import sys
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from conftest import free_cells
from lhnav.memory import CAPACITY, EPS, ShortTermMemory, forget_and_append, weight_decision
from lhnav.policy import EMBED_DIM, EmbeddingOracle, one_hot
from lhnav.splitter import Tag
from lhnav.trajectory import StepRecord
from lhnav.world import (
    ACTION_BY_NAME, ACTION_NAMES, CAMERA_OFFSETS, FREE, OCCUPIED, ROBOTS, Action, AgentState,
    Observation, SceneValidationError, SightedObject, StepResult, View, normalize_heading,
)
from lhnav import expert
from lhnav.expert import UNREACHABLE, UnreachableTargetError, _next_waypoint, field_from
from lhnav.world import SUCCESS_CONE_DEG, SUCCESS_RADIUS, bearing_to, line_of_sight
from lhnav.world import observe as world_observe


# -- occupancy: index the grid rows directly -------------------------------------


def grid_is_free(rows, row, col):
    """A cell is free when it lies inside the grid and holds '.'."""
    if row < 0 or col < 0 or row >= len(rows) or col >= len(rows[0]):
        return False
    return rows[row][col] == "."


# -- grid geodesics: Bellman-Ford style relaxation until fixpoint --------------


def relaxation_distances(rows, source, cell_size=0.25):
    """Distances from source over an 8-connected grid, as (axis, diag) step
    pairs, by repeated full-sweep relaxation (no priority queue)."""
    n_rows, n_cols = len(rows), len(rows[0])

    def free(r, c):
        return 0 <= r < n_rows and 0 <= c < n_cols and rows[r][c] == "."

    dist = {source: (0, 0)}
    changed = True
    while changed:
        changed = False
        for r in range(n_rows):
            for c in range(n_cols):
                if (r, c) not in dist or not free(r, c):
                    continue
                a, d = dist[(r, c)]
                moves = []
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    if free(r + dr, c + dc):
                        moves.append(((r + dr, c + dc), (a + 1, d)))
                for dr, dc in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
                    if free(r + dr, c + dc) and free(r + dr, c) and free(r, c + dc):
                        moves.append(((r + dr, c + dc), (a, d + 1)))
                for cell, cand in moves:
                    old = dist.get(cell)
                    if old is None or cand[0] + cand[1] * math.sqrt(2.0) < old[0] + old[1] * math.sqrt(2.0):
                        dist[cell] = cand
                        changed = True
    return {
        cell: (a + d * math.sqrt(2.0)) * cell_size for cell, (a, d) in dist.items()
    }


# -- trajectory splitting: literal transcription of the recipe -----------------


def reference_split(symbols, include_tail=True):
    """Segment an F/L/R string; returns (merged turn records, segments)."""
    sym = "".join(symbols)
    s = []
    for action in ("L", "R"):
        i = 0
        while i < len(sym) - 3:
            window = sym[i : i + 3]
            if window.count(action) >= 2:
                idx = []
                for k in range(3):
                    if window[k] == action:
                        idx.append(i + k)
                s.append((idx[0], idx[1], action))
                i = idx[1] + 1
            else:
                i = i + 1
    s.sort()
    if not s:
        if include_tail and sym:
            return [], [("move_forward", 0, len(sym) - 1)]
        return [], []
    merge_s = []
    c_start, c_end, c_label = s[0]
    for start, end, label in s[1:]:
        if start <= c_end + 3 and label == c_label:
            c_end = max(c_end, end)
        else:
            merge_s.append((c_start, c_end, c_label))
            c_start, c_end, c_label = start, end, label
    merge_s.append((c_start, c_end, c_label))
    names = {"L": "turn_left", "R": "turn_right"}
    seg = []
    last_end = -1
    for start, end, act in merge_s:
        if last_end + 2 < start:
            seg.append(("move_forward", last_end + 1, start - 1))
        seg.append((names[act], max(start - 1, 0), min(end + 1, len(sym) - 1)))
        last_end = end
    if include_tail and last_end + 1 <= len(sym) - 1:
        seg.append(("move_forward", last_end + 1, len(sym) - 1))
    return merge_s, seg


# -- entropy argmin with independent summation ---------------------------------


def entropy_argmin_oracle(candidates):
    best_i, best_h = 0, None
    for i, cand in enumerate(candidates):
        total = math.fsum(cand)
        terms = []
        for v in reversed(list(cand)):
            sj = v / total
            terms.append(-sj * math.log(max(sj, 1e-300)))
        h = math.fsum(terms)
        if best_h is None or h < best_h:
            best_h = h
            best_i = i
    return best_i


# -- top-k retrieval: full sort then truncate ------------------------------------


def topk_oracle(bucket, query, k):
    """Indices of the top-k entries by cosine similarity, insertion order on
    ties, computed with plain python arithmetic."""
    qn = math.sqrt(math.fsum(q * q for q in query))
    sims = []
    for obs, _ in bucket:
        dot = math.fsum(o * q for o, q in zip(obs, query))
        on = math.sqrt(math.fsum(o * o for o in obs))
        sims.append(dot / (on * qn))
    order = sorted(range(len(bucket)), key=lambda j: (-sims[j], j))
    return order[:k]


# -- the memory layers as per-candidate and per-entry loops -----------------------
#
# These are the loops the array forms in lhnav.memory replaced, kept line for
# line (the long-term rank on a list of (obs, act) pairs), so the array forms
# can be checked bit for bit against them.


def loop_pool_candidates(confidences):
    c = np.asarray(confidences, dtype=float)
    n = c.shape[0]
    if n < 2:
        raise ValueError("need at least two confidences to pool")
    out = []
    for i in range(n - 1):
        merged = np.concatenate([c[:i], [(c[i] + c[i + 1]) / 2.0], c[i + 2 :]])
        out.append(merged)
    return out


def loop_entropies(candidates):
    """The per-candidate entropy of loop_entropy_argmin, one float each."""
    out = []
    for cand in candidates:
        c = np.asarray(cand, dtype=float)
        total = float(c.sum())
        s = c / total
        out.append(float(-(s * np.log(np.maximum(s, EPS))).sum()))
    return out


def loop_entropy_argmin(candidates):
    if not len(candidates):
        raise ValueError("need at least one candidate")
    best_idx = 0
    best_h = math.inf
    for i, cand in enumerate(candidates):
        c = np.asarray(cand, dtype=float)
        total = float(c.sum())
        if total <= 0:
            raise ValueError(f"candidate {i} has nonpositive mass")
        s = c / total
        h = float(-(s * np.log(np.maximum(s, EPS))).sum())
        if h < best_h:
            best_h = h
            best_idx = i
    return best_idx


@dataclass(frozen=True)
class TupleShortTermMemory:
    """The short-term memory lhnav.memory.ShortTermMemory replaced: a
    frozen pair of tuples, rebuilt by every append."""

    entries: tuple = ()
    confidences: tuple = ()

    def __post_init__(self):
        if len(self.entries) != len(self.confidences):
            raise ValueError("entries and confidences must have equal length")
        if len(self.entries) > CAPACITY:
            raise ValueError("memory exceeds capacity")
        if any(c <= 0 for c in self.confidences):
            raise ValueError("confidences must be positive")

    def __len__(self):
        return len(self.entries)

    def mean_entry(self):
        return np.mean(np.stack(self.entries), axis=0)


def loop_forget_and_append(mem, h_new, c_new):
    """forget_and_append of the tuple memory, with per-candidate loops for
    the pooling and the entropy argmin."""
    if c_new <= 0:
        raise ValueError("new confidence must be positive")
    entries = list(mem.entries)
    confs = list(mem.confidences)
    if len(entries) >= CAPACITY:
        idx = loop_entropy_argmin(loop_pool_candidates(confs))
        lo, hi = idx, idx + 2
        merged_entry = np.mean(np.stack(entries[lo:hi]), axis=0)
        merged_conf = float(np.mean(confs[lo:hi]))
        entries[lo:hi] = [merged_entry]
        confs[lo:hi] = [merged_conf]
    entries.append(np.asarray(h_new, dtype=float))
    confs.append(float(c_new))
    return TupleShortTermMemory(entries=tuple(entries), confidences=tuple(confs))


class HashEveryCall:
    """The coordinates of lhnav.policy.EmbeddingOracle before it kept
    them: a sha256 of the category on every call."""

    def index_for(self, name):
        digest = hashlib.sha256(f"lhnav-v1|{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % EMBED_DIM


def reference_embed(oracle, sightings):
    """The closest sighting of each category, embedded one view (or one
    observation) at a time, as lhnav.policy.EmbeddingOracle did before its
    one-pass form."""
    closest = {}
    for s in sightings:
        if s.category not in closest or s.range < closest[s.category]:
            closest[s.category] = s.range
    v = np.zeros(EMBED_DIM)
    if not closest:
        v[oracle.index_for("__void__")] = 1.0
        return v
    for category, rng in sorted(closest.items()):
        v[oracle.index_for(category)] += 1.0 / (1.0 + rng)
    return v / float(np.linalg.norm(v))


def loop_rank(bucket, query):
    """Indices of a list of (obs, act) pairs by descending cosine similarity
    to the query, insertion order on ties."""
    q = np.asarray(query, dtype=float)
    qn = float(np.linalg.norm(q))
    if qn == 0.0:
        raise ValueError("query embedding must be nonzero")
    sims = [float(np.dot(obs, q) / (np.linalg.norm(obs) * qn)) for obs, _ in bucket]
    order = sorted(range(len(bucket)), key=lambda j: (-sims[j], j))
    return order


# -- the memory policy sensing on every step ---------------------------------------


class SenseEveryStepPolicy:
    """The memory policy before it kept what it last sensed: every step
    observes, embeds and retrieves, even at the pose and for the target of
    the step before."""

    def __init__(self, backend, oracle, store):
        self.backend = backend
        self.oracle = oracle
        self.store = store
        self.memory = ShortTermMemory()

    def act(self, ctx):
        obs = world_observe(ctx.scene, ctx.state, ctx.robot)
        views, fused = self.oracle.embed(obs)
        decision, _ = self.backend.decide(ctx, views, self.memory)
        confidence = float(decision.max())
        top = self.store.retrieve_topk(ctx.scene.object(ctx.target_id).category, fused)
        if top:
            decision = weight_decision(decision, np.mean(top.acts, axis=0))
        action = Action(int(np.argmax(decision)))
        forget_and_append(self.memory, fused, confidence)
        return action


def sense_every_step_imitation_dataset(scene, trajectory, backend):
    """lhnav.policy.imitation_dataset before it sensed once per pose: every
    step observes and embeds, even at the pose of the step before."""
    robot = ROBOTS[trajectory.robot]
    oracle = EmbeddingOracle()
    mem = ShortTermMemory()
    dataset = []
    for _, steps, contexts in trajectory.replay(scene):
        for step, ctx in zip(steps, contexts):
            views, fused = oracle.embed(world_observe(scene, step.state, robot))
            x = backend.features(ctx.stage, views, mem)
            dataset.append((x, int(step.action)))
            forget_and_append(mem, fused, float(backend.probabilities(x).max()))
    return dataset


# -- the imitation loss as a per-sample loop ---------------------------------------
#
# The loop lhnav.policy.loss_and_grad replaced, kept line for line with the
# per-vector cross-entropy it called, so the batched form can be checked bit
# for bit against it.


def loop_cross_entropy(a, e):
    av = np.asarray(a, dtype=float)
    ev = np.asarray(e, dtype=float)
    return float(-(ev * np.log(np.clip(av, EPS, 1.0))).sum())


def loop_loss_and_grad(backend, X, y):
    n = X.shape[0]
    total = 0.0
    gW = np.zeros_like(backend.W)
    gb = np.zeros_like(backend.b)
    for i in range(n):
        x = X[i]
        p = backend.probabilities(x)
        e = one_hot(Action(int(y[i])))
        total += loop_cross_entropy(p, e)
        dlogits = p - e
        gW += np.outer(dlogits, x)
        gb += dlogits
    total /= n
    gW /= n
    gb /= n
    return total, np.concatenate([gW.ravel(), gb])


# -- sensing as a cell generator and a per-camera signed_angle --------------------
#
# The line of sight, observe and segment tagging that lhnav.world and
# lhnav.splitter replaced, kept line for line (signed_angle copied in), so
# the early-exit traversal, the inlined camera test, the per-position
# sensing memo and the once-per-step observations of a split can be checked
# bit for bit against them.


def signed_angle(deg):
    """Wrap an angle difference into (-180, 180]."""
    a = deg % 360.0
    return a - 360.0 if a > 180.0 else a


def cells_on_segment(scene, a, b):
    """Yield every grid cell the segment from a to b passes through.

    Amanatides-Woo traversal; on an exact corner tie the column advances
    first, which makes occlusion deterministic.
    """
    cs = scene.cell_size
    (x0, y0), (x1, y1) = a, b
    row = int(math.floor(y0 / cs))
    col = int(math.floor(x0 / cs))
    row1 = int(math.floor(y1 / cs))
    col1 = int(math.floor(x1 / cs))
    yield (row, col)
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
    remaining = abs(row1 - row) + abs(col1 - col) + 4
    while (row, col) != (row1, col1) and remaining > 0:
        if t_max_x <= t_max_y:
            col += step_c
            t_max_x += t_delta_x
        else:
            row += step_r
            t_max_y += t_delta_y
        remaining -= 1
        yield (row, col)


def reference_line_of_sight(scene, a, b):
    """True when the straight segment from a to b crosses no occupied cell."""
    return all(scene.is_free(r, c) for r, c in cells_on_segment(scene, a, b))


def reference_observe(scene, state, robot=None):
    robot = robot or ROBOTS["spot"]
    half_fov = robot.fov_per_camera / 2.0
    buckets = {name: [] for name, _ in CAMERA_OFFSETS}
    ax, ay = state.position
    for obj in scene.objects:
        dx = obj.position[0] - ax
        dy = obj.position[1] - ay
        rng = math.hypot(dx, dy)
        if rng > robot.sensing_range:
            continue
        bearing = 0.0 if rng < 1e-9 else signed_angle(math.degrees(math.atan2(dy, dx)) - state.heading)
        camera = None
        for name, offset in CAMERA_OFFSETS:
            if abs(signed_angle(bearing - offset)) <= half_fov:
                camera = name
                break
        if camera is None:
            continue
        if not reference_line_of_sight(scene, state.position, obj.position):
            continue
        buckets[camera].append(
            SightedObject(object_id=obj.id, category=obj.category, bearing=bearing, range=rng)
        )
    views = tuple(
        View(direction=name, offset=offset, objects=tuple(sorted(buckets[name], key=lambda s: (s.range, s.object_id))))
        for name, offset in CAMERA_OFFSETS
    )
    return Observation(views=views)


def reference_tag_segment(scene, steps, segment, robot=None):
    """Tags of a segment, observing each of its steps afresh."""
    lo = max(segment.start, 0)
    hi = min(segment.end, len(steps) - 1)
    if lo > hi:
        raise ValueError(f"segment [{segment.start}, {segment.end}] out of range")
    counts = Counter()
    n_steps = hi - lo + 1
    for idx in range(lo, hi + 1):
        state = steps[idx].state
        obs = reference_observe(scene, state, robot)
        seen = {o.category for o in obs.visible()}
        for cat in seen:
            counts[(cat, "object")] += 1
        region = scene.region_at(scene.cell_of(state.position))
        if region is not None:
            counts[(region.label, "region")] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
    return tuple(
        Tag(name=name, kind=kind, confidence=count / n_steps)
        for (name, kind), count in ranked[:5]
    )


# -- geodesic fields on (row, col) tuples and (axis, diag) step pairs -------------
#
# The move table, Dijkstra field and waypoint choice that lhnav.expert
# replaced with flat cell indices, kept line for line, so the flat lists can
# be checked bit for bit against them.  The one change: the move table is
# built by the caller and passed in, not cached on the scene, whose cache
# slot now holds the flat table.

SQRT2 = math.sqrt(2.0)


def steps_to_meters(axis, diag, cell_size):
    """Canonical conversion from step counts to meters."""
    return (axis + diag * SQRT2) * cell_size


class StepPairField:
    """Distances from one source cell to every reachable cell."""

    def __init__(self, steps, cell_size):
        self.steps = steps  # cell -> (axis, diag)
        self.cell_size = cell_size

    def distance(self, cell):
        s = self.steps.get(cell)
        if s is None:
            return math.inf
        return steps_to_meters(s[0], s[1], self.cell_size)

    def value(self, cell):
        """The distance in cells, axis + diag * SQRT2, as a field stores it."""
        s = self.steps.get(cell)
        if s is None:
            return math.inf
        return s[0] + s[1] * SQRT2


def grid_neighbors(scene, cell):
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


def reference_neighbor_table(scene):
    """Every free cell's grid_neighbors moves, in the same order."""
    return {cell: tuple(grid_neighbors(scene, cell)) for cell in free_cells(scene)}


def reference_compute_field(scene, source, moves):
    """Dijkstra over the 8-connected grid from a source cell."""
    if source not in moves:
        raise ValueError(f"source cell {source} is occupied")
    steps = {source: (0, 0)}
    # priority uses the float value axis + diag * SQRT2; distinct (axis,
    # diag) pairs cannot collide at grid scale because sqrt(2) is irrational
    value = {source: 0.0}
    heap = [(0.0, *source)]
    done = set()
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
    return StepPairField(steps=steps, cell_size=scene.cell_size)


def reference_next_waypoint(scene, field, cell, moves):
    """The adjacent cell that strictly descends the distance field; the
    fixed grid_neighbors order keeps the choice deterministic."""
    best = None
    best_key = field.steps[cell]
    best_val = best_key[0] + best_key[1] * SQRT2
    for nb, _ in moves[cell]:
        s = field.steps.get(nb)
        if s is None:
            continue
        val = s[0] + s[1] * SQRT2
        if val < best_val:
            best_val = val
            best = nb
    return best


# -- the judge and the expert on (scene, state, target) ----------------------------

# subtask_success and expert_next_action as they were before a step context
# kept the pose's cell and the target's field, kept line for line: each looks
# up the target, its field and the pose's cell on its own, so the context's
# shared lookups can be checked against them.


def reference_subtask_success(scene, state, target):
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


def reference_expert_next_action(scene, state, target, robot, at_target):
    """Greedy pathfinder step toward a target object.

    Stops when at_target, the caller's subtask_success verdict on this
    state and target, holds; otherwise turns toward the next waypoint while
    the heading error exceeds half a turn step, then moves forward.  A 180
    degree tie turns left.
    """
    if at_target:
        return Action.STOP
    obj = scene.object(target)
    field = field_from(scene, scene.cell_of(obj.position))
    row, col = scene.cell_of(state.position)
    i = row * scene.cols + col
    if field.value[i] == UNREACHABLE:
        raise UnreachableTargetError(f"target {target!r} unreachable from {(row, col)}")
    waypoint = _next_waypoint(scene, field, i)
    if waypoint is None:  # only the target cell itself has no descent
        aim = obj.position
    else:
        aim = scene.cell_center(divmod(waypoint, scene.cols))
    error = bearing_to(state, aim)
    if abs(error) <= robot.turn_step / 2.0:
        return Action.MOVE_FORWARD
    return Action.TURN_LEFT if error > 0 else Action.TURN_RIGHT


# -- grab and release as their own success checks ----------------------------------

# The grab and release that lhnav.world held before the runner took them
# over, kept line for line: each judges the success predicate on the state
# again, so the runner's reuse of its move window's verdict can be checked
# against them.


def reference_apply_grab(scene, state, object_id):
    """Pick up an object: requires an empty arm and the success predicate."""
    obj = scene.object(object_id)
    if state.holding is not None:
        return state, False
    if not obj.portable:
        return state, False
    if not reference_subtask_success(scene, state, object_id):
        return state, False
    return replace(state, holding=object_id), True


def reference_apply_release(scene, state, object_id, place_id):
    """Put down the held object at a place (the preceding move target)."""
    scene.object(object_id)
    if state.holding != object_id:
        return state, False
    if not reference_subtask_success(scene, state, place_id):
        return state, False
    return replace(state, holding=None), True


# -- the agent step and the step line through dataclasses ---------------------------
#
# The apply_action that rebuilt its state with dataclasses.replace and the
# dict that Trajectory.save encoded for each step before lhnav.world and
# lhnav.trajectory built them directly, kept line for line.


def reference_apply_action(scene, state, action, robot):
    if action == Action.STOP:
        return StepResult(state)
    if action == Action.TURN_LEFT:
        return StepResult(replace(state, heading=normalize_heading(state.heading + robot.turn_step)))
    if action == Action.TURN_RIGHT:
        return StepResult(replace(state, heading=normalize_heading(state.heading - robot.turn_step)))
    rad = math.radians(state.heading)
    x, y = state.position
    nx = x + robot.forward_step * math.cos(rad)
    ny = y + robot.forward_step * math.sin(rad)
    row, col = scene.cell_of((nx, ny))
    r0, c0 = scene.cell_of(state.position)
    shut = row != r0 and col != c0 and not (scene.is_free(r0, col) or scene.is_free(row, c0))
    if shut or not scene.is_free(row, col):
        return StepResult(state, collided=True)
    return StepResult(replace(state, position=(nx, ny)))


def step_record_dict(index, step):
    """The dict of the StepRecord at place index whose canonical JSON was
    its step line."""
    return {
        "i": index,
        "pose": [step.state.position[0], step.state.position[1], step.state.heading],
        "holding": step.state.holding,
        "action": ACTION_NAMES[step.action],
        "collided": step.collided,
    }


# -- sensing through a loop over the camera axes ----------------------------------
#
# The _sight_lines and observe that lhnav.world replaced with written-out
# camera tests and records built through their own __init__, kept line for
# line but for two things: the lines are worked out on every call, not kept
# on the scene (whose memo slot now holds the new lines), and the line of
# sight is reference_line_of_sight.  Neither changes an output.

LOOP_CAMERA_AXES = tuple(offset for _, offset in CAMERA_OFFSETS)


def loop_sight_lines(scene, position, sensing_range):
    ax, ay = position
    lines = []
    for obj in scene.objects:
        dx = obj.position[0] - ax
        dy = obj.position[1] - ay
        rng = math.hypot(dx, dy)
        if rng > sensing_range:
            continue
        deg = None if rng < 1e-9 else math.degrees(math.atan2(dy, dx))
        lines.append([obj, rng, deg, None])
    lines.sort(key=lambda line: (line[1], line[0].id))
    return lines


def loop_observe(scene, state, robot):
    half_fov = robot.fov_per_camera / 2.0
    heading = state.heading
    # the lines come sorted by (range, id), so every bucket is too
    buckets = ([], [], [])
    for line in loop_sight_lines(scene, state.position, robot.sensing_range):
        obj, rng, deg, clear = line
        # the wraps are signed_angle written out, arithmetic unchanged
        if deg is None:
            bearing = 0.0
        else:
            bearing = (deg - heading) % 360.0
            if bearing > 180.0:
                bearing -= 360.0
        for camera, offset in enumerate(LOOP_CAMERA_AXES):
            off_axis = (bearing - offset) % 360.0
            if off_axis > 180.0:
                off_axis -= 360.0
            if -half_fov <= off_axis <= half_fov:
                break
        else:
            continue
        if clear is None:
            clear = line[3] = reference_line_of_sight(scene, state.position, obj.position)
        if clear:
            buckets[camera].append(
                SightedObject(object_id=obj.id, category=obj.category, bearing=bearing, range=rng)
            )
    views = tuple(
        View(direction=name, offset=offset, objects=tuple(bucket))
        for (name, offset), bucket in zip(CAMERA_OFFSETS, buckets)
    )
    return Observation(views=views)


# -- trajectory reads through per-pose generators and a set difference -------------
#
# The StepRecord.from_dict and _saved_state that lhnav.trajectory replaced
# with written-out pose checks and an issuperset key test, kept line for
# line, so Trajectory.load can be run through them and checked record for
# record and message for message.

REFERENCE_STEP_KEYS = {"i", "pose", "holding", "action", "collided"}


def reference_saved_state(pose, holding):
    # the bound also rejects NaN, and an integer too large for a float
    if type(pose) is not list or len(pose) != 3 or not all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max for v in pose
    ):
        raise ValueError(f"a pose is three finite numbers, not {pose!r}")
    if not (holding is None or type(holding) is str):
        raise ValueError(f"holding must be null or an object id, not {holding!r}")
    return AgentState(position=(pose[0], pose[1]), heading=pose[2], holding=holding)


def reference_step_from_dict(d):
    unknown = set(d) - REFERENCE_STEP_KEYS
    if unknown:
        raise TypeError(f"unknown step keys {sorted(unknown)}")
    if type(d["i"]) is not int:
        raise TypeError(f"i must be an integer, not {d['i']!r}")
    if type(d["collided"]) is not bool:
        raise TypeError(f"collided must be a bool, not {d['collided']!r}")
    return StepRecord(
        state=reference_saved_state(d["pose"], d.get("holding")),
        action=ACTION_BY_NAME[d["action"]],
        collided=d["collided"],
    )


# -- records built by the generated frozen-dataclass __init__ -----------------------


def dataclass_built(cls, *args, **kwargs):
    """A cls record built by the __init__ that @dataclass(frozen=True)
    generates for cls's fields (one object.__setattr__ per field), not by
    cls's own __init__."""
    twin = dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(default=f.default)) for f in dataclasses.fields(cls)],
        frozen=True,
    )
    record = object.__new__(cls)
    twin.__init__(record, *args, **kwargs)
    return record


# -- scene checks, a character at a time -------------------------------------------
#
# The Scene._validate that lhnav.world replaced with a set test per row and
# one bound is_free per region cell, kept line for line (a function of the
# scene), so each error and the first bad row or cell that its message
# names can be checked against it.


def loop_validate(scene):
    if not 0 < scene.cell_size < math.inf:
        raise SceneValidationError(
            f"cell_size must be positive and finite, got {scene.cell_size}"
        )
    if not scene.grid or not scene.grid[0]:
        raise SceneValidationError("grid must be nonempty")
    width = len(scene.grid[0])
    for i, row in enumerate(scene.grid):
        if len(row) != width:
            raise SceneValidationError(f"row {i} has inconsistent width")
        if any(ch not in (OCCUPIED, FREE) for ch in row):
            raise SceneValidationError(f"row {i} contains invalid characters")
    border = (
        all(ch == OCCUPIED for ch in scene.grid[0])
        and all(ch == OCCUPIED for ch in scene.grid[-1])
        and all(row[0] == OCCUPIED and row[-1] == OCCUPIED for row in scene.grid)
    )
    if not border:
        raise SceneValidationError("grid must be bordered by occupied cells")
    if len(scene._regions_by_id) != len(scene.regions):
        raise SceneValidationError("region ids must be unique")
    seen_cells = set()
    for r in scene.regions:
        for cell in r.cells:
            if not scene.is_free(*cell):
                raise SceneValidationError(
                    f"region {r.id!r} contains occupied cell {cell}"
                )
            if cell in seen_cells:
                raise SceneValidationError(f"cell {cell} assigned to two regions")
            seen_cells.add(cell)
    if len(scene._objects_by_id) != len(scene.objects):
        raise SceneValidationError("object ids must be unique")
    for o in scene.objects:
        if not o.category:
            raise SceneValidationError(f"object {o.id!r} has empty category")
        if o.region_id not in scene._regions_by_id:
            raise SceneValidationError(
                f"object {o.id!r} references unknown region {o.region_id!r}"
            )
        cell = scene.cell_of(o.position)
        if not scene.is_free(*cell):
            raise SceneValidationError(f"object {o.id!r} sits in occupied cell")
        region = scene._region_of_cell.get(cell)
        if region is None or region.id != o.region_id:
            raise SceneValidationError(
                f"object {o.id!r} lies outside its region {o.region_id!r}"
            )
