import itertools
import random

import pytest

from lhnav.splitter import (
    FORWARD,
    Segment,
    Tag,
    TURN_LEFT,
    TURN_RIGHT,
    merge_records,
    render_step_instruction,
    split_trajectory,
    tag_segment,
    turn_records,
)
from lhnav.world import Action, AgentState, ROBOTS, StepContext
from lhnav.trajectory import StepRecord

from conftest import scene_from
from reference_impls import reference_split

SPOT = ROBOTS["spot"]


def seg_tuples(segments):
    return [(s.label, s.start, s.end) for s in segments]


class TestTurnRecords:
    def test_worked_fixture_records(self):
        sym = "FFLLFFFRRF"
        assert turn_records(sym, "L") == [(2, 3, "L")]
        assert turn_records(sym, "R") == [(7, 8, "R")]

    def test_pure_turn_trace_records_and_merge(self):
        records = turn_records("LLLLLL", "L")
        assert records == [(0, 1, "L"), (2, 3, "L")]
        assert merge_records(records) == [(0, 3, "L")]  # 2 <= 1 + 3

    def test_last_three_actions_never_open_a_window(self):
        assert turn_records("FFFLL", "L") == []  # window stops at len-3


class TestSplitTrajectory:
    def test_worked_fixture_segments(self):
        got = split_trajectory("FFLLFFFRRF")
        assert seg_tuples(got) == [
            (FORWARD, 0, 1),
            (TURN_LEFT, 1, 4),
            (FORWARD, 4, 6),
            (TURN_RIGHT, 6, 9),
            (FORWARD, 9, 9),
        ]

    def test_pure_forward_single_segment(self):
        assert seg_tuples(split_trajectory("FFFF")) == [(FORWARD, 0, 3)]

    def test_pure_turns_merge_to_single_turn_segment(self):
        got = split_trajectory("LLLLLL")
        turn_segs = [s for s in got if s.label == TURN_LEFT]
        assert len(turn_segs) == 1
        assert turn_segs[0].start == 0 and turn_segs[0].end == 4

    def test_accepts_action_enums(self):
        actions = [Action.MOVE_FORWARD, Action.MOVE_FORWARD, Action.TURN_LEFT]
        assert seg_tuples(split_trajectory(actions)) == [(FORWARD, 0, 2)]

    def test_stop_in_trace_rejected(self):
        with pytest.raises(ValueError):
            split_trajectory([Action.MOVE_FORWARD, Action.STOP])

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            split_trajectory("")

    def test_exhaustive_short_traces_match_reference(self):
        # lengths 1..9 here; the acceptance suite covers all of length 10
        for n in range(1, 10):
            for combo in itertools.product("FLR", repeat=n):
                sym = "".join(combo)
                _, expected = reference_split(sym)
                assert seg_tuples(split_trajectory(sym)) == expected, sym

    def test_random_long_traces_match_reference(self):
        rng = random.Random(31)
        for _ in range(2000):
            n = rng.randint(1, 200)
            sym = "".join(rng.choice("FLR") for _ in range(n))
            _, expected = reference_split(sym)
            assert seg_tuples(split_trajectory(sym)) == expected

    def test_turn_cores_ordered_and_label_dominant(self):
        rng = random.Random(8)
        for _ in range(2000):
            n = rng.randint(4, 60)
            sym = "".join(rng.choice("FFLR") for _ in range(n))
            records = merge_records(
                sorted(turn_records(sym, "L") + turn_records(sym, "R"))
            )
            for (s1, e1, l1), (s2, e2, l2) in zip(records, records[1:]):
                assert s1 <= s2  # sorted by start
            for start, end, label in records:
                core = sym[start : end + 1]
                other = "R" if label == "L" else "L"
                assert core.count(label) >= core.count(other)


class TestTagSegment:
    def _steps_along(self, scene, cells, heading=0.0):
        return [
            StepRecord(
                state=AgentState(position=scene.cell_center(c), heading=heading),
                action=Action.MOVE_FORWARD,
                collided=False,
            )
            for c in cells
        ]

    def _tag(self, scene, steps, segment):
        contexts = [StepContext(scene, s.state, SPOT, "", 0) for s in steps]
        return tag_segment(contexts, segment)

    def test_region_and_object_tags(self, corridor_scene):
        steps = self._steps_along(corridor_scene, [(1, 1), (1, 2), (1, 3)])
        tags = self._tag(corridor_scene, steps, Segment(FORWARD, 0, 2))
        names = {t.name for t in tags}
        assert "corridor" in names  # agent's region
        assert "box" in names       # visible down the corridor

    def test_empty_view_gives_region_only(self):
        rows = ["#####", "#...#", "#####"]
        scene = scene_from(rows, objects=[], label="vestibule")
        steps = self._steps_along(scene, [(1, 1), (1, 2)])
        tags = self._tag(scene, steps, Segment(FORWARD, 0, 1))
        assert [t.name for t in tags] == ["vestibule"]
        assert tags[0].kind == "region"
        assert tags[0].confidence == 1.0

    def test_deterministic(self, open_scene):
        steps = self._steps_along(open_scene, [(2, 2), (2, 3), (2, 4)], heading=0.0)
        seg = Segment(FORWARD, 0, 2)
        assert self._tag(open_scene, steps, seg) == self._tag(open_scene, steps, seg)

    def test_top_five_cap(self, open_scene):
        steps = self._steps_along(open_scene, [(4, 4)])
        tags = self._tag(open_scene, steps, Segment(FORWARD, 0, 0))
        assert len(tags) <= 5


class TestRenderStepInstruction:
    def _seg(self, label, tags):
        return Segment(label, 0, 0, tags=tuple(tags))

    def test_three_segment_structure(self):
        segs = [
            self._seg(FORWARD, [Tag("store", "region", 1.0)]),
            self._seg(TURN_LEFT, [Tag("equipment", "object", 1.0)]),
            self._seg(FORWARD, [Tag("shelf", "object", 1.0)]),
        ]
        task = render_step_instruction("guitar case", segs)
        assert task.instruction == (
            "Move forward through the store and make a left turn at the "
            "equipment, finally go straight to the guitar case."
        )
        assert len(task.steps) == 3
        assert task.steps[-1] == (FORWARD, "guitar case")

    def test_single_forward_segment_one_clause(self):
        segs = [self._seg(FORWARD, [Tag("hall", "region", 1.0)])]
        task = render_step_instruction("box", segs)
        assert task.instruction == "Go straight to the box."

    def test_turn_without_object_tags_falls_back_to_region(self):
        segs = [
            self._seg(TURN_LEFT, [Tag("kitchen", "region", 1.0)]),
            self._seg(FORWARD, [Tag("kitchen", "region", 1.0)]),
        ]
        task = render_step_instruction("kettle", segs)
        assert "make a left turn at the kitchen" in task.instruction.lower()

    def test_target_mentioned_exactly_once_at_end(self):
        segs = [
            self._seg(FORWARD, [Tag("mug", "object", 1.0), Tag("den", "region", 0.5)]),
            self._seg(TURN_RIGHT, [Tag("mug", "object", 1.0)]),
            self._seg(FORWARD, [Tag("mug", "object", 1.0)]),
        ]
        task = render_step_instruction("mug", segs)
        assert task.instruction.count("mug") == 1
        assert task.instruction.endswith("go straight to the mug.")

    def test_step_count_equals_segment_count(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randint(1, 8)
            segs = [
                self._seg(
                    rng.choice([FORWARD, TURN_LEFT, TURN_RIGHT]),
                    [Tag("spot", "region", 1.0), Tag("crate", "object", 0.5)],
                )
                for _ in range(n)
            ]
            task = render_step_instruction("target thing", segs)
            assert len(task.steps) == n

    def test_no_segments_rejected(self):
        with pytest.raises(ValueError):
            render_step_instruction("box", [])
