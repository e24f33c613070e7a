"""Step-level trajectory records shared by the expert generator and the runner.

A trajectory file is JSONL: one header line carrying episode identity and
the config hash, then one line per step record.  Loading a saved trajectory
reproduces it exactly.

A step line is the canonical JSON of its record (sorted keys, no spaces),
written by one format string, StepRecord.line, rather than through a dict
and the JSON encoder: the action name, the collided flag, the holding as a
JSON string or null, the step's place as its index (the record keeps no
index), and the pose's three numbers, which print as the encoder prints an
int or a float, by repr.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .files import InputFileError, read_lines, write_lines
from .taskforge import GRAB, MOVE_TO, RELEASE
from .world import (
    ACTION_BY_NAME, ACTION_NAMES, Action, AgentState, Scene, StepContext, stock_robot,
    validate_state,
)


_STEP_KEYS = {"i", "pose", "holding", "action", "collided"}
# the keys in sorted order, as the canonical encoder writes them
_STEP_LINE = '{"action":"%s","collided":%s,"holding":%s,"i":%d,"pose":[%r,%r,%r]}'


def _saved_state(pose, holding) -> AgentState:
    """The state of a saved [x, y, heading] pose and holding; a ValueError
    unless the pose is three finite numbers and holding None or a string."""
    # the bound also rejects NaN, and an integer too large for a float
    if type(pose) is not list or len(pose) != 3 or not all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max for v in pose
    ):
        raise ValueError(f"a pose is three finite numbers, not {pose!r}")
    if not (holding is None or type(holding) is str):
        raise ValueError(f"holding must be null or an object id, not {holding!r}")
    return AgentState(position=(pose[0], pose[1]), heading=pose[2], holding=holding)


@dataclass(frozen=True)
class StepRecord:
    state: AgentState  # pose before the action
    action: Action
    collided: bool

    def line(self, index: int) -> str:
        """The record's canonical JSON line at place index, without the
        newline; the pose's numbers are Python ints or floats, as every state is."""
        state = self.state
        holding = state.holding
        return _STEP_LINE % (
            ACTION_NAMES[self.action],
            "true" if self.collided else "false",
            "null" if holding is None else json.dumps(holding),
            index,
            state.position[0],
            state.position[1],
            state.heading,
        )

    @classmethod
    def from_dict(cls, d: dict) -> "StepRecord":
        """The inverse of line, once parsed, but for the index, which load checks;
        holding may be left out.  An unknown key, an index that is not an int or
        a collided that is not a bool is a TypeError, a bad pose or holding a ValueError."""
        unknown = set(d) - _STEP_KEYS
        if unknown:
            raise TypeError(f"unknown step keys {sorted(unknown)}")
        if type(d["i"]) is not int:
            raise TypeError(f"i must be an integer, not {d['i']!r}")
        if type(d["collided"]) is not bool:
            raise TypeError(f"collided must be a bool, not {d['collided']!r}")
        return cls(
            state=_saved_state(d["pose"], d.get("holding")),
            action=ACTION_BY_NAME[d["action"]],
            collided=d["collided"],
        )


@dataclass(frozen=True)
class SubtaskSpan:
    """One subtask's slice of the step list; end is exclusive."""

    index: int
    kind: str         # move_to | grab | release
    target_id: str
    start: int
    end: int
    gt: float         # geodesic distance at subtask start (move_to only)
    interaction_ok: bool | None = None  # grab/release outcome

    def __post_init__(self) -> None:
        if not all(type(v) is int for v in (self.index, self.start, self.end)):
            raise TypeError("index, start and end must be integers")
        if self.kind not in (MOVE_TO, GRAB, RELEASE):
            raise ValueError(f"unknown subtask kind {self.kind!r}")
        if type(self.target_id) is not str:
            raise TypeError(f"target_id must be a string, not {self.target_id!r}")
        # the bound also rejects NaN
        if type(self.gt) not in (int, float) or not 0 <= self.gt <= sys.float_info.max:
            raise ValueError(f"gt must be a finite number >= 0, not {self.gt!r}")
        if not (self.interaction_ok is None or type(self.interaction_ok) is bool):
            raise TypeError(f"interaction_ok must be null or a bool, not {self.interaction_ok!r}")


@dataclass
class Trajectory:
    task_id: str
    scene_id: str
    robot: str
    steps: list[StepRecord]
    spans: list[SubtaskSpan]
    final_state: AgentState
    config_hash: str = ""
    seed: int = 0

    def actions(self, span: SubtaskSpan | None = None) -> list[Action]:
        records = self.steps if span is None else self.steps[span.start : span.end]
        return [r.action for r in records]

    def replay(self, scene: Scene):
        """(span, steps, contexts) for each move_to window in order: the
        window's span and steps, and contexts[i], the StepContext of
        steps[i], whose stage is the window's ordinal, new at the window's
        start and wherever the recorded state changes value, as run_episode
        makes them.  The trajectory is checked against the scene on this
        call: another scene, a span target that the scene lacks, or a step
        state that validate_state rejects raise a ValueError."""
        if scene.scene_id != self.scene_id:
            raise ValueError(f"trajectory from scene {self.scene_id!r}, not {scene.scene_id!r}")
        for i, step in enumerate(self.steps):
            try:
                validate_state(scene, step.state)
            except ValueError as exc:
                raise ValueError(f"step {i}: {exc}") from exc
        for span in self.spans:
            if not scene.has_object(span.target_id):
                raise ValueError(
                    f"subtask {span.index} targets {span.target_id!r}, "
                    f"which is not in scene {self.scene_id!r}"
                )
        robot = stock_robot(self.robot)
        windows = [span for span in self.spans if span.kind == MOVE_TO]

        def walk():
            for stage, span in enumerate(windows):
                steps = self.steps[span.start : span.end]
                contexts, ctx = [], None
                for step in steps:
                    if ctx is None or ctx.state != step.state:
                        ctx = StepContext(scene, step.state, robot, span.target_id, stage)
                    contexts.append(ctx)
                yield span, steps, contexts

        return walk()

    def save(self, path: str | Path) -> None:
        header = {
            "task_id": self.task_id,
            "scene_id": self.scene_id,
            "robot": self.robot,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "final_pose": [*self.final_state.position, self.final_state.heading],
            "final_holding": self.final_state.holding,
            "spans": [vars(s) for s in self.spans],
        }
        write_lines(path, [header], [step.line(i) for i, step in enumerate(self.steps)])

    @classmethod
    def load(cls, path: str | Path) -> "Trajectory":
        """A trajectory written by save; a missing file, a line that does
        not parse, an unknown robot, an id or config hash that is not a
        string, a seed that is not an int, a span field that SubtaskSpan
        rejects, steps and spans that do not number
        the whole episode (a cut file), or a stop that does not end a
        move_to window raise an InputFileError naming the path and, where
        one is at fault, the line."""
        lines = read_lines(path)
        number, header = next(lines, (0, None))
        if not isinstance(header, dict) or "final_pose" not in header:
            raise InputFileError(f"trajectory file {path} has no header line")
        try:
            fields = dict(
                task_id=header["task_id"],
                scene_id=header["scene_id"],
                robot=stock_robot(header["robot"]).name,
                spans=[SubtaskSpan(**s) for s in header["spans"]],
                final_state=_saved_state(header["final_pose"], header.get("final_holding")),
                config_hash=header.get("config_hash", ""),
                seed=header.get("seed", 0),
            )
            for key in ("task_id", "scene_id", "config_hash"):
                if type(fields[key]) is not str:
                    raise TypeError(f"{key} must be a string, not {fields[key]!r}")
            if type(fields["seed"]) is not int:
                raise TypeError(f"seed must be an integer, not {fields['seed']!r}")
            # the spans tile the steps in order; end is where the last stops
            end = 0
            for span in fields["spans"]:
                if span.start != end or not span.start <= span.end:
                    raise ValueError(
                        f"subtask {span.index} spans steps {span.start}..{span.end}, "
                        f"not from step {end} on"
                    )
                end = span.end
            # a window's actions end at its one stop, if it has one
            stop_at = {span.end - 1 for span in fields["spans"] if span.kind == MOVE_TO}
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFileError(f"{path} line {number}: not a trajectory header ({exc!r})") from exc
        steps = []
        for i, (number, record) in enumerate(lines):
            try:
                step = StepRecord.from_dict(record)
            except (KeyError, TypeError, ValueError) as exc:
                raise InputFileError(f"{path} line {number}: not a step record ({exc!r})") from exc
            if record["i"] != i:
                raise InputFileError(f"{path} line {number}: step {record['i']} where {i} was due")
            if step.action == Action.STOP and i not in stop_at:
                raise InputFileError(
                    f"{path} line {number}: step {i} is a stop that does not end a move window"
                )
            steps.append(step)
        if end != len(steps):
            raise InputFileError(f"{path}: the spans end at step {end}, the steps at {len(steps)}")
        return cls(steps=steps, **fields)
