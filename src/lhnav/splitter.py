"""Split single-stage action traces into labeled segments and render them as
step-by-step instructions.

Segmentation slides a 3-wide window over the trace for each turn symbol.
A window holding at least two occurrences yields a turn record spanning the
first two of them, and scanning resumes right after the second.  Sorted
records merge when a same-label successor starts within three indices of
the previous end.  Merged records become turn segments padded by one action
of context on each side, with move-forward filler segments between them.

The printed recipe drops any actions after the last turn record; since a
step-by-step task has to end at its target, a trailing move-forward
segment covers that tail, and a turn-free trace is a single forward
segment.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .world import Action

FORWARD = "move_forward"
TURN_LEFT = "turn_left"
TURN_RIGHT = "turn_right"

_SYMBOLS = {"F": FORWARD, "L": TURN_LEFT, "R": TURN_RIGHT}
_ACTION_SYMBOLS = {
    Action.MOVE_FORWARD: "F",
    Action.TURN_LEFT: "L",
    Action.TURN_RIGHT: "R",
}


@dataclass(frozen=True)
class Tag:
    name: str
    kind: str  # "object" | "region"
    confidence: float


@dataclass(frozen=True)
class Segment:
    label: str  # move_forward | turn_left | turn_right
    start: int  # inclusive index into the action trace
    end: int    # inclusive
    tags: tuple[Tag, ...] = ()


@dataclass(frozen=True)
class StepByStepTask:
    target: str
    steps: tuple[tuple[str, str], ...]  # (action label, chosen tag)
    instruction: str
    source_task_id: str = ""
    source_subtask: int = -1


def normalize_actions(actions) -> str:
    """Coerce a trace of Action values or F/L/R symbols into a symbol string."""
    out = []
    for a in actions:
        if isinstance(a, Action):
            if a == Action.STOP:
                raise ValueError("strip the trailing stop before splitting")
            out.append(_ACTION_SYMBOLS[a])
        elif a in _SYMBOLS:
            out.append(a)
        else:
            raise ValueError(f"unknown action symbol {a!r}")
    return "".join(out)


def turn_records(symbols: str, turn: str) -> list[tuple[int, int, str]]:
    """Scan one turn symbol, recording the first two occurrences of every
    firing window and resuming after the second."""
    records = []
    i, n = 0, len(symbols)
    while i < n - 3:
        window = symbols[i : i + 3]
        if window.count(turn) >= 2:
            hits = [i + k for k, s in enumerate(window) if s == turn]
            first, second = hits[0], hits[1]
            records.append((first, second, turn))
            i = second + 1
        else:
            i += 1
    return records


def merge_records(records: list[tuple[int, int, str]]) -> list[tuple[int, int, str]]:
    """Fuse sorted records whose same-label successor starts within 3 of the
    previous end."""
    if not records:
        return []
    merged = []
    c_start, c_end, c_label = records[0]
    for start, end, label in records[1:]:
        if start <= c_end + 3 and label == c_label:
            c_end = max(c_end, end)
        else:
            merged.append((c_start, c_end, c_label))
            c_start, c_end, c_label = start, end, label
    merged.append((c_start, c_end, c_label))
    return merged


def split_trajectory(actions) -> list[Segment]:
    """Segment an action trace over {F, L, R}."""
    symbols = normalize_actions(actions)
    if not symbols:
        raise ValueError("action trace must be nonempty")
    n = len(symbols)
    records = sorted(turn_records(symbols, "L") + turn_records(symbols, "R"))
    merged = merge_records(records)
    if not merged:
        return [Segment(FORWARD, 0, n - 1)]
    segments: list[Segment] = []
    last_end = -1
    for start, end, label in merged:
        if last_end + 2 < start:
            segments.append(Segment(FORWARD, last_end + 1, start - 1))
        segments.append(Segment(_SYMBOLS[label], max(start - 1, 0), min(end + 1, n - 1)))
        last_end = end
    if last_end + 1 <= n - 1:
        segments.append(Segment(FORWARD, last_end + 1, n - 1))
    return segments


# -- tagging ------------------------------------------------------------------


def tag_segment(contexts, segment: Segment) -> tuple[Tag, ...]:
    """Most frequent visible object categories and region labels over the
    segment's steps, occurrence fraction as confidence, top five.

    contexts[i] is the StepContext of step i of the window the segment
    indices refer to, as Trajectory.replay yields them: a step's tags read
    its context's observation and state, so overlapping segments, and the
    steps at one pose, sense it once.  Deterministic stand-in for a learned
    image tagger.
    """
    lo = max(segment.start, 0)
    hi = min(segment.end, len(contexts) - 1)
    if lo > hi:
        raise ValueError(f"segment [{segment.start}, {segment.end}] out of range")
    counts: Counter[tuple[str, str]] = Counter()
    n_steps = hi - lo + 1
    for ctx in contexts[lo : hi + 1]:
        for cat in {o.category for o in ctx.observation.visible()}:
            counts[(cat, "object")] += 1
        region = ctx.scene.region_at(ctx.scene.cell_of(ctx.state.position))
        if region is not None:
            counts[(region.label, "region")] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
    return tuple(
        Tag(name=name, kind=kind, confidence=count / n_steps)
        for (name, kind), count in ranked[:5]
    )


# -- instruction rendering -----------------------------------------------------

_GENERIC_TAG = "open area"


def _choose_tag(segment: Segment, target: str) -> str:
    """One tag per step: forward steps prefer region tags, turns prefer
    object tags; the target category itself never serves as a waypoint."""
    preferred = "region" if segment.label == FORWARD else "object"
    candidates = [t for t in segment.tags if t.name != target]
    for kind in (preferred, "region" if preferred == "object" else "object"):
        pool = [t for t in candidates if t.kind == kind]
        if pool:
            top_conf = max(t.confidence for t in pool)
            return min(t.name for t in pool if t.confidence == top_conf)
    return _GENERIC_TAG


def render_step_instruction(
    target: str,
    segments: list[Segment],
    source_task_id: str = "",
    source_subtask: int = -1,
) -> StepByStepTask:
    """Compose a step-by-step instruction from tagged segments.

    One clause per segment in trace order; the final clause always walks
    straight to the target, which is mentioned exactly once.
    """
    if not segments:
        raise ValueError("need at least one segment")
    last = len(segments) - 1
    steps, clauses = [], []
    for i, seg in enumerate(segments):
        if seg.label == FORWARD and i == last:
            tag = target  # the walk to the target is the step
            clause = f"{'finally ' if i else ''}go straight to the {target}"
        else:
            tag = _choose_tag(seg, target)
            if seg.label == FORWARD:
                clause = f"{'go ahead' if i else 'move forward'} through the {tag}"
            elif seg.label == TURN_LEFT:
                clause = f"make a left turn at the {tag}"
            else:
                clause = f"turn right at the {tag}"
        steps.append((seg.label, tag))
        clauses.append(clause)
    if segments[-1].label != FORWARD:
        clauses.append(f"finally go straight to the {target}")
    head, *rest = clauses
    text = f"{head} and {', '.join(rest)}" if rest else head
    text = text[0].upper() + text[1:] + "."
    return StepByStepTask(
        target=target,
        steps=tuple(steps),
        instruction=text,
        source_task_id=source_task_id,
        source_subtask=source_subtask,
    )

