"""Evaluation metrics for multi-stage navigation episodes.

Per-subtask success flags feed four stage-aware rates (ISR, CSR, CGT, TAR)
plus the classic whole-task ones (SR, OSR, SPL, NE).  Success of the first
subtask's predecessor is defined as 1 so that a fully successful task scores
exactly 1.0 on every rate.  episode_metrics scores one episode; aggregate
averages the task scores over tasks, so each task contributes 1/M whatever
its subtask count, except NE and TAR, which are means over every subtask
record of the suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .world import SUCCESS_RADIUS


@dataclass(frozen=True)
class SubtaskRecord:
    success: bool
    ne: float          # geodesic distance at stop (or at truncation)
    gt: float          # ground-truth path length at subtask start
    steps: int
    path_taken: float  # meters actually traveled during the subtask
    oracle_hit: bool   # success predicate held at some step in the window
    truncated: bool = False


@dataclass(frozen=True)
class EpisodeResult:
    task_id: str
    records: tuple[SubtaskRecord, ...]

    @property
    def n(self) -> int:
        return len(self.records)

    def to_dict(self) -> dict:
        return dict(vars(self), records=[dict(vars(r)) for r in self.records])

    @classmethod
    def from_dict(cls, d: dict) -> "EpisodeResult":
        """The inverse of to_dict; an unknown key is a TypeError."""
        return cls(**{**d, "records": tuple(SubtaskRecord(**r) for r in d["records"])})


METRIC_ORDER = ("sr", "osr", "spl", "ne", "isr", "csr", "cgt", "tar")
# averaged over all subtask records, not per task; the others are task means
SUBTASK_MEANS = ("ne", "tar")


def _chain_terms(records) -> list[float]:
    """s_i * (1 + (N-1) * s_{i-1}) per subtask, with s_{-1} = 1."""
    n = len(records)
    prev = 1.0
    terms = []
    for r in records:
        s = 1.0 if r.success else 0.0
        terms.append(s * (1.0 + (n - 1) * prev))
        prev = s
    return terms


def tar(ne: float, gt: float, d_s: float = SUCCESS_RADIUS) -> float:
    """Target approach rate: 1 minus the shortfall beyond the success radius
    relative to max(NE, GT)."""
    if gt <= 0:
        raise ValueError("ground truth must be positive")
    if ne < 0:
        raise ValueError("navigation error must be nonnegative")
    return 1.0 - max(ne - d_s, 0.0) / max(ne, gt)


def _subtask_values(records) -> dict[str, list[float]]:
    """The SUBTASK_MEANS metrics of each record.  NE counts truncated
    subtasks too, measured where the budget ran out."""
    return {"ne": [r.ne for r in records], "tar": [tar(r.ne, r.gt) for r in records]}


def episode_metrics(res: EpisodeResult) -> dict[str, float]:
    """One episode's metrics in METRIC_ORDER.  An episode without records,
    or with a nonpositive shortest path, a negative path taken or a
    nonpositive ground truth, raises a ValueError naming it.

    SR and OSR are 1 when every subtask succeeded, or had the predicate hold
    in its own window, in sequence.  SPL takes the task's shortest path as
    the sum of its ground truths and its path taken as the sum of its
    traveled distances.  ISR is the share of subtasks that succeeded; CSR
    rewards a subtask whose predecessor also succeeded, and CGT weights
    CSR's terms by each subtask's share of the ground truth.
    """
    records, n = res.records, res.n
    if n < 1:
        raise ValueError(f"episode {res.task_id!r} has no subtask records")
    gts = [r.gt for r in records]
    shortest = sum(gts)
    taken = sum(r.path_taken for r in records)
    if shortest <= 0:
        raise ValueError(f"task {res.task_id!r} has nonpositive shortest path")
    if taken < 0:
        raise ValueError(f"task {res.task_id!r} has negative path taken")
    if any(g <= 0 for g in gts):
        raise ValueError(f"episode {res.task_id!r} has nonpositive ground truth")
    success = 1.0 if all(r.success for r in records) else 0.0
    terms = _chain_terms(records)
    values = _subtask_values(records)
    return {
        "sr": success,
        "osr": 1.0 if all(r.oracle_hit for r in records) else 0.0,
        "spl": success * shortest / max(taken, shortest),
        "ne": sum(values["ne"]) / n,
        "isr": sum(1.0 for r in records if r.success) / n,
        "csr": sum(terms) / (n ** 2),
        # term/n is exactly 1.0 on an all-success task, so the weighted sum
        # reduces to the shortest path bit-for-bit and the task scores exactly 1
        "cgt": sum(g * (t / n) for g, t in zip(gts, terms)) / shortest,
        "tar": sum(values["tar"]) / n,
    }


def aggregate(results: list[EpisodeResult]) -> dict[str, float]:
    """All metrics in METRIC_ORDER: the SUBTASK_MEANS over every subtask
    record, the others the mean of the episodes' rows."""
    if not results:
        raise ValueError("metric requires at least one episode result")
    rows = [episode_metrics(res) for res in results]
    values = _subtask_values([r for res in results for r in res.records])
    out = {}
    for name in METRIC_ORDER:
        if name in SUBTASK_MEANS:
            out[name] = sum(values[name]) / len(values[name])
            continue
        total = 0.0  # a += loop: sum() of floats rounds otherwise on 3.12
        for row in rows:
            total += row[name]
        out[name] = total / len(rows)
    return out
