"""Evaluation metrics for multi-stage navigation episodes.

Per-subtask success flags feed four stage-aware rates (ISR, CSR, CGT, TAR)
plus the classic whole-task ones (SR, OSR, SPL, NE).  Success of the first
subtask's predecessor is defined as 1 so that a fully successful task scores
exactly 1.0 on every rate.  Tasks may have different subtask counts; each
task contributes at most 1/M to an aggregate.
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


def _require(results: list[EpisodeResult]) -> None:
    if not results:
        raise ValueError("metric requires at least one episode result")
    for res in results:
        if res.n < 1:
            raise ValueError(f"episode {res.task_id!r} has no subtask records")


def isr(results: list[EpisodeResult]) -> float:
    """Mean per-subtask success rate, averaged per task then over tasks."""
    _require(results)
    total = 0.0
    for res in results:
        total += sum(1.0 for r in res.records if r.success) / res.n
    return total / len(results)


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


def csr(results: list[EpisodeResult]) -> float:
    """Success rate rewarding subtasks whose predecessor also succeeded."""
    _require(results)
    total = 0.0
    for res in results:
        total += sum(_chain_terms(res.records)) / (res.n ** 2)
    return total / len(results)


def cgt(results: list[EpisodeResult]) -> float:
    """CSR with each subtask weighted by its share of ground-truth length."""
    _require(results)
    total = 0.0
    for res in results:
        gts = [r.gt for r in res.records]
        if any(g <= 0 for g in gts):
            raise ValueError(f"episode {res.task_id!r} has nonpositive ground truth")
        p_total = sum(gts)
        terms = _chain_terms(res.records)
        # term/n is exactly 1.0 on an all-success task, so the weighted sum
        # reduces to p_total bit-for-bit and the task scores exactly 1
        weighted = sum(g * (t / res.n) for g, t in zip(gts, terms))
        total += weighted / p_total
    return total / len(results)


def tar(ne: float, gt: float, d_s: float = SUCCESS_RADIUS) -> float:
    """Target approach rate: 1 minus the shortfall beyond the success radius
    relative to max(NE, GT)."""
    if gt <= 0:
        raise ValueError("ground truth must be positive")
    if ne < 0:
        raise ValueError("navigation error must be nonnegative")
    return 1.0 - max(ne - d_s, 0.0) / max(ne, gt)


def mean_tar(results: list[EpisodeResult]) -> float:
    _require(results)
    values = [tar(r.ne, r.gt) for res in results for r in res.records]
    return sum(values) / len(values)


def task_sr(results: list[EpisodeResult]) -> float:
    """Fraction of tasks whose every subtask succeeded in sequence."""
    _require(results)
    return sum(1.0 for res in results if all(r.success for r in res.records)) / len(results)


def osr(results: list[EpisodeResult]) -> float:
    """Oracle success: the predicate held at some step of every subtask's
    own window, in sequence."""
    _require(results)
    return sum(1.0 for res in results if all(r.oracle_hit for r in res.records)) / len(results)


def spl(results: list[EpisodeResult]) -> float:
    """Success weighted by path length over whole tasks.

    A task's shortest path is the sum of its subtask ground truths and its
    path taken is the sum of its traveled distances.
    """
    _require(results)
    total = 0.0
    for res in results:
        short_j = sum(r.gt for r in res.records)
        taken_j = sum(r.path_taken for r in res.records)
        if short_j <= 0:
            raise ValueError(f"task {res.task_id!r} has nonpositive shortest path")
        if taken_j < 0:
            raise ValueError(f"task {res.task_id!r} has negative path taken")
        success = 1.0 if all(r.success for r in res.records) else 0.0
        total += success * short_j / max(taken_j, short_j)
    return total / len(results)


def mean_ne(results: list[EpisodeResult]) -> float:
    """Mean subtask navigation error, truncated subtasks included (their
    error is measured where the budget ran out)."""
    _require(results)
    values = [r.ne for res in results for r in res.records]
    return sum(values) / len(values)


METRIC_ORDER = ("sr", "osr", "spl", "ne", "isr", "csr", "cgt", "tar")


def aggregate(results: list[EpisodeResult]) -> dict[str, float]:
    """All metrics in the fixed reporting order."""
    return {
        "sr": task_sr(results),
        "osr": osr(results),
        "spl": spl(results),
        "ne": mean_ne(results),
        "isr": isr(results),
        "csr": csr(results),
        "cgt": cgt(results),
        "tar": mean_tar(results),
    }
