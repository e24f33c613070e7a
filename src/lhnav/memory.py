"""Adaptive memory: bounded short-term store with entropy-guided forgetting,
a per-target long-term store with cosine top-k retrieval, and the decision
weighting / imitation loss that tie both into action selection.

Forgetting works on the confidence vector: every adjacent pair is a merge
candidate, the candidate distribution with the smallest entropy wins, and
the corresponding pair of memory entries is averaged into one slot before
the new entry is appended.  Merging the most mutually redundant entries is
what keeps distinctive low-confidence memories alive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPS = 1e-12

# decision vectors are laid out as (stop, turn_left, move_forward, turn_right)
N_ACTIONS = 4


@dataclass(frozen=True)
class ShortTermMemory:
    entries: tuple[np.ndarray, ...] = ()
    confidences: tuple[float, ...] = ()
    capacity: int = 32

    def __post_init__(self) -> None:
        if len(self.entries) != len(self.confidences):
            raise ValueError("entries and confidences must have equal length")
        if len(self.entries) > self.capacity:
            raise ValueError("memory exceeds capacity")
        if any(c <= 0 for c in self.confidences):
            raise ValueError("confidences must be positive")

    def __len__(self) -> int:
        return len(self.entries)

    def mean_entry(self, dim: int) -> np.ndarray:
        if not self.entries:
            return np.zeros(dim)
        return np.mean(np.stack(self.entries), axis=0)


def pool_candidates(confidences, window: str = "pair") -> list[np.ndarray]:
    """All merge candidates of a confidence vector.

    The canonical "pair" window replaces (c_i, c_{i+1}) with their mean,
    giving n-1 candidates each of length n-1.  The "triple" variant averages
    the element with both neighbors (clipped at the ends) and exists only
    for side-by-side comparison.
    """
    c = np.asarray(confidences, dtype=float)
    n = c.shape[0]
    if window == "pair":
        if n < 2:
            raise ValueError("need at least two confidences to pool")
        out = []
        for i in range(n - 1):
            merged = np.concatenate([c[:i], [(c[i] + c[i + 1]) / 2.0], c[i + 2 :]])
            out.append(merged)
        return out
    if window == "triple":
        if n < 2:
            raise ValueError("need at least two confidences to pool")
        out = []
        for i in range(n):
            lo = max(0, i - 1)
            hi = min(n, i + 2)
            merged = np.concatenate([c[:lo], [c[lo:hi].mean()], c[hi:]])
            out.append(merged)
        return out
    raise ValueError(f"unknown pooling window {window!r}")


def entropy_argmin(candidates) -> int:
    """Index of the candidate whose normalized distribution has the smallest
    entropy; ties go to the smallest index."""
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


def forget_and_append(
    mem: ShortTermMemory,
    h_new: np.ndarray,
    c_new: float,
    window: str = "pair",
) -> ShortTermMemory:
    """Append a new entry, merging one adjacent pair first when at capacity.

    The merged slot carries the elementwise mean of the two embeddings and
    the mean of their confidences.
    """
    if c_new <= 0:
        raise ValueError("new confidence must be positive")
    entries = list(mem.entries)
    confs = list(mem.confidences)
    if len(entries) >= mem.capacity:
        idx = entropy_argmin(pool_candidates(confs, window=window))
        if window == "triple":
            lo = max(0, idx - 1)
            hi = min(len(entries), idx + 2)
        else:
            lo, hi = idx, idx + 2
        merged_entry = np.mean(np.stack(entries[lo:hi]), axis=0)
        merged_conf = float(np.mean(confs[lo:hi]))
        entries[lo:hi] = [merged_entry]
        confs[lo:hi] = [merged_conf]
    entries.append(np.asarray(h_new, dtype=float))
    confs.append(float(c_new))
    return ShortTermMemory(
        entries=tuple(entries), confidences=tuple(confs), capacity=mem.capacity
    )


def _check_length(target: str, bucket, embedding: np.ndarray) -> None:
    """A bucket holds embeddings of one length."""
    if bucket and embedding.shape != bucket[0][0].shape:
        raise ValueError(
            f"target {target!r}: embedding of length {embedding.size} "
            f"does not match the bucket's length {bucket[0][0].size}"
        )


class LongTermStore:
    """Per-target buckets of (observation embedding, action distribution).

    Read-only during evaluation; insertion order is the retrieval tie-break.
    """

    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.buckets: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}

    def __len__(self) -> int:
        return sum(len(b) for b in self.buckets.values())

    def add(self, target: str, obs: np.ndarray, act: np.ndarray) -> None:
        obs = np.asarray(obs, dtype=float)
        act = np.asarray(act, dtype=float)
        if float(np.linalg.norm(obs)) == 0.0:
            raise ValueError("observation embedding must be nonzero")
        if act.shape != (N_ACTIONS,):
            raise ValueError(f"action distribution must have length {N_ACTIONS}")
        if np.any(act < 0) or abs(float(act.sum()) - 1.0) > 1e-9:
            raise ValueError("action distribution must be nonnegative and sum to 1")
        bucket = self.buckets.setdefault(target, [])
        _check_length(target, bucket, obs)
        bucket.append((obs, act))

    def rank(self, target: str, query: np.ndarray) -> list[int]:
        """Bucket indices sorted by descending cosine similarity to the query;
        equal similarities keep insertion order."""
        q = np.asarray(query, dtype=float)
        qn = float(np.linalg.norm(q))
        if qn == 0.0:
            raise ValueError("query embedding must be nonzero")
        bucket = self.buckets.get(target, [])
        _check_length(target, bucket, q)
        sims = [float(np.dot(obs, q) / (np.linalg.norm(obs) * qn)) for obs, _ in bucket]
        order = sorted(range(len(bucket)), key=lambda j: (-sims[j], j))
        return order

    def retrieve_topk(
        self, target: str, query: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Top min(k, m) pairs by cosine similarity; empty bucket gives []."""
        bucket = self.buckets.get(target, [])
        if not bucket:
            return []
        return [bucket[j] for j in self.rank(target, query)[: self.k]]

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for target in sorted(self.buckets):
                for obs, act in self.buckets[target]:
                    fh.write(
                        json.dumps(
                            {"target": target, "obs": obs.tolist(), "act": act.tolist()},
                            sort_keys=True,
                            separators=(",", ":"),
                        )
                        + "\n"
                    )

    @classmethod
    def load(cls, path: str | Path, k: int = 5) -> "LongTermStore":
        """Entries written by save; a bad line raises a ValueError naming
        the path and the line number."""
        store = cls(k=k)
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path} line {number}"
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{where}: not valid JSON ({exc})") from exc
                if not isinstance(rec, dict) or not {"target", "obs", "act"} <= rec.keys():
                    raise ValueError(f"{where}: a store entry needs target, obs and act")
                try:
                    store.add(rec["target"], np.array(rec["obs"]), np.array(rec["act"]))
                except (ValueError, TypeError) as exc:
                    raise ValueError(f"{where}: {exc}") from exc
        return store


def weight_decision(
    decision: np.ndarray, retrieved_acts: list[np.ndarray]
) -> tuple[np.ndarray, bool]:
    """Bias a decision vector by the mean of retrieved action distributions.

    Elementwise product, renormalized to sum 1; the argmax is unaffected by
    the normalization.  Returns (vector, degenerate) where degenerate means
    the product vanished everywhere and the input is passed through.
    """
    if not retrieved_acts:
        raise ValueError("need at least one retrieved action")
    a = np.asarray(decision, dtype=float)
    avg = np.mean(np.stack([np.asarray(x, dtype=float) for x in retrieved_acts]), axis=0)
    weighted = a * avg
    total = float(weighted.sum())
    if total <= 0:
        return a.copy(), True
    return weighted / total, False


def cross_entropy(a: np.ndarray, e: np.ndarray, literal: bool = False) -> float:
    """Imitation loss between a decision vector and the expert's.

    Default treats the expert as the target: -sum(e * log a).  Literal mode
    swaps the roles (-sum(a * log e)), which needs the clamp to stay finite
    for one-hot experts.  Probabilities are clamped to [EPS, 1] before logs.
    """
    av = np.asarray(a, dtype=float)
    ev = np.asarray(e, dtype=float)
    if literal:
        return float(-(av * np.log(np.clip(ev, EPS, 1.0))).sum())
    return float(-(ev * np.log(np.clip(av, EPS, 1.0))).sum())
