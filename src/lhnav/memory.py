"""Adaptive memory: bounded short-term store with entropy-guided forgetting,
a per-target long-term store with cosine top-k retrieval, and the decision
weighting / imitation loss that tie both into action selection.

Forgetting works on the confidence vector: every adjacent pair is a merge
candidate, the candidate distribution with the smallest entropy wins, and
the corresponding pair of memory entries is averaged into one slot before
the new entry is appended.  Merging the most mutually redundant entries is
what keeps distinctive low-confidence memories alive.

Both hot paths are array operations.  The n-1 pair candidates of a
confidence vector are the rows of one (n-1) x (n-1) matrix, and one
row-wise formula gives every candidate's entropy.  Each long-term bucket
holds an (m x dim) matrix of observation rows, the m row norms (computed
once, when an entry is added) and an (m x 4) matrix of action rows, so a
retrieval is one batched product over the bucket and one stable sort.
Results are bit-identical to the per-entry loops they replace.
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
        # forgetting merges two slots, so a memory of one slot cannot forget
        if self.capacity < 2:
            raise ValueError(f"capacity must be at least 2, got {self.capacity}")
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


def pool_candidates(confidences) -> np.ndarray:
    """All merge candidates of a confidence vector.

    Each candidate replaces one adjacent pair (c_i, c_{i+1}) with its mean,
    giving the n-1 rows of an (n-1) x (n-1) array: row i is c[:i], the
    mean, then c[i+2:].
    """
    c = np.asarray(confidences, dtype=float)
    n = c.shape[0]
    if n < 2:
        raise ValueError("need at least two confidences to pool")
    i = np.arange(n - 1)
    # slot j of candidate i holds c[j] before the merged slot, c[j+1] after it
    out = np.where(i[None, :] < i[:, None], c[:-1], c[1:])
    out[i, i] = (c[:-1] + c[1:]) / 2.0
    return out


def candidate_entropies(candidates) -> np.ndarray:
    """Entropy of each candidate's distribution, normalized to sum 1; the
    candidates are the rows of one 2-D array."""
    block = np.asarray(candidates, dtype=float)
    if block.ndim != 2:
        raise ValueError(f"candidates must be a 2-D array, not {block.ndim}-D")
    if not block.shape[0]:
        raise ValueError("need at least one candidate")
    total = block.sum(axis=1)
    bad = np.flatnonzero(total <= 0)
    if bad.size:
        raise ValueError(f"candidate {bad[0]} has nonpositive mass")
    s = block / total[:, None]
    return -(s * np.log(np.maximum(s, EPS))).sum(axis=1)


def entropy_argmin(candidates) -> int:
    """Index of the candidate whose normalized distribution has the smallest
    entropy; ties go to the smallest index."""
    return int(np.argmin(candidate_entropies(candidates)))


def forget_and_append(
    mem: ShortTermMemory, h_new: np.ndarray, c_new: float
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
        lo = entropy_argmin(pool_candidates(confs))
        hi = lo + 2
        merged_entry = np.mean(np.stack(entries[lo:hi]), axis=0)
        merged_conf = float(np.mean(confs[lo:hi]))
        entries[lo:hi] = [merged_entry]
        confs[lo:hi] = [merged_conf]
    entries.append(np.asarray(h_new, dtype=float))
    confs.append(float(c_new))
    return ShortTermMemory(
        entries=tuple(entries), confidences=tuple(confs), capacity=mem.capacity
    )


class _Bucket:
    """One target's entries in insertion order, as arrays: observation rows,
    their norms and action rows.  Iterating yields (obs, act) pairs.  The
    arrays grow by doubling, so an add copies O(dim) values amortized."""

    def __init__(self, dim: int) -> None:
        self._obs = np.empty((4, dim))
        self._norms = np.empty(4)
        self._acts = np.empty((4, N_ACTIONS))
        self._m = 0

    def __len__(self) -> int:
        return self._m

    def __iter__(self):
        return zip(self.obs, self.acts)

    @property
    def dim(self) -> int:
        return self._obs.shape[1]

    @property
    def obs(self) -> np.ndarray:
        return self._obs[: self._m]

    @property
    def norms(self) -> np.ndarray:
        return self._norms[: self._m]

    @property
    def acts(self) -> np.ndarray:
        return self._acts[: self._m]

    def append(self, obs: np.ndarray, norm: float, act: np.ndarray) -> None:
        if self._m == self._norms.shape[0]:
            self._obs = np.concatenate([self._obs, np.empty_like(self._obs)])
            self._norms = np.concatenate([self._norms, np.empty_like(self._norms)])
            self._acts = np.concatenate([self._acts, np.empty_like(self._acts)])
        self._obs[self._m] = obs
        self._norms[self._m] = norm
        self._acts[self._m] = act
        self._m += 1


def _check_length(target: str, bucket: _Bucket, embedding: np.ndarray) -> None:
    """A bucket holds embeddings of one length."""
    if embedding.shape != (bucket.dim,):
        raise ValueError(
            f"target {target!r}: embedding of length {embedding.size} "
            f"does not match the bucket's length {bucket.dim}"
        )


class LongTermStore:
    """Per-target buckets of (observation embedding, action distribution).

    Read-only during evaluation; insertion order is the retrieval tie-break.
    """

    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.buckets: dict[str, _Bucket] = {}

    def __len__(self) -> int:
        return sum(len(b) for b in self.buckets.values())

    def add(self, target: str, obs: np.ndarray, act: np.ndarray) -> None:
        obs = np.asarray(obs, dtype=float)
        act = np.asarray(act, dtype=float)
        if obs.ndim != 1:
            raise ValueError("observation embedding must be a vector")
        # the norm rank divides by, computed once per entry; a NaN or an
        # infinity in the embedding makes it NaN or infinite
        norm = float(np.linalg.norm(obs))
        if not math.isfinite(norm):
            raise ValueError(f"observation embedding must be finite (its norm is {norm})")
        if norm == 0.0:
            raise ValueError("observation embedding must be nonzero")
        if act.shape != (N_ACTIONS,):
            raise ValueError(f"action distribution must have length {N_ACTIONS}")
        # negated so that a NaN sum fails the test too
        if np.any(act < 0) or not abs(float(act.sum()) - 1.0) <= 1e-9:
            raise ValueError("action distribution must be finite, nonnegative and sum to 1")
        bucket = self.buckets.get(target)
        if bucket is None:
            bucket = self.buckets[target] = _Bucket(obs.shape[0])
        _check_length(target, bucket, obs)
        bucket.append(obs, norm, act)

    def rank(self, target: str, query: np.ndarray) -> list[int]:
        """Bucket indices sorted by descending cosine similarity to the query;
        equal similarities keep insertion order."""
        q = np.asarray(query, dtype=float)
        qn = float(np.linalg.norm(q))
        if qn == 0.0:
            raise ValueError("query embedding must be nonzero")
        bucket = self.buckets.get(target)
        if not bucket:
            return []
        _check_length(target, bucket, q)
        # a stack of row-by-column products is one np.dot per row; a plain
        # matrix-vector product sums in another order, off in the last bit
        dots = (bucket.obs[:, None, :] @ q[:, None])[:, 0, 0]
        sims = dots / (bucket.norms * qn)
        return np.argsort(-sims, kind="stable").tolist()

    def retrieve_topk(
        self, target: str, query: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Top min(k, m) pairs by cosine similarity; empty bucket gives []."""
        bucket = self.buckets.get(target)
        if not bucket:
            return []
        return [(bucket.obs[j], bucket.acts[j]) for j in self.rank(target, query)[: self.k]]

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


def cross_entropy(a: np.ndarray, e: np.ndarray) -> float | np.ndarray:
    """Imitation loss between a decision vector and the expert's target,
    -sum(e * log a), with a clamped to [EPS, 1] before the log.

    The sum runs over the last axis: two vectors give a float, two
    matrices one loss per row.
    """
    av = np.asarray(a, dtype=float)
    ev = np.asarray(e, dtype=float)
    losses = -(ev * np.log(np.clip(av, EPS, 1.0))).sum(axis=-1)
    return float(losses) if losses.ndim == 0 else losses
