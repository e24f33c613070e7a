"""Adaptive memory: bounded short-term store with entropy-guided forgetting,
a per-target long-term store with cosine top-k retrieval, and the decision
weighting / imitation loss that tie both into action selection.

Forgetting works on the confidence vector: every adjacent pair is a merge
candidate, the candidate distribution with the smallest entropy wins, and
the corresponding pair of memory entries is averaged into one slot before
the new entry is appended.  Merging the most mutually redundant entries is
what keeps distinctive low-confidence memories alive.

Every step of the memory policy is array operations.  The short-term
memory is a (capacity x dim) row buffer and a confidence vector, updated in
place: a merge writes (a + b) / 2 into the first slot of the pair and
shifts the later rows down with one slice copy, and the mean entry is one
reduction over the first n rows.  The n-1 pair candidates of a confidence
vector are the rows of one (n-1) x (n-1) matrix, and one row-wise formula
gives every candidate's entropy.  Each long-term bucket holds an (m x dim)
matrix of observation rows, the m row norms and an (m x 4) matrix of
action rows, so a retrieval is one batched product over the bucket, one
stable sort and one fancy index of each matrix.  A store file loads as one
stacked matrix per target, its norms and checks computed over whole
arrays.  Results are bit-identical to the per-entry loops and tuples they
replace (tests/reference_impls.py).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .files import InputFileError, read_lines, write_lines

EPS = 1e-12

# decision vectors are laid out as (stop, turn_left, move_forward, turn_right)
N_ACTIONS = 4


class ShortTermMemory:
    """Short-term memory: the first n rows of a (capacity x dim) buffer are
    the entries in order, and the first n slots of a vector their
    confidences.  forget_and_append updates it in place.  The first entry
    fixes the row length and allocates the buffer."""

    def __init__(self, capacity: int = 32) -> None:
        # forgetting merges two slots, so a memory of one slot cannot forget
        if capacity < 2:
            raise ValueError(f"capacity must be at least 2, got {capacity}")
        self.capacity = capacity
        self._rows: np.ndarray | None = None
        self._conf = np.empty(capacity)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def entries(self) -> np.ndarray:
        """A copy of the entry rows, oldest first."""
        if self._rows is None:
            return np.empty((0, 0))
        return self._rows[: self._n].copy()

    @property
    def confidences(self) -> tuple[float, ...]:
        return tuple(self._conf[: self._n].tolist())

    def mean_entry(self, dim: int) -> np.ndarray:
        n = self._n
        if not n:
            return np.zeros(dim)
        # the bits of np.mean over a stack of the rows: they are added one
        # after another, then divided
        return np.add.reduce(self._rows[:n], axis=0) / n


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


def forget_and_append(mem: ShortTermMemory, h_new: np.ndarray, c_new: float) -> None:
    """Append a new entry in place, merging one adjacent pair first when at
    capacity.

    The merged slot carries the elementwise mean of the two embeddings and
    the mean of their confidences; the later rows shift down one slot.
    """
    c = float(c_new)
    # negated so that a NaN fails the test too
    if not 0.0 < c < math.inf:
        raise ValueError(f"confidence must be finite and positive, got {c}")
    h = np.asarray(h_new, dtype=float)
    rows, conf, n = mem._rows, mem._conf, mem._n
    if rows is None:
        if h.ndim != 1:
            raise ValueError("a memory entry must be a vector")
        rows = mem._rows = np.empty((mem.capacity, h.shape[0]))
    if h.shape != rows.shape[1:]:
        raise ValueError(
            f"entry of shape {h.shape} does not match the memory's rows "
            f"of length {rows.shape[1]}"
        )
    if n == mem.capacity:
        lo = entropy_argmin(pool_candidates(conf[:n]))
        rows[lo] = (rows[lo] + rows[lo + 1]) / 2
        rows[lo + 1 : n - 1] = rows[lo + 2 : n]
        conf[lo] = (conf[lo] + conf[lo + 1]) / 2
        conf[lo + 1 : n - 1] = conf[lo + 2 : n]
        n -= 1
    rows[n] = h
    conf[n] = c
    mem._n = n + 1


class _Bucket:
    """One target's entries in insertion order, as arrays: observation rows,
    their norms and action rows.  Iterating yields (obs, act) pairs.  The
    arrays grow by doubling, so an add copies O(dim) values amortized."""

    def __init__(self, obs: np.ndarray, norms: np.ndarray, acts: np.ndarray, m: int) -> None:
        # the first m rows are the entries, the rest is room to grow
        self._obs = obs
        self._norms = norms
        self._acts = acts
        self._m = m

    @classmethod
    def empty(cls, dim: int) -> "_Bucket":
        return cls(np.empty((4, dim)), np.empty(4), np.empty((4, N_ACTIONS)), 0)

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


def row_norms(rows: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of a matrix, bit-equal to np.linalg.norm of
    the row: a stack of row-by-column products is one np.dot per row."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


class TopK:
    """Retrieved entries in rank order: observation rows (k x dim) and
    action rows (k x 4), each one fancy index of the bucket."""

    def __init__(self, obs: np.ndarray, acts: np.ndarray) -> None:
        self.obs = obs
        self.acts = acts

    def __len__(self) -> int:
        return self.acts.shape[0]


def _check_length(target: str, bucket: _Bucket, embedding: np.ndarray) -> None:
    """A bucket holds embeddings of one length."""
    if embedding.shape != (bucket.dim,):
        raise ValueError(
            f"target {target!r}: embedding of length {embedding.size} "
            f"does not match the bucket's length {bucket.dim}"
        )


def _stacked_buckets(records) -> dict[str, _Bucket] | None:
    """One bucket per target, built from the stacked rows of the (where,
    target, obs, act) records, or None when a row fails a check of
    LongTermStore.add."""
    groups: dict = {}
    try:
        for _, target, obs, act in records:
            group = groups.setdefault(target, ([], []))
            group[0].append(obs)
            group[1].append(act)
    except TypeError:  # an unhashable target
        return None
    buckets = {}
    for target, (obs, act) in groups.items():
        try:
            O = np.array(obs, dtype=float)
            A = np.array(act, dtype=float)
        except (ValueError, TypeError, OverflowError):
            return None
        if O.ndim != 2 or A.shape != (O.shape[0], N_ACTIONS):
            return None
        norms = row_norms(O)
        if not (np.isfinite(norms).all() and norms.all()):
            return None
        if (A < 0).any() or not (np.abs(A.sum(axis=1) - 1.0) <= 1e-9).all():
            return None
        buckets[target] = _Bucket(O, norms, A, O.shape[0])
    return buckets


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
            bucket = self.buckets[target] = _Bucket.empty(obs.shape[0])
        _check_length(target, bucket, obs)
        bucket.append(obs, norm, act)

    def rank(self, target: str, query: np.ndarray) -> list[int]:
        """Bucket indices sorted by descending cosine similarity to the query;
        equal similarities keep insertion order.  A query whose norm is not
        finite (a NaN, an infinity or an overflow) raises a ValueError."""
        q = np.asarray(query, dtype=float)
        qn = float(np.linalg.norm(q))
        if not math.isfinite(qn):
            raise ValueError(f"query embedding for {target!r} must be finite (its norm is {qn})")
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

    def retrieve_topk(self, target: str, query: np.ndarray) -> TopK:
        """Top min(k, m) entries by cosine similarity; an empty or missing
        bucket gives no rows."""
        bucket = self.buckets.get(target)
        if not bucket:
            return TopK(np.empty((0, np.size(query))), np.empty((0, N_ACTIONS)))
        top = self.rank(target, query)[: self.k]
        return TopK(bucket.obs[top], bucket.acts[top])

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        write_lines(
            path,
            (
                {"target": target, "obs": obs.tolist(), "act": act.tolist()}
                for target in sorted(self.buckets)
                for obs, act in self.buckets[target]
            ),
        )

    @classmethod
    def load(cls, path: str | Path, k: int = 5) -> "LongTermStore":
        """Entries written by save; a missing file or a bad line raises an
        InputFileError naming the path and the line number.

        Each target's rows are stacked and checked as arrays.  When a check
        fails, the entries are added again one at a time in file order, so
        that the error names the first bad line and what is wrong with it.
        """
        records = []
        broken = None  # the error of the first line that is no entry
        try:
            for number, rec in read_lines(path):
                where = f"{path} line {number}"
                if not isinstance(rec, dict) or not {"target", "obs", "act"} <= rec.keys():
                    raise InputFileError(f"{where}: a store entry needs target, obs and act")
                obs = rec["obs"]
                try:
                    # an array takes a quarter of the memory of a list of floats
                    obs = np.array(obs)
                except ValueError:
                    pass  # raises again, naming the line, when added below
                records.append((where, rec["target"], obs, rec["act"]))
        except InputFileError as exc:
            broken = exc
        store = cls(k=k)
        buckets = None if broken else _stacked_buckets(records)
        if buckets is not None:
            store.buckets = buckets
            return store
        for where, target, obs, act in records:
            try:
                store.add(target, np.array(obs), np.array(act))
            except (ValueError, TypeError, OverflowError) as exc:
                raise InputFileError(f"{where}: {exc}") from exc
        if broken is not None:
            raise broken
        return store


def weight_decision(decision: np.ndarray, retrieved_acts) -> np.ndarray:
    """Bias a decision vector by the mean of retrieved action distributions,
    one per row of retrieved_acts (a (k x 4) array, such as TopK.acts, or
    a list of vectors).

    Elementwise product, renormalized to sum 1; the argmax is unaffected by
    the normalization.  When the product vanishes everywhere, a copy of the
    input is returned.
    """
    if not len(retrieved_acts):
        raise ValueError("need at least one retrieved action")
    a = np.asarray(decision, dtype=float)
    acts = np.asarray(retrieved_acts, dtype=float)
    # the bits of np.mean, without its per-call overhead
    avg = np.add.reduce(acts, axis=0) / acts.shape[0]
    weighted = a * avg
    total = float(weighted.sum())
    if total <= 0:
        return a.copy()
    return weighted / total


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
