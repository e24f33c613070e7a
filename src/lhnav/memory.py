"""Adaptive memory: bounded short-term store with entropy-guided forgetting,
a per-target long-term store with cosine top-k retrieval, and the decision
weighting that ties retrieval into action selection.

Forgetting works on the confidence vector: every adjacent pair is a merge
candidate, the candidate distribution with the smallest entropy wins, and
the corresponding pair of memory entries is averaged into one slot before
the new entry is appended.  Merging the most mutually redundant entries is
what keeps distinctive low-confidence memories alive.

Every step of the memory policy is array operations.  Every embedding in
both memories is EMBED_DIM long.  The short-term memory is a
(CAPACITY x EMBED_DIM) row buffer and a confidence vector, updated in
place: a merge writes (a + b) / 2 into the first slot of the pair and
shifts the later rows down with one slice copy, and the mean entry is one
reduction over the first n rows.  The n-1 pair candidates of a confidence
vector are the rows of one (n-1) x (n-1) matrix, and one row-wise formula
gives every candidate's entropy; that step calls the ufuncs' reduce and
ndarray.argmin directly, the bits of .sum, .all and np.argmin without
their Python wrappers.  Each long-term bucket
holds an (m x EMBED_DIM) matrix of observation rows, the m row norms and
an (m x 4) matrix of action rows, so a retrieval is one batched product
over the bucket, one stable sort, one fancy index of the action rows and
one mean of them, which weights every decision taken on that retrieval.  A
store file loads as one stacked matrix, its norms and checks computed
over the whole array, and each target's bucket is cut from it.  Results
are bit-identical to the per-entry loops and tuples they replace
(tests/reference_impls.py).
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

from .files import InputFileError, read_lines, write_lines

EPS = 1e-12

# decision vectors are laid out as (stop, turn_left, move_forward, turn_right)
N_ACTIONS = 4

# the length of an observation embedding: every row of both memories,
# and the oracle's and the linear backend's embeddings
EMBED_DIM = 64

# the slots of a short-term memory; forgetting merges two, so at least 2
CAPACITY = 32

# the long-term entries a retrieval returns
TOP_K = 5


class ShortTermMemory:
    """Short-term memory: the first n rows of a (CAPACITY x EMBED_DIM)
    buffer are the entries in order, and the first n slots of a vector
    their confidences.  forget_and_append updates it in place."""

    def __init__(self) -> None:
        self._rows = np.empty((CAPACITY, EMBED_DIM))
        self._conf = np.empty(CAPACITY)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def entries(self) -> np.ndarray:
        """A copy of the entry rows, oldest first."""
        return self._rows[: self._n].copy()

    @property
    def confidences(self) -> tuple[float, ...]:
        return tuple(self._conf[: self._n].tolist())

    def mean_entry(self) -> np.ndarray:
        """The mean of the entries; an empty memory has none."""
        n = self._n
        if not n:
            raise ValueError("an empty memory has no mean entry")
        # the bits of np.mean over a stack of the rows: they are added one
        # after another, then divided
        return np.add.reduce(self._rows[:n], axis=0) / n


@functools.cache
def _pool_index(n: int) -> np.ndarray:
    """The (n-1) x (n-1) positions of pool_candidates' slots in
    concatenate((c, pair means)): slot j of candidate i is c[j] before the
    merged slot, the mean of pair i at it and c[j+1] after it.  Every
    caller shares the array, so it is read-only."""
    i = np.arange(n - 1)
    index = np.where(i[None, :] < i[:, None], i[None, :], i[None, :] + 1)
    index[i, i] = n + i
    index.setflags(write=False)
    return index


def pool_candidates(confidences) -> np.ndarray:
    """All merge candidates of a confidence vector.

    Each candidate replaces one adjacent pair (c_i, c_{i+1}) with its mean,
    giving the n-1 rows of an (n-1) x (n-1) array: row i is c[:i], the
    mean, then c[i+2:].  One gather copies them out of c and the pair
    means.
    """
    c = np.asarray(confidences, dtype=float)
    n = c.shape[0]
    if n < 2:
        raise ValueError("need at least two confidences to pool")
    return np.concatenate((c, (c[:-1] + c[1:]) / 2.0)).take(_pool_index(n))


def candidate_entropies(candidates) -> np.ndarray:
    """Entropy of each candidate's distribution, normalized to sum 1; the
    candidates are the rows of one 2-D array.  A candidate whose mass (its
    sum) is not finite and positive raises a ValueError naming it."""
    block = np.asarray(candidates, dtype=float)
    if block.ndim != 2:
        raise ValueError(f"candidates must be a 2-D array, not {block.ndim}-D")
    if not block.shape[0]:
        raise ValueError("need at least one candidate")
    # the ufuncs' own reduces are the bits of .sum and .all, without their
    # Python wrappers, a cost on every forgetting step
    total = np.add.reduce(block, axis=1)
    # written so that a NaN mass fails the test too
    ok = (0.0 < total) & (total < math.inf)
    if not np.logical_and.reduce(ok):
        i = int(ok.argmin())  # the first refused candidate
        raise ValueError(f"candidate {i} has mass {total[i]}: it must be finite and positive")
    s = block / total[:, None]
    return -np.add.reduce(s * np.log(np.maximum(s, EPS)), axis=1)


def entropy_argmin(candidates) -> int:
    """Index of the candidate whose normalized distribution has the smallest
    entropy; ties go to the smallest index."""
    return int(candidate_entropies(candidates).argmin())


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
    if h.shape != (EMBED_DIM,):
        raise ValueError(
            f"a memory entry must be a vector of length {EMBED_DIM}, not of shape {h.shape}"
        )
    rows, conf, n = mem._rows, mem._conf, mem._n
    if n == CAPACITY:
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
    arrays grow by doubling, so an add copies O(EMBED_DIM) values
    amortized."""

    def __init__(self, obs: np.ndarray, norms: np.ndarray, acts: np.ndarray) -> None:
        # the first m rows are the entries, the rest is room to grow
        self._obs = obs
        self._norms = norms
        self._acts = acts
        self._m = norms.shape[0]

    def __len__(self) -> int:
        return self._m

    def __iter__(self):
        return zip(self.obs, self.acts)

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
    """Retrieved entries in rank order: their action rows (k x 4), one fancy
    index of the bucket, and the mean of those rows, the action
    distribution that weight_decision biases by (None without rows).  The
    mean is the bits of np.mean, worked out once per retrieval."""

    def __init__(self, acts: np.ndarray) -> None:
        self.acts = acts
        self.mean = np.add.reduce(acts, axis=0) / acts.shape[0] if acts.shape[0] else None

    def __len__(self) -> int:
        return self.acts.shape[0]


def _refusal(norms: np.ndarray, acts: np.ndarray) -> tuple[int, str] | None:
    """The first of a stack of entries that the store refuses, as (row,
    reason), or None.  An embedding's norm, which rank divides by, must be
    finite and nonzero (a NaN or an infinity in the embedding makes it NaN
    or infinite), and an action row nonnegative and sum to 1."""
    # written so that a NaN fails the tests too; a ufunc's own reduce skips
    # the Python wrappers of .min and .sum, a cost for add's one row
    obs_ok = (0.0 < norms) & (norms < math.inf)
    sums = np.add.reduce(acts, axis=1)
    ok = obs_ok & (np.minimum.reduce(acts, axis=1) >= 0.0) & (abs(sums - 1.0) <= 1e-9)
    i = int(ok.argmin())  # the first False, or 0 when every row is accepted
    if ok[i]:
        return None
    if not obs_ok[i]:
        return i, f"observation embedding must be finite and nonzero (its norm is {norms[i]})"
    return i, "action distribution must be finite, nonnegative and sum to 1"


class LongTermStore:
    """Per-target buckets of (observation embedding, action distribution).

    Every embedding in a store is EMBED_DIM long.  Read-only during
    evaluation; insertion order is the retrieval tie-break.
    """

    def __init__(self) -> None:
        self.buckets: dict[str, _Bucket] = {}

    def __len__(self) -> int:
        return sum(len(b) for b in self.buckets.values())

    def _check_length(self, target: str, embedding: np.ndarray) -> None:
        if embedding.shape != (EMBED_DIM,):
            raise ValueError(
                f"target {target!r}: embedding of length {embedding.size} "
                f"does not match the store's length {EMBED_DIM}"
            )

    def _entry(self, target: str, obs, act) -> tuple[np.ndarray, np.ndarray]:
        """One entry's embedding and action distribution as float vectors,
        checked for type, shape and length; _refusal checks their values."""
        if not isinstance(target, str):
            raise TypeError(f"a store target must be a string, not {type(target).__name__}")
        obs = np.asarray(obs, dtype=float)
        act = np.asarray(act, dtype=float)
        if obs.ndim != 1:
            raise ValueError("observation embedding must be a vector")
        if act.shape != (N_ACTIONS,):
            raise ValueError(f"action distribution must have length {N_ACTIONS}")
        self._check_length(target, obs)
        return obs, act

    def add(self, target: str, obs: np.ndarray, act: np.ndarray) -> None:
        obs, act = self._entry(target, obs, act)
        obs, act = obs[None], act[None]
        norms = row_norms(obs)
        refused = _refusal(norms, act)
        if refused is not None:
            raise ValueError(refused[1])
        bucket = self.buckets.get(target)
        if bucket is None:  # copies, so that the caller's arrays stay theirs
            self.buckets[target] = _Bucket(obs.copy(), norms, act.copy())
        else:
            bucket.append(obs[0], norms[0], act[0])

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
        self._check_length(target, q)
        # a stack of row-by-column products is one np.dot per row; a plain
        # matrix-vector product sums in another order, off in the last bit
        dots = (bucket.obs[:, None, :] @ q[:, None])[:, 0, 0]
        sims = dots / (bucket.norms * qn)
        return np.argsort(-sims, kind="stable").tolist()

    def retrieve_topk(self, target: str, query: np.ndarray) -> TopK:
        """Top min(TOP_K, m) entries by cosine similarity; an empty or
        missing bucket gives no rows."""
        bucket = self.buckets.get(target)
        if not bucket:
            return TopK(np.empty((0, N_ACTIONS)))
        return TopK(bucket.acts[self.rank(target, query)[:TOP_K]])

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
    def load(cls, path: str | Path) -> "LongTermStore":
        """Entries written by save; a missing file or a bad line raises an
        InputFileError naming the path and the line number.

        Lines are read up to the first that is not an entry of EMBED_DIM
        values.  The rows read are stacked into one matrix and checked as
        whole arrays, so that the first bad line in the file is named;
        each target's bucket is then cut from the stack.
        """
        store = cls()
        targets, obs_rows, act_rows, numbers = [], [], [], []
        broken = None  # the error of the first line that is no entry
        try:
            for number, rec in read_lines(path):
                where = f"{path} line {number}"
                if not isinstance(rec, dict) or not {"target", "obs", "act"} <= rec.keys():
                    raise InputFileError(f"{where}: a store entry needs target, obs and act")
                try:
                    obs, act = store._entry(rec["target"], rec["obs"], rec["act"])
                except (ValueError, TypeError, OverflowError) as exc:
                    raise InputFileError(f"{where}: {exc}") from exc
                targets.append(rec["target"])
                obs_rows.append(obs)
                act_rows.append(act)
                numbers.append(number)
        except InputFileError as exc:
            broken = exc
        if numbers:
            obs, acts = np.array(obs_rows), np.array(act_rows)
            del obs_rows, act_rows  # the stacks hold the rows now
            norms = row_norms(obs)
            refused = _refusal(norms, acts)
            if refused is not None:
                i, reason = refused
                raise InputFileError(f"{path} line {numbers[i]}: {reason}")
        if broken is not None:
            raise broken
        rows: dict[str, list[int]] = {}
        for i, target in enumerate(targets):
            rows.setdefault(target, []).append(i)
        for target, index in rows.items():
            store.buckets[target] = _Bucket(obs[index], norms[index], acts[index])
        return store


def weight_decision(decision: np.ndarray, mean_act: np.ndarray) -> np.ndarray:
    """Bias a decision vector by the mean of the retrieved action
    distributions (TopK.mean), a vector of N_ACTIONS values; anything else,
    such as no mean at all, raises a ValueError.

    Elementwise product, renormalized to sum 1; the argmax is unaffected by
    the normalization.  When the product vanishes everywhere, a copy of the
    input is returned.
    """
    avg = np.asarray(mean_act, dtype=float)
    if avg.shape != (N_ACTIONS,):
        raise ValueError(
            f"the retrieved mean must be a vector of {N_ACTIONS} actions, not of shape {avg.shape}"
        )
    a = np.asarray(decision, dtype=float)
    weighted = a * avg
    total = float(np.add.reduce(weighted))
    if total <= 0:
        return a.copy()
    return weighted / total
