"""Pluggable per-step decision makers.

A policy backend maps (step context, concatenated left/front/right view
embeddings, short-term memory) to a 4-way decision vector over (stop,
turn_left, move_forward, turn_right) and the feature row it decided on.
The shipped learnable backend is a linear softmax with an analytic
gradient, trained by full-batch gradient descent against expert actions.
One memory step, memory_policy_step, serves rollout and the replay of a
recorded trajectory for imitation data, so the training rows are the
rows a rollout decides on.  A deterministic hashing oracle stands in for
the frozen visual encoder.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .files import InputFileError, read_document, write_lines
from .memory import (
    EMBED_DIM,
    LongTermStore,
    N_ACTIONS,
    ShortTermMemory,
    EPS,
    forget_and_append,
    row_norms,
    weight_decision,
)
from .world import Action, Observation, Scene, StepContext, View
from . import expert as expert_mod
from .taskforge import MAX_STAGES, TaskSpec
from .trajectory import Trajectory


@functools.cache
def category_index(name: str) -> int:
    """A category's hashed coordinate among EMBED_DIM, kept for the process."""
    digest = hashlib.sha256(f"lhnav-v1|{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % EMBED_DIM


class EmbeddingOracle:
    """Deterministic observation embeddings of length EMBED_DIM: every
    category owns a hashed coordinate, scaled by 1/(1+range) and
    L2-normalized.  An empty observation maps to a fixed unit "void"
    vector.  embed makes one pass over an observation for its three view
    embeddings and the fused one.  A process hashes a category once
    (category_index)."""

    def _embed_rows(self, pair_lists) -> np.ndarray:
        """One row per list of (category, range) pairs: every category adds
        1/(1+range) to its hashed coordinate, and the row is L2-normalized.
        No pairs gives the void vector."""
        rows = np.zeros((len(pair_lists), EMBED_DIM))
        for row, pairs in zip(rows, pair_lists):
            if not pairs:
                row[category_index("__void__")] = 1.0
            for category, rng in pairs:
                row[category_index(category)] += 1.0 / (1.0 + rng)
        # a void row has norm 1.0 exactly, so dividing leaves it as it is
        rows /= row_norms(rows)[:, None]
        return rows

    def _embed_pairs(self, pairs) -> np.ndarray:
        return self._embed_rows([pairs])[0]

    @staticmethod
    def _closest(views) -> tuple[list, list]:
        """The closest sighting of each category, as sorted (category,
        range) pairs: one list per view, and the fused list over all the
        views, from one pass over the sightings."""
        per_view = []
        fused: dict[str, float] = {}
        for view in views:
            closest: dict[str, float] = {}
            for s in view.objects:
                if s.category not in closest or s.range < closest[s.category]:
                    closest[s.category] = s.range
            per_view.append(sorted(closest.items()))
            for category, rng in closest.items():
                if category not in fused or rng < fused[category]:
                    fused[category] = rng
        return per_view, sorted(fused.items())

    def embed(self, obs: Observation) -> tuple[np.ndarray, np.ndarray]:
        """The three view embeddings, concatenated, and the fused embedding
        of an observation."""
        per_view, fused = self._closest(obs.views)
        rows = self._embed_rows(per_view + [fused])
        return rows[:-1].reshape(-1), rows[-1]

    def embed_view(self, view: View) -> np.ndarray:
        per_view, _ = self._closest((view,))
        return self._embed_pairs(per_view[0])

    def embed_observation(self, obs: Observation) -> np.ndarray:
        _, fused = self._closest(obs.views)
        return self._embed_pairs(fused)


# -- backends -----------------------------------------------------------------


class PolicyBackend(Protocol):
    """decide returns the decision vector and the feature row it read, or
    None; each view embedding it reads is EMBED_DIM long."""

    def decide(
        self,
        ctx: StepContext,
        views: np.ndarray,
        memory: ShortTermMemory,
    ) -> tuple[np.ndarray, np.ndarray | None]: ...


def one_hot(action: Action) -> np.ndarray:
    v = np.zeros(N_ACTIONS)
    v[int(action)] = 1.0
    return v


class LinearSoftmaxBackend:
    """Softmax over a linear map of (view embeddings, mean short-term
    memory, stage one-hot); its decision is the action probabilities and
    its row the features."""

    feature_dim = 3 * EMBED_DIM + EMBED_DIM + MAX_STAGES

    # the row's tail blocks: the mean entry of an empty memory, and the
    # one-hot of each stage (the last one also stands for every later stage)
    _NO_MEAN = np.zeros(EMBED_DIM)
    _STAGE_HOT = np.eye(MAX_STAGES)

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.W = rng.normal(0.0, 0.01, size=(N_ACTIONS, self.feature_dim))
        self.b = np.zeros(N_ACTIONS)

    def features(self, stage: int, views: np.ndarray, memory: ShortTermMemory) -> np.ndarray:
        """A fresh row, one concatenation of the view embeddings, the mean
        short-term entry (zero while the memory is empty) and the stage
        one-hot."""
        mean = memory.mean_entry() if len(memory) else self._NO_MEAN
        return np.concatenate((views, mean, self._STAGE_HOT[min(stage, MAX_STAGES - 1)]))

    def probabilities(self, x: np.ndarray) -> np.ndarray:
        # the ufuncs' own reduces are the bits of .max and .sum, without
        # their Python wrappers
        logits = self.W @ x + self.b
        logits = logits - np.maximum.reduce(logits)
        e = np.exp(logits)
        return e / np.add.reduce(e)

    def decide(self, ctx, views, memory):
        x = self.features(ctx.stage, views, memory)
        return self.probabilities(x), x

    # -- parameter plumbing for training and persistence --

    def get_params(self) -> np.ndarray:
        return np.concatenate([self.W.ravel(), self.b])

    def set_params(self, theta: np.ndarray) -> None:
        n_w = self.W.size
        self.W = theta[:n_w].reshape(self.W.shape).copy()
        self.b = theta[n_w:].copy()

    def save(self, path: str | Path) -> None:
        payload = {
            "embed_dim": EMBED_DIM,
            "n_actions": N_ACTIONS,
            "theta": self.get_params().tolist(),
        }
        write_lines(path, [payload])

    @classmethod
    def load(cls, path: str | Path) -> "LinearSoftmaxBackend":
        """Weights written by save; a missing or malformed file, or weights
        for embeddings of another length than EMBED_DIM, raise an
        InputFileError naming the path.  Other keys, such as the literal_ce
        flag that older files carry, are ignored."""
        payload = read_document(path)
        try:
            n_actions, embed_dim = payload["n_actions"], payload["embed_dim"]
            theta = np.array(payload["theta"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFileError(f"{path}: not a weights file ({exc!r})") from exc
        if n_actions != N_ACTIONS:
            raise InputFileError(f"{path}: weights are for {n_actions} actions, not {N_ACTIONS}")
        if type(embed_dim) is not int or embed_dim != EMBED_DIM:
            raise InputFileError(
                f"{path}: the weights are for embeddings of length {embed_dim!r}, "
                f"but the policy embeds observations of length {EMBED_DIM}"
            )
        backend = cls()
        expected = backend.get_params().size
        if theta.shape != (expected,):
            raise InputFileError(f"{path}: theta has {theta.size} values, not {expected}")
        if not np.isfinite(theta).all():
            bad = int(np.flatnonzero(~np.isfinite(theta))[0])
            raise InputFileError(f"{path}: theta must be finite (value {bad} is {theta[bad]})")
        backend.set_params(theta)
        return backend


# -- training -------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedBatch:
    """A checked batch and what every epoch of training on it reuses: the
    flat index of each sample's label in an (n x 4) row-major array, the
    labels' one-hot rows, and the entries that the theta gradient sums
    over.  Those are X's nonzero entries in row-major order, then one entry
    of 1.0 per sample for the bias (the weight of a feature that is 1.0 in
    every sample).  Per entry: its sample row (int32, which np.take widens
    per call, so the batch holds 4 bytes less per entry), its four bins in
    the flat theta gradient (one per action) and its value."""

    X: np.ndarray
    y: np.ndarray
    at: np.ndarray
    onehot: np.ndarray
    rows: np.ndarray
    bins: np.ndarray
    vals: np.ndarray


def prepare_batch(backend: LinearSoftmaxBackend, X, y) -> PreparedBatch:
    """Check a batch against the backend and prepare it for loss_and_grad."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(y)
    y = labels.astype(int, copy=False)
    if X.ndim != 2 or X.shape[1] != backend.feature_dim:
        raise ValueError(
            f"features of shape {X.shape} do not match the backend's "
            f"feature_dim {backend.feature_dim}"
        )
    n = X.shape[0]
    if n == 0:
        raise ValueError("loss_and_grad needs at least one sample")
    if y.shape != (n,):
        raise ValueError(f"labels of shape {y.shape} do not match {n} samples")
    bad = np.flatnonzero((y != labels) | (y < 0) | (y >= N_ACTIONS))
    if bad.size:
        raise ValueError(
            f"label {labels[bad[0]]} at sample {bad[0]} is not an action index "
            f"0..{N_ACTIONS - 1}"
        )
    k = X.shape[1]
    rows, cols = np.divmod(np.flatnonzero(X != 0), k)
    vals = np.concatenate((X[rows, cols], np.ones(n)))
    bins = np.empty((vals.size, N_ACTIONS), dtype=np.intp)
    np.add(cols[:, None], np.arange(0, N_ACTIONS * k, k), out=bins[: cols.size])
    bins[cols.size :] = np.arange(N_ACTIONS * k, N_ACTIONS * (k + 1))
    return PreparedBatch(
        X=X,
        y=y,
        at=np.arange(0, N_ACTIONS * n, N_ACTIONS) + y,
        onehot=np.eye(N_ACTIONS)[y],
        rows=np.concatenate((rows, np.arange(n))).astype(np.int32),
        bins=bins.ravel(),
        vals=vals,
    )


def loss_and_grad(
    backend: LinearSoftmaxBackend, X: np.ndarray, y: np.ndarray, pattern=None
) -> tuple[float, np.ndarray]:
    """Mean imitation loss over a batch and its gradient in theta: the
    cross-entropy of the prediction against the expert action.

    X holds one feature row per sample and y the expert action indices;
    pattern is prepare_batch(backend, X, y), checked and prepared here
    unless given, in which case X and y must be its own.  The whole batch
    is computed at once, in the summation order of a per-sample loop, so
    the results are bit-equal to it.  The logits are a stack of (1 x k)
    products, one BLAS call per row: one matrix product over the batch
    sums in another order.  The softmax adds a row's four exponentials
    left to right, as np.sum does a 4-vector.  A sample's loss is
    -log(clip(p[label])): the loop's one-hot sum adds three signed zeros
    to it, which leave it as it is.

    The theta gradient sums only the terms of the batch's entries: X's
    nonzero entries and, for the bias, one entry of 1.0 per sample.  One
    np.bincount adds each theta value's terms in input order from +0.0,
    which is sample order.  The term of a zero entry, a finite D times a
    signed zero, leaves such a sum as it is, so an unused weight stays
    +0.0 as in the loop.  A non-finite feature, or a sample whose logits
    are not finite (weights that overflow), raises a ValueError naming the
    sample.
    """
    if pattern is None:
        batch = prepare_batch(backend, X, y)
    elif pattern.X is X and pattern.y is y:
        batch = pattern
    else:
        raise ValueError("the pattern was prepared from another batch")
    X, n = batch.X, batch.X.shape[0]
    logits = (X[:, None, :] @ backend.W.T)[:, 0, :] + backend.b
    if not np.isfinite(logits).all():
        # a non-finite feature makes its sample's logits non-finite too, so
        # the features are only scanned when the logits are not all finite
        i = int(np.flatnonzero(~np.isfinite(logits).all(axis=1))[0])
        cols = np.flatnonzero(~np.isfinite(X[i]))
        if cols.size:
            raise ValueError(f"feature {cols[0]} of sample {i} is {X[i, cols[0]]}, not finite")
        raise ValueError(f"the logits of sample {i} are not finite: {logits[i]}")
    l0, l1, l2, l3 = logits.T
    e = np.exp(logits - np.maximum(np.maximum(np.maximum(l0, l1), l2), l3)[:, None])
    e0, e1, e2, e3 = e.T
    P = e / (((e0 + e1) + e2) + e3)[:, None]
    losses = -np.log(np.clip(P.take(batch.at), EPS, 1.0))
    D = P - batch.onehot
    # sums along the batch axis add one sample after another, from 0.0 as
    # the loop did (so an all-zero sum is +0.0); np.sum of a vector and
    # Python's sum() add in other orders
    total = np.cumsum(np.concatenate(([0.0], losses)))[-1] / n
    # the terms, entry-major: D's row of each entry's sample times the
    # entry's value (1.0 exactly for a bias entry)
    terms = D.take(batch.rows, axis=0)
    terms *= batch.vals[:, None]
    g = np.bincount(batch.bins, weights=terms.ravel(), minlength=backend.W.size + N_ACTIONS)
    return float(total), g / n


@dataclass
class TrainReport:
    losses: list[float]
    final_loss: float


def collect_imitation_dataset(
    scene: Scene,
    task: TaskSpec,
    backend: LinearSoftmaxBackend,
    budget: int = 500,
) -> list[tuple[np.ndarray, int]]:
    """The imitation_dataset of the expert's episode of the task."""
    from . import runner

    trajectory, _ = runner.run_episode(scene, task, ExpertPolicy(), runner.RunConfig(budget=budget))
    return imitation_dataset(scene, trajectory, backend)


def imitation_dataset(
    scene: Scene, trajectory: Trajectory, backend: LinearSoftmaxBackend
) -> list[tuple[np.ndarray, int]]:
    """One (feature row, recorded action index) pair per step of a recorded
    trajectory's move windows, the row memory_policy_step decides on for a
    memory policy (empty long-term store) handed Trajectory.replay's
    contexts, one per pose and window as run_episode makes them.  So it
    observes once per pose of the trajectory, judges no pose, and folds
    every step."""
    policy = MemoryPolicy(backend)
    dataset = []
    for _, steps, contexts in trajectory.replay(scene):
        for step, ctx in zip(steps, contexts):
            memory_policy_step(policy, ctx)
            dataset.append((policy.row, int(step.action)))
    return dataset


def train_backend(
    backend: LinearSoftmaxBackend,
    dataset,
    epochs: int = 100,
    lr: float = 0.5,
) -> TrainReport:
    """Full-batch gradient descent on the imitation loss.

    dataset is a sequence of (feature vector, expert action index) pairs.
    Returns the per-epoch loss curve measured before each update, plus the
    final loss after the last step.  The batch is checked and prepared
    once (prepare_batch), and every epoch's loss_and_grad reuses it.
    """
    if not len(dataset):
        raise ValueError("training dataset must be nonempty")
    if type(epochs) is not int:
        raise TypeError(f"epochs must be an integer, not {epochs!r}")
    if epochs < 0:
        raise ValueError(f"epochs must be at least 0, not {epochs}")
    if not np.isfinite(lr):
        raise ValueError(f"the learning rate lr must be finite, not {lr}")
    rows = [np.asarray(x, dtype=float) for x, _ in dataset]
    for i, x in enumerate(rows):
        if x.shape != (backend.feature_dim,):
            raise ValueError(
                f"the features of sample {i} have shape {x.shape}, not the "
                f"backend's ({backend.feature_dim},)"
            )
    batch = prepare_batch(backend, np.stack(rows), [a for _, a in dataset])
    n_w = backend.W.size
    losses = []
    for _ in range(epochs):
        loss, grad = loss_and_grad(backend, batch.X, batch.y, pattern=batch)
        losses.append(loss)
        # the bits of set_params(get_params() - lr * grad), without the copies
        backend.W = backend.W - lr * grad[:n_w].reshape(backend.W.shape)
        backend.b = backend.b - lr * grad[n_w:]
    final_loss, _ = loss_and_grad(backend, batch.X, batch.y, pattern=batch)
    return TrainReport(losses=losses, final_loss=final_loss)


# -- one decision step of the memory pipeline ---------------------------------------


def memory_policy_step(policy: MemoryPolicy, ctx: StepContext) -> Action:
    """One decision step of a memory policy, updating it in place: embed
    the context's observation, decide, weight by the mean of the actions
    retrieved for the goal, take the argmax, and fold the observation into
    short-term memory at the largest decision value; policy.row keeps the
    feature row.  Rollout and the imitation replay both step through here.

    Sensing is memoised for the episode, each part under what it is a pure
    function of, given one scene, robot, oracle and store (the store is
    read-only during an episode).  The view and fused embeddings depend on
    the pose alone: policy.sensed keeps them by ctx.state, so a pose the
    episode has reached before (after a blocked move, on turning back to a
    heading it has faced, at the start of a window for a new target, or at
    an equal context of a replay) is neither observed nor embedded again.
    The top-k depends on the goal and the fused embedding: policy.retrieved
    keeps it by (goal, fused embedding bytes), so poses that see the same
    objects at the same ranges share one retrieval.  The decision and the
    fold run on every step, because they read the short-term memory."""
    sensed = policy.sensed.get(ctx.state)
    if sensed is None:
        views, fused = policy.oracle.embed(ctx.observation)
        sensed = policy.sensed[ctx.state] = (views, fused, fused.tobytes())
    views, fused, fused_bytes = sensed
    goal = ctx.goal
    top = policy.retrieved.get((goal, fused_bytes))
    if top is None:
        top = policy.retrieved[goal, fused_bytes] = policy.store.retrieve_topk(goal, fused)
    decision, policy.row = policy.backend.decide(ctx, views, policy.memory)
    confidence = float(np.maximum.reduce(decision))
    if top.mean is not None:
        decision = weight_decision(decision, top.mean)
    forget_and_append(policy.memory, fused, confidence)
    return Action(int(decision.argmax()))


# -- runner-facing policies ---------------------------------------------------------


class Policy(Protocol):
    """Decides one step; a runner builds a fresh policy for every episode.
    A policy other than the expert reads only what the agent senses: state
    (odometry: position, heading, holding), observation, stage and goal.
    scene, robot, target_id and at_target are the expert's and the judge's."""

    def act(self, ctx: StepContext) -> Action: ...


class ExpertPolicy:
    """Direct greedy-pathfinder control; the imitation target."""

    def act(self, ctx: StepContext) -> Action:
        return expert_mod.expert_next_action(
            ctx.scene, ctx.state, ctx.target_id, ctx.robot, at_target=ctx.at_target
        )


class RandomPolicy:
    """Uniform over the four actions, reproducible under the task id and
    the run seed."""

    def __init__(self, task_id: str, seed: int) -> None:
        self._rng = random.Random(f"random-policy:{task_id}:{seed}")

    def act(self, ctx: StepContext) -> Action:
        return Action(self._rng.randrange(N_ACTIONS))


class StopPolicy:
    """Stops immediately; degenerate baseline for harness checks."""

    def act(self, ctx: StepContext) -> Action:
        return Action.STOP


class MemoryPolicy:
    """Memory-augmented policy for one episode: backend decision, long-term
    weighting, and short-term forgetting.  It keeps two memos of sensing
    (the store must not change while it runs): sensed, a dict from each
    state the episode has reached to the view embeddings, fused embedding
    and fused embedding bytes of its observation, and retrieved, a dict
    from (goal, fused embedding bytes) to the top-k retrieved
    for them.  row is its last feature row.  A runner builds one per
    episode, so the memos live for one episode."""

    def __init__(self, backend: PolicyBackend, store: LongTermStore | None = None):
        self.backend = backend
        self.oracle = EmbeddingOracle()
        self.store = store if store is not None else LongTermStore()
        self.memory = ShortTermMemory()
        self.sensed: dict = {}
        self.retrieved: dict = {}
        self.row = None

    def act(self, ctx: StepContext) -> Action:
        return memory_policy_step(self, ctx)
