"""Pluggable per-step decision makers.

A policy backend maps (step context, concatenated left/front/right view
embeddings, short-term memory) to a 4-way decision vector over (stop,
turn_left, move_forward, turn_right) plus a confidence.  The shipped
learnable backend is a linear softmax over concatenated features with an
analytic gradient, trained by full-batch gradient descent against expert
actions.  Imitation data replays a recorded trajectory through the memory
policy's features, so training and rollout share one feature pipeline.
A deterministic hashing oracle stands in for the frozen visual encoder.
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
    LongTermStore,
    N_ACTIONS,
    ShortTermMemory,
    cross_entropy,
    forget_and_append,
    row_norms,
    weight_decision,
)
from .world import (
    Action,
    AgentState,
    Observation,
    RobotConfig,
    Scene,
    View,
    observe,
    stock_robot,
)
from . import expert as expert_mod
from .taskforge import MAX_STAGES, TaskSpec
from .trajectory import Trajectory

# entries of X per block of nonzero_pattern, which bounds the gradient's
# memory on a large batch; the offline benchmark's 250 x 260 is one block
GRAD_ENTRIES = 1 << 16


@functools.cache
def category_index(name: str, dim: int) -> int:
    """A category's hashed coordinate among dim, kept for the process."""
    digest = hashlib.sha256(f"lhnav-v1|{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dim


class EmbeddingOracle:
    """Deterministic observation embeddings: every category owns a hashed
    coordinate, scaled by 1/(1+range) and L2-normalized.  An empty
    observation maps to a fixed unit "void" vector.  embed makes one pass
    over an observation for its three view embeddings and the fused one.
    A process hashes a category once per dim (category_index)."""

    def __init__(self, dim: int = 64):
        if dim < 2:
            raise ValueError("embedding dim must be at least 2")
        self.dim = dim

    def index_for(self, name: str) -> int:
        return category_index(name, self.dim)

    def _embed_rows(self, pair_lists) -> np.ndarray:
        """One row per list of (category, range) pairs: every category adds
        1/(1+range) to its hashed coordinate, and the row is L2-normalized.
        No pairs gives the void vector."""
        rows = np.zeros((len(pair_lists), self.dim))
        for row, pairs in zip(rows, pair_lists):
            if not pairs:
                row[self.index_for("__void__")] = 1.0
            for category, rng in pairs:
                row[self.index_for(category)] += 1.0 / (1.0 + rng)
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
    def decide(
        self,
        ctx: StepContext,
        views: np.ndarray,
        memory: ShortTermMemory,
    ) -> tuple[np.ndarray, float]: ...


def one_hot(action: Action) -> np.ndarray:
    v = np.zeros(N_ACTIONS)
    v[int(action)] = 1.0
    return v


class LinearSoftmaxBackend:
    """Softmax over a linear map of (view embeddings, mean short-term
    memory, stage one-hot).  Confidence is the probability of the action the
    backend itself would take."""

    def __init__(self, embed_dim: int = 64, seed: int = 0):
        self.embed_dim = embed_dim
        self.feature_dim = 3 * embed_dim + embed_dim + MAX_STAGES
        rng = np.random.default_rng(seed)
        self.W = rng.normal(0.0, 0.01, size=(N_ACTIONS, self.feature_dim))
        self.b = np.zeros(N_ACTIONS)

    def features(self, stage: int, views: np.ndarray, memory: ShortTermMemory) -> np.ndarray:
        """A fresh row: the view embeddings, the mean short-term entry and
        the stage one-hot."""
        d = self.embed_dim
        x = np.zeros(self.feature_dim)
        x[: 3 * d] = views
        x[3 * d : 4 * d] = memory.mean_entry(d)
        x[4 * d + min(stage, MAX_STAGES - 1)] = 1.0
        return x

    def probabilities(self, x: np.ndarray) -> np.ndarray:
        logits = self.W @ x + self.b
        logits = logits - logits.max()
        e = np.exp(logits)
        return e / e.sum()

    def decide(self, ctx, views, memory):
        p = self.probabilities(self.features(ctx.stage, views, memory))
        return p, float(p.max())

    # -- parameter plumbing for training and persistence --

    def get_params(self) -> np.ndarray:
        return np.concatenate([self.W.ravel(), self.b])

    def set_params(self, theta: np.ndarray) -> None:
        n_w = self.W.size
        self.W = theta[:n_w].reshape(self.W.shape).copy()
        self.b = theta[n_w:].copy()

    def save(self, path: str | Path) -> None:
        payload = {
            "embed_dim": self.embed_dim,
            "n_actions": N_ACTIONS,
            "theta": self.get_params().tolist(),
        }
        write_lines(path, [payload])

    @classmethod
    def load(cls, path: str | Path) -> "LinearSoftmaxBackend":
        """Weights written by save; a missing or malformed file raises an
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
        if type(embed_dim) is not int or embed_dim < 1:
            raise InputFileError(f"{path}: embed_dim must be a positive integer, not {embed_dim!r}")
        backend = cls(embed_dim=embed_dim)
        expected = backend.get_params().size
        if theta.shape != (expected,):
            raise InputFileError(
                f"{path}: theta has {theta.size} values, "
                f"embed_dim {backend.embed_dim} needs {expected}"
            )
        if not np.isfinite(theta).all():
            bad = int(np.flatnonzero(~np.isfinite(theta))[0])
            raise InputFileError(f"{path}: theta must be finite (value {bad} is {theta[bad]})")
        backend.set_params(theta)
        return backend


# -- training -------------------------------------------------------------------


def nonzero_pattern(X: np.ndarray):
    """X's nonzero entries, a block of rows (at most GRAD_ENTRIES entries)
    at a time, in row-major order: their sample rows, their bins in the
    flat weight gradient (after one bin per weight, for the running
    gradient) and their values."""
    n, k = X.shape
    step = max(1, GRAD_ENTRIES // k)
    running, offsets = np.arange(N_ACTIONS * k), np.arange(0, N_ACTIONS * k, k)[:, None]
    for lo in range(0, n, step):
        block = X[lo : lo + step]
        rows, cols = np.divmod(np.flatnonzero(block != 0), k)
        bins = np.concatenate((running, (offsets + cols).ravel()))
        yield lo + rows, bins, block[rows, cols]


def loss_and_grad(
    backend: LinearSoftmaxBackend, X: np.ndarray, y: np.ndarray, pattern=None
) -> tuple[float, np.ndarray]:
    """Mean imitation loss over a batch and its gradient in theta: the
    cross-entropy of the prediction against the expert action.

    X holds one feature row per sample and y the expert action indices;
    pattern is nonzero_pattern(X), built here unless given.  The whole
    batch is computed at once, in the summation order of a per-sample
    loop, so the results are bit-equal to it.  The logits are a stack of
    (1 x k) products, one BLAS call per row: one matrix product over the
    batch sums in another order.

    The weight gradient sums only the terms of X's nonzero entries: one
    np.bincount per block adds each weight's terms in input order from
    +0.0, the running gradient first and then the samples.  The term of a
    zero entry, a finite D times a signed zero, leaves such a sum as it
    is, so an unused weight stays +0.0 as in the loop.  A non-finite
    feature, or a sample whose logits are not finite (weights that
    overflow), raises a ValueError naming the sample.
    """
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
    logits = (X[:, None, :] @ backend.W.T)[:, 0, :] + backend.b
    # a non-finite feature makes its sample's logits non-finite too, so the
    # features are only scanned when the logits are not all finite
    bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))
    if bad.size:
        i = int(bad[0])
        cols = np.flatnonzero(~np.isfinite(X[i]))
        if cols.size:
            raise ValueError(f"feature {cols[0]} of sample {i} is {X[i, cols[0]]}, not finite")
        raise ValueError(f"the logits of sample {i} are not finite: {logits[i]}")
    logits = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    P = e / e.sum(axis=1, keepdims=True)
    E = np.eye(N_ACTIONS)[y]
    losses = cross_entropy(P, E)
    D = P - E
    # sums along the batch axis add one sample after another, from 0.0 as
    # the loop did (so an all-zero sum is +0.0); np.sum of a vector and
    # Python's sum() add in other orders
    total = np.cumsum(np.concatenate(([0.0], losses)))[-1] / n
    g = np.zeros(backend.W.size)
    for rows, bins, vals in nonzero_pattern(X) if pattern is None else pattern:
        # take is much faster than fancy indexing on the transposed D
        g = np.bincount(bins, weights=np.concatenate((g, (D.T.take(rows, axis=1) * vals).ravel())))
    return float(total), np.concatenate([g / n, D.sum(axis=0) / n])


@dataclass
class TrainReport:
    losses: list[float]
    final_loss: float


def collect_imitation_dataset(
    scene: Scene,
    task: TaskSpec,
    backend: LinearSoftmaxBackend,
    budget: int = 500,
    capacity: int = 32,
) -> list[tuple[np.ndarray, int]]:
    """The imitation_dataset of the expert's episode of the task."""
    from . import runner

    trajectory, _ = runner.run_episode(scene, task, ExpertPolicy(), runner.RunConfig(budget=budget))
    return imitation_dataset(scene, trajectory, backend, capacity)


def imitation_dataset(
    scene: Scene, trajectory: Trajectory, backend: LinearSoftmaxBackend, capacity: int = 32
) -> list[tuple[np.ndarray, int]]:
    """One (features, recorded action index) pair per step of a recorded
    trajectory's move windows: the features the backend would see had the
    memory policy (empty long-term store) walked the same poses, its short-
    term memory folding in each step with the backend's own confidence.

    A step at the pose (position and heading) of the step before, as after
    a blocked forward move, reuses that pose's view and fused embeddings:
    observing is a pure function of the scene and the pose, and the replay
    leaves the scene as it is.  The fold still runs on every step."""
    robot = stock_robot(trajectory.robot)
    oracle = EmbeddingOracle(dim=backend.embed_dim)
    mem = ShortTermMemory(capacity=capacity)
    dataset = []
    pose = None
    for stage, _, steps in trajectory.replay(scene):
        for step in steps:
            if (step.state.position, step.state.heading) != pose:
                pose = (step.state.position, step.state.heading)
                views, fused = oracle.embed(observe(scene, step.state, robot))
            x = backend.features(stage, views, mem)
            dataset.append((x, int(step.action)))
            forget_and_append(mem, fused, float(backend.probabilities(x).max()))
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
    final loss after the last step.
    """
    if not len(dataset):
        raise ValueError("training dataset must be nonempty")
    if epochs < 0:
        raise ValueError(f"epochs must be at least 0, not {epochs}")
    if not np.isfinite(lr):
        raise ValueError(f"the learning rate lr must be finite, not {lr}")
    X = np.stack([np.asarray(x, dtype=float) for x, _ in dataset])
    y = np.array([int(a) for _, a in dataset])
    # X's nonzeros, found once for every epoch; loss_and_grad rejects a bad shape
    pattern = list(nonzero_pattern(X)) if X.shape[1:] == (backend.feature_dim,) else None
    losses = []
    for _ in range(epochs):
        loss, grad = loss_and_grad(backend, X, y, pattern=pattern)
        losses.append(loss)
        backend.set_params(backend.get_params() - lr * grad)
    final_loss, _ = loss_and_grad(backend, X, y, pattern=pattern)
    return TrainReport(losses=losses, final_loss=final_loss)


# -- one decision step of the memory pipeline ---------------------------------------


def memory_policy_step(policy: MemoryPolicy, ctx: StepContext) -> Action:
    """One decision step of a memory policy, updating it in place: observe,
    embed, decide, weight by the actions retrieved for the target's
    category, take the argmax, and fold the observation into short-term
    memory.

    When the policy last sensed for this very context object, as after a
    blocked forward move (the runner makes one context per pose), the step
    reuses the views, fused embedding and top-k it kept instead of
    observing, embedding and retrieving again: those are pure functions of
    the pose and the target, given one store and one oracle, and the store
    is read-only during an episode.  Another context object is sensed
    again, even at an equal pose.  The decision and the fold run on every
    step, because they read the short-term memory."""
    if policy.ctx is not ctx:
        policy.views, policy.fused = policy.oracle.embed(observe(ctx.scene, ctx.state, ctx.robot))
        category = ctx.scene.object(ctx.target_id).category
        policy.top = policy.store.retrieve_topk(category, policy.fused)
        policy.ctx = ctx
    decision, confidence = policy.backend.decide(ctx, policy.views, policy.memory)
    if policy.top:
        decision = weight_decision(decision, policy.top.acts)
    forget_and_append(policy.memory, policy.fused, confidence)
    return Action(int(np.argmax(decision)))


# -- runner-facing policies ---------------------------------------------------------


@dataclass(frozen=True)
class StepContext:
    """One pose of a move window; run_episode makes one per pose and hands
    the same object to every step at it."""

    scene: Scene
    state: AgentState
    robot: RobotConfig
    target_id: str
    stage: int           # ordinal of the current navigation stage
    at_target: bool      # the runner's subtask_success(scene, state, target_id)


class Policy(Protocol):
    """Decides one step; a runner builds a fresh policy for every episode."""

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
    """Memory-augmented policy: backend decision, long-term weighting, and
    short-term forgetting.  It keeps the context it last sensed for, with
    the view embeddings, fused embedding and top-k sensed there, so a step
    handed the same context as the step before (a blocked forward move)
    does not sense again; the store must not change while it runs."""

    def __init__(
        self,
        backend: PolicyBackend,
        oracle: EmbeddingOracle,
        store: LongTermStore | None = None,
        capacity: int = 32,
    ):
        self.backend = backend
        self.oracle = oracle
        self.store = store if store is not None else LongTermStore()
        self.memory = ShortTermMemory(capacity=capacity)
        self.ctx = self.views = self.fused = self.top = None

    def act(self, ctx: StepContext) -> Action:
        return memory_policy_step(self, ctx)
