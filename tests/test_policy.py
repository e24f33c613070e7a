import dataclasses
import json
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lhnav import policy, world
from lhnav.expert import expert_next_action
from lhnav.files import InputFileError
from lhnav.memory import CAPACITY, N_ACTIONS, LongTermStore, ShortTermMemory, forget_and_append
from lhnav.policy import (
    EMBED_DIM,
    EmbeddingOracle,
    LinearSoftmaxBackend,
    MemoryPolicy,
    RandomPolicy,
    StepContext,
    category_index,
    loss_and_grad,
    memory_policy_step,
    one_hot,
    train_backend,
)
from lhnav.taskforge import MOVE_TO, sample_spawn, sample_task
from lhnav.world import ROBOTS, Action, AgentState, observe

from conftest import NarrowBackend, free_cells
from reference_impls import HashEveryCall, loop_loss_and_grad, reference_embed

SPOT = ROBOTS["spot"]


class UniformBackend:
    """Flat decision vector; a probe of the weighting path."""

    def decide(self, ctx, views, memory):
        return np.full(N_ACTIONS, 1.0 / N_ACTIONS), None


class ExpertTeacherBackend:
    """A one-hot on the expert action for the step context, so it exercises
    the full memory/weighting path while never being the reason an episode
    fails."""

    def decide(self, ctx, views, memory):
        action = expert_next_action(ctx)
        return one_hot(action), None


def step_context(scene, state, target_id, stage=0):
    """A runner step context, which judges the state when read."""
    return StepContext(scene=scene, state=state, robot=SPOT, target_id=target_id, stage=stage)


class TestEmbeddingOracle:
    def test_deterministic(self, open_scene):
        oracle = EmbeddingOracle()
        s = AgentState(position=open_scene.cell_center((2, 4)), heading=0.0)
        obs1 = observe(open_scene, s, SPOT)
        obs2 = observe(open_scene, s, SPOT)
        assert np.array_equal(
            oracle.embed_observation(obs1), oracle.embed_observation(obs2)
        )

    def test_disjoint_categories_orthogonal(self):
        oracle = EmbeddingOracle()
        cats_a = ["box", "lamp"]
        cats_b = ["toy", "mug"]
        idx_a = {category_index(c) for c in cats_a}
        idx_b = {category_index(c) for c in cats_b}
        assert not idx_a & idx_b  # verified non-colliding under the salt
        va = oracle._embed_pairs([(c, 1.0) for c in cats_a])
        vb = oracle._embed_pairs([(c, 1.0) for c in cats_b])
        assert float(np.dot(va, vb)) == 0.0

    def test_empty_observation_gives_unit_void(self):
        oracle = EmbeddingOracle()
        v = oracle._embed_pairs([])
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.flatnonzero(v).tolist() == [category_index("__void__")]

    def test_closer_objects_weigh_more(self):
        oracle = EmbeddingOracle()
        near = oracle._embed_pairs([("box", 0.5), ("lamp", 3.0)])
        idx_box = category_index("box")
        idx_lamp = category_index("lamp")
        assert near[idx_box] > near[idx_lamp]

    def test_normalized(self):
        oracle = EmbeddingOracle()
        v = oracle._embed_pairs([("box", 1.0), ("lamp", 2.0), ("toy", 0.2)])
        assert np.linalg.norm(v) == pytest.approx(1.0)


    def test_index_hashed_once_per_process(self, monkeypatch):
        # the memoised coordinates and embeddings are those of hashing on
        # every call; a process hashes a category once, for all of its
        # oracles
        from lhnav.scenegen import generate_scene

        scene = generate_scene(seed=31, size=24, regions=4)
        names = sorted({obj.category for obj in scene.objects}) + ["__void__"]
        hashing = HashEveryCall()
        want = {name: hashing.index_for(name) for name in names}
        rng = random.Random(5)
        free = free_cells(scene)
        observations, want_embeddings = [], []
        for _ in range(40):
            state = AgentState(
                position=scene.cell_center(rng.choice(free)), heading=rng.choice([0.0, 90.0, 210.0])
            )
            obs = observe(scene, state, SPOT)
            observations.append(obs)
            views = np.concatenate([reference_embed(hashing, v.objects) for v in obs.views])
            want_embeddings.append((views, reference_embed(hashing, obs.visible())))
        policy.category_index.cache_clear()
        real = policy.hashlib.sha256
        hashed = []
        monkeypatch.setattr(policy.hashlib, "sha256", lambda data: hashed.append(data) or real(data))
        for _ in range(3):
            assert {name: category_index(name) for name in names} == want
        assert len(hashed) == len(names)
        for oracle in (EmbeddingOracle(), EmbeddingOracle()):
            for obs, (want_views, want_fused) in zip(observations, want_embeddings):
                views, fused = oracle.embed(obs)
                assert views.tobytes() == want_views.tobytes()
                assert fused.tobytes() == want_fused.tobytes()
        assert len(hashed) == len(names)

    def test_one_pass_matches_the_per_view_embeddings(self):
        from lhnav.scenegen import generate_scene

        rng = random.Random(12)
        oracle, hashing = EmbeddingOracle(), HashEveryCall()
        for seed in range(4):
            scene = generate_scene(seed=900 + seed, size=24, regions=4)
            free = free_cells(scene)
            for _ in range(40):
                state = AgentState(
                    position=scene.cell_center(rng.choice(free)),
                    heading=rng.choice([0.0, 30.0, 90.0, 135.0, 180.0, 300.0]),
                )
                obs = observe(scene, state, SPOT)
                want_views = [reference_embed(hashing, v.objects) for v in obs.views]
                want_fused = reference_embed(hashing, obs.visible())
                views, fused = oracle.embed(obs)
                assert views.tobytes() == np.concatenate(want_views).tobytes()
                assert fused.tobytes() == want_fused.tobytes()
                for view, want in zip(obs.views, want_views):
                    assert oracle.embed_view(view).tobytes() == want.tobytes()
                assert oracle.embed_observation(obs).tobytes() == want_fused.tobytes()


class TestLinearSoftmaxBackend:
    def test_features_are_views_memory_and_stage(self, open_scene):
        backend = LinearSoftmaxBackend()
        oracle = EmbeddingOracle()
        s = AgentState(position=open_scene.cell_center((3, 3)), heading=0.0)
        obs = observe(open_scene, s, SPOT)
        assert [v.direction for v in obs.views] == ["left", "front", "right"]
        views = np.concatenate([oracle.embed_view(v) for v in obs.views])
        mem = ShortTermMemory()
        # an empty memory reads as a zero mean entry
        assert not backend.features(1, views, mem)[192:256].any()
        forget_and_append(mem, np.ones(64), 0.5)
        forget_and_append(mem, np.zeros(64), 0.5)
        x = backend.features(1, views, mem)
        assert x.shape == (backend.feature_dim,) == (260,)
        assert np.array_equal(x[:192], views)
        assert np.array_equal(x[192:256], np.full(64, 0.5))
        assert np.array_equal(x[256:], [0.0, 1.0, 0.0, 0.0])


def random_features(rng, backend, n):
    return rng.normal(size=(n, backend.feature_dim))


class TestGradient:
    def test_matches_central_finite_differences(self):
        npr = np.random.default_rng(17)
        backend = NarrowBackend(12, seed=3)
        X = random_features(npr, backend, 6)
        y = npr.integers(0, 4, size=6)
        for draw in range(10):
            backend.set_params(npr.normal(0, 0.5, size=backend.get_params().shape))
            _, grad = loss_and_grad(backend, X, y)
            theta = backend.get_params()
            eps = 1e-6
            for idx in npr.choice(theta.size, size=12, replace=False):
                bump = np.zeros_like(theta)
                bump[idx] = eps
                backend.set_params(theta + bump)
                up, _ = loss_and_grad(backend, X, y)
                backend.set_params(theta - bump)
                down, _ = loss_and_grad(backend, X, y)
                backend.set_params(theta)
                fd = (up - down) / (2 * eps)
                denom = max(abs(fd), abs(grad[idx]), 1e-8)
                assert abs(fd - grad[idx]) / denom < 1e-5


def scaled_batch(k, n, scale, seed):
    """A backend over k features with weights of the given scale, n feature
    rows with about half the entries zero, and labels."""
    npr = np.random.default_rng(seed)
    backend = NarrowBackend(k)
    backend.set_params(npr.normal(0.0, scale, size=backend.get_params().shape))
    X = npr.normal(size=(n, backend.feature_dim))
    X[npr.random(X.shape) < 0.5] = 0.0
    return backend, X, npr.integers(0, N_ACTIONS, size=n)


# a sample whose label probability is below EPS but not zero (the loss's
# clip applies), and one whose label probability is exactly 1.0 (its loss
# is a signed zero)
LABEL_PROBABILITY_BELOW_EPS = dict(k=12, n=1, scale=30.0, seed=0)
LABEL_PROBABILITY_ONE = dict(k=12, n=1, scale=30.0, seed=3)


class TestBatchedLossMatchesLoop:
    """The batched loss_and_grad gives the bits of the per-sample loop it
    replaced (reference_impls.loop_loss_and_grad)."""

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(8, 84),
        n=st.one_of(st.sampled_from([1, 2]), st.integers(3, 40), st.sampled_from([400, 1500])),
        scale=st.sampled_from([1e-3, 0.01, 1.0, 30.0, 1e3, 1e6]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=8, n=1, scale=1e6, seed=0)
    @example(k=68, n=2, scale=1e3, seed=3)
    @example(**LABEL_PROBABILITY_BELOW_EPS)
    @example(**LABEL_PROBABILITY_ONE)
    def test_loss_and_gradient_bit_equal(self, k, n, scale, seed):
        # zeroed features and saturated softmax rows make signed-zero terms,
        # which only a sum started from 0.0 reproduces
        backend, X, y = scaled_batch(k, n, scale, seed)
        loss, grad = loss_and_grad(backend, X, y)
        want_loss, want_grad = loop_loss_and_grad(backend, X, y)
        assert isinstance(loss, float)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()

    def test_edge_examples_reach_the_edges(self):
        # the two examples above stay what their names say
        from lhnav.memory import EPS

        def label_probability(args):
            backend, X, y = scaled_batch(**args)
            return backend.probabilities(X[0])[y[0]]

        assert 0.0 < label_probability(LABEL_PROBABILITY_BELOW_EPS) < EPS
        assert label_probability(LABEL_PROBABILITY_ONE) == 1.0
        # the sample's loss is -0.0, and the loop's sum from 0.0 makes the
        # mean +0.0
        backend, X, y = scaled_batch(**LABEL_PROBABILITY_ONE)
        loss, _ = loss_and_grad(backend, X, y)
        assert loss == 0.0 and not np.signbit(loss)

    def test_large_batch_bit_equal(self):
        npr = np.random.default_rng(11)
        backend = LinearSoftmaxBackend()
        backend.set_params(npr.normal(0.0, 1.0, size=backend.get_params().shape))
        X = npr.normal(size=(5000, backend.feature_dim))
        X[npr.random(X.shape) < 0.3] = 0.0
        y = npr.integers(0, N_ACTIONS, size=5000)
        loss, grad = loss_and_grad(backend, X, y)
        want_loss, want_grad = loop_loss_and_grad(backend, X, y)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.skipif(np.dtype(np.intp).itemsize != 8, reason="intp is 8 bytes on a 64-bit build")
    def test_prepared_batch_holds_44_bytes_per_entry(self):
        # train_backend keeps the prepared batch for the whole run: per
        # nonzero of X and per sample's bias, an int32 row, four intp bins
        # and a float64 value
        npr = np.random.default_rng(12)
        backend = LinearSoftmaxBackend()
        X = npr.normal(size=(300, backend.feature_dim))
        X[npr.random(X.shape) < 0.9] = 0.0
        batch = policy.prepare_batch(backend, X, npr.integers(0, N_ACTIONS, size=300))
        entries = np.count_nonzero(X) + 300
        assert batch.vals.size == entries
        assert batch.rows.nbytes + batch.bins.nbytes + batch.vals.nbytes == 44 * entries

    def test_training_run_bit_equal(self, two_room_scene, monkeypatch):
        # 300 epochs on imitation data from the memory policy's own feature
        # pipeline, as the offline benchmark trains
        backend = LinearSoftmaxBackend(seed=0)
        dataset = []
        for seed in range(6):
            task = sample_task(two_room_scene, ROBOTS["stretch"], seed=seed)
            dataset += policy.collect_imitation_dataset(two_room_scene, task, backend)
        assert len(dataset) >= 100
        loop_backend = LinearSoftmaxBackend(seed=0)
        report = train_backend(backend, dataset, epochs=300)
        monkeypatch.setattr(policy, "loss_and_grad", loop_ignoring_pattern)
        want = train_backend(loop_backend, dataset, epochs=300)
        assert backend.get_params().tobytes() == loop_backend.get_params().tobytes()
        curve = np.array(report.losses + [report.final_loss])
        assert curve.tobytes() == np.array(want.losses + [want.final_loss]).tobytes()
        assert report.final_loss < report.losses[0]


def loop_ignoring_pattern(backend, X, y, pattern=None):
    """reference_impls.loop_loss_and_grad in the place of loss_and_grad,
    which train_backend hands its prepared batch as the pattern."""
    return loop_loss_and_grad(backend, X, y)


def block_rows(k):
    """The rows of 65,536 entries of X at k features (252 at the shipped
    260): a gradient summed in blocks of that many entries would cut its
    sums there, so the examples below test that many rows, one more, and
    three times as many plus one."""
    return 65536 // k


def column_sparse_batch(npr, n, k, zeroed):
    """Features with about half the entries zero, a fraction of the columns
    zeroed with mixed signed zeros (which the loop's sum from +0.0 turns
    into +0.0), and labels; with the zeroed columns."""
    X = npr.normal(size=(n, k))
    X[npr.random(X.shape) < 0.5] = 0.0
    cols = npr.permutation(k)[: round(zeroed * k)]
    X[:, cols] = np.where(npr.random((n, cols.size)) < 0.5, -0.0, 0.0)
    return X, npr.integers(0, N_ACTIONS, size=n), cols


class TestColumnSparseLoss:
    """loss_and_grad sums the gradient over X's nonzero entries only; the
    result stays the per-sample loop's, bit for bit, signed zeros too."""

    @settings(max_examples=200, deadline=None)
    @given(
        # small batches of narrow features, and batches of up to 1000 rows
        # of features about as wide as the shipped ones
        shape=st.one_of(
            st.tuples(st.integers(8, 84), st.integers(1, 100)),
            st.tuples(st.integers(196, 260), st.integers(1, 1000)),
        ),
        zeroed=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(16, 1), zeroed=1.0, scale=1.0, seed=0)
    @example(shape=(68, 3 * block_rows(68) + 1), zeroed=0.9, scale=1e3, seed=1)
    @example(shape=(260, block_rows(260)), zeroed=0.5, scale=1.0, seed=3)
    @example(shape=(260, block_rows(260) + 1), zeroed=0.5, scale=1e3, seed=4)
    @example(shape=(260, 3 * block_rows(260) + 1), zeroed=0.9, scale=1.0, seed=5)
    def test_bit_equal_to_the_loop(self, shape, zeroed, scale, seed):
        k, n = shape
        npr = np.random.default_rng(seed)
        backend = NarrowBackend(k)
        backend.set_params(npr.normal(0.0, scale, size=backend.get_params().shape))
        X, y, cols = column_sparse_batch(npr, n, backend.feature_dim, zeroed)
        loss, grad = loss_and_grad(backend, X, y)
        want_loss, want_grad = loop_loss_and_grad(backend, X, y)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        gW = grad[: backend.W.size].reshape(backend.W.shape)
        assert not gW[:, cols].any() and not np.signbit(gW[:, cols]).any()

    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.tuples(st.sampled_from([132, 260]), st.integers(1, 1000)),
        zeroed=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(260, block_rows(260)), zeroed=0.5, seed=3)
    @example(shape=(260, block_rows(260) + 1), zeroed=0.0, seed=4)
    @example(shape=(260, 3 * block_rows(260) + 1), zeroed=0.9, seed=2)
    def test_training_bit_equal_to_the_loop(self, shape, zeroed, seed):
        # train_backend finds the nonzeros once and hands them to every
        # epoch's loss_and_grad; theta and the loss curve stay the loop's
        k, n = shape
        npr = np.random.default_rng(seed)
        backend = NarrowBackend(k, seed=seed)
        loop_backend = NarrowBackend(k, seed=seed)
        X, y, _ = column_sparse_batch(npr, n, backend.feature_dim, zeroed)
        dataset = list(zip(X, y))
        report = train_backend(backend, dataset, epochs=3, lr=2.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(policy, "loss_and_grad", loop_ignoring_pattern)
            want = train_backend(loop_backend, dataset, epochs=3, lr=2.0)
        assert backend.get_params().tobytes() == loop_backend.get_params().tobytes()
        curve = np.array(report.losses + [report.final_loss])
        assert curve.tobytes() == np.array(want.losses + [want.final_loss]).tobytes()

    def test_imitation_data_leaves_columns_unused(self):
        # the offline benchmark's kind of data: expert imitation on 24x24
        # scenes (seeds 1000 on, as at its seed 1) until 250 samples
        from lhnav.scenegen import generate_scene
        from lhnav.taskforge import SceneTooSparseError

        backend = LinearSoftmaxBackend(seed=0)
        dataset = []
        for i in range(20):
            scene = generate_scene(seed=1000 + i)
            try:
                task = sample_task(scene, SPOT, seed=1000 + i)
            except SceneTooSparseError:
                continue
            dataset += policy.collect_imitation_dataset(scene, task, backend)
            if len(dataset) >= 250:
                break
        X = np.stack([x for x, _ in dataset[:250]])
        y = np.array([a for _, a in dataset[:250]])
        used = int(X.any(axis=0).sum())
        assert X.shape == (250, backend.feature_dim)
        assert 0 < used < backend.feature_dim // 2
        loss, grad = loss_and_grad(backend, X, y)
        want_loss, want_grad = loop_loss_and_grad(backend, X, y)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()


class TestLossInputs:
    def _batch(self):
        backend = NarrowBackend(12)
        X = np.random.default_rng(4).normal(size=(5, backend.feature_dim))
        return backend, X, np.array([0, 1, 2, 3, 2])

    @pytest.mark.parametrize("label", [-1, N_ACTIONS, 2.5, -0.5])
    def test_label_outside_the_actions_rejected(self, label):
        # a fractional label would otherwise truncate to an action
        backend, X, y = self._batch()
        y = y.astype(type(label))
        y[3] = label
        with pytest.raises(ValueError, match=rf"label {label} at sample 3"):
            loss_and_grad(backend, X, y)

    def test_one_label_per_sample(self):
        # a single label would broadcast over the whole batch
        backend, X, y = self._batch()
        with pytest.raises(ValueError, match=r"labels of shape \(1,\) do not match 5 samples"):
            loss_and_grad(backend, X, y[:1])

    def test_feature_length_must_match_the_backend(self):
        backend, X, y = self._batch()
        with pytest.raises(ValueError, match=r"\(5, 11\).*feature_dim 12"):
            loss_and_grad(backend, X[:, :11], y)

    def test_empty_batch_rejected(self):
        backend, X, y = self._batch()
        with pytest.raises(ValueError, match="at least one sample"):
            loss_and_grad(backend, X[:0], y[:0])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_feature_that_is_not_finite_rejected(self, value):
        # it would otherwise give a loss of nan and a nan gradient
        backend, X, y = self._batch()
        X[3, 7] = value
        with pytest.raises(ValueError, match=rf"feature 7 of sample 3 is {value}, not finite"):
            loss_and_grad(backend, X, y)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_logits_that_overflow_rejected(self):
        # finite features and weights whose product overflows for sample 2
        backend, X, y = self._batch()
        X[:, 0] = 0.0
        X[2, 0] = 10.0
        W = backend.W.copy()
        W[1, 0] = 1e308
        backend.W = W
        with pytest.raises(ValueError, match=r"the logits of sample 2 are not finite"):
            loss_and_grad(backend, X, y)


class TestTraining:
    def test_separable_toy_set_reaches_full_accuracy(self):
        # two far-apart clusters mapping to distinct actions
        npr = np.random.default_rng(5)
        backend = NarrowBackend(8, seed=0)
        dataset = []
        for _ in range(30):
            x = npr.normal(0, 0.1, size=backend.feature_dim)
            x[0] += 4.0
            dataset.append((x, int(Action.MOVE_FORWARD)))
            x2 = npr.normal(0, 0.1, size=backend.feature_dim)
            x2[0] -= 4.0
            dataset.append((x2, int(Action.TURN_LEFT)))
        report = train_backend(backend, dataset, epochs=200, lr=0.5)
        correct = 0
        for x, y in dataset:
            p = backend.probabilities(np.asarray(x))
            correct += int(np.argmax(p)) == y
        assert correct == len(dataset)
        assert report.final_loss < report.losses[0]

    def test_zero_learning_rate_changes_nothing(self):
        npr = np.random.default_rng(6)
        backend = NarrowBackend(8, seed=1)
        theta_before = backend.get_params().copy()
        dataset = [(npr.normal(size=backend.feature_dim), 2) for _ in range(8)]
        report = train_backend(backend, dataset, epochs=5, lr=0.0)
        assert np.array_equal(backend.get_params(), theta_before)
        assert all(l == report.losses[0] for l in report.losses)

    def test_loss_non_increasing_full_batch(self):
        npr = np.random.default_rng(7)
        backend = NarrowBackend(12, seed=2)
        dataset = [
            (npr.normal(size=backend.feature_dim), int(npr.integers(0, 4)))
            for _ in range(40)
        ]
        report = train_backend(backend, dataset, epochs=100, lr=0.2)
        curve = report.losses + [report.final_loss]
        for a, b in zip(curve, curve[1:]):
            assert b <= a + 1e-6

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_backend(NarrowBackend(8), [], epochs=1)

    def test_negative_epochs_rejected(self):
        # they would otherwise give an empty loss curve
        backend = NarrowBackend(8)
        dataset = [(np.ones(backend.feature_dim), 2)]
        with pytest.raises(ValueError, match="epochs must be at least 0, not -3"):
            train_backend(backend, dataset, epochs=-3)

    @pytest.mark.parametrize("epochs", [2.5, True, "3", np.int64(3)])
    def test_epochs_that_are_not_an_integer_rejected(self, epochs):
        # 2.5 would otherwise fail in range() and True train one epoch
        backend = NarrowBackend(8)
        dataset = [(np.ones(backend.feature_dim), 2)]
        with pytest.raises(TypeError, match=re.escape(f"epochs must be an integer, not {epochs!r}")):
            train_backend(backend, dataset, epochs=epochs)

    @pytest.mark.parametrize("bad", [11, 13])
    def test_feature_rows_of_another_length_name_the_sample(self, bad):
        # np.stack would otherwise fail without naming a sample
        backend = NarrowBackend(12)
        dataset = [(np.ones(backend.feature_dim), 2) for _ in range(4)]
        dataset[2] = (np.ones(bad), 1)
        with pytest.raises(ValueError, match=rf"sample 2 have shape \({bad},\), not .*\(12,\)"):
            train_backend(backend, dataset, epochs=1)

    def test_label_outside_the_actions_names_the_sample(self):
        # int() would otherwise truncate 2.5 to the action 2
        backend = NarrowBackend(8)
        dataset = [(np.ones(backend.feature_dim), a) for a in (0, 1, 2.5)]
        with pytest.raises(ValueError, match="label 2.5 at sample 2 is not an action index"):
            train_backend(backend, dataset, epochs=1)

    def test_every_epoch_goes_through_loss_and_grad(self, monkeypatch):
        # tests that swap in the loop, and the tracer's call and sample
        # counts, patch or wrap the module's loss_and_grad
        npr = np.random.default_rng(8)
        backend = NarrowBackend(12, seed=2)
        dataset = [(npr.normal(size=backend.feature_dim), int(npr.integers(0, 4))) for _ in range(9)]
        real, seen = policy.loss_and_grad, []

        def counting(backend, X, y, **kwargs):
            seen.append(X.shape)
            return real(backend, X, y, **kwargs)

        monkeypatch.setattr(policy, "loss_and_grad", counting)
        train_backend(backend, dataset, epochs=7)
        assert seen == [(9, backend.feature_dim)] * 8

    def test_pattern_of_another_batch_rejected(self):
        backend = NarrowBackend(8)
        X = np.ones((3, backend.feature_dim))
        batch = policy.prepare_batch(backend, X, [0, 1, 2])
        with pytest.raises(ValueError, match="prepared from another batch"):
            loss_and_grad(backend, X.copy(), batch.y, pattern=batch)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
    def test_learning_rate_that_is_not_finite_rejected(self, lr):
        # it would otherwise surface an epoch later as non-finite logits
        backend = NarrowBackend(8)
        dataset = [(np.ones(backend.feature_dim), 2)]
        with pytest.raises(ValueError, match=rf"learning rate lr must be finite, not {lr}"):
            train_backend(backend, dataset, epochs=2, lr=lr)

    def test_weights_round_trip(self, tmp_path):
        backend = LinearSoftmaxBackend(seed=9)
        path = tmp_path / "weights.json"
        backend.save(path)
        loaded = LinearSoftmaxBackend.load(path)
        assert np.array_equal(loaded.get_params(), backend.get_params())

    def test_weights_in_the_older_format_load(self, tmp_path):
        # older weights files carry a literal_ce flag, which load ignores
        backend = LinearSoftmaxBackend(seed=9)
        path = tmp_path / "weights.json"
        backend.save(path)
        payload = json.loads(path.read_text())
        assert "literal_ce" not in payload
        payload["literal_ce"] = False
        path.write_text(json.dumps(payload))
        loaded = LinearSoftmaxBackend.load(path)
        assert loaded.get_params().tobytes() == backend.get_params().tobytes()

    @pytest.mark.parametrize(
        "field, value", [("n_actions", 5), ("embed_dim", 3), ("theta", [0.0] * 7)]
    )
    def test_weights_with_wrong_shape_name_the_path(self, tmp_path, field, value):
        path = tmp_path / "weights.json"
        LinearSoftmaxBackend().save(path)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="weights.json"):
            LinearSoftmaxBackend.load(path)

    @pytest.mark.parametrize("field", ["n_actions", "embed_dim", "theta"])
    def test_weights_missing_a_field_name_the_path(self, tmp_path, field):
        # the loaders' fuzz test seldom drops one of these three keys from a
        # file whose theta holds 1044 values
        path = tmp_path / "weights.json"
        LinearSoftmaxBackend().save(path)
        payload = json.loads(path.read_text())
        del payload[field]
        path.write_text(json.dumps(payload))
        with pytest.raises(InputFileError, match=rf"weights\.json: not a weights file .*{field}"):
            LinearSoftmaxBackend.load(path)

    def test_weights_for_another_embedding_length_refused(self, tmp_path):
        # theta is sized for 32-long embeddings, so only the length is wrong
        path = tmp_path / "weights.json"
        theta = np.random.default_rng(3).normal(size=N_ACTIONS * (4 * 32 + 4) + N_ACTIONS)
        path.write_text(json.dumps({"embed_dim": 32, "n_actions": 4, "theta": theta.tolist()}))
        with pytest.raises(
            InputFileError, match=rf"{re.escape(str(path))}: .* length 32, .* length 64"
        ):
            LinearSoftmaxBackend.load(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_weights_that_are_not_finite_name_the_path(self, tmp_path, value):
        path = tmp_path / "weights.json"
        LinearSoftmaxBackend().save(path)
        payload = json.loads(path.read_text())
        payload["theta"][5] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"weights\.json.*finite"):
            LinearSoftmaxBackend.load(path)

    def test_imitation_rows_are_distinct_arrays(self, two_room_scene):
        from lhnav.policy import collect_imitation_dataset

        backend = LinearSoftmaxBackend(seed=0)
        task = sample_task(two_room_scene, SPOT, seed=7)
        rows = [x for x, _ in collect_imitation_dataset(two_room_scene, task, backend)]
        assert len(rows) > 3
        for i, row in enumerate(rows):
            assert not any(np.shares_memory(row, other) for other in rows[i + 1 :]), i

    def test_collect_imitation_dataset_matches_backend_features(self, two_room_scene):
        from lhnav.policy import collect_imitation_dataset

        backend = LinearSoftmaxBackend(seed=0)
        task = sample_task(two_room_scene, SPOT, seed=7)
        dataset = collect_imitation_dataset(two_room_scene, task, backend)
        assert dataset
        for x, y in dataset:
            assert x.shape == (backend.feature_dim,)
            assert 0 <= y < 4
        # the trace ends with the expert's stop on the final stage
        assert dataset[-1][1] == int(Action.STOP)

    def test_imitation_pairs_match_plain_loop_with_forgetting(self, two_room_scene):
        # the episode outlasts the short-term memory, so forgetting merges
        # entries while the features are recorded
        from lhnav.expert import expert_next_action
        from lhnav.policy import ExpertPolicy, collect_imitation_dataset
        from lhnav.runner import RunConfig, run_episode

        stretch = ROBOTS["stretch"]
        task = sample_task(two_room_scene, stretch, seed=7)
        backend = LinearSoftmaxBackend(seed=4)
        backend.set_params(np.random.default_rng(8).normal(0, 0.5, backend.get_params().shape))
        dataset = collect_imitation_dataset(two_room_scene, task, backend, budget=60)
        oracle = EmbeddingOracle()

        traj, _ = run_episode(two_room_scene, task, ExpertPolicy(), RunConfig(budget=60))
        moves = [span for span in traj.spans if span.kind == MOVE_TO]
        mem = ShortTermMemory()
        expected = []
        for stage, span in enumerate(moves):
            target = span.target_id
            for step in traj.steps[span.start : span.end]:
                obs = observe(two_room_scene, step.state, stretch)
                stage_hot = np.zeros(4)
                stage_hot[stage] = 1.0
                mean = mem.mean_entry() if len(mem) else np.zeros(EMBED_DIM)
                x = np.concatenate([oracle.embed_view(v) for v in obs.views] + [mean, stage_hot])
                label = expert_next_action(
                    StepContext(two_room_scene, step.state, stretch, target, stage)
                )
                expected.append((x, int(label)))
                confidence = float(backend.probabilities(x).max())
                forget_and_append(mem, oracle.embed_observation(obs), confidence)

        assert len(expected) > CAPACITY and len(moves) > 1
        assert len(dataset) == len(expected)
        for (x, y), (x_ref, y_ref) in zip(dataset, expected):
            assert y == y_ref
            assert np.array_equal(x, x_ref)

    def test_imitation_data_replayed_from_a_saved_trajectory_is_bit_equal(
        self, tmp_path, two_room_scene
    ):
        # the episode outlasts the short-term memory, so forgetting merges
        # entries
        from lhnav.policy import ExpertPolicy, collect_imitation_dataset, imitation_dataset
        from lhnav.runner import RunConfig, run_episode
        from lhnav.trajectory import Trajectory

        task = sample_task(two_room_scene, ROBOTS["stretch"], seed=7)
        backend = LinearSoftmaxBackend(seed=4)
        backend.set_params(np.random.default_rng(8).normal(0, 0.5, backend.get_params().shape))
        live = collect_imitation_dataset(two_room_scene, task, backend, budget=60)
        traj, _ = run_episode(two_room_scene, task, ExpertPolicy(), RunConfig(budget=60))
        traj.save(tmp_path / "t.jsonl")
        loaded = Trajectory.load(tmp_path / "t.jsonl")
        replayed = imitation_dataset(two_room_scene, loaded, backend)
        assert len(replayed) == len(live) > CAPACITY
        for (x, y), (x_live, y_live) in zip(replayed, live):
            assert y == y_live
            assert x.tobytes() == x_live.tobytes()

    def test_imitation_labels_are_the_expert_episode_actions(self, two_room_scene):
        from lhnav.policy import ExpertPolicy, collect_imitation_dataset
        from lhnav.runner import RunConfig, run_episode

        task = sample_task(two_room_scene, ROBOTS["stretch"], seed=7)
        traj, _ = run_episode(two_room_scene, task, ExpertPolicy(), RunConfig())
        backend = LinearSoftmaxBackend(seed=0)
        dataset = collect_imitation_dataset(two_room_scene, task, backend)
        assert [y for _, y in dataset] == [int(a) for a in traj.actions()]


class TestMemoryPolicyStep:
    def _ctx(self, scene):
        s = AgentState(position=scene.cell_center((2, 2)), heading=0.0)
        return step_context(scene, s, "box-0")

    def test_store_weighting_dominates_uniform_backend(self, open_scene):
        oracle = EmbeddingOracle()
        ctx = self._ctx(open_scene)
        store = LongTermStore()
        store.add(
            "box",
            oracle.embed_observation(observe(open_scene, ctx.state, SPOT)),
            np.array([0.0, 0.0, 1.0, 0.0]),
        )
        memory = MemoryPolicy(UniformBackend(), store)
        action = memory_policy_step(memory, ctx)
        assert action == Action.MOVE_FORWARD
        assert len(memory.memory) == 1

    def test_empty_store_uses_backend_argmax(self, open_scene):
        class Fixed:
            def decide(self, ctx, rep, mem):
                return np.array([0.05, 0.6, 0.15, 0.2]), None

        memory = MemoryPolicy(Fixed(), LongTermStore())
        assert memory_policy_step(memory, self._ctx(open_scene)) == Action.TURN_LEFT

    def test_policy_embeds_at_EMBED_DIM(self, open_scene):
        memory = MemoryPolicy(LinearSoftmaxBackend(seed=0))
        memory_policy_step(memory, self._ctx(open_scene))
        [(views, fused, _)] = memory.sensed.values()
        assert views.shape == (3 * EMBED_DIM,)
        assert fused.shape == (EMBED_DIM,)
        assert memory.memory.entries.shape == (1, EMBED_DIM)

    def test_memory_growth_capped(self, open_scene):
        ctx = self._ctx(open_scene)
        memory = MemoryPolicy(UniformBackend(), LongTermStore())
        mem = memory.memory
        for i in range(CAPACITY + 8):
            before = len(mem)
            memory_policy_step(memory, ctx)
            assert len(mem) in (before + 1, CAPACITY)
        assert len(mem) == CAPACITY


class TestForgetOncePerStep:
    """The benchmark's traced run checks that lhnav.policy.forget_and_append
    runs once per step; an untraced run would not notice a step that went
    round it."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        real = policy.forget_and_append

        def counting(mem, h_new, c_new):
            calls.append(len(mem))
            return real(mem, h_new, c_new)

        monkeypatch.setattr(policy, "forget_and_append", counting)
        return calls

    def test_memory_episode(self, two_room_scene, counted):
        from lhnav.runner import RunConfig, run_episode

        task = sample_task(two_room_scene, SPOT, seed=7)
        # weights whose episode outlasts the short-term memory
        memory = MemoryPolicy(LinearSoftmaxBackend(seed=1))
        traj, _ = run_episode(two_room_scene, task, memory, RunConfig(policy="memory", budget=40))
        assert len(counted) == len(traj.steps) > CAPACITY

    def test_imitation_episode(self, two_room_scene, counted):
        from lhnav.policy import collect_imitation_dataset

        task = sample_task(two_room_scene, SPOT, seed=7)
        backend = LinearSoftmaxBackend(seed=0)
        dataset = collect_imitation_dataset(two_room_scene, task, backend)
        assert len(counted) == len(dataset) > CAPACITY


class TestPolicies:
    def test_random_policy_reproducible(self, two_room_scene):
        task = sample_task(two_room_scene, seed=7)
        traces = []
        for _ in range(2):
            pol = RandomPolicy(task.id, seed=5)
            ctx = step_context(two_room_scene, sample_spawn(two_room_scene, task), "bag-0")
            traces.append([pol.act(ctx) for _ in range(50)])
        assert traces[0] == traces[1]

    def test_memory_policy_retrieves_by_stage_target_category(self, two_room_scene):
        # each stage weights the decision by its own target's bucket
        task = sample_task(two_room_scene, seed=7)
        assert [s.object_id for s in task.move_targets()] == ["bag-0", "desk-0"]
        store = LongTermStore()
        store.add("bag", np.ones(EMBED_DIM), one_hot(Action.MOVE_FORWARD))
        store.add("desk", np.ones(EMBED_DIM), one_hot(Action.TURN_RIGHT))
        pol = MemoryPolicy(UniformBackend(), store=store)
        state = sample_spawn(two_room_scene, task)
        actions = [
            pol.act(step_context(two_room_scene, state, target, stage=stage))
            for stage, target in enumerate(["bag-0", "desk-0"])
        ]
        assert actions == [Action.MOVE_FORWARD, Action.TURN_RIGHT]

    def test_memory_policy_retrieves_again_for_a_new_target_at_the_same_pose(
        self, two_room_scene, monkeypatch
    ):
        from reference_impls import SenseEveryStepPolicy

        task = sample_task(two_room_scene, seed=7)
        oracle = EmbeddingOracle()
        store = LongTermStore()
        store.add("bag", np.ones(EMBED_DIM), one_hot(Action.MOVE_FORWARD))
        store.add("desk", np.ones(EMBED_DIM), one_hot(Action.TURN_RIGHT))
        observed, retrieved = [], []
        real_observe, real_retrieve = world.observe, LongTermStore.retrieve_topk
        monkeypatch.setattr(
            world, "observe", lambda *args: observed.append(args) or real_observe(*args)
        )
        monkeypatch.setattr(
            LongTermStore,
            "retrieve_topk",
            lambda *args: retrieved.append(args[1]) or real_retrieve(*args),
        )
        pol = MemoryPolicy(UniformBackend(), store=store)
        reference = SenseEveryStepPolicy(UniformBackend(), oracle, store)
        state = sample_spawn(two_room_scene, task)
        # one context object per (pose, target), as the runner makes them
        bag, desk, bag2 = (
            step_context(two_room_scene, state, target) for target in ("bag-0", "desk-0", "bag-0")
        )
        contexts = [bag, bag, desk, desk, bag2]
        actions = [pol.act(ctx) for ctx in contexts]
        # one pose, observed once; the desk's category is retrieved as the
        # bag's was, and the bag's second context reuses the bag's retrieval
        assert len(observed) == 1
        assert retrieved == ["bag", "desk"]
        assert actions == [reference.act(ctx) for ctx in contexts]
        assert actions == [Action.MOVE_FORWARD] * 2 + [Action.TURN_RIGHT] * 2 + [Action.MOVE_FORWARD]

    def test_memory_policy_senses_once_for_equal_contexts(self, two_room_scene, monkeypatch):
        task = sample_task(two_room_scene, seed=7)
        observed = []
        real = world.observe
        monkeypatch.setattr(world, "observe", lambda *args: observed.append(args) or real(*args))
        pol = MemoryPolicy(UniformBackend())
        state = sample_spawn(two_room_scene, task)
        first, second = (step_context(two_room_scene, state, "bag-0") for _ in range(2))
        assert first == second and first is not second
        for ctx in (first, first, second, second):
            pol.act(ctx)
        assert len(observed) == 1

    def test_memory_policy_does_not_sense_again_at_a_pose_it_turns_back_to(
        self, two_room_scene, monkeypatch
    ):
        from reference_impls import SenseEveryStepPolicy

        task = sample_task(two_room_scene, seed=7)
        rng = np.random.default_rng(3)
        store = LongTermStore()
        for _ in range(8):
            store.add("bag", rng.random(EMBED_DIM) + 0.01, rng.dirichlet([1, 1, 1, 1]))
        # a turn left and then right, from a heading both turns keep exact,
        # comes back to an equal state value in a new state object
        start = dataclasses.replace(sample_spawn(two_room_scene, task), heading=0.0)
        left = world.apply_action(two_room_scene, start, Action.TURN_LEFT, SPOT).state
        back = world.apply_action(two_room_scene, left, Action.TURN_RIGHT, SPOT).state
        assert back == start and back is not start and left != start
        contexts = [step_context(two_room_scene, s, "bag-0") for s in (start, left, back, back)]
        reference = SenseEveryStepPolicy(UniformBackend(), EmbeddingOracle(), store)
        want = [reference.act(ctx) for ctx in contexts]
        observed, retrieved = [], []
        real_observe, real_retrieve = world.observe, LongTermStore.retrieve_topk
        monkeypatch.setattr(
            world, "observe", lambda *args: observed.append(args[1]) or real_observe(*args)
        )
        monkeypatch.setattr(
            LongTermStore,
            "retrieve_topk",
            lambda *args: retrieved.append(args[1]) or real_retrieve(*args),
        )
        pol = MemoryPolicy(UniformBackend(), store=store)
        assert [pol.act(ctx) for ctx in contexts] == want
        assert len(observed) == 2 and observed[0] is start and observed[1] is left
        # both headings see the same objects at the same ranges, so the
        # second pose shares the first one's retrieval
        [(_, _, fused), (_, _, fused_left)] = pol.sensed.values()
        assert fused == fused_left
        assert retrieved == ["bag"]

    def test_step_context_is_frozen(self, two_room_scene):
        task = sample_task(two_room_scene, seed=7)
        ctx = step_context(two_room_scene, sample_spawn(two_room_scene, task), "bag-0")
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.state = sample_spawn(two_room_scene, task)

    def test_memory_policy_never_mutates_store(self, two_room_scene):
        task = sample_task(two_room_scene, seed=7)
        store = LongTermStore()
        store.add("bag", np.ones(EMBED_DIM), np.array([0.25, 0.25, 0.25, 0.25]))
        snapshot = [
            (t, [(o.copy(), a.copy()) for o, a in b] )
            for t, b in store.buckets.items()
        ]
        pol = MemoryPolicy(UniformBackend(), store=store)
        state = sample_spawn(two_room_scene, task)
        for _ in range(20):
            pol.act(step_context(two_room_scene, state, "bag-0"))
        assert len(store.buckets) == len(snapshot)
        for (t, entries), (t2, entries2) in zip(snapshot, store.buckets.items()):
            assert t == t2 and len(entries) == len(entries2)
            for (o, a), (o2, a2) in zip(entries, entries2):
                assert np.array_equal(o, o2) and np.array_equal(a, a2)

    def test_expert_teacher_backend_emits_one_hot(self, corridor_scene):
        backend = ExpertTeacherBackend()
        s = AgentState(position=corridor_scene.cell_center((1, 1)), heading=0.0)
        decision, row = backend.decide(step_context(corridor_scene, s, "box-0"), None, None)
        assert np.array_equal(decision, one_hot(Action.MOVE_FORWARD))
        assert row is None

    def test_expert_wrapped_memory_policy_full_success(self):
        # the harness is never the bottleneck: a memory policy fed one-hot
        # expert decisions scores SR = 1 even with a junk-filled store
        from lhnav.runner import RunConfig, run_episode
        from lhnav.scenegen import generate_scene

        npr = np.random.default_rng(2)
        for seed in (0, 1, 2):
            scene = generate_scene(seed=700 + seed, size=20, regions=4)
            task = sample_task(scene, SPOT, seed=seed)
            store = LongTermStore()
            for obj in scene.objects:
                act = npr.random(4)
                store.add(obj.category, npr.normal(size=EMBED_DIM), act / act.sum())
            policy = MemoryPolicy(ExpertTeacherBackend(), store=store)
            cfg = RunConfig(policy="memory")
            _, result = run_episode(scene, task, policy, cfg)
            assert all(r.success for r in result.records)
            assert all(r.ne <= 1.0 for r in result.records)
