import dataclasses
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lhnav import policy
from lhnav.expert import expert_next_action
from lhnav.memory import N_ACTIONS, LongTermStore, ShortTermMemory, forget_and_append
from lhnav.policy import (
    EmbeddingOracle,
    LinearSoftmaxBackend,
    MemoryPolicy,
    RandomPolicy,
    StepContext,
    loss_and_grad,
    memory_policy_step,
    one_hot,
    train_backend,
)
from lhnav.taskforge import MOVE_TO, sample_spawn, sample_task
from lhnav.world import ROBOTS, Action, AgentState, observe, subtask_success

from conftest import free_cells
from reference_impls import HashEveryCall, loop_loss_and_grad, reference_embed

SPOT = ROBOTS["spot"]


class UniformBackend:
    """Flat decision vector; a probe of the weighting path."""

    def decide(self, ctx, views, memory):
        return np.full(N_ACTIONS, 1.0 / N_ACTIONS), 1.0 / N_ACTIONS


class ExpertTeacherBackend:
    """A one-hot on the expert action for the step context, so it exercises
    the full memory/weighting path while never being the reason an episode
    fails."""

    def decide(self, ctx, views, memory):
        action = expert_next_action(ctx.scene, ctx.state, ctx.target_id, ctx.robot, ctx.at_target)
        return one_hot(action), 1.0


def step_context(scene, state, target_id, stage=0):
    """A runner step context, with the runner's verdict on the state."""
    return StepContext(
        scene=scene, state=state, robot=SPOT, target_id=target_id, stage=stage,
        at_target=subtask_success(scene, state, target_id),
    )


class TestEmbeddingOracle:
    def test_deterministic(self, open_scene):
        oracle = EmbeddingOracle(dim=32)
        s = AgentState(position=open_scene.cell_center((2, 4)), heading=0.0)
        obs1 = observe(open_scene, s, SPOT)
        obs2 = observe(open_scene, s, SPOT)
        assert np.array_equal(
            oracle.embed_observation(obs1), oracle.embed_observation(obs2)
        )

    def test_disjoint_categories_orthogonal(self):
        oracle = EmbeddingOracle(dim=64)
        cats_a = ["box", "lamp"]
        cats_b = ["toy", "mug"]
        idx_a = {oracle.index_for(c) for c in cats_a}
        idx_b = {oracle.index_for(c) for c in cats_b}
        assert not idx_a & idx_b  # verified non-colliding under the salt
        va = oracle._embed_pairs([(c, 1.0) for c in cats_a])
        vb = oracle._embed_pairs([(c, 1.0) for c in cats_b])
        assert float(np.dot(va, vb)) == 0.0

    def test_empty_observation_gives_unit_void(self):
        oracle = EmbeddingOracle(dim=16)
        v = oracle._embed_pairs([])
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.flatnonzero(v).tolist() == [oracle.index_for("__void__")]

    def test_closer_objects_weigh_more(self):
        oracle = EmbeddingOracle(dim=64)
        near = oracle._embed_pairs([("box", 0.5), ("lamp", 3.0)])
        idx_box = oracle.index_for("box")
        idx_lamp = oracle.index_for("lamp")
        assert near[idx_box] > near[idx_lamp]

    def test_normalized(self):
        oracle = EmbeddingOracle(dim=64)
        v = oracle._embed_pairs([("box", 1.0), ("lamp", 2.0), ("toy", 0.2)])
        assert np.linalg.norm(v) == pytest.approx(1.0)


    def test_index_hashed_once_per_process(self, monkeypatch):
        # the memoised coordinates and embeddings are those of hashing on
        # every call; a process hashes a category once per dim, for all of
        # its oracles
        from lhnav.scenegen import generate_scene

        scene = generate_scene(seed=31, size=24, regions=4)
        names = sorted({obj.category for obj in scene.objects}) + ["__void__"]
        hashing = HashEveryCall(dim=16)
        want = {name: hashing.index_for(name) for name in names}
        want_17 = HashEveryCall(dim=17).index_for(names[0])
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
        oracles = [EmbeddingOracle(dim=16), EmbeddingOracle(dim=16)]
        for oracle in oracles:
            for _ in range(3):
                assert {name: oracle.index_for(name) for name in names} == want
        assert len(hashed) == len(names)
        for obs, (want_views, want_fused) in zip(observations, want_embeddings):
            views, fused = oracles[1].embed(obs)
            assert views.tobytes() == want_views.tobytes()
            assert fused.tobytes() == want_fused.tobytes()
        assert len(hashed) == len(names)
        # another dim hashes again, to a coordinate of its own
        assert EmbeddingOracle(dim=17).index_for(names[0]) == want_17
        assert len(hashed) == len(names) + 1

    def test_one_pass_matches_the_per_view_embeddings(self):
        from lhnav.scenegen import generate_scene

        rng = random.Random(12)
        oracle = EmbeddingOracle(dim=16)
        for seed in range(4):
            scene = generate_scene(seed=900 + seed, size=24, regions=4)
            free = free_cells(scene)
            for _ in range(40):
                state = AgentState(
                    position=scene.cell_center(rng.choice(free)),
                    heading=rng.choice([0.0, 30.0, 90.0, 135.0, 180.0, 300.0]),
                )
                obs = observe(scene, state, SPOT)
                want_views = [reference_embed(oracle, v.objects) for v in obs.views]
                want_fused = reference_embed(oracle, obs.visible())
                views, fused = oracle.embed(obs)
                assert views.tobytes() == np.concatenate(want_views).tobytes()
                assert fused.tobytes() == want_fused.tobytes()
                for view, want in zip(obs.views, want_views):
                    assert oracle.embed_view(view).tobytes() == want.tobytes()
                assert oracle.embed_observation(obs).tobytes() == want_fused.tobytes()


class TestLinearSoftmaxBackend:
    def test_features_are_views_memory_and_stage(self, open_scene):
        backend = LinearSoftmaxBackend(embed_dim=16)
        oracle = EmbeddingOracle(dim=16)
        s = AgentState(position=open_scene.cell_center((3, 3)), heading=0.0)
        obs = observe(open_scene, s, SPOT)
        assert [v.direction for v in obs.views] == ["left", "front", "right"]
        views = np.concatenate([oracle.embed_view(v) for v in obs.views])
        mem = ShortTermMemory()
        forget_and_append(mem, np.ones(16), 0.5)
        forget_and_append(mem, np.zeros(16), 0.5)
        x = backend.features(1, views, mem)
        assert x.shape == (backend.feature_dim,) == (68,)
        assert np.array_equal(x[:48], views)
        assert np.array_equal(x[48:64], np.full(16, 0.5))
        assert np.array_equal(x[64:], [0.0, 1.0, 0.0, 0.0])


def random_features(rng, backend, n):
    return rng.normal(size=(n, backend.feature_dim))


class TestGradient:
    def test_matches_central_finite_differences(self):
        npr = np.random.default_rng(17)
        backend = LinearSoftmaxBackend(embed_dim=2, seed=3)
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


class TestBatchedLossMatchesLoop:
    """The batched loss_and_grad gives the bits of the per-sample loop it
    replaced (reference_impls.loop_loss_and_grad)."""

    @settings(max_examples=300, deadline=None)
    @given(
        embed_dim=st.integers(1, 20),
        n=st.one_of(st.sampled_from([1, 2]), st.integers(3, 40), st.sampled_from([400, 1500])),
        scale=st.sampled_from([1e-3, 0.01, 1.0, 30.0, 1e3, 1e6]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(embed_dim=1, n=1, scale=1e6, seed=0)
    @example(embed_dim=16, n=2, scale=1e3, seed=3)
    def test_loss_and_gradient_bit_equal(self, embed_dim, n, scale, seed):
        # zeroed features and saturated softmax rows make signed-zero terms,
        # which only a sum started from 0.0 reproduces
        npr = np.random.default_rng(seed)
        backend = LinearSoftmaxBackend(embed_dim=embed_dim)
        backend.set_params(npr.normal(0.0, scale, size=backend.get_params().shape))
        X = npr.normal(size=(n, backend.feature_dim))
        X[npr.random(X.shape) < 0.5] = 0.0
        y = npr.integers(0, N_ACTIONS, size=n)
        loss, grad = loss_and_grad(backend, X, y)
        want_loss, want_grad = loop_loss_and_grad(backend, X, y)
        assert isinstance(loss, float)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()

    def test_large_batch_bit_equal_in_bounded_memory(self):
        # the gradient's outer products are held a block at a time, so a
        # 5000 x 260 batch never holds all 41.6 MB of them at once
        npr = np.random.default_rng(11)
        backend = LinearSoftmaxBackend()
        backend.set_params(npr.normal(0.0, 1.0, size=backend.get_params().shape))
        X = npr.normal(size=(5000, backend.feature_dim))
        X[npr.random(X.shape) < 0.3] = 0.0
        y = npr.integers(0, N_ACTIONS, size=5000)
        tracemalloc.start()
        try:
            loss, grad = loss_and_grad(backend, X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want_loss, want_grad = loop_loss_and_grad(backend, X, y)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        assert peak < 8e6

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
    which train_backend hands the nonzero pattern of X."""
    return loop_loss_and_grad(backend, X, y)


def block_rows(embed_dim):
    """The rows of one block of policy.nonzero_pattern at this embed_dim."""
    return policy.GRAD_ENTRIES // LinearSoftmaxBackend(embed_dim=embed_dim).feature_dim


@st.composite
def batch_shapes(draw, embed_dims):
    """An embed_dim and a batch size n of 1 to three blocks and five rows,
    or one at a block boundary."""
    embed_dim = draw(embed_dims)
    rows = block_rows(embed_dim)
    n = draw(st.one_of(st.integers(1, 3 * rows + 5), st.sampled_from([rows, rows + 1, 3 * rows + 1])))
    return embed_dim, n


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
        # small batches of narrow features, and batches of up to three
        # blocks of features as wide as the shipped embeddings' (a block
        # of narrow ones is thousands of rows, too slow for the loop)
        shape=st.one_of(
            st.tuples(st.integers(1, 20), st.integers(1, 100)), batch_shapes(st.integers(48, 64))
        ),
        zeroed=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(3, 1), zeroed=1.0, scale=1.0, seed=0)
    @example(shape=(16, 3 * block_rows(16) + 1), zeroed=0.9, scale=1e3, seed=1)
    def test_bit_equal_to_the_loop(self, shape, zeroed, scale, seed):
        embed_dim, n = shape
        npr = np.random.default_rng(seed)
        backend = LinearSoftmaxBackend(embed_dim=embed_dim)
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
        shape=batch_shapes(st.sampled_from([32, 64])),
        zeroed=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(64, 3 * block_rows(64) + 5), zeroed=0.9, seed=2)
    def test_training_bit_equal_to_the_loop(self, shape, zeroed, seed):
        # train_backend finds the nonzeros once and hands them to every
        # epoch's loss_and_grad; theta and the loss curve stay the loop's
        embed_dim, n = shape
        npr = np.random.default_rng(seed)
        backend = LinearSoftmaxBackend(embed_dim=embed_dim, seed=seed)
        loop_backend = LinearSoftmaxBackend(embed_dim=embed_dim, seed=seed)
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
        backend = LinearSoftmaxBackend(embed_dim=2)
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
        backend = LinearSoftmaxBackend(embed_dim=1, seed=0)
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
        backend = LinearSoftmaxBackend(embed_dim=1, seed=1)
        theta_before = backend.get_params().copy()
        dataset = [(npr.normal(size=backend.feature_dim), 2) for _ in range(8)]
        report = train_backend(backend, dataset, epochs=5, lr=0.0)
        assert np.array_equal(backend.get_params(), theta_before)
        assert all(l == report.losses[0] for l in report.losses)

    def test_loss_non_increasing_full_batch(self):
        npr = np.random.default_rng(7)
        backend = LinearSoftmaxBackend(embed_dim=2, seed=2)
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
            train_backend(LinearSoftmaxBackend(embed_dim=1), [], epochs=1)

    def test_negative_epochs_rejected(self):
        # they would otherwise give an empty loss curve
        backend = LinearSoftmaxBackend(embed_dim=1)
        dataset = [(np.ones(backend.feature_dim), 2)]
        with pytest.raises(ValueError, match="epochs must be at least 0, not -3"):
            train_backend(backend, dataset, epochs=-3)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
    def test_learning_rate_that_is_not_finite_rejected(self, lr):
        # it would otherwise surface an epoch later as non-finite logits
        backend = LinearSoftmaxBackend(embed_dim=1)
        dataset = [(np.ones(backend.feature_dim), 2)]
        with pytest.raises(ValueError, match=rf"learning rate lr must be finite, not {lr}"):
            train_backend(backend, dataset, epochs=2, lr=lr)

    def test_weights_round_trip(self, tmp_path):
        backend = LinearSoftmaxBackend(embed_dim=2, seed=9)
        path = tmp_path / "weights.json"
        backend.save(path)
        loaded = LinearSoftmaxBackend.load(path)
        assert np.array_equal(loaded.get_params(), backend.get_params())

    def test_weights_in_the_older_format_load(self, tmp_path):
        # older weights files carry a literal_ce flag, which load ignores
        backend = LinearSoftmaxBackend(embed_dim=2, seed=9)
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
        LinearSoftmaxBackend(embed_dim=2).save(path)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="weights.json"):
            LinearSoftmaxBackend.load(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_weights_that_are_not_finite_name_the_path(self, tmp_path, value):
        path = tmp_path / "weights.json"
        LinearSoftmaxBackend(embed_dim=2).save(path)
        payload = json.loads(path.read_text())
        payload["theta"][5] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"weights\.json.*finite"):
            LinearSoftmaxBackend.load(path)

    def test_imitation_rows_are_distinct_arrays(self, two_room_scene):
        from lhnav.policy import collect_imitation_dataset

        backend = LinearSoftmaxBackend(embed_dim=16, seed=0)
        task = sample_task(two_room_scene, SPOT, seed=7)
        rows = [x for x, _ in collect_imitation_dataset(two_room_scene, task, backend)]
        assert len(rows) > 3
        for i, row in enumerate(rows):
            assert not any(np.shares_memory(row, other) for other in rows[i + 1 :]), i

    def test_collect_imitation_dataset_matches_backend_features(self, two_room_scene):
        from lhnav.policy import collect_imitation_dataset

        backend = LinearSoftmaxBackend(embed_dim=16, seed=0)
        task = sample_task(two_room_scene, SPOT, seed=7)
        dataset = collect_imitation_dataset(two_room_scene, task, backend)
        assert dataset
        for x, y in dataset:
            assert x.shape == (backend.feature_dim,)
            assert 0 <= y < 4
        # the trace ends with the expert's stop on the final stage
        assert dataset[-1][1] == int(Action.STOP)

    def test_imitation_pairs_match_plain_loop_with_forgetting(self, two_room_scene):
        # a small capacity makes short-term forgetting merge entries while
        # the features are recorded
        from lhnav.expert import expert_next_action
        from lhnav.policy import ExpertPolicy, collect_imitation_dataset
        from lhnav.runner import RunConfig, run_episode

        stretch = ROBOTS["stretch"]
        task = sample_task(two_room_scene, stretch, seed=7)
        backend = LinearSoftmaxBackend(embed_dim=16, seed=4)
        backend.set_params(np.random.default_rng(8).normal(0, 0.5, backend.get_params().shape))
        dataset = collect_imitation_dataset(
            two_room_scene, task, backend, budget=60, capacity=3
        )
        oracle = EmbeddingOracle(dim=16)

        traj, _ = run_episode(two_room_scene, task, ExpertPolicy(), RunConfig(budget=60))
        moves = [span for span in traj.spans if span.kind == MOVE_TO]
        mem = ShortTermMemory(capacity=3)
        expected = []
        for stage, span in enumerate(moves):
            target = span.target_id
            for step in traj.steps[span.start : span.end]:
                obs = observe(two_room_scene, step.state, stretch)
                stage_hot = np.zeros(4)
                stage_hot[stage] = 1.0
                x = np.concatenate(
                    [oracle.embed_view(v) for v in obs.views] + [mem.mean_entry(16), stage_hot]
                )
                at_target = subtask_success(two_room_scene, step.state, target)
                label = expert_next_action(two_room_scene, step.state, target, stretch, at_target)
                expected.append((x, int(label)))
                confidence = float(backend.probabilities(x).max())
                forget_and_append(mem, oracle.embed_observation(obs), confidence)

        assert len(expected) > 3 and len(moves) > 1
        assert len(dataset) == len(expected)
        for (x, y), (x_ref, y_ref) in zip(dataset, expected):
            assert y == y_ref
            assert np.array_equal(x, x_ref)

    def test_imitation_data_replayed_from_a_saved_trajectory_is_bit_equal(
        self, tmp_path, two_room_scene
    ):
        # a capacity of 3 makes short-term forgetting merge entries
        from lhnav.policy import ExpertPolicy, collect_imitation_dataset, imitation_dataset
        from lhnav.runner import RunConfig, run_episode
        from lhnav.trajectory import Trajectory

        task = sample_task(two_room_scene, ROBOTS["stretch"], seed=7)
        backend = LinearSoftmaxBackend(embed_dim=16, seed=4)
        backend.set_params(np.random.default_rng(8).normal(0, 0.5, backend.get_params().shape))
        live = collect_imitation_dataset(two_room_scene, task, backend, budget=60, capacity=3)
        traj, _ = run_episode(two_room_scene, task, ExpertPolicy(), RunConfig(budget=60))
        traj.save(tmp_path / "t.jsonl")
        loaded = Trajectory.load(tmp_path / "t.jsonl")
        replayed = imitation_dataset(two_room_scene, loaded, backend, capacity=3)
        assert len(replayed) == len(live) > 3
        for (x, y), (x_live, y_live) in zip(replayed, live):
            assert y == y_live
            assert x.tobytes() == x_live.tobytes()

    def test_imitation_labels_are_the_expert_episode_actions(self, two_room_scene):
        from lhnav.policy import ExpertPolicy, collect_imitation_dataset
        from lhnav.runner import RunConfig, run_episode

        task = sample_task(two_room_scene, ROBOTS["stretch"], seed=7)
        traj, _ = run_episode(two_room_scene, task, ExpertPolicy(), RunConfig())
        backend = LinearSoftmaxBackend(embed_dim=16, seed=0)
        dataset = collect_imitation_dataset(two_room_scene, task, backend)
        assert [y for _, y in dataset] == [int(a) for a in traj.actions()]


class TestMemoryPolicyStep:
    def _ctx(self, scene):
        s = AgentState(position=scene.cell_center((2, 2)), heading=0.0)
        return step_context(scene, s, "box-0")

    def test_store_weighting_dominates_uniform_backend(self, open_scene):
        oracle = EmbeddingOracle(dim=16)
        ctx = self._ctx(open_scene)
        store = LongTermStore(k=3)
        store.add(
            "box",
            oracle.embed_observation(observe(open_scene, ctx.state, SPOT)),
            np.array([0.0, 0.0, 1.0, 0.0]),
        )
        memory = MemoryPolicy(UniformBackend(), oracle, store, capacity=8)
        action = memory_policy_step(memory, ctx)
        assert action == Action.MOVE_FORWARD
        assert len(memory.memory) == 1

    def test_empty_store_uses_backend_argmax(self, open_scene):
        oracle = EmbeddingOracle(dim=16)

        class Fixed:
            def decide(self, ctx, rep, mem):
                return np.array([0.05, 0.6, 0.15, 0.2]), 0.6

        memory = MemoryPolicy(Fixed(), oracle, LongTermStore(), capacity=4)
        assert memory_policy_step(memory, self._ctx(open_scene)) == Action.TURN_LEFT

    def test_memory_growth_capped(self, open_scene):
        oracle = EmbeddingOracle(dim=8)
        ctx = self._ctx(open_scene)
        memory = MemoryPolicy(UniformBackend(), oracle, LongTermStore(), capacity=3)
        mem = memory.memory
        for i in range(10):
            before = len(mem)
            memory_policy_step(memory, ctx)
            assert len(mem) in (before + 1, mem.capacity)
        assert len(mem) == 3


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
        memory = MemoryPolicy(
            LinearSoftmaxBackend(embed_dim=16, seed=0), EmbeddingOracle(dim=16), capacity=4
        )
        traj, _ = run_episode(two_room_scene, task, memory, RunConfig(policy="memory", budget=20))
        assert len(counted) == len(traj.steps) > 4

    def test_imitation_episode(self, two_room_scene, counted):
        from lhnav.policy import collect_imitation_dataset

        task = sample_task(two_room_scene, SPOT, seed=7)
        backend = LinearSoftmaxBackend(embed_dim=16, seed=0)
        dataset = collect_imitation_dataset(two_room_scene, task, backend, capacity=4)
        assert len(counted) == len(dataset) > 4


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
        oracle = EmbeddingOracle(dim=16)
        store = LongTermStore(k=1)
        store.add("bag", np.ones(16), one_hot(Action.MOVE_FORWARD))
        store.add("desk", np.ones(16), one_hot(Action.TURN_RIGHT))
        pol = MemoryPolicy(UniformBackend(), store=store, oracle=oracle, capacity=4)
        state = sample_spawn(two_room_scene, task)
        actions = [
            pol.act(step_context(two_room_scene, state, target, stage=stage))
            for stage, target in enumerate(["bag-0", "desk-0"])
        ]
        assert actions == [Action.MOVE_FORWARD, Action.TURN_RIGHT]

    def test_memory_policy_senses_again_for_a_new_target_at_the_same_pose(
        self, two_room_scene, monkeypatch
    ):
        from reference_impls import SenseEveryStepPolicy

        task = sample_task(two_room_scene, seed=7)
        oracle = EmbeddingOracle(dim=16)
        store = LongTermStore(k=1)
        store.add("bag", np.ones(16), one_hot(Action.MOVE_FORWARD))
        store.add("desk", np.ones(16), one_hot(Action.TURN_RIGHT))
        observed = []
        real = policy.observe
        monkeypatch.setattr(policy, "observe", lambda *args: observed.append(args) or real(*args))
        pol = MemoryPolicy(UniformBackend(), store=store, oracle=oracle, capacity=4)
        reference = SenseEveryStepPolicy(UniformBackend(), oracle, store, capacity=4)
        state = sample_spawn(two_room_scene, task)
        # one context object per (pose, target), as the runner makes them
        bag, desk, bag2 = (
            step_context(two_room_scene, state, target) for target in ("bag-0", "desk-0", "bag-0")
        )
        contexts = [bag, bag, desk, desk, bag2]
        actions = [pol.act(ctx) for ctx in contexts]
        assert actions == [reference.act(ctx) for ctx in contexts]
        assert actions == [Action.MOVE_FORWARD] * 2 + [Action.TURN_RIGHT] * 2 + [Action.MOVE_FORWARD]
        assert len(observed) == 3

    def test_memory_policy_senses_again_for_an_equal_but_distinct_context(
        self, two_room_scene, monkeypatch
    ):
        task = sample_task(two_room_scene, seed=7)
        observed = []
        real = policy.observe
        monkeypatch.setattr(policy, "observe", lambda *args: observed.append(args) or real(*args))
        pol = MemoryPolicy(UniformBackend(), oracle=EmbeddingOracle(dim=16), capacity=4)
        state = sample_spawn(two_room_scene, task)
        first, second = (step_context(two_room_scene, state, "bag-0") for _ in range(2))
        assert first == second and first is not second
        for ctx in (first, first, second, second):
            pol.act(ctx)
        assert len(observed) == 2

    def test_step_context_is_frozen(self, two_room_scene):
        task = sample_task(two_room_scene, seed=7)
        ctx = step_context(two_room_scene, sample_spawn(two_room_scene, task), "bag-0")
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.state = sample_spawn(two_room_scene, task)

    def test_memory_policy_never_mutates_store(self, two_room_scene):
        task = sample_task(two_room_scene, seed=7)
        oracle = EmbeddingOracle(dim=16)
        store = LongTermStore(k=2)
        store.add("bag", np.ones(16), np.array([0.25, 0.25, 0.25, 0.25]))
        snapshot = [
            (t, [(o.copy(), a.copy()) for o, a in b] )
            for t, b in store.buckets.items()
        ]
        pol = MemoryPolicy(UniformBackend(), store=store, oracle=oracle, capacity=4)
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
        decision, conf = backend.decide(step_context(corridor_scene, s, "box-0"), None, None)
        assert np.array_equal(decision, one_hot(Action.MOVE_FORWARD))
        assert conf == 1.0

    def test_expert_wrapped_memory_policy_full_success(self):
        # the harness is never the bottleneck: a memory policy fed one-hot
        # expert decisions scores SR = 1 even with a junk-filled store
        from lhnav.runner import RunConfig, run_episode
        from lhnav.scenegen import generate_scene

        oracle = EmbeddingOracle(dim=16)
        npr = np.random.default_rng(2)
        for seed in (0, 1, 2):
            scene = generate_scene(seed=700 + seed, size=20, regions=4)
            task = sample_task(scene, SPOT, seed=seed)
            store = LongTermStore(k=3)
            for obj in scene.objects:
                act = npr.random(4)
                store.add(obj.category, npr.normal(size=16), act / act.sum())
            policy = MemoryPolicy(
                ExpertTeacherBackend(), store=store, oracle=oracle, capacity=8
            )
            cfg = RunConfig(policy="memory")
            _, result = run_episode(scene, task, policy, cfg)
            assert all(r.success for r in result.records)
            assert all(r.ne <= 1.0 for r in result.records)
