"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the assertions themselves carry the tolerances.
"""

import itertools
import math
import random

import numpy as np
import pytest

from lhnav.memory import (
    CAPACITY,
    TOP_K,
    LongTermStore,
    ShortTermMemory,
    entropy_argmin,
    forget_and_append,
    pool_candidates,
)
from lhnav.metrics import (
    EpisodeResult,
    SubtaskRecord,
    cgt,
    csr,
    isr,
    tar,
    task_sr,
)
from lhnav.policy import loss_and_grad, train_backend
from lhnav.runner import RunConfig, run_suite
from lhnav.scenegen import generate_scene
from lhnav.splitter import split_trajectory, turn_records
from lhnav.taskforge import sample_task
from lhnav.world import ROBOTS

from conftest import NarrowBackend
from reference_impls import entropy_argmin_oracle, reference_split, topk_oracle

SPOT = ROBOTS["spot"]


def _passed(n: int, text: str) -> None:
    print(f"[PASS] criterion {n}: {text}")


def _record(success, ne, gt, oracle=None, truncated=False):
    return SubtaskRecord(
        success=success,
        ne=ne,
        gt=gt,
        steps=1,
        path_taken=gt,
        oracle_hit=success if oracle is None else oracle,
        truncated=truncated,
    )


def _episode(flags, gts, task_id="t"):
    return EpisodeResult(
        task_id=task_id,
        records=tuple(
            _record(s, ne=0.5 if s else 3.0, gt=g) for s, g in zip(flags, gts)
        ),
    )


@pytest.fixture(scope="module")
def seeded_suite():
    """100 generated tasks over 20 scenes, shared by criteria 6."""
    scenes = {}
    tasks = []
    for i in range(20):
        scene = generate_scene(seed=9000 + i, size=22, regions=4)
        scenes[scene.scene_id] = scene
        for j in range(5):
            tasks.append(sample_task(scene, SPOT, seed=100 * i + j))
    assert len(tasks) == 100
    return scenes, tasks


def test_criterion_1_metric_exactness():
    fixture = [_episode([True, False, True], [4.0, 4.0, 2.0])]
    assert abs(isr(fixture) - 2 / 3) <= 1e-9
    assert abs(csr(fixture) - 4 / 9) <= 1e-9
    assert abs(cgt(fixture) - 7 / 15) <= 1e-9
    rng = random.Random(0)
    for trial in range(200):
        n = rng.randint(1, 4)
        gts = [rng.uniform(0.3, 12.0) for _ in range(n)]
        perfect = [_episode([True] * n, gts, task_id=f"p{trial}")]
        assert task_sr(perfect) == 1.0
        assert isr(perfect) == 1.0
        assert csr(perfect) == 1.0
        assert cgt(perfect) == 1.0
    _passed(1, "ISR=2/3, CSR=4/9, CGT=7/15 within 1e-9; perfect runs exactly 1.0")


def test_criterion_2_tar():
    assert abs(tar(3.0, 5.0, 1.0) - 0.6) <= 1e-9
    rng = random.Random(1)
    for i in range(1000):
        ne = 6.0 * i / 999.0
        gt = rng.uniform(0.2, 8.0)
        value = tar(ne, gt, 1.0)
        assert (value == 1.0) == (ne <= 1.0)
        assert 0.0 <= value <= 1.0
    _passed(2, "tar(3,5,1)=0.6; tar==1 iff NE<=1 over a 1000-point sweep")


def test_criterion_3_splitter_oracle():
    fixture = "FFLLFFFRRF"
    assert turn_records(fixture, "L") == [(2, 3, "L")]
    assert turn_records(fixture, "R") == [(7, 8, "R")]
    for combo in itertools.product("FLR", repeat=10):
        sym = "".join(combo)
        _, expected = reference_split(sym)
        got = [(s.label, s.start, s.end) for s in split_trajectory(sym)]
        assert got == expected, sym
    rng = random.Random(2)
    for _ in range(10_000):
        n = rng.randint(1, 200)
        sym = "".join(rng.choice("FLR") for _ in range(n))
        _, expected = reference_split(sym)
        got = [(s.label, s.start, s.end) for s in split_trajectory(sym)]
        assert got == expected, sym
    _passed(3, "exhaustive 3^10 + 10^4 random traces match the reference; fixture records (2,3,L),(7,8,R)")


def test_criterion_4_entropy_forgetting_oracle():
    fixture = pool_candidates([0.9, 0.9, 0.1, 0.9])
    assert entropy_argmin(fixture) == 0
    rng = random.Random(3)
    agree = 0
    for _ in range(1000):
        n = rng.randint(2, 32)
        c = [rng.random() + 1e-6 for _ in range(n)]
        cands = pool_candidates(c)
        assert entropy_argmin(cands) == entropy_argmin_oracle(cands)
        agree += 1
    assert agree == 1000
    npr = np.random.default_rng(3)
    mem = ShortTermMemory()
    violations = 0
    for _ in range(10_000):
        forget_and_append(mem, npr.normal(size=8), rng.random() + 1e-6)
        if len(mem) > CAPACITY:
            violations += 1
    assert violations == 0
    _passed(4, "entropy argmin matches brute force 1000/1000; fixture index 0; 10^4 updates, 0 capacity violations")


def test_criterion_5_retrieval_oracle():
    rng = random.Random(4)
    npr = np.random.default_rng(4)
    for _ in range(1000):
        m = max(1, int(math.exp(rng.uniform(0.0, math.log(1000)))))
        n_v = rng.randint(2, 64)
        store = LongTermStore()
        bucket = []
        for _ in range(m):
            obs = npr.normal(size=n_v)
            act = npr.random(4)
            store.add("t", obs, act / act.sum())
            bucket.append((obs, act / act.sum()))
        query = npr.normal(size=n_v)
        want = topk_oracle(bucket, query, TOP_K)
        assert store.rank("t", query)[:TOP_K] == want
        acts = store.retrieve_topk("t", query).acts
        assert acts.tobytes() == np.array([bucket[j][1] for j in want]).tobytes()
    _passed(5, "top-k retrieval equals full-sort truncation on 1000 random stores")


def test_criterion_6_expert_and_random_baselines(seeded_suite):
    scenes, tasks = seeded_suite
    expert_cfg = RunConfig(policy="expert", budget=500, seed=0)
    expert = run_suite(scenes, tasks, expert_cfg)["aggregate"]
    assert expert["sr"] == 1.0
    assert expert["isr"] == 1.0
    assert expert["csr"] == 1.0
    assert expert["cgt"] == 1.0
    assert expert["ne"] <= 1.0
    random_cfg = RunConfig(policy="random", budget=500, seed=0)
    rand = run_suite(scenes, tasks, random_cfg)["aggregate"]
    assert rand["sr"] <= 0.02
    _passed(
        6,
        f"expert SR(ISR/CSR/CGT)=1.0, mean NE={expert['ne']:.3f} m on 100 tasks; "
        f"random SR={rand['sr']:.3f}",
    )


def test_criterion_7_gradient_check():
    npr = np.random.default_rng(5)
    backend = NarrowBackend(12, seed=0)
    X = npr.normal(size=(8, backend.feature_dim))
    y = npr.integers(0, 4, size=8)
    eps = 1e-6
    for draw in range(100):
        backend.set_params(npr.normal(0.0, 0.5, size=backend.get_params().shape))
        _, grad = loss_and_grad(backend, X, y)
        theta = backend.get_params()
        for idx in npr.choice(theta.size, size=4, replace=False):
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
    fresh = NarrowBackend(12, seed=1)
    dataset = [
        (npr.normal(size=fresh.feature_dim), int(npr.integers(0, 4)))
        for _ in range(30)
    ]
    report = train_backend(fresh, dataset, epochs=120, lr=0.2)
    curve = report.losses + [report.final_loss]
    for a, b in zip(curve, curve[1:]):
        assert b <= a + 1e-6
    _passed(7, "gradient matches central differences (100 draws, rel err < 1e-5); loss non-increasing")


def test_criterion_8_determinism(tmp_path):
    scenes = {}
    tasks = []
    for i in range(3):
        scene = generate_scene(seed=9500 + i, size=20, regions=4)
        scenes[scene.scene_id] = scene
        tasks.extend(sample_task(scene, SPOT, seed=7 * i + j) for j in range(2))
    blobs = []
    for name in ("a", "b"):
        cfg = RunConfig(policy="random", budget=60, seed=11, out_dir=str(tmp_path / name))
        run_suite(scenes, tasks, cfg)
        files = sorted((tmp_path / name / "trajectories").glob("*.jsonl"))
        blobs.append({f.name: f.read_bytes() for f in files})
    assert blobs[0] == blobs[1]
    base = run_suite(scenes, tasks, RunConfig(policy="random", budget=60, seed=11))
    shuffled = list(tasks)
    random.Random(9).shuffle(shuffled)
    shuf = run_suite(scenes, shuffled, RunConfig(policy="random", budget=60, seed=11))
    multi = run_suite(scenes, tasks, RunConfig(policy="random", budget=60, seed=11, workers=2))
    assert base["aggregate"] == shuf["aggregate"] == multi["aggregate"]
    assert base["per_task"] == shuf["per_task"] == multi["per_task"]
    _passed(8, "byte-identical trajectories under one seed; aggregates invariant to order and worker count")


def test_criterion_9_monotonicity():
    rng = random.Random(6)
    for trial in range(1000):
        n_tasks = rng.randint(1, 4)
        results = []
        for j in range(n_tasks):
            n = rng.randint(1, 4)
            flags = [rng.random() < 0.4 for _ in range(n)]
            gts = [rng.uniform(0.5, 9.0) for _ in range(n)]
            results.append(_episode(flags, gts, task_id=f"t{j}"))
        failures = [
            (j, i)
            for j, res in enumerate(results)
            for i, r in enumerate(res.records)
            if not r.success
        ]
        if not failures:
            continue
        j, i = rng.choice(failures)
        flipped = list(results)
        recs = list(flipped[j].records)
        old = recs[i]
        recs[i] = SubtaskRecord(
            success=True,
            ne=old.ne,
            gt=old.gt,
            steps=old.steps,
            path_taken=old.path_taken,
            oracle_hit=old.oracle_hit,
            truncated=old.truncated,
        )
        flipped[j] = EpisodeResult(flipped[j].task_id, tuple(recs))
        for metric in (isr, csr, cgt, task_sr):
            assert metric(flipped) >= metric(results) - 1e-12
    _passed(9, "1000 random flips of a failed subtask never decrease ISR/CSR/CGT/SR")
