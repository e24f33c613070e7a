import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhnav.metrics import (
    METRIC_ORDER,
    SUBTASK_MEANS,
    EpisodeResult,
    SubtaskRecord,
    aggregate,
    episode_metrics,
    tar,
)


def rec(success, ne=None, gt=4.0, steps=10, path=5.0, oracle=None, truncated=False):
    if ne is None:
        ne = 0.5 if success else 3.0
    if oracle is None:
        oracle = success
    return SubtaskRecord(
        success=success,
        ne=ne,
        gt=gt,
        steps=steps,
        path_taken=path,
        oracle_hit=oracle,
        truncated=truncated,
    )


def episode(flags, gts=None, task_id="t0"):
    gts = gts or [4.0] * len(flags)
    return EpisodeResult(task_id=task_id, records=tuple(rec(s, gt=g) for s, g in zip(flags, gts)))


class TestIsr:
    def test_all_succeed(self):
        assert episode_metrics(episode([True, True, True]))["isr"] == 1.0

    def test_two_of_three(self):
        assert abs(episode_metrics(episode([True, False, True]))["isr"] - 2 / 3) < 1e-9

    def test_all_fail(self):
        assert episode_metrics(episode([False, False]))["isr"] == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one episode"):
            aggregate([])


class TestCsr:
    def test_all_succeed_is_exactly_one(self):
        for n in (1, 2, 3, 4):
            assert episode_metrics(episode([True] * n))["csr"] == 1.0

    def test_hand_case(self):
        assert abs(episode_metrics(episode([True, False, True]))["csr"] - 4 / 9) < 1e-9

    def test_all_fail(self):
        assert episode_metrics(episode([False, False, False]))["csr"] == 0.0

    def test_task_term_one_iff_all_succeed(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(1, 4)
            flags = [rng.random() < 0.5 for _ in range(n)]
            value = episode_metrics(episode(flags))["csr"]
            if all(flags):
                assert value == 1.0
            else:
                assert value < 1.0


class TestCgt:
    def test_all_succeed_is_exactly_one(self):
        assert episode_metrics(episode([True, True, True], gts=[3.7, 1.1, 9.2]))["cgt"] == 1.0

    def test_hand_case(self):
        value = episode_metrics(episode([True, False, True], gts=[4.0, 4.0, 2.0]))["cgt"]
        assert abs(value - 7 / 15) < 1e-9

    def test_all_fail(self):
        assert episode_metrics(episode([False, False], gts=[1.0, 2.0]))["cgt"] == 0.0

    def test_nonpositive_gt_raises(self):
        with pytest.raises(ValueError, match="nonpositive ground truth"):
            episode_metrics(episode([True, True], gts=[1.0, 0.0]))


class TestTar:
    def test_zero_ne(self):
        assert tar(0.0, 5.0) == 1.0

    def test_hand_case(self):
        assert abs(tar(3.0, 5.0, 1.0) - 0.6) < 1e-9

    def test_boundary_of_success_radius(self):
        assert tar(1.0, 5.0, 1.0) == 1.0

    def test_one_iff_within_radius_sweep(self):
        for i in range(1000):
            ne = 5.0 * i / 999.0
            value = tar(ne, 2.5, 1.0)
            assert (value == 1.0) == (ne <= 1.0)
            assert 0.0 <= value <= 1.0

    def test_no_jumps_dense_sampling(self):
        prev = None
        for i in range(2000):
            ne = 4.0 * i / 1999.0
            value = tar(ne, 2.0, 1.0)
            if prev is not None:
                assert abs(value - prev) < 0.01
            prev = value

    def test_bad_gt_raises(self):
        with pytest.raises(ValueError):
            tar(1.0, 0.0)


class TestWholeTaskMetrics:
    def test_perfect_run(self):
        agg = aggregate([episode([True, True]), episode([True, True, True], task_id="t1")])
        assert agg["sr"] == 1.0
        assert agg["osr"] == 1.0
        assert 0.0 < agg["spl"] <= 1.0

    def test_single_failure_zeroes_task(self):
        assert episode_metrics(episode([True, False, True]))["sr"] == 0.0

    def test_spl_optimal_path_term_is_one(self):
        res = EpisodeResult("t", (rec(True, gt=4.0, path=4.0),))
        assert episode_metrics(res)["spl"] == 1.0

    def test_spl_never_exceeds_one(self):
        res = EpisodeResult("t", (rec(True, gt=4.0, path=2.0),))  # shorter than gt
        assert episode_metrics(res)["spl"] == 1.0

    def test_mean_ne_counts_truncated_subtasks(self):
        res = EpisodeResult(
            "t",
            (
                rec(False, ne=2.0, truncated=True),
                rec(True, ne=0.5),
            ),
        )
        assert episode_metrics(res)["ne"] == 1.25
        all_truncated = EpisodeResult("t", (rec(False, ne=2.0, truncated=True),))
        assert episode_metrics(all_truncated)["ne"] == 2.0


class TestRejections:
    @pytest.mark.parametrize(
        "records, message",
        [
            ((), "has no subtask records"),
            ((rec(True, gt=0.0), rec(True, gt=0.0)), "has nonpositive shortest path"),
            ((rec(True, path=-1.0),), "has negative path taken"),
            ((rec(True, gt=3.0), rec(True, gt=-1.0)), "has nonpositive ground truth"),
        ],
        ids=["no-records", "shortest-path", "path-taken", "ground-truth"],
    )
    def test_bad_episode_is_named(self, records, message):
        with pytest.raises(ValueError, match=f"'bad' {message}"):
            episode_metrics(EpisodeResult("bad", records))

    def test_first_of_two_bad_episodes_is_named(self):
        results = [
            episode([True], task_id="ok"),
            EpisodeResult("first", (rec(True, path=-1.0),)),
            EpisodeResult("second", ()),
        ]
        with pytest.raises(ValueError, match="'first' has negative path taken"):
            aggregate(results)


@st.composite
def result_sets(draw):
    n_tasks = draw(st.integers(min_value=1, max_value=5))
    out = []
    for j in range(n_tasks):
        n = draw(st.integers(min_value=1, max_value=4))
        flags = [draw(st.booleans()) for _ in range(n)]
        gts = [draw(st.floats(min_value=0.5, max_value=20.0)) for _ in range(n)]
        out.append(episode(flags, gts=gts, task_id=f"t{j}"))
    return out


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(result_sets())
    def test_everything_in_unit_interval(self, results):
        agg = aggregate(results)
        for name in ("sr", "osr", "spl", "isr", "csr", "cgt", "tar"):
            assert 0.0 <= agg[name] <= 1.0 + 1e-12
        assert agg["ne"] >= 0.0

    @settings(max_examples=150, deadline=None)
    @given(result_sets(), st.randoms())
    def test_flipping_failure_to_success_never_decreases(self, results, rng):
        failures = [
            (j, i)
            for j, res in enumerate(results)
            for i, r in enumerate(res.records)
            if not r.success
        ]
        if not failures:
            return
        j, i = rng.choice(failures)
        flipped = list(results)
        new_records = list(flipped[j].records)
        old = new_records[i]
        new_records[i] = SubtaskRecord(
            success=True,
            ne=old.ne,
            gt=old.gt,
            steps=old.steps,
            path_taken=old.path_taken,
            oracle_hit=old.oracle_hit,
            truncated=old.truncated,
        )
        flipped[j] = EpisodeResult(flipped[j].task_id, tuple(new_records))
        before, after = aggregate(results), aggregate(flipped)
        for name in ("isr", "csr", "cgt", "sr"):
            assert after[name] >= before[name] - 1e-12


@st.composite
def episode_results(draw):
    """Random episodes: any success and oracle flags, errors, ground truths
    and traveled distances a run can record."""
    reals = st.floats(min_value=0.0, max_value=40.0)
    out = []
    for j in range(draw(st.integers(min_value=1, max_value=6))):
        records = tuple(
            SubtaskRecord(
                success=draw(st.booleans()),
                ne=draw(reals),
                gt=draw(st.floats(min_value=0.05, max_value=40.0)),
                steps=draw(st.integers(min_value=0, max_value=500)),
                path_taken=draw(reals),
                oracle_hit=draw(st.booleans()),
                truncated=draw(st.booleans()),
            )
            for _ in range(draw(st.integers(min_value=1, max_value=5)))
        )
        out.append(EpisodeResult(f"t{j}", records))
    return out


def bits(metrics):
    return {name: value.hex() for name, value in metrics.items()}


class TestOneScorer:
    @settings(max_examples=200, deadline=None)
    @given(episode_results())
    def test_one_episode_aggregates_to_its_row(self, results):
        for res in results:
            row = episode_metrics(res)
            assert list(row) == list(METRIC_ORDER)
            assert bits(aggregate([res])) == bits(row)

    @settings(max_examples=200, deadline=None)
    @given(episode_results())
    def test_aggregate_is_the_mean_of_rows_or_of_records(self, results):
        rows = [episode_metrics(res) for res in results]
        records = [r for res in results for r in res.records]
        record_values = {
            "ne": [r.ne for r in records],
            "tar": [tar(r.ne, r.gt) for r in records],
        }
        want = {}
        for name in METRIC_ORDER:
            if name in SUBTASK_MEANS:
                want[name] = sum(record_values[name]) / len(records)
            else:
                total = 0.0
                for row in rows:
                    total += row[name]
                want[name] = total / len(rows)
        assert bits(aggregate(results)) == bits(want)
