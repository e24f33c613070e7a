import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lhnav.files import InputFileError
from lhnav.memory import (
    CAPACITY,
    EMBED_DIM,
    TOP_K,
    LongTermStore,
    TopK,
    ShortTermMemory,
    candidate_entropies,
    entropy_argmin,
    forget_and_append,
    pool_candidates,
    weight_decision,
)

from conftest import pad
from reference_impls import (
    TupleShortTermMemory,
    entropy_argmin_oracle,
    loop_entropies,
    loop_entropy_argmin,
    loop_forget_and_append,
    loop_pool_candidates,
    loop_rank,
    topk_oracle,
)

# the tail of a JSON embedding whose first three values are written out
PAD = ", 0.0" * (EMBED_DIM - 3)

# confidence vectors of length 2..32: arbitrary values, values drawn from a
# few (so candidates repeat), and all-equal vectors
CONFIDENCES = st.one_of(
    st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=2, max_size=32),
    st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.9, 1.0]), min_size=2, max_size=32),
    st.builds(lambda v, n: [v] * n, st.floats(min_value=1e-6, max_value=1e3), st.integers(2, 32)),
)


def one_hot_act(i):
    act = np.zeros(4)
    act[i % 4] = 1.0
    return act


class TestPoolCandidates:
    def test_minimal_pair(self):
        cands = pool_candidates([0.4, 0.8])
        assert len(cands) == 1
        assert np.allclose(cands[0], [0.6])

    def test_hand_case(self):
        cands = pool_candidates([0.9, 0.9, 0.1, 0.9])
        assert np.allclose(cands[0], [0.9, 0.1, 0.9])
        assert np.allclose(cands[1], [0.9, 0.5, 0.9])
        assert np.allclose(cands[2], [0.9, 0.9, 0.5])

    def test_output_length_always_n_minus_one(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(2, 20)
            c = [rng.random() + 0.01 for _ in range(n)]
            cands = pool_candidates(c)
            assert len(cands) == n - 1
            assert all(len(x) == n - 1 for x in cands)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            pool_candidates([0.5])

    @pytest.mark.parametrize("n", [2, CAPACITY])
    def test_gather_matches_the_loop_at_the_smallest_and_a_full_memory(self, n):
        # the index of one length is built once and shared; writing into a
        # result must leave the next call's as it was
        rng = np.random.default_rng(n)
        for _ in range(20):
            c = rng.random(n) + 1e-6
            got = pool_candidates(c)
            assert got.tobytes() == np.stack(loop_pool_candidates(c)).tobytes()
            got[...] = -1.0
        c = rng.random(n) + 1e-6
        assert pool_candidates(c).tobytes() == np.stack(loop_pool_candidates(c)).tobytes()


class TestEntropyArgmin:
    def test_uniform_ties_break_to_zero(self):
        assert entropy_argmin(pool_candidates([0.2, 0.2, 0.2, 0.2])) == 0

    def test_hand_case_keeps_distinct_memory(self):
        cands = pool_candidates([0.9, 0.9, 0.1, 0.9])
        # merging the two confident entries keeps the distinctive one
        assert entropy_argmin(cands) == 0

    def test_single_candidate(self):
        assert entropy_argmin([np.array([0.7, 0.3])]) == 0

    def test_hand_entropy_values(self):
        c = np.array([0.9, 0.1, 0.9])
        s = c / c.sum()
        h = float(-(s * np.log(s)).sum())
        assert abs(h - 0.863) < 1e-3

    def test_all_zero_candidate_raises(self):
        with pytest.raises(ValueError):
            entropy_argmin([np.zeros(3)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass_raises_naming_the_candidate(self, bad):
        # a NaN mass is no smaller than any other, and an infinite one
        # divides to NaN; both are refused as a nonpositive mass is
        cands = [[0.5, 0.5], [bad, 0.2], [0.9, 0.1]]
        with pytest.raises(ValueError, match="candidate 1 has mass"):
            entropy_argmin(cands)
        with pytest.raises(ValueError, match="candidate 1 has mass"):
            candidate_entropies(cands)

    def test_nonpositive_mass_names_the_candidate(self):
        with pytest.raises(ValueError, match="candidate 2 has mass -0.1"):
            entropy_argmin([[0.5, 0.5], [0.2, 0.2], [0.1, -0.2]])

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            candidate_entropies(np.array([0.7, 0.3]))

    def test_matches_oracle_on_random_vectors(self):
        rng = random.Random(77)
        for _ in range(1000):
            n = rng.randint(2, 32)
            c = [rng.random() + 1e-6 for _ in range(n)]
            cands = pool_candidates(c)
            assert entropy_argmin(cands) == entropy_argmin_oracle(cands)


class TestForgetAndAppend:
    def test_below_capacity_plain_append(self):
        mem = ShortTermMemory()
        forget_and_append(mem, pad([1.0, 0.0]), 0.5)
        forget_and_append(mem, pad([0.0, 1.0]), 0.7)
        assert len(mem) == 2
        assert np.allclose(mem.entries[0], pad([1.0, 0.0]))
        assert mem.confidences == (0.5, 0.7)

    def test_at_capacity_merges_entropy_argmin_pair(self):
        mem = ShortTermMemory()
        vecs = [pad(v) for v in np.eye(CAPACITY)]
        confs = [0.9] * CAPACITY
        confs[2] = 0.1
        for v, c in zip(vecs, confs):
            forget_and_append(mem, v, c)
        new = pad(np.full(CAPACITY, 0.5))
        forget_and_append(mem, new, 0.6)
        assert len(mem) == CAPACITY
        # entries 0 and 1 merged elementwise; the 0.1 entry survived, and
        # the later entries shifted down one slot
        assert np.allclose(mem.entries[0], (vecs[0] + vecs[1]) / 2)
        assert mem.confidences[0] == pytest.approx(0.9)
        assert mem.confidences[1] == 0.1
        assert np.array_equal(mem.entries[1:-1], vecs[2:])
        assert np.allclose(mem.entries[-1], new)

    def test_mass_conservation_is_exact(self):
        # dyadic values make the merge arithmetic exact
        confs = (0.75, 0.25, 0.5, 0.5) * (CAPACITY // 4)
        mem = ShortTermMemory()
        for i, c in enumerate(confs):
            forget_and_append(mem, pad(np.eye(CAPACITY)[i]), c)
        idx = entropy_argmin(pool_candidates(confs))
        forget_and_append(mem, pad(np.ones(CAPACITY)), 0.5)
        merged_only = mem.confidences[:-1]
        assert sum(merged_only) == sum(confs) - (confs[idx] + confs[idx + 1]) / 2

    @pytest.mark.parametrize("c", [math.nan, math.inf, 0.0, -1.0])
    def test_confidence_must_be_finite_and_positive(self, c):
        mem = ShortTermMemory()
        confs = (0.5, 0.25) * (CAPACITY // 2)
        for conf in confs:
            forget_and_append(mem, pad(np.ones(3)), conf)
        with pytest.raises(ValueError, match="finite and positive"):
            forget_and_append(mem, pad(np.ones(3)), c)
        # nothing was merged or stored, so no NaN reaches a later merge
        assert mem.confidences == confs

    def test_entry_of_another_length_rejected(self):
        # the rows are EMBED_DIM long before any entry is appended, so a
        # first entry of another length is refused too
        mem = ShortTermMemory()
        assert mem.entries.shape == (0, EMBED_DIM)
        for n in range(2):
            for shape in [(32,), (EMBED_DIM + 1,), (1, EMBED_DIM)]:
                refusal = rf"length 64, not of shape {re.escape(str(shape))}"
                with pytest.raises(ValueError, match=refusal):
                    forget_and_append(mem, np.ones(shape), 0.5)
            assert len(mem) == n and mem.entries.shape == (n, EMBED_DIM)
            forget_and_append(mem, pad(np.ones(3)), 0.5)
        assert mem.mean_entry().tobytes() == pad(np.ones(3)).tobytes()

    def test_empty_memory_has_no_mean_entry(self):
        with pytest.raises(ValueError, match="empty memory"):
            ShortTermMemory().mean_entry()

    def test_fuzz_never_exceeds_capacity(self):
        rng = random.Random(11)
        npr = np.random.default_rng(11)
        for trial in range(20):
            dim = rng.randint(1, 16)
            mem = ShortTermMemory()
            for _ in range(500):
                forget_and_append(mem, pad(npr.normal(size=dim)), rng.random() + 1e-6)
                assert len(mem) <= CAPACITY
            assert len(mem) == CAPACITY


class TestRetrieveTopk:
    def test_self_match_ranks_first(self):
        store = LongTermStore()
        e1 = pad([1.0, 0.0, 0.0])
        e2 = pad([0.0, 1.0, 0.0])
        a1 = np.array([1.0, 0.0, 0.0, 0.0])
        a2 = np.array([0.0, 0.0, 1.0, 0.0])
        store.add("mug", e2, a2)
        store.add("mug", e1, a1)
        assert store.rank("mug", e1)[0] == 1
        got = store.retrieve_topk("mug", e1)
        assert np.array_equal(got.acts, [a1, a2])

    def test_orthogonal_query_prefers_parallel(self):
        store = LongTermStore()
        e1 = pad([1.0, 0.0])
        e2 = pad([0.0, 1.0])
        store.add("mug", e1, np.array([0.25, 0.25, 0.25, 0.25]))
        store.add("mug", e2, np.array([0.0, 0.0, 0.0, 1.0]))
        assert store.rank("mug", pad([0.0, 2.0])) == [1, 0]
        got = store.retrieve_topk("mug", pad([0.0, 2.0]))
        assert np.array_equal(got.acts[0], [0.0, 0.0, 0.0, 1.0])

    def test_empty_bucket_returns_empty(self):
        store = LongTermStore()
        top = store.retrieve_topk("ghost", np.array([1.0]))
        assert not top and top.acts.shape == (0, 4)

    def test_embedding_length_must_match_bucket(self):
        # every embedding of every bucket is EMBED_DIM long, the first
        # entry's too
        store = LongTermStore()
        act = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="nonzero"):
            store.add("mug", np.zeros(64), act)
        for target in ("mug", "cup"):
            with pytest.raises(ValueError, match=rf"'{target}'.* 16 .* 64"):
                store.add(target, np.ones(16), act)
        assert len(store) == 0
        store.add("mug", np.ones(64), act)
        for target in ("mug", "cup"):
            with pytest.raises(ValueError, match=rf"'{target}'.* 16 .* 64"):
                store.add(target, np.ones(16), act)
        with pytest.raises(ValueError, match=r"'mug'.* 16 .* 64"):
            store.rank("mug", np.ones(16))
        assert len(store) == 1 and list(store.buckets) == ["mug"]

    @pytest.mark.parametrize("target", [7, None, ("mug",)])
    def test_target_must_be_a_string(self, target):
        # no category key could retrieve such an entry, and save could not
        # sort it among string targets
        store = LongTermStore()
        with pytest.raises(TypeError, match="target must be a string"):
            store.add(target, np.ones(4), np.array([1.0, 0.0, 0.0, 0.0]))
        assert len(store) == 0

    def test_zero_query_raises(self):
        store = LongTermStore()
        store.add("mug", pad([1.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            store.retrieve_topk("mug", pad(np.zeros(2)))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize(
        "query", [[np.nan, 1.0], [np.inf, 1.0], [1e308, 1e308]], ids=["nan", "inf", "overflow"]
    )
    def test_query_that_is_not_finite_raises(self, query):
        # such a query would otherwise rank the bucket in insertion order
        store = LongTermStore()
        for obs in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5]):
            store.add("mug", pad(obs), np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match=r"query embedding for 'mug' must be finite"):
            store.rank("mug", pad(query))
        with pytest.raises(ValueError, match=r"query embedding for 'mug' must be finite"):
            store.retrieve_topk("mug", pad(query))

    def test_matches_full_sort_oracle(self):
        rng = random.Random(5)
        npr = np.random.default_rng(5)
        for _ in range(1000):
            m = int(math.exp(rng.uniform(0.0, math.log(1000))))
            n_v = rng.randint(2, 64)
            store = LongTermStore()
            bucket = []
            for _ in range(m):
                obs = pad(npr.normal(size=n_v))
                act = npr.random(4)
                act = act / act.sum()
                store.add("t", obs, act)
                bucket.append((obs, act))
            query = pad(npr.normal(size=n_v))
            want = topk_oracle(bucket, query, TOP_K)
            assert store.rank("t", query)[:TOP_K] == want
            got = store.retrieve_topk("t", query)
            assert got.acts.tobytes() == np.array([bucket[j][1] for j in want]).tobytes()

    def test_round_trip_preserves_order(self, tmp_path):
        npr = np.random.default_rng(9)
        store = LongTermStore()
        for i in range(10):
            act = npr.random(4)
            store.add("cup", pad(npr.normal(size=8)), act / act.sum())
        path = tmp_path / "store.jsonl"
        store.save(path)
        loaded = LongTermStore.load(path)
        query = pad(npr.normal(size=8))
        assert store.rank("cup", query) == loaded.rank("cup", query)
        got, want = loaded.retrieve_topk("cup", query), store.retrieve_topk("cup", query)
        assert len(got) == TOP_K and got.acts.tobytes() == want.acts.tobytes()

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"target": "cup", "obs": [1.0, 0.',
            "not json",
            '{"target": "cup", "act": [0.25, 0.25, 0.25, 0.25]}',
            '["cup", [1.0], [1.0, 0.0, 0.0, 0.0]]',
            '{"target": "cup", "obs": [1.0, 2.0], "act": [1.0, 0.0, 0.0, 0.0]}',
            '{"target": "cup", "obs": [NaN, 1.0, 0.0' + PAD + '], "act": [1.0, 0.0, 0.0, 0.0]}',
            '{"target": "cup", "obs": [Infinity, 0.0, 0.0' + PAD + '], "act": [1.0, 0.0, 0.0, 0.0]}',
            '{"target": "cup", "obs": [1.0, 0.0, 0.0' + PAD + '], "act": [NaN, 0.0, 0.0, 1.0]}',
            '{"target": "cup", "obs": [1' + "0" * 400 + ', 0.0, 0.0' + PAD
            + '], "act": [1.0, 0.0, 0.0, 0.0]}',
            '{"target": 7, "obs": [1.0, 0.0, 0.0' + PAD + '], "act": [1.0, 0.0, 0.0, 0.0]}',
            '{"target": null, "obs": [1.0, 0.0, 0.0' + PAD + '], "act": [1.0, 0.0, 0.0, 0.0]}',
        ],
        ids=[
            "truncated", "not-json", "missing-obs", "not-an-object", "wrong-length",
            "nan-obs", "infinite-obs", "nan-act", "integer-beyond-float",
            "integer-target", "null-target",
        ],
    )
    def test_bad_line_names_path_and_line_number(self, tmp_path, bad_line):
        store = LongTermStore()
        store.add("cup", pad(np.ones(3)), np.array([1.0, 0.0, 0.0, 0.0]))
        path = tmp_path / "store.jsonl"
        store.save(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n" + bad_line + "\n")
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))} line 3\b"):
            LongTermStore.load(path)


class TestBatchedLoad:
    def test_matches_per_row_add(self, tmp_path):
        # targets interleaved in the file, rows of mixed scales
        npr = np.random.default_rng(31)
        targets = ["mug", "cup", "box", "lamp"]
        ref = LongTermStore()
        path = tmp_path / "store.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for _ in range(600):
                target = targets[int(npr.integers(len(targets)))]
                obs = npr.normal(size=64) * npr.choice([1e-3, 1.0, 1e3])
                act = npr.random(4)
                act = act / act.sum()
                ref.add(target, obs, act)
                fh.write(json.dumps({"target": target, "obs": obs.tolist(), "act": act.tolist()}) + "\n")
        loaded = LongTermStore.load(path)
        assert list(loaded.buckets) == list(ref.buckets)
        for target, bucket in ref.buckets.items():
            got = loaded.buckets[target]
            assert got.obs.tobytes() == bucket.obs.tobytes(), target
            assert got.norms.tobytes() == bucket.norms.tobytes(), target
            assert got.acts.tobytes() == bucket.acts.tobytes(), target
        # a loaded bucket still grows
        loaded.add("mug", np.ones(64), np.full(4, 0.25))
        ref.add("mug", np.ones(64), np.full(4, 0.25))
        assert loaded.rank("mug", np.ones(64)) == ref.rank("mug", np.ones(64))

    def test_the_first_bad_line_is_named(self, tmp_path):
        act = [1.0, 0.0, 0.0, 0.0]
        good = json.dumps({"target": "cup", "obs": pad([1.0, 0.0]).tolist(), "act": act})
        nan_obs = json.dumps({"target": "cup", "obs": pad([math.nan, 0.0]).tolist(), "act": act})
        path = tmp_path / "store.jsonl"
        path.write_text("\n".join([good, nan_obs, "not json", good]) + "\n")
        with pytest.raises(ValueError, match=r"line 2: observation embedding must be finite"):
            LongTermStore.load(path)

    @pytest.mark.parametrize(
        "lines, named",
        [
            # target B's NaN row comes before target A's bad action row
            (["a", "b-nan", "a", "a-bad-act", "b"], r"line 2: observation embedding must be finite"),
            (["a", "b", "a", "a-bad-act", "b-nan"], r"line 4: action distribution must be"),
            # a bad row comes before the line of another length that ends the read
            (["a", "b-nan", "a", "a-short"], r"line 2: observation embedding must be finite"),
            (["a", "b", "a-short", "b-nan"], r"line 3: .* length 32 .* length 64"),
        ],
        ids=["nan-before-act", "act-before-nan", "nan-before-length", "length-before-nan"],
    )
    def test_the_first_bad_line_across_targets_is_named(self, tmp_path, lines, named):
        act = [0.25] * 4
        rows = {
            "a": ("cup", [1.0] * 64, act),
            "b": ("mug", [2.0] * 64, act),
            "b-nan": ("mug", [math.nan] + [1.0] * 63, act),
            "a-bad-act": ("cup", [1.0] * 64, [0.5, 0.5, 0.5, -0.5]),
            "a-short": ("cup", [1.0] * 32, act),
        }
        path = tmp_path / "store.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                target, obs, act_row = rows[line]
                fh.write(json.dumps({"target": target, "obs": obs, "act": act_row}) + "\n")
        with pytest.raises(InputFileError, match=named):
            LongTermStore.load(path)

    def test_a_file_of_two_lengths_is_refused_at_the_first_line_of_the_second(self, tmp_path):
        store = LongTermStore()
        store.add("cup", np.ones(64), np.eye(4)[0])
        path = tmp_path / "store.jsonl"
        store.save(path)
        with open(path, "a", encoding="utf-8") as fh:
            for target, dim in [("mug", 64), ("mug", 32), ("cup", 64), ("cup", 32)]:
                fh.write(json.dumps({"target": target, "obs": [1.0] * dim, "act": [0, 1, 0, 0]}) + "\n")
        with pytest.raises(
            InputFileError,
            match=rf"{re.escape(str(path))} line 3: target 'mug': embedding of length 32 "
            r"does not match the store's length 64",
        ):
            LongTermStore.load(path)

    def test_a_file_of_another_length_is_refused_at_its_first_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for target in ("mug", "cup"):
                fh.write(json.dumps({"target": target, "obs": [1.0] * 32, "act": [0, 1, 0, 0]}) + "\n")
        with pytest.raises(
            InputFileError,
            match=rf"{re.escape(str(path))} line 1: target 'mug': embedding of length 32 "
            r"does not match the store's length 64",
        ):
            LongTermStore.load(path)


class TestArrayFormsMatchLoops:
    """The array forms of forgetting and retrieval give the bits of the
    per-candidate and per-entry loops they replaced (reference_impls)."""

    @settings(max_examples=400, deadline=None)
    @given(CONFIDENCES)
    @example([0.4, 0.8])
    @example([0.3, 0.3])
    @example([0.7] * 32)
    @example([0.5, 0.25] * 16)
    def test_pair_candidates_and_entropies_bit_equal(self, confs):
        got = pool_candidates(confs)
        want = loop_pool_candidates(confs)
        n = len(confs)
        assert got.shape == (n - 1, n - 1)
        assert got.tobytes() == np.stack(want).tobytes()
        h = candidate_entropies(got)
        assert h.tobytes() == np.array(loop_entropies(want)).tobytes()
        assert entropy_argmin(got) == loop_entropy_argmin(want)

    def test_forget_and_append_matches_the_loop(self):
        rng = np.random.default_rng(21)
        mem = ShortTermMemory()
        ref = TupleShortTermMemory()
        for step in range(1000):
            h = pad(rng.normal(size=6))
            c = float(rng.choice([0.25, 0.5, rng.random() + 1e-6]))
            forget_and_append(mem, h, c)
            ref = loop_forget_and_append(ref, h, c)
            assert mem.confidences == ref.confidences, step
            assert [e.tobytes() for e in mem.entries] == [e.tobytes() for e in ref.entries]
        assert len(mem) == CAPACITY

    def test_buffer_matches_the_tuple_memory(self):
        # rows of many lengths, zero-padded, and more appends than slots, so
        # that merges hit every position of the buffer
        rng = np.random.default_rng(23)
        for trial in range(12):
            dim = int(rng.integers(1, 20))
            mem = ShortTermMemory()
            ref = TupleShortTermMemory()
            for step in range(3 * CAPACITY + 10):
                h = pad(rng.normal(size=dim) * rng.choice([1e-3, 1.0, 1e3]))
                c = float(rng.choice([0.25, 0.5, rng.random() + 1e-6]))
                forget_and_append(mem, h, c)
                ref = loop_forget_and_append(ref, h, c)
                where = (trial, step)
                assert mem.confidences == ref.confidences, where
                assert mem.entries.tobytes() == np.stack(ref.entries).tobytes(), where
                assert mem.mean_entry().tobytes() == ref.mean_entry().tobytes(), where
            assert len(mem) == CAPACITY

    def test_rank_keeps_insertion_order_on_ties_and_sees_adds(self):
        npr = np.random.default_rng(13)
        store = LongTermStore()
        bucket = []

        def add(obs):
            act = one_hot_act(len(bucket))
            store.add("t", obs, act)
            bucket.append((np.asarray(obs, dtype=float), act))

        base = npr.normal(size=64)
        # duplicates and power-of-two scalings have exactly equal cosines
        for obs in (npr.normal(size=64), base, 2.0 * base, base, 0.5 * base, 3.0 * base):
            add(obs)
        order = store.rank("t", base)
        assert order == loop_rank(bucket, base)
        ties = [j for j in order if j in (1, 2, 3, 4)]
        assert ties == [1, 2, 3, 4] and order.index(1) == 0
        query = npr.normal(size=64)
        assert store.rank("t", query) == loop_rank(bucket, query)
        # an add after a rank is seen by the next rank, across array growth
        for i in range(20):
            add(query if i == 7 else npr.normal(size=64))
            got = store.rank("t", query)
            assert got == loop_rank(bucket, query)
        assert got[0] == 6 + 7
        top = store.retrieve_topk("t", query)
        assert len(top) == TOP_K
        assert top.acts.tobytes() == np.array([bucket[j][1] for j in got[:TOP_K]]).tobytes()

    def test_rank_matches_the_loop_on_random_stores(self):
        npr = np.random.default_rng(17)
        for trial in range(200):
            dim = int(npr.choice([2, 7, 16, 64]))
            m = int(npr.integers(1, 400))
            base = npr.normal(size=dim)
            store = LongTermStore()
            bucket = []
            for j in range(m):
                if trial % 3 == 0:
                    # small integer coordinates: exact ties and duplicate rows
                    obs = npr.integers(-2, 3, size=dim).astype(float)
                    obs[0] += 0.0 if obs.any() else 1.0
                elif trial % 3 == 1:
                    # scaled copies of one row: cosines equal but for rounding,
                    # so the order hangs on the last bits of each dot product
                    obs = base * npr.uniform(0.5, 2.0)
                else:
                    obs = npr.normal(size=dim)
                obs = pad(obs)
                store.add("t", obs, one_hot_act(j))
                bucket.append((obs, one_hot_act(j)))
            query = pad(npr.normal(size=dim))
            assert store.rank("t", query) == loop_rank(bucket, query), trial

    def test_buckets_yield_obs_act_pairs(self):
        npr = np.random.default_rng(3)
        store = LongTermStore()
        added = [(pad(npr.normal(size=8)), one_hot_act(j)) for j in range(11)]
        for obs, act in added:
            store.add("cup", obs, act)
        assert len(store.buckets["cup"]) == len(store.buckets.get("cup", ())) == 11
        assert len(store.buckets.get("ghost", ())) == 0
        pairs = list(store.buckets["cup"])
        assert len(pairs) == 11
        for (obs, act), (o, a) in zip(added, pairs):
            assert o.tobytes() == obs.tobytes() and a.tobytes() == act.tobytes()


class TestWeightDecision:
    def test_uniform_weighting_preserves_argmax(self):
        a = np.array([0.1, 0.2, 0.4, 0.3])
        out = weight_decision(a, np.full(4, 0.25))
        assert int(np.argmax(out)) == 2

    def test_one_hot_average_dominates(self):
        a = np.full(4, 0.25)
        out = weight_decision(a, np.array([0.0, 0.0, 1.0, 0.0]))
        assert np.allclose(out, [0.0, 0.0, 1.0, 0.0])

    def test_hand_case(self):
        a = np.array([0.1, 0.2, 0.4, 0.3])
        avg = np.array([0.25, 0.25, 0.4, 0.1])
        raw = a * avg
        assert np.allclose(raw, [0.025, 0.05, 0.16, 0.03])
        out = weight_decision(a, avg)
        assert int(np.argmax(out)) == 2
        assert out.sum() == pytest.approx(1.0)

    def test_degenerate_product_passes_through(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        out = weight_decision(a, np.array([0.0, 1.0, 0.0, 0.0]))
        assert out.tobytes() == a.tobytes() and out is not a

    def test_argmax_invariant_under_rescaling(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = rng.random(4) + 1e-9
            acts = [rng.random(4) for _ in range(3)]
            mean = TopK(np.stack([x / x.sum() for x in acts])).mean
            base = weight_decision(a, mean)
            scaled = weight_decision(3.7 * a, mean)
            assert int(np.argmax(base)) == int(np.argmax(scaled))

    def test_empty_retrieved_raises(self):
        # no retrieved rows have no mean
        empty = TopK(np.empty((0, 4)))
        assert empty.mean is None
        with pytest.raises(ValueError, match="vector of 4 actions"):
            weight_decision(np.full(4, 0.25), empty.mean)
        with pytest.raises(ValueError, match="vector of 4 actions"):
            weight_decision(np.full(4, 0.25), np.empty(0))

    def test_topk_mean_is_np_mean(self):
        rng = np.random.default_rng(6)
        for k in range(1, TOP_K + 1):
            acts = rng.dirichlet([1, 1, 1, 1], size=k)
            assert TopK(acts).mean.tobytes() == np.mean(acts, axis=0).tobytes()
