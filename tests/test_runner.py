import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lhnav.expert import geodesic_distance
from lhnav.memory import CAPACITY, LongTermStore
from lhnav.metrics import EpisodeResult
from lhnav.runner import (
    POLICIES,
    RunConfig,
    format_report_table,
    make_policy,
    run_episode,
    run_suite,
)
from lhnav.policy import ExpertPolicy, StopPolicy
from lhnav.scenegen import generate_scene
from lhnav.taskforge import GRAB, MOVE_TO, RELEASE, Subtask, sample_spawn, sample_task
from lhnav.files import _CANONICAL
from lhnav.trajectory import StepRecord, Trajectory
from lhnav.world import ROBOTS, Action, AgentState, Scene, apply_action, stock_robot

from reference_impls import reference_apply_grab, reference_apply_release, step_record_dict

SPOT = ROBOTS["spot"]


def small_suite(n_scenes=3, tasks_per_scene=2, size=20):
    scenes = {}
    tasks = []
    for i in range(n_scenes):
        scene = generate_scene(seed=100 + i, size=size, regions=4)
        scenes[scene.scene_id] = scene
        for j in range(tasks_per_scene):
            tasks.append(sample_task(scene, SPOT, seed=10 * i + j))
    return scenes, tasks


class TestRunEpisode:
    def test_expert_completes_fixture_task(self, two_room_scene):
        task = sample_task(two_room_scene, SPOT, seed=7)
        cfg = RunConfig(policy="expert")
        traj, result = run_episode(two_room_scene, task, make_policy(cfg, task), cfg)
        assert all(r.success for r in result.records)
        move_spans = [s for s in traj.spans if s.kind == "move_to"]
        for span in move_spans:
            assert traj.steps[span.end - 1].action == Action.STOP
        grabs = [s for s in traj.spans if s.kind in ("grab", "release")]
        assert grabs and all(s.interaction_ok for s in grabs)

    def test_stop_policy_ne_equals_spawn_distance(self, two_room_scene):
        task = sample_task(two_room_scene, SPOT, seed=7)
        cfg = RunConfig(policy="stop")
        start = sample_spawn(two_room_scene, task)
        traj, result = run_episode(two_room_scene, task, StopPolicy(), cfg, start=start)
        first = result.records[0]
        expected = geodesic_distance(
            two_room_scene, start.position, two_room_scene.object("bag-0").position
        )
        assert first.ne == expected
        assert expected >= 2.0 and not first.success

    def test_random_tiny_budget_truncates(self, two_room_scene):
        task = sample_task(two_room_scene, SPOT, seed=7)
        cfg = RunConfig(policy="random", budget=10, seed=3)
        traj, result = run_episode(two_room_scene, task, make_policy(cfg, task), cfg)
        assert any(r.truncated for r in result.records) or all(
            not r.success for r in result.records
        )
        assert len(result.records) == 2

    def test_later_subtasks_run_after_failure(self, two_room_scene):
        task = sample_task(two_room_scene, SPOT, seed=7)
        cfg = RunConfig(policy="stop")
        _, result = run_episode(two_room_scene, task, StopPolicy(), cfg)
        assert len(result.records) == len(task.move_targets())

    def test_step_counts_sum(self, two_room_scene):
        task = sample_task(two_room_scene, SPOT, seed=7)
        cfg = RunConfig(policy="expert")
        traj, result = run_episode(two_room_scene, task, make_policy(cfg, task), cfg)
        assert sum(r.steps for r in result.records) == len(traj.steps)

    def test_gt_matches_geodesic_at_each_subtask_start(self):
        scene = generate_scene(seed=55, size=20, regions=4)
        task = sample_task(scene, SPOT, seed=5)
        cfg = RunConfig(policy="expert")
        traj, result = run_episode(scene, task, make_policy(cfg, task), cfg)
        move_spans = [s for s in traj.spans if s.kind == "move_to"]
        for span, record in zip(move_spans, result.records):
            start_state = traj.steps[span.start].state
            expected = geodesic_distance(
                scene, start_state.position, scene.object(span.target_id).position
            )
            assert record.gt == expected

    def test_unknown_robot_rejected(self, two_room_scene):
        # a task names a stock robot from the moment it is built
        task = sample_task(two_room_scene, SPOT, seed=7)
        with pytest.raises(ValueError, match=r"'spott'.*'spot', 'stretch'"):
            replace(task, robot="spott")

    def test_wrong_scene_pairing_rejected(self, two_room_scene):
        scene2 = generate_scene(seed=77, size=20)
        task = sample_task(two_room_scene, SPOT, seed=7)
        cfg = RunConfig(policy="expert")
        with pytest.raises(ValueError):
            run_episode(scene2, task, make_policy(cfg, task), cfg)


    def test_one_success_check_per_expert_step(self, monkeypatch):
        # the runner judges success once per step and hands the result to
        # the expert and to each grab or release; the pose after a stop is
        # the pose it was judged on
        from lhnav import world

        calls = 0
        real = world.subtask_success

        def counting(scene, state, target):
            nonlocal calls
            calls += 1
            return real(scene, state, target)

        monkeypatch.setattr(world, "subtask_success", counting)
        scene = generate_scene(seed=41, size=20, regions=4)
        task = sample_task(scene, ROBOTS["spot"], seed=3)
        traj, result = run_episode(scene, task, ExpertPolicy(), RunConfig())
        interactions = [span for span in traj.spans if span.kind != MOVE_TO]
        assert interactions and all(span.interaction_ok for span in interactions)
        assert all(r.success for r in result.records)
        assert calls == len(traj.steps)


def replay_interactions(scene, traj):
    """Replays each grab and release of an episode with the reference ones,
    on the pose where the move window before it ended, and checks the
    episode's outcome and the holding it carried on; returns the outcomes."""
    robot = stock_robot(traj.robot)
    pose = place = None
    outcomes = []
    for span in traj.spans:
        if span.kind == MOVE_TO:
            last = traj.steps[span.end - 1]
            pose = apply_action(scene, last.state, last.action, robot).state
            place = span.target_id
            continue
        if span.kind == GRAB:
            pose, ok = reference_apply_grab(scene, pose, span.target_id)
        else:
            pose, ok = reference_apply_release(scene, pose, span.target_id, place)
        assert span.interaction_ok is ok
        after = traj.steps[span.end].state if span.end < len(traj.steps) else traj.final_state
        assert after.holding == pose.holding
        outcomes.append(ok)
    return outcomes


class TestInteractions:
    @pytest.mark.parametrize("policy", ["expert", "random", "memory"])
    def test_grab_and_release_match_reference(self, policy):
        scenes, tasks = small_suite(n_scenes=2, tasks_per_scene=2)
        cfg = RunConfig(policy=policy, seed=5, budget=500 if policy == "expert" else 40)
        outcomes = []
        for task in tasks:
            scene = scenes[task.scene_id]
            traj, _ = run_episode(scene, task, make_policy(cfg, task), cfg)
            outcomes += replay_interactions(scene, traj)
        assert len(outcomes) >= 2 * len(tasks)
        assert all(outcomes) if policy == "expert" else not all(outcomes)

    @pytest.mark.parametrize(
        "kinds, expected",
        [
            ([(MOVE_TO, "bag-0"), (GRAB, "bag-0"), (MOVE_TO, "bag-0"), (GRAB, "bag-0")],
             [True, False]),
            ([(MOVE_TO, "desk-0"), (GRAB, "desk-0")], [False]),
            ([(MOVE_TO, "desk-0"), (RELEASE, "bag-0")], [False]),
        ],
        ids=["grab-while-holding", "grab-non-portable", "release-not-held"],
    )
    def test_rejected_interactions_match_reference(self, two_room_scene, kinds, expected):
        # tasks that validate_task rejects, run directly: each move window
        # ends at its target, and the grab or release after it still fails
        subtasks = tuple(
            Subtask(kind, obj, two_room_scene.object(obj).region_id if kind == MOVE_TO else None)
            for kind, obj in kinds
        )
        task = replace(sample_task(two_room_scene, SPOT, seed=7), subtasks=subtasks)
        cfg = RunConfig()
        traj, result = run_episode(two_room_scene, task, ExpertPolicy(), cfg)
        assert all(r.success for r in result.records)
        assert replay_interactions(two_room_scene, traj) == expected


class TestRunConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("policy", "bogus"), ("workers", 0), ("budget", 0)],
    )
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})

    def test_unknown_policy_names_every_policy_in_order(self):
        with pytest.raises(
            ValueError, match=r"choose from \('expert', 'random', 'memory', 'stop'\)"
        ):
            RunConfig(policy="bogus")

    @pytest.mark.parametrize("policy", ["expert", "random", "stop"])
    def test_store_is_only_for_the_memory_policy(self, policy):
        with pytest.raises(ValueError, match=rf"only the memory policy reads a store, not '{policy}'"):
            RunConfig(policy=policy, store_path="store.jsonl")
        RunConfig(policy="memory", store_path="store.jsonl")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_policy_builds(self, policy, two_room_scene):
        make_policy(RunConfig(policy=policy), sample_task(two_room_scene, SPOT, seed=7))


class TestTrajectoryFiles:
    def test_round_trip(self, tmp_path, two_room_scene):
        task = sample_task(two_room_scene, SPOT, seed=7)
        cfg = RunConfig(policy="expert")
        traj, _ = run_episode(two_room_scene, task, make_policy(cfg, task), cfg)
        path = tmp_path / "t.jsonl"
        traj.save(path)
        loaded = Trajectory.load(path)
        assert loaded.task_id == traj.task_id
        assert loaded.steps == traj.steps
        assert loaded.spans == traj.spans
        assert loaded.final_state == traj.final_state
        # saving the loaded trajectory reproduces the bytes
        path2 = tmp_path / "t2.jsonl"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_saved_lines_carry_only_what_is_read(self, tmp_path, two_room_scene):
        task = sample_task(two_room_scene, SPOT, seed=7)
        traj, _ = run_episode(two_room_scene, task, ExpertPolicy(), RunConfig())
        path = tmp_path / "t.jsonl"
        traj.save(path)
        header, *steps = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(steps) == len(traj.steps) > 0
        assert all(set(step) == {"i", "pose", "holding", "action", "collided"} for step in steps)
        span_keys = {"index", "kind", "target_id", "start", "end", "gt", "interaction_ok"}
        assert [set(span) for span in header["spans"]] == [span_keys] * len(traj.spans)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n  \n",
            '{"i":0,"pose":[1,1,0],"action":"stop"}\n',
            '{"final_pose":[1,1,0],"task_id":"t","scene_id":"s","robot":"spot"}\n',
        ],
    )
    def test_missing_header_names_path(self, tmp_path, text):
        path = tmp_path / "broken.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="broken.jsonl"):
            Trajectory.load(path)

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"i":3,"pose":[1.0,',
            "not json",
            '{"i":3,"pose":[1.0,1.0,0.0],"action":"fly","collided":false}',
            '{"i":3}',
            # the due index is 2, and 2.0 == 2
            '{"i":2.0,"pose":[1.0,1.0,0.0],"action":"move_forward","collided":false}',
        ],
        ids=["truncated", "not-json", "unknown-action", "missing-fields", "index-a-float"],
    )
    def test_bad_step_line_names_path_and_line_number(self, tmp_path, two_room_scene, bad_line):
        task = sample_task(two_room_scene, SPOT, seed=7)
        cfg = RunConfig(policy="expert")
        traj, _ = run_episode(two_room_scene, task, make_policy(cfg, task), cfg)
        path = tmp_path / "t.jsonl"
        traj.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = bad_line
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))} line 4\b"):
            Trajectory.load(path)

    @pytest.mark.parametrize(
        "key, value",
        [("task_id", 7), ("scene_id", ["scene-1"]), ("config_hash", None), ("seed", "seven"),
         ("seed", 7.0), ("seed", True)],
    )
    def test_mistyped_header_field_names_the_header_line(
        self, tmp_path, two_room_scene, key, value
    ):
        traj, _ = run_episode(
            two_room_scene, sample_task(two_room_scene, SPOT, seed=7), ExpertPolicy(), RunConfig()
        )
        path = tmp_path / "t.jsonl"
        traj.save(path)
        header, *steps = path.read_text(encoding="utf-8").splitlines(keepends=True)
        header = json.dumps(dict(json.loads(header), **{key: value})) + "\n"
        path.write_text(header + "".join(steps), encoding="utf-8")
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))} line 1: .*{key} must be"):
            Trajectory.load(path)

    def test_replay_walks_the_move_windows_in_order(self, two_room_scene):
        task = sample_task(two_room_scene, SPOT, seed=7)
        traj, _ = run_episode(two_room_scene, task, ExpertPolicy(), RunConfig())
        windows = list(traj.replay(two_room_scene))
        moves = [span for span in traj.spans if span.kind == MOVE_TO]
        assert [span for span, _, _ in windows] == moves and len(moves) > 1
        # each window's contexts carry its ordinal as their stage
        assert [{ctx.stage for ctx in contexts} for _, _, contexts in windows] == [
            {stage} for stage in range(len(moves))
        ]
        assert [s for _, steps, _ in windows for s in steps] == traj.steps

    @pytest.mark.parametrize("fault", ["other-scene", "unknown-target", "off-grid"])
    def test_replay_checks_the_trajectory_against_its_scene(self, two_room_scene, fault):
        task = sample_task(two_room_scene, SPOT, seed=7)
        traj, _ = run_episode(two_room_scene, task, ExpertPolicy(), RunConfig())
        scene = two_room_scene
        if fault == "other-scene":
            scene = generate_scene(seed=77, size=20)
            match = "scene-42"
        elif fault == "unknown-target":
            traj.spans[0] = replace(traj.spans[0], target_id="ghost-9")
            match = "subtask 0 targets 'ghost-9'"
        else:
            state = replace(traj.steps[3].state, position=(-5.0, -5.0))
            traj.steps[3] = replace(traj.steps[3], state=state)
            match = "step 3: agent position"
        with pytest.raises(ValueError, match=match):
            traj.replay(scene)


# a pose number as lhnav makes or loads one: a finite float, -0.0 among
# them, or an int
pose_numbers = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6)


class TestStepLine:
    @settings(max_examples=400, deadline=None)
    @given(
        index=st.integers(0, 10**6),
        pose=st.tuples(pose_numbers, pose_numbers, pose_numbers),
        holding=st.none() | st.text(),
        action=st.sampled_from(list(Action)),
        collided=st.booleans(),
    )
    @example(0, (-0.0, 0.0, -0.0), None, Action.STOP, False)
    @example(7, (1, 2, 0), 'mug "7"', Action.TURN_LEFT, True)
    @example(3, (0.1, 1e-300, 359.99999999999994), "back\\slash", Action.TURN_RIGHT, False)
    @example(12, (1e16, -2.5, 90.0), "tasse-caf\u00e9-\u2615-\U0001f375", Action.MOVE_FORWARD, True)
    def test_line_is_the_canonical_json_of_the_record(self, index, pose, holding, action, collided):
        step = StepRecord(
            state=AgentState(position=pose[:2], heading=pose[2], holding=holding),
            action=action,
            collided=collided,
        )
        line = step.line(index)
        assert line == _CANONICAL.encode(step_record_dict(index, step))
        assert StepRecord.from_dict(json.loads(line)) == step

    def test_saved_steps_are_the_canonical_lines(self, tmp_path):
        # the sampled tasks grab and release, so some steps hold an object
        scenes, tasks = small_suite(n_scenes=1, tasks_per_scene=2)
        held = 0
        for k, task in enumerate(tasks):
            traj, _ = run_episode(scenes[task.scene_id], task, ExpertPolicy(), RunConfig())
            path = tmp_path / f"{k}.jsonl"
            traj.save(path)
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[0] == _CANONICAL.encode(json.loads(lines[0]))
            assert lines[1:] == [
                _CANONICAL.encode(step_record_dict(i, step)) for i, step in enumerate(traj.steps)
            ]
            held += sum(step.state.holding is not None for step in traj.steps)
        assert held > 0


class TestRunSuite:
    def test_expert_suite_perfect_metrics(self, tmp_path):
        scenes, tasks = small_suite()
        cfg = RunConfig(policy="expert", seed=1, out_dir=str(tmp_path / "run"))
        report = run_suite(scenes, tasks, cfg)
        agg = report["aggregate"]
        assert agg["sr"] == agg["isr"] == agg["csr"] == agg["cgt"] == 1.0
        assert agg["ne"] <= 1.0
        assert (tmp_path / "run" / "report.json").exists()
        assert len(list((tmp_path / "run" / "trajectories").glob("*.jsonl"))) == len(tasks)

    def test_same_seed_byte_identical_files(self, tmp_path):
        scenes, tasks = small_suite(n_scenes=2, tasks_per_scene=1)
        blobs = []
        for run_dir in ("a", "b"):
            cfg = RunConfig(policy="random", seed=9, budget=40, out_dir=str(tmp_path / run_dir))
            run_suite(scenes, tasks, cfg)
            files = sorted((tmp_path / run_dir / "trajectories").glob("*.jsonl"))
            blobs.append([f.read_bytes() for f in files])
        assert blobs[0] == blobs[1]

    def test_shuffled_task_order_same_aggregates(self):
        scenes, tasks = small_suite(n_scenes=2, tasks_per_scene=2)
        cfg = RunConfig(policy="random", seed=4, budget=30)
        report_a = run_suite(scenes, tasks, cfg)
        shuffled = list(tasks)
        random.Random(0).shuffle(shuffled)
        report_b = run_suite(scenes, shuffled, cfg)
        assert report_a["aggregate"] == report_b["aggregate"]

    def test_multi_worker_same_report(self):
        scenes, tasks = small_suite(n_scenes=2, tasks_per_scene=2)
        cfg1 = RunConfig(policy="random", seed=4, budget=30, workers=1)
        cfg2 = RunConfig(policy="random", seed=4, budget=30, workers=2)
        assert run_suite(scenes, tasks, cfg1)["aggregate"] == run_suite(scenes, tasks, cfg2)["aggregate"]

    def test_worker_pool_capped_at_task_count(self, monkeypatch):
        # under fork a pool starts all of its processes at the first submit
        from concurrent.futures import ProcessPoolExecutor

        from lhnav import runner

        started = []

        class RecordingPool(ProcessPoolExecutor):
            def shutdown(self, *args, **kwargs):
                if self._processes is not None:
                    started.append(len(self._processes))
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
        scenes, tasks = small_suite(n_scenes=1, tasks_per_scene=2)
        cfg = RunConfig(policy="stop", workers=3)
        serial = run_suite(scenes, tasks, replace(cfg, workers=1))
        assert run_suite(scenes, tasks, cfg) == serial
        run_suite(scenes, tasks[:1], cfg)
        assert started == [2]

    @pytest.mark.parametrize(
        "bad, named",
        [
            (None, "the suite holds no tasks"),
            (lambda task: replace(task, scene_id="scene-99"), "task 'bad' is from scene 'scene-99'"),
            (lambda task: replace(task, subtasks=task.subtasks[:2]), "task 'bad': 1 navigation"),
            (
                lambda task: replace(
                    task, subtasks=(Subtask(MOVE_TO, "piano-0", "0"),) + task.subtasks[1:]
                ),
                "task 'bad': unknown object 'piano-0'",
            ),
        ],
        ids=["empty", "unknown-scene", "one-stage", "unknown-object"],
    )
    def test_rejected_suite_runs_no_episode(self, monkeypatch, bad, named):
        # a bad task after a good one stops the suite before any episode
        from lhnav import runner
        from lhnav.taskforge import TaskValidationError

        scenes, tasks = small_suite(n_scenes=1, tasks_per_scene=1)
        tasks = [] if bad is None else tasks + [replace(bad(tasks[0]), id="bad")]
        episodes = []
        monkeypatch.setattr(runner, "run_episode", lambda *a, **k: episodes.append(a))
        with pytest.raises(TaskValidationError, match=named) as exc:
            run_suite(scenes, tasks, RunConfig())
        assert isinstance(exc.value, ValueError)
        assert episodes == []

    def test_memory_suite_loads_store_once_for_any_worker_count(self, tmp_path, monkeypatch):
        scenes, tasks = small_suite(n_scenes=3, tasks_per_scene=1)
        rng = np.random.default_rng(0)
        store = LongTermStore()
        for scene in scenes.values():
            for obj in scene.objects:
                for _ in range(4):
                    store.add(obj.category, rng.random(64) + 0.01, rng.dirichlet(np.ones(4)))
        store.save(tmp_path / "store.jsonl")

        # each call appends a line, so calls in forked pool workers count too
        calls = tmp_path / "loads.txt"
        load = LongTermStore.load.__func__

        def counting_load(cls, path):
            with open(calls, "a", encoding="utf-8") as fh:
                fh.write(f"{path}\n")
            return load(cls, path)

        monkeypatch.setattr(LongTermStore, "load", classmethod(counting_load))
        reports, trajectories = [], []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            cfg = RunConfig(
                policy="memory", budget=15, workers=workers,
                store_path=str(tmp_path / "store.jsonl"), out_dir=str(out),
            )
            reports.append(run_suite(scenes, tasks, cfg))
            assert calls.read_text(encoding="utf-8").splitlines() == [cfg.store_path]
            calls.unlink()
            files = sorted((out / "trajectories").glob("*.jsonl"))
            assert len(files) == len(tasks)
            trajectories.append([f.read_bytes() for f in files])
        assert reports[0] == reports[1]
        assert trajectories[0] == trajectories[1]
        # the store is read: without it the same suite acts differently
        bare = run_suite(scenes, tasks, RunConfig(policy="memory", budget=15))
        assert bare["results"] != reports[0]["results"]

    def test_memory_suite_hashes_each_category_once(self, monkeypatch):
        # every episode builds its own oracle; they share one memo of the
        # hashed coordinates, so no category is hashed twice
        from lhnav import policy

        scenes, tasks = small_suite(n_scenes=1, tasks_per_scene=2)
        want = run_suite(scenes, tasks, RunConfig(policy="memory", budget=15))
        policy.category_index.cache_clear()
        real = policy.hashlib.sha256
        hashed = []
        monkeypatch.setattr(
            policy.hashlib, "sha256", lambda data=b"": hashed.append(data) or real(data)
        )
        assert run_suite(scenes, tasks, RunConfig(policy="memory", budget=15)) == want
        categories = [data for data in hashed if data.startswith(b"lhnav-v1|")]
        assert categories and len(categories) == len(set(categories))

    def test_workers_reuse_the_fields_the_parent_computed(self, tmp_path, monkeypatch):
        # the reachability check fills each scene's field cache before any
        # episode; a worker gets those fields with its scenes and computes
        # only fields the parent lacks.  Each call appends a line, so calls
        # in forked pool workers count too.
        import os

        from lhnav import expert

        calls = tmp_path / "fields.txt"
        compute = expert.compute_field

        def logging_compute(scene, source):
            with open(calls, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {scene.scene_id} {source}\n")
            return compute(scene, source)

        scenes, tasks = small_suite(n_scenes=2, tasks_per_scene=3)
        # fresh copies, as a rollout loads them: no field computed yet
        scenes = {k: Scene.from_dict(scene.to_dict()) for k, scene in scenes.items()}
        monkeypatch.setattr(expert, "compute_field", logging_compute)
        report = run_suite(scenes, tasks, RunConfig(policy="expert", workers=2))
        parent, workers = set(), []
        for line in calls.read_text(encoding="utf-8").splitlines():
            pid, key = line.split(" ", 1)
            if int(pid) == os.getpid():
                parent.add(key)
            else:
                workers.append(key)
        assert parent and workers
        assert not parent & set(workers)
        assert report == run_suite(scenes, tasks, RunConfig(policy="expert"))

    def test_store_is_pickled_at_most_once_per_worker(self, tmp_path, monkeypatch):
        scenes, tasks = small_suite(n_scenes=3, tasks_per_scene=2)
        store = LongTermStore()
        store.add(scenes[tasks[0].scene_id].objects[0].category, np.arange(1.0, 65.0), np.eye(4)[2])
        store.save(tmp_path / "store.jsonl")
        pickled = []

        def counting_getstate(self):
            pickled.append(len(self))
            return vars(self)

        monkeypatch.setattr(LongTermStore, "__getstate__", counting_getstate, raising=False)
        for workers in (2, 3):
            cfg = RunConfig(
                policy="memory", budget=10, workers=workers,
                store_path=str(tmp_path / "store.jsonl"),
            )
            run_suite(scenes, tasks, cfg)
            assert 1 <= len(pickled) <= workers
            pickled.clear()

    def test_results_reload_to_same_metrics(self, tmp_path):
        scenes, tasks = small_suite(n_scenes=2, tasks_per_scene=1)
        cfg = RunConfig(policy="expert", out_dir=str(tmp_path / "r"))
        report = run_suite(scenes, tasks, cfg)
        saved = json.loads((tmp_path / "r" / "report.json").read_text())
        results = [EpisodeResult.from_dict(d) for d in saved["results"]]
        from lhnav.metrics import aggregate

        assert aggregate(results) == report["aggregate"]

    def test_aggregate_runs_once_and_per_task_holds_the_episode_rows(self, monkeypatch):
        from lhnav import metrics

        calls = []
        aggregate = metrics.aggregate
        monkeypatch.setattr(metrics, "aggregate", lambda results: calls.append(1) or aggregate(results))
        scenes, tasks = small_suite(n_scenes=2, tasks_per_scene=2)
        report = run_suite(scenes, tasks, RunConfig(policy="random", budget=40, seed=3))
        assert len(calls) == 1
        results = [EpisodeResult.from_dict(d) for d in report["results"]]
        assert report["per_task"] == {res.task_id: metrics.episode_metrics(res) for res in results}

    def test_table_has_fixed_metric_order(self):
        scenes, tasks = small_suite(n_scenes=2, tasks_per_scene=1)
        cfg = RunConfig(policy="expert")
        table = format_report_table(run_suite(scenes, tasks, cfg))
        positions = [table.index(name.upper()) for name in ("SR", "OSR", "SPL", "NE", "ISR", "CSR", "CGT", "TAR")]
        assert positions == sorted(positions)


def random_store(scenes, seed, dim=64, rows_per_category=4):
    """Random rows for every object category; the actions lean to forward
    moves, as an expert's do, so a memory policy reading them collides
    often."""
    rng = np.random.default_rng(seed)
    store = LongTermStore()
    for scene in scenes.values():
        for obj in scene.objects:
            for _ in range(rows_per_category):
                store.add(obj.category, rng.random(dim) + 0.01, rng.dirichlet([1, 1, 1.5, 1]))
    return store


def fresh(keys):
    """The (state, target) pairs of a sequence that differ from the pair
    before them, in state object or in target."""
    return [
        key
        for i, key in enumerate(keys)
        if i == 0 or key[0] is not keys[i - 1][0] or key[1] != keys[i - 1][1]
    ]


class TestSenseOncePerPose:
    """After a step that leaves the state object as it was (a blocked
    forward move), the memory policy reuses what it sensed and the runner its
    success check; the outputs are those of sensing on every step."""

    # seeds whose untrained weights collide often without a store too
    @pytest.mark.parametrize("seed", [2, 4, 10])
    @pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "store"])
    @pytest.mark.parametrize("capacity", [2, CAPACITY])
    def test_same_files_as_sensing_every_step(
        self, tmp_path, monkeypatch, seed, with_store, capacity
    ):
        from lhnav import runner
        from lhnav.policy import EmbeddingOracle, LinearSoftmaxBackend, MemoryPolicy

        from reference_impls import SenseEveryStepPolicy

        # a memory of 2 slots forgets from its third step on, so the
        # short episodes merge entries too
        monkeypatch.setattr("lhnav.memory.CAPACITY", capacity)
        scenes, tasks = small_suite(n_scenes=2, tasks_per_scene=2)
        store_path = ""
        if with_store:
            store_path = str(tmp_path / "store.jsonl")
            random_store(scenes, seed=seed).save(store_path)

        def cached_policy(cfg, task, store=None):
            return MemoryPolicy(LinearSoftmaxBackend(seed=cfg.seed), store)

        def reference_policy(cfg, task, store=None):
            return SenseEveryStepPolicy(
                LinearSoftmaxBackend(seed=cfg.seed),
                EmbeddingOracle(),
                store if store is not None else LongTermStore(),
            )

        outputs = []
        for side, make in (("cached", cached_policy), ("reference", reference_policy)):
            monkeypatch.setattr(runner, "make_policy", make)
            out = tmp_path / side
            cfg = RunConfig(
                policy="memory", seed=seed, budget=40, store_path=store_path, out_dir=str(out)
            )
            report = run_suite(scenes, tasks, cfg)
            files = sorted((out / "trajectories").glob("*.jsonl"))
            assert len(files) == len(tasks)
            outputs.append((report, [f.read_bytes() for f in files]))
        assert outputs[0] == outputs[1]
        steps = [s for f in files for s in Trajectory.load(f).steps]
        assert sum(s.collided for s in steps) > len(steps) // 4

    @pytest.mark.parametrize("capacity", [2, CAPACITY])
    def test_imitation_data_senses_once_per_pose(self, tmp_path, monkeypatch, capacity):
        # memory-policy trajectories that collide often, saved and loaded,
        # so equal poses are equal values and not one state object
        from lhnav import world
        from lhnav.policy import LinearSoftmaxBackend, imitation_dataset

        from reference_impls import sense_every_step_imitation_dataset

        monkeypatch.setattr("lhnav.memory.CAPACITY", capacity)  # 2 slots: forgetting on most steps
        scenes, tasks = small_suite(n_scenes=2, tasks_per_scene=2)
        cfg = RunConfig(policy="memory", seed=4, budget=40)
        observed = []
        observe = world.observe
        monkeypatch.setattr(world, "observe", lambda *args: observed.append(args) or observe(*args))
        total_steps = total_poses = 0
        for task in tasks:
            scene = scenes[task.scene_id]
            traj, _ = run_episode(scene, task, make_policy(cfg, task), cfg)
            traj.save(tmp_path / "t.jsonl")
            loaded = Trajectory.load(tmp_path / "t.jsonl")
            backend = LinearSoftmaxBackend(seed=7)
            want = sense_every_step_imitation_dataset(scene, loaded, backend)
            del observed[:]
            got = imitation_dataset(scene, loaded, backend)
            assert [y for _, y in got] == [y for _, y in want]
            assert b"".join(x.tobytes() for x, _ in got) == b"".join(x.tobytes() for x, _ in want)
            # each pose is observed once, even where a new window starts on
            # the pose where the last ended, or a step comes back to it
            poses = [step.state for _, steps, _ in loaded.replay(scene) for step in steps]
            assert len(observed) == len(set(poses))
            assert [args[1] for args in observed] == list(dict.fromkeys(poses))
            total_steps += len(poses)
            total_poses += len(set(poses))
        assert total_poses < total_steps * 3 // 4

    def test_imitation_data_judges_no_pose(self, tmp_path, monkeypatch):
        # nothing that reads a replayed context asks for its verdict, so the
        # replay checks no success and a freshly loaded scene computes no
        # geodesic field
        from lhnav import world
        from lhnav.policy import LinearSoftmaxBackend, imitation_dataset

        scenes, tasks = small_suite(n_scenes=2, tasks_per_scene=2)
        cfg = RunConfig(policy="memory", seed=4, budget=40)
        checked = []
        check = world.subtask_success
        monkeypatch.setattr(world, "subtask_success", lambda *args: checked.append(args) or check(*args))
        for task in tasks:
            scene = scenes[task.scene_id]
            traj, _ = run_episode(scene, task, make_policy(cfg, task), cfg)
            traj.save(tmp_path / "t.jsonl")
            scene.save(tmp_path / "scene.json")
            loaded_scene = Scene.load(tmp_path / "scene.json")
            del checked[:]
            dataset = imitation_dataset(
                loaded_scene, Trajectory.load(tmp_path / "t.jsonl"), LinearSoftmaxBackend(seed=7)
            )
            assert len(dataset) == len(traj.steps) > 0
            assert checked == []
            assert loaded_scene._field_cache == {}

    def test_replay_decides_on_the_rows_and_contexts_of_the_live_steps(
        self, tmp_path, monkeypatch
    ):
        # a memory episode (empty store) that collides and has windows of a
        # lone stop, saved and loaded, so equal poses are not one object
        from lhnav import policy

        scenes, tasks = small_suite(n_scenes=1, tasks_per_scene=1)
        task = tasks[0]
        scene = scenes[task.scene_id]
        cfg = RunConfig(policy="memory", seed=4, budget=40)
        memory = make_policy(cfg, task)
        live = []
        act = memory.act

        def recording_act(ctx):
            action = act(ctx)
            live.append((ctx, memory.row))
            return action

        memory.act = recording_act
        traj, _ = run_episode(scene, task, memory, cfg)
        windows = [span for span in traj.spans if span.kind == MOVE_TO]
        assert any(
            span.end - span.start == 1 and traj.steps[span.start].action == Action.STOP
            for span in windows
        )
        assert any(step.collided for step in traj.steps)
        traj.save(tmp_path / "t.jsonl")
        loaded = Trajectory.load(tmp_path / "t.jsonl")

        replayed = []
        step = policy.memory_policy_step
        monkeypatch.setattr(
            policy, "memory_policy_step", lambda p, ctx: replayed.append(ctx) or step(p, ctx)
        )
        dataset = policy.imitation_dataset(scene, loaded, memory.backend)
        assert len(dataset) == len(live) == len(traj.steps)
        assert [y for _, y in dataset] == [int(s.action) for s in traj.steps]
        assert [x.tobytes() for x, _ in dataset] == [row.tobytes() for _, row in live]

        def fields(ctx):
            return ctx.state, ctx.target_id, ctx.stage, ctx.at_target

        assert [fields(ctx) for ctx in replayed] == [fields(ctx) for ctx, _ in live]

    def test_one_context_object_per_pose(self):
        scenes, tasks = small_suite(n_scenes=2, tasks_per_scene=2)
        cfg = RunConfig(policy="memory", seed=4, budget=40)
        reused = renewed = 0
        for task in tasks:
            policy = make_policy(cfg, task)
            contexts = []
            act = policy.act
            policy.act = lambda ctx: contexts.append(ctx) or act(ctx)
            traj, _ = run_episode(scenes[task.scene_id], task, policy, cfg)
            assert len(contexts) == len(traj.steps)
            # the span that holds each step
            window = [span for span in traj.spans for _ in range(span.start, span.end)]
            for step, ctx, span in zip(traj.steps, contexts, window):
                assert ctx.state is step.state
                assert ctx.target_id == span.target_id
            for i in range(1, len(contexts)):
                before, step = traj.steps[i - 1], traj.steps[i]
                same_pose = step.state is before.state and window[i] is window[i - 1]
                assert (contexts[i] is contexts[i - 1]) == same_pose
                reused += same_pose
                renewed += not same_pose
        assert reused > 0 and renewed > 0

    @pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "store"])
    def test_one_sensing_and_one_check_per_pose_and_target(self, monkeypatch, with_store):
        from lhnav import runner, world
        from lhnav.policy import EmbeddingOracle, LinearSoftmaxBackend

        from reference_impls import SenseEveryStepPolicy

        scenes, tasks = small_suite(n_scenes=2, tasks_per_scene=2)
        store = random_store(scenes, seed=4) if with_store else None
        observed, retrieved, checked, moved = [], [], [], []

        def recording(calls, real):
            def record(*args):
                result = real(*args)
                calls.append((args, result))
                return result
            return record

        monkeypatch.setattr(world, "observe", recording(observed, world.observe))
        monkeypatch.setattr(
            LongTermStore, "retrieve_topk", recording(retrieved, LongTermStore.retrieve_topk)
        )
        monkeypatch.setattr(world, "subtask_success", recording(checked, world.subtask_success))
        monkeypatch.setattr(runner, "apply_action", recording(moved, runner.apply_action))

        cfg = RunConfig(policy="memory", seed=4, budget=40)
        oracle = EmbeddingOracle()
        steps = sensings = same_pose_new_target = returns = shared = 0
        for task in tasks:
            scene = scenes[task.scene_id]
            reference = SenseEveryStepPolicy(
                LinearSoftmaxBackend(seed=cfg.seed),
                EmbeddingOracle(),
                store if store is not None else LongTermStore(),
            )
            want, _ = run_episode(scene, task, reference, cfg)
            for calls in (observed, retrieved, checked, moved):
                calls.clear()
            traj, _ = run_episode(scene, task, make_policy(cfg, task, store), cfg)
            assert [s.action for s in traj.steps] == [s.action for s in want.steps]
            assert len(moved) == len(traj.steps)
            windows = [span for span in traj.spans if span.kind == MOVE_TO]
            # the policy observes once for each pose of the episode, in the
            # order the steps first reach it: a pose it returns to, as an
            # equal state value, for the same target or a new one, is not
            # observed again
            keys = [
                (step.state, span.target_id)
                for span in windows
                for step in traj.steps[span.start : span.end]
            ]
            poses = list(dict.fromkeys(state for state, _ in keys))
            assert len(observed) == len(poses)
            assert all(args[1] is state for (args, _), state in zip(observed, poses))
            # and it retrieves once for each (category, fused embedding) of
            # the steps, in the same order: poses that see the same objects
            # at the same ranges share a retrieval
            fused = {state: oracle.embed(obs)[1].tobytes() for (_, state, _), obs in observed}
            queries = list(dict.fromkeys(
                (scene.object(target).category, fused[state]) for state, target in keys
            ))
            assert [(args[1], args[2].tobytes()) for args, _ in retrieved] == queries
            # the runner checks a window's states and the pose after its
            # last action, once for each new state object
            expected = []
            for span in windows:
                window = [step.state for step in traj.steps[span.start : span.end]]
                window.append(moved[span.end - 1][1].state)
                expected += fresh([(state, span.target_id) for state in window])
                if span.start and traj.steps[span.start].state is traj.steps[span.start - 1].state:
                    same_pose_new_target += 1
            assert len(checked) == len(expected)
            assert all(
                args[1] is state and args[2] == target
                for (args, _), (state, target) in zip(checked, expected)
            )
            steps += len(traj.steps)
            sensings += len(poses)
            returns += len(fresh(keys)) - len(dict.fromkeys(keys))
            shared += len(dict.fromkeys(keys)) - len(queries)
        # most steps reuse what was sensed, some windows start at the pose
        # the last one ended on, for a new target, and some (pose, target)
        # pairs share a retrieval.  With the store, some steps also come
        # back to a (pose, target) sensed earlier, not on the step before;
        # the untrained weights alone never turn back on this suite, which
        # TestPolicies covers with a scripted turn
        assert sensings < steps // 2
        assert same_pose_new_target > 0
        assert shared > 0
        assert (returns > 0) == with_store


class SensedOnly:
    """What policy.Policy lets a non-expert policy read of a step context,
    and nothing else: state, observation, stage and goal (the window
    target's category, worked out here from the scene as the judge may).
    Reading scene, robot, target_id or at_target is an AttributeError."""

    __slots__ = ("state", "observation", "stage", "goal")

    def __init__(self, ctx):
        self.state, self.observation, self.stage = ctx.state, ctx.observation, ctx.stage
        self.goal = ctx.scene.object(ctx.target_id).category


class ActsOnSensedOnly:
    """A policy handed SensedOnly records instead of its step contexts."""

    def __init__(self, policy):
        self.policy = policy

    def act(self, ctx):
        return self.policy.act(SensedOnly(ctx))


class TestSensedInputContract:
    """Every policy but the expert decides on what the agent senses alone:
    handed a record without the scene, the robot, the target id or the
    verdict, it writes the same trajectories, report and rows."""

    @pytest.mark.parametrize("name", sorted(set(POLICIES) - {"expert"}))
    def test_run_suite_on_sensed_records_writes_the_same_files(self, tmp_path, monkeypatch, name):
        from lhnav import runner

        scenes, tasks = small_suite(n_scenes=2, tasks_per_scene=2)
        store_path = ""
        if name == "memory":
            store_path = str(tmp_path / "store.jsonl")
            random_store(scenes, seed=4).save(store_path)
        outputs = []
        for side in ("plain", "sensed"):
            if side == "sensed":
                build = POLICIES[name]
                monkeypatch.setitem(
                    runner.POLICIES, name,
                    lambda cfg, task, store: ActsOnSensedOnly(build(cfg, task, store)),
                )
            out = tmp_path / side
            cfg = RunConfig(
                policy=name, seed=4, budget=40, store_path=store_path, out_dir=str(out)
            )
            report = run_suite(scenes, tasks, cfg)
            files = sorted((out / "trajectories").glob("*.jsonl"))
            assert len(files) == len(tasks)
            outputs.append((report, [f.read_bytes() for f in files]))
        assert outputs[0] == outputs[1]

    def test_memory_step_on_replayed_sensed_records_gives_the_imitation_rows(self, tmp_path):
        from lhnav.policy import (
            LinearSoftmaxBackend, MemoryPolicy, imitation_dataset, memory_policy_step
        )

        scenes, tasks = small_suite(n_scenes=2, tasks_per_scene=2)
        for task in tasks:
            scene = scenes[task.scene_id]
            traj, _ = run_episode(scene, task, ExpertPolicy(), RunConfig(budget=40))
            traj.save(tmp_path / "t.jsonl")
            loaded = Trajectory.load(tmp_path / "t.jsonl")
            backend = LinearSoftmaxBackend(seed=7)
            memory = MemoryPolicy(backend)
            rows = []
            for _, steps, contexts in loaded.replay(scene):
                for step, ctx in zip(steps, contexts):
                    memory_policy_step(memory, SensedOnly(ctx))
                    rows.append((memory.row.tobytes(), int(step.action)))
            want = imitation_dataset(scene, loaded, backend)
            assert rows == [(x.tobytes(), y) for x, y in want]
            assert len(rows) == len(traj.steps) > 0
