import json
import math
import re
from dataclasses import replace

import pytest

from lhnav.cli import main
from lhnav.taskforge import MOVE_TO


def run_cli(*argv):
    return main(list(argv))


def usage_error_line(capsys, *argv):
    """The last stderr line of a command that must end in its usage error."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*map(str, argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: lhnav {argv[0]}")
    return err.splitlines()[-1]


def edit_subtasks(edit):
    """A task-file edit that changes the subtask list of its one task."""
    return lambda task: [dict(task, subtasks=edit(task["subtasks"]))]


class TestPipeline:
    def test_full_pipeline(self, tmp_path, capsys):
        scenes_dir = tmp_path / "scenes"
        for seed in (1, 2):
            assert run_cli(
                "gen-scene", "--seed", str(seed), "--size", "20",
                "--regions", "4", "--objects", "4", "--out", str(scenes_dir),
            ) == 0
        assert len(list(scenes_dir.glob("*.json"))) == 2

        tasks_path = tmp_path / "tasks.json"
        assert run_cli(
            "gen-tasks", "--scenes", str(scenes_dir), "--count", "4",
            "--subtasks", "2..3", "--seed", "0", "--out", str(tasks_path),
        ) == 0
        tasks = json.loads(tasks_path.read_text())
        assert len(tasks) == 4

        run_dir = tmp_path / "run"
        assert run_cli(
            "rollout", "--scenes", str(scenes_dir), "--tasks", str(tasks_path),
            "--policy", "expert", "--budget", "500", "--out", str(run_dir),
        ) == 0
        out = capsys.readouterr().out
        assert "SR" in out and "CGT" in out

        report_path = run_dir / "report.json"
        assert report_path.exists()
        assert run_cli("report", "--results", str(report_path)) == 0
        assert run_cli("report", "--results", str(report_path), "--format", "json") == 0

        split_out = tmp_path / "steps.json"
        assert run_cli(
            "split", "--trajectories", str(run_dir / "trajectories"),
            "--scenes", str(scenes_dir), "--out", str(split_out),
        ) == 0
        step_tasks = json.loads(split_out.read_text())
        assert step_tasks
        for st in step_tasks:
            assert st["instruction"].endswith(f"{st['target']}.")
            assert len(st["steps"]) >= 1
            assert st["source_task_id"]

    def test_memory_policy_rollout(self, tmp_path, capsys):
        scenes_dir = tmp_path / "scenes"
        run_cli("gen-scene", "--seed", "5", "--size", "20", "--out", str(scenes_dir))
        tasks_path = tmp_path / "tasks.json"
        run_cli(
            "gen-tasks", "--scenes", str(scenes_dir), "--count", "1",
            "--subtasks", "2", "--out", str(tasks_path),
        )
        assert run_cli(
            "rollout", "--scenes", str(scenes_dir), "--tasks", str(tasks_path),
            "--policy", "memory", "--budget", "30", "--out", str(tmp_path / "m"),
        ) == 0

    def test_gen_tasks_and_expert_rollout_on_a_scene_with_a_sealed_room(
        self, tmp_path, capsys, sealed_room_scene
    ):
        # the jar's room has no door, so every task is drawn from the cup's
        # and the desk's rooms, at every seed
        scene_path = tmp_path / "scene.json"
        sealed_room_scene.save(scene_path)
        tasks_path = tmp_path / "tasks.json"
        assert run_cli(
            "gen-tasks", "--scenes", str(scene_path), "--count", "5", "--out", str(tasks_path),
        ) == 0
        assert "dropping scene" not in capsys.readouterr().err
        tasks = json.loads(tasks_path.read_text())
        assert len(tasks) == 5
        run_dir = tmp_path / "run"
        assert run_cli(
            "rollout", "--scenes", str(scene_path), "--tasks", str(tasks_path),
            "--policy", "expert", "--out", str(run_dir),
        ) == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert report["num_tasks"] == 5 and report["aggregate"]["sr"] == 1.0


class TestSplitObservesEachStepOnce:
    def test_one_observation_per_distinct_step_and_reference_tags(
        self, tmp_path, monkeypatch
    ):
        # overlapping padded turn segments share their steps' observations;
        # the output equals tagging each segment with fresh observations
        from lhnav import world
        from lhnav.policy import ExpertPolicy
        from lhnav.runner import RunConfig, run_episode
        from lhnav.scenegen import generate_scene
        from lhnav.splitter import render_step_instruction, split_trajectory
        from lhnav.taskforge import sample_task
        from lhnav.world import ROBOTS, Action
        from reference_impls import reference_tag_segment

        scene = generate_scene(seed=4)
        scene.save(tmp_path / "scene.json")
        traj_dir = tmp_path / "trajectories"
        traj_dir.mkdir()
        trajectories = []
        for seed in range(3):
            task = sample_task(scene, seed=seed, allowed_stages=[3])
            traj, _ = run_episode(scene, task, ExpertPolicy(), RunConfig())
            traj.save(traj_dir / f"{task.id}.jsonl")
            trajectories.append(traj)
        observed = []
        real_observe = world.observe

        def counted(scene, state, robot=None):
            observed.append(state)
            return real_observe(scene, state, robot)

        monkeypatch.setattr(world, "observe", counted)
        out = tmp_path / "steps.json"
        assert run_cli(
            "split", "--trajectories", str(traj_dir),
            "--scenes", str(tmp_path / "scene.json"), "--out", str(out),
        ) == 0

        expected, distinct, overlaps = [], 0, 0
        for traj in sorted(trajectories, key=lambda t: t.task_id):
            for span in traj.spans:
                steps = traj.steps[span.start : span.end]
                actions = [s.action for s in steps if s.action != Action.STOP]
                if span.kind != "move_to" or not actions:
                    continue
                segments = split_trajectory(actions)
                covered = [i for seg in segments for i in range(seg.start, seg.end + 1)]
                distinct += len(set(covered))
                overlaps += len(covered) - len(set(covered))
                tagged = [
                    replace(seg, tags=reference_tag_segment(scene, steps, seg, ROBOTS[traj.robot]))
                    for seg in segments
                ]
                target = scene.object(span.target_id).category
                expected.append(vars(render_step_instruction(
                    target, tagged, source_task_id=traj.task_id, source_subtask=span.index
                )))
        assert overlaps > 0  # the segments did overlap
        assert len(observed) == distinct
        assert out.read_text() == json.dumps(expected, sort_keys=True, indent=2) + "\n"


    def test_split_judges_no_pose(self, tmp_path, monkeypatch):
        # split reads each context's observation and state, never its
        # verdict, so it checks no success and the scenes it loads compute
        # no geodesic field
        from lhnav import cli, world
        from lhnav.policy import ExpertPolicy
        from lhnav.runner import RunConfig, run_episode
        from lhnav.scenegen import generate_scene
        from lhnav.taskforge import sample_task

        scene = generate_scene(seed=4)
        scene.save(tmp_path / "scene.json")
        traj_dir = tmp_path / "trajectories"
        traj_dir.mkdir()
        for seed in range(3):
            task = sample_task(scene, seed=seed, allowed_stages=[3])
            traj, _ = run_episode(scene, task, ExpertPolicy(), RunConfig())
            traj.save(traj_dir / f"{task.id}.jsonl")
        checked, loaded = [], []
        check, load = world.subtask_success, cli._load_scenes
        monkeypatch.setattr(world, "subtask_success", lambda *args: checked.append(args) or check(*args))
        monkeypatch.setattr(cli, "_load_scenes", lambda args: loaded.append(load(args)) or loaded[-1])
        out = tmp_path / "steps.json"
        assert run_cli(
            "split", "--trajectories", str(traj_dir),
            "--scenes", str(tmp_path / "scene.json"), "--out", str(out),
        ) == 0
        assert len(json.loads(out.read_text())) >= 3
        assert checked == []
        assert [list(scenes) for scenes in loaded] == [[scene.scene_id]]
        assert all(s._field_cache == {} for s in loaded[0].values())


class TestUsageErrors:
    # rollout has no --literal-* flags; the top-level parser reports a flag
    # that no subcommand defines
    @pytest.mark.parametrize(
        "flag, usage",
        [
            ("--workers", "usage: lhnav rollout"),
            ("--budget", "usage: lhnav rollout"),
            ("--literal-ne", "usage: lhnav [-h]"),
            ("--literal-ce", "usage: lhnav [-h]"),
            ("--literal-pooling", "usage: lhnav [-h]"),
        ],
        ids=["--workers", "--budget", "--literal-ne", "--literal-ce", "--literal-pooling"],
    )
    def test_rejected_run_config_is_a_usage_error(
        self, tmp_path, capsys, two_room_scene, flag, usage
    ):
        from lhnav.taskforge import sample_task, save_tasks

        two_room_scene.save(tmp_path / "scene.json")
        save_tasks([sample_task(two_room_scene, seed=7)], tmp_path / "t.json")
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "rollout", "--scenes", str(tmp_path / "scene.json"),
                "--tasks", str(tmp_path / "t.json"), "--out", str(tmp_path / "run"),
                flag, "0",
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(usage)
        assert flag[2:] in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda task: [], "holds no tasks"),
            (lambda task: task, "JSON list"),
            (lambda task: [{"id": task["id"]}], "entry 0"),
            (lambda task: [dict(task, scene_id="scene-99")], "'scene-99'"),
            (lambda task: [task, dict(task, id="other"), task], "entries 0 and 2"),
            (
                edit_subtasks(lambda subs: [dict(subs[0], object_id="piano-0")] + subs[1:]),
                "task 'task-42-7': unknown object 'piano-0'",
            ),
            (
                edit_subtasks(lambda subs: [dict(subs[0], region_id="attic")] + subs[1:]),
                "task 'task-42-7': unknown region 'attic'",
            ),
            (edit_subtasks(lambda subs: subs[:2]), "task 'task-42-7': 1 navigation stages"),
            (
                edit_subtasks(lambda subs: [subs[1], subs[0]] + subs[2:]),
                "task 'task-42-7': grab 'bag-0' not preceded by a move to it",
            ),
            (
                edit_subtasks(lambda subs: [subs[0], dict(subs[1], kind="jump")] + subs[2:]),
                "unknown subtask kind 'jump'",
            ),
        ],
        ids=[
            "empty", "not-a-list", "missing-fields", "unknown-scene", "repeated-id",
            "unknown-object", "unknown-region", "one-stage", "grab-first", "unknown-kind",
        ],
    )
    def test_bad_task_file_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, two_room_scene, edit, named
    ):
        from lhnav import runner
        from lhnav.taskforge import sample_task

        two_room_scene.save(tmp_path / "scene.json")
        path = tmp_path / "t.json"
        path.write_text(json.dumps(edit(sample_task(two_room_scene, seed=7).to_dict())))
        episodes = []
        monkeypatch.setattr(runner, "run_episode", lambda *a, **k: episodes.append(a))
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "rollout", "--scenes", str(tmp_path / "scene.json"),
                "--tasks", str(path), "--out", str(tmp_path / "run"),
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: lhnav rollout")
        assert str(path) in err.splitlines()[-1] and named in err.splitlines()[-1]
        assert episodes == []

    def test_missing_store_is_a_usage_error(self, tmp_path, capsys, monkeypatch, two_room_scene):
        from lhnav import runner
        from lhnav.taskforge import sample_task, save_tasks

        two_room_scene.save(tmp_path / "scene.json")
        save_tasks([sample_task(two_room_scene, seed=7)], tmp_path / "t.json")
        episodes = []
        monkeypatch.setattr(runner, "run_episode", lambda *a, **k: episodes.append(a))
        missing = str(tmp_path / "missing.jsonl")
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "rollout", "--scenes", str(tmp_path / "scene.json"),
                "--tasks", str(tmp_path / "t.json"), "--out", str(tmp_path / "run"),
                "--policy", "memory", "--store", missing,
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: lhnav rollout")
        assert missing in err.splitlines()[-1]
        assert episodes == []

    @pytest.mark.parametrize(
        "command, fault",
        [
            ("rollout", "missing-tasks"),
            ("rollout", "missing-scene"),
            ("rollout", "malformed-scene"),
            ("rollout", "empty-scene-dir"),
            ("gen-tasks", "missing-scene"),
            ("gen-tasks", "malformed-scene"),
            ("split", "missing-scene"),
            ("split", "malformed-scene"),
            ("split", "missing-trajectory"),
            ("split", "empty-trajectory-dir"),
            ("rollout", "portable-not-a-bool"),
            ("gen-tasks", "portable-not-a-bool"),
            ("split", "portable-not-a-bool"),
            ("rollout", "seed-not-an-integer"),
            ("gen-tasks", "seed-not-an-integer"),
            ("gen-tasks", "cell-size-not-a-number"),
        ],
    )
    def test_bad_input_file_is_a_usage_error(
        self, tmp_path, capsys, two_room_scene, command, fault
    ):
        from lhnav.taskforge import sample_task, save_tasks

        good_scene, tasks = tmp_path / "scene.json", tmp_path / "t.json"
        two_room_scene.save(good_scene)
        save_tasks([sample_task(two_room_scene, seed=7)], tasks)
        scenes, named = good_scene, tmp_path / "none.json"
        trajectories = tmp_path / "trajectories"
        if fault == "missing-tasks":
            tasks = named
        elif fault == "missing-trajectory":
            trajectories = named
        elif fault == "empty-trajectory-dir":
            trajectories = named = tmp_path / "trajectories"
        elif fault == "missing-scene":
            scenes = named
        elif fault == "malformed-scene":
            scenes = named = tmp_path / "bad.json"
            scenes.write_text(json.dumps({"grid": ["###", "#.#", "###"]}))
        elif fault == "portable-not-a-bool":
            scenes = named = tmp_path / "bad.json"
            data = two_room_scene.to_dict()
            data["objects"][1]["portable"] = "no"  # the desk
            scenes.write_text(json.dumps(data))
        elif fault == "seed-not-an-integer":
            # a rounded seed would rename the scene that tasks are keyed by
            scenes = named = tmp_path / "zz-typo.json"
            scenes.write_text(json.dumps(dict(two_room_scene.to_dict(), seed=5.7)))
        elif fault == "cell-size-not-a-number":
            scenes = named = tmp_path / "bad.json"
            scenes.write_text(json.dumps(dict(two_room_scene.to_dict(), cell_size="0.25")))
        else:
            scenes = named = tmp_path / "empty"
            scenes.mkdir()
        (tmp_path / "trajectories").mkdir()
        out = tmp_path / "out"
        argv = {
            "rollout": ["--scenes", scenes, "--tasks", tasks],
            "gen-tasks": ["--scenes", scenes, "--count", "1"],
            "split": ["--trajectories", trajectories, "--scenes", scenes],
        }[command]
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *map(str, argv), "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: lhnav {command}")
        assert str(named) in err.splitlines()[-1]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["gen-scene", "--size", "3"], "size"),
            (["gen-scene", "--regions", "0"], "regions"),
            (["gen-scene", "--objects", "1"], "objects"),
            (["gen-scene", "--objects", "30"], "objects per region must be in 2..20"),
            (["gen-scene", "--objects", "21"], "objects per region must be in 2..20"),
            (
                ["gen-scene", "--size", "9", "--regions", "4", "--objects", "12"],
                "objects per region do not fit in rooms of 9 cells",
            ),
            (["gen-tasks", "--scenes", "scenes", "--subtasks", "x"], "--subtasks"),
            (["gen-tasks", "--scenes", "scenes", "--subtasks", "4..2"], "--subtasks"),
            (["gen-tasks", "--scenes", "scenes", "--subtasks", "7"], "--subtasks"),
        ],
        ids=[
            "size", "regions", "objects",
            "objects-beyond-the-categories", "objects-one-beyond-the-categories",
            "objects-beyond-a-room",
            "subtasks-not-a-range", "subtasks-empty", "subtasks-out-of-bounds",
        ],
    )
    def test_rejected_generator_flag_is_a_usage_error(self, tmp_path, capsys, argv, named):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(tmp_path / "out"))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: lhnav {argv[0]}")
        assert named in err.splitlines()[-1]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv", [["--objects", "20"], ["--size", "9", "--regions", "4", "--objects", "9"]],
        ids=["every-category", "every-room-cell"],
    )
    def test_objects_at_the_limit_are_placed(self, tmp_path, argv):
        assert run_cli("gen-scene", *argv, "--out", str(tmp_path / "out")) == 0
        (path,) = (tmp_path / "out").glob("*.json")
        objects = json.loads(path.read_text())["objects"]
        assert len(objects) == 4 * int(argv[-1])
        assert len({tuple(o["position"]) for o in objects}) == len(objects)

    @pytest.mark.parametrize("count", [0, -1])
    def test_gen_tasks_count_below_one_is_a_usage_error(
        self, tmp_path, capsys, two_room_scene, count
    ):
        two_room_scene.save(tmp_path / "scene.json")
        last = usage_error_line(
            capsys, "gen-tasks", "--scenes", tmp_path / "scene.json",
            "--count", count, "--out", tmp_path / "t.json",
        )
        assert "--count" in last
        assert not (tmp_path / "t.json").exists()

    def test_gen_tasks_drops_a_scene_too_sparse_for_tasks(
        self, tmp_path, capsys, two_room_scene, open_scene
    ):
        # open_scene has objects in one region only, so it hosts no task
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        open_scene.save(scenes / "sparse.json")
        two_room_scene.save(scenes / "rooms.json")
        out = tmp_path / "t.json"
        assert run_cli("gen-tasks", "--scenes", str(scenes), "--count", "3", "--out", str(out)) == 0
        tasks = json.loads(out.read_text())
        assert [t["scene_id"] for t in tasks] == [two_room_scene.scene_id] * 3
        err = capsys.readouterr().err
        assert err.count(open_scene.scene_id) == 1 and len(err.splitlines()) == 1

    def test_gen_tasks_without_a_scene_that_hosts_tasks_is_a_usage_error(
        self, tmp_path, capsys, open_scene
    ):
        open_scene.save(tmp_path / "sparse.json")
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "gen-tasks", "--scenes", str(tmp_path / "sparse.json"),
                "--count", "3", "--out", str(tmp_path / "t.json"),
            )
        assert exc.value.code == 2
        dropped, *usage = capsys.readouterr().err.splitlines()
        assert dropped.startswith(f"dropping scene {open_scene.scene_id}")
        assert usage[0].startswith("usage: lhnav gen-tasks")
        assert "--scenes" in usage[-1] and str(tmp_path / "sparse.json") in usage[-1]
        assert not (tmp_path / "t.json").exists()

    def test_gen_tasks_on_a_scene_of_unconnected_rooms_is_a_usage_error(
        self, tmp_path, capsys, sealed_scene
    ):
        # each room holds one object, so the component sample_task draws
        # from, the cup's, has objects in one region only
        sealed_scene.save(tmp_path / "scene.json")
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "gen-tasks", "--scenes", str(tmp_path / "scene.json"),
                "--count", "2", "--out", str(tmp_path / "t.json"),
            )
        assert exc.value.code == 2
        dropped, *usage = capsys.readouterr().err.splitlines()
        assert dropped == (
            f"dropping scene {sealed_scene.scene_id}: need objects in at least two regions"
        )
        assert usage[0].startswith("usage: lhnav gen-tasks")
        assert "--scenes" in usage[-1] and str(tmp_path / "scene.json") in usage[-1]
        assert not (tmp_path / "t.json").exists()

    def test_unreachable_target_is_a_usage_error(self, tmp_path, capsys, sealed_scene):
        from lhnav.taskforge import GRAB, RELEASE, Subtask, TaskSpec, save_tasks

        # the jar's room has no door to the cup's
        task = TaskSpec(
            id="sealed-0",
            instruction="take the cup to the jar",
            subtasks=(
                Subtask(kind=MOVE_TO, object_id="cup-0", region_id="0"),
                Subtask(kind=GRAB, object_id="cup-0"),
                Subtask(kind=MOVE_TO, object_id="jar-0", region_id="1"),
                Subtask(kind=RELEASE, object_id="cup-0"),
            ),
            robot="spot",
            scene_id=sealed_scene.scene_id,
            seed=0,
        )
        sealed_scene.save(tmp_path / "scene.json")
        save_tasks([task], tmp_path / "t.json")
        last = usage_error_line(
            capsys, "rollout", "--scenes", tmp_path / "scene.json",
            "--tasks", tmp_path / "t.json", "--out", tmp_path / "run",
        )
        assert str(tmp_path / "t.json") in last
        assert "task 'sealed-0': target 'jar-0' is unreachable from 'cup-0'" in last
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["gen-tasks", "rollout", "split"])
    def test_two_scene_files_with_one_scene_id_are_a_usage_error(
        self, tmp_path, capsys, two_room_scene, command
    ):
        from lhnav.taskforge import sample_task, save_tasks

        scenes = tmp_path / "scenes"
        scenes.mkdir()
        first, second = scenes / "a.json", scenes / "b.json"
        two_room_scene.save(first)
        two_room_scene.save(second)
        save_tasks([sample_task(two_room_scene, seed=7)], tmp_path / "t.json")
        (tmp_path / "trajectories").mkdir()
        argv = {
            "gen-tasks": ["--count", "1"],
            "rollout": ["--tasks", tmp_path / "t.json"],
            "split": ["--trajectories", tmp_path / "trajectories"],
        }[command]
        out = tmp_path / "out"
        last = usage_error_line(capsys, command, "--scenes", scenes, *argv, "--out", out)
        assert f"{first} and {second}" in last and repr(two_room_scene.scene_id) in last
        assert not out.exists()

    def test_split_names_a_trajectory_from_an_unknown_scene(
        self, tmp_path, capsys, two_room_scene
    ):
        from lhnav.policy import ExpertPolicy
        from lhnav.runner import RunConfig, run_episode
        from lhnav.scenegen import generate_scene
        from lhnav.taskforge import sample_task

        other = generate_scene(seed=77, size=20)
        other.save(tmp_path / "other.json")
        traj, _ = run_episode(
            two_room_scene, sample_task(two_room_scene, seed=7), ExpertPolicy(), RunConfig()
        )
        traj_path = tmp_path / "t.jsonl"
        traj.save(traj_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "split", "--trajectories", str(traj_path),
                "--scenes", str(tmp_path / "other.json"), "--out", str(tmp_path / "s.json"),
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: lhnav split")
        assert str(traj_path) in err and repr(two_room_scene.scene_id) in err
        assert not (tmp_path / "s.json").exists()

    def test_split_names_the_line_of_a_truncated_trajectory(
        self, tmp_path, capsys, two_room_scene
    ):
        from lhnav.policy import ExpertPolicy
        from lhnav.runner import RunConfig, run_episode
        from lhnav.taskforge import sample_task

        two_room_scene.save(tmp_path / "scene.json")
        traj, _ = run_episode(
            two_room_scene, sample_task(two_room_scene, seed=7), ExpertPolicy(), RunConfig()
        )
        traj_path = tmp_path / "t.jsonl"
        traj.save(traj_path)
        cut = traj_path.read_bytes()[:2000]
        line = cut.count(b"\n") + 1
        assert line > 1 and not cut.endswith(b"\n")  # the cut falls inside a step line
        traj_path.write_bytes(cut)
        last = usage_error_line(
            capsys, "split", "--trajectories", traj_path,
            "--scenes", tmp_path / "scene.json", "--out", tmp_path / "s.json",
        )
        assert re.search(rf"{re.escape(str(traj_path))} line {line}\b", last)
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize(
        "fault",
        [
            "cut", "steps-out-of-order", "span-gap", "unknown-robot", "unknown-target",
            "collided-not-a-bool", "unknown-step-key", "pose-not-numbers", "pose-nan",
            "pose-bool", "pose-too-short", "pose-huge-integer", "holding-not-a-string", "final-pose-nan",
            "final-holding-not-a-string", "heading-720", "position-off-grid",
            "stop-inside-a-window", "step-carries-obs-id", "span-start-end-floats",
            "span-index-not-an-integer", "span-index-a-bool", "span-unknown-kind",
            "span-target-not-a-string", "span-gt-negative", "span-gt-nan", "span-gt-not-a-number",
            "span-interaction-ok-not-a-bool", "step-index-a-bool", "step-index-a-float",
            "header-seed-not-an-integer", "header-scene-id-a-list",
            "header-task-id-not-a-string", "header-config-hash-not-a-string",
        ],
    )
    def test_bad_trajectory_is_a_usage_error(self, tmp_path, capsys, two_room_scene, fault):
        from lhnav.policy import ExpertPolicy
        from lhnav.runner import RunConfig, run_episode
        from lhnav.taskforge import sample_task

        two_room_scene.save(tmp_path / "scene.json")
        traj, _ = run_episode(
            two_room_scene, sample_task(two_room_scene, seed=7), ExpertPolicy(), RunConfig()
        )
        path = tmp_path / "t.jsonl"
        traj.save(path)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        assert len(lines) > 20
        if fault == "cut":  # at a line boundary, so every line parses
            lines = lines[:20]
        elif fault == "steps-out-of-order":
            lines[5], lines[6] = lines[6], lines[5]
        elif fault == "span-gap":
            header["spans"][1]["start"] += 1
        elif fault == "span-start-end-floats":  # split would slice with them
            for span in header["spans"]:
                span["start"], span["end"] = float(span["start"]), float(span["end"])
        elif fault.startswith("span-"):
            key, value = {
                "span-index-not-an-integer": ("index", "zero"),
                "span-index-a-bool": ("index", False),
                "span-unknown-kind": ("kind", "fly_to"),
                "span-target-not-a-string": ("target_id", 7),
                "span-gt-negative": ("gt", -1.0),
                "span-gt-nan": ("gt", math.nan),
                "span-gt-not-a-number": ("gt", "far"),
                "span-interaction-ok-not-a-bool": ("interaction_ok", "yes"),
            }[fault]
            header["spans"][0][key] = value
        elif fault.startswith("header-"):
            key, value = {
                "header-seed-not-an-integer": ("seed", "seven"),
                "header-scene-id-a-list": ("scene_id", [header["scene_id"]]),
                "header-task-id-not-a-string": ("task_id", 7),
                "header-config-hash-not-a-string": ("config_hash", None),
            }[fault]
            header[key] = value
        elif fault == "unknown-robot":
            header["robot"] = "wall-e"
        elif fault == "unknown-target":
            header["spans"][0]["target_id"] = "ghost-9"
        elif fault == "collided-not-a-bool":
            lines[3] = json.dumps(dict(json.loads(lines[3]), collided="no")) + "\n"
        elif fault == "unknown-step-key":
            lines[3] = json.dumps(dict(json.loads(lines[3]), note="edited")) + "\n"
        elif fault == "step-index-a-bool":  # equal to the due index 1
            lines[2] = json.dumps(dict(json.loads(lines[2]), i=True)) + "\n"
        elif fault == "step-index-a-float":  # equal to the due index 2
            lines[3] = json.dumps(dict(json.loads(lines[3]), i=2.0)) + "\n"
        elif fault == "step-carries-obs-id":  # as every step did in older files
            lines[3] = json.dumps(dict(json.loads(lines[3]), obs_id="obs-2")) + "\n"
        elif fault == "holding-not-a-string":
            lines[3] = json.dumps(dict(json.loads(lines[3]), holding=7)) + "\n"
        elif fault == "final-pose-nan":
            header["final_pose"][2] = math.nan
        elif fault == "final-holding-not-a-string":
            header["final_holding"] = ["bag-0"]
        elif fault == "stop-inside-a-window":  # step 3 of the first window
            assert header["spans"][0]["end"] > 4
            lines[4] = json.dumps(dict(json.loads(lines[4]), action="stop")) + "\n"
        else:
            pose = {
                "pose-not-numbers": ["a", 1.0, 0.0],
                "pose-nan": [0.5, math.nan, 0.0],
                "pose-bool": [0.5, 0.5, True],
                "pose-too-short": [0.5, 0.5],
                "pose-huge-integer": [10**400, 0.5, 0.0],
                "heading-720": [*json.loads(lines[3])["pose"][:2], 720.0],
                "position-off-grid": [-5.0, -5.0, 0.0],
            }[fault]
            lines[3] = json.dumps(dict(json.loads(lines[3]), pose=pose)) + "\n"
        if fault.startswith(("span-", "final-", "header-")) or fault in (
            "unknown-robot", "unknown-target"
        ):
            lines[0] = json.dumps(header) + "\n"
        path.write_text("".join(lines))
        last = usage_error_line(
            capsys, "split", "--trajectories", path,
            "--scenes", tmp_path / "scene.json", "--out", tmp_path / "s.json",
        )
        assert str(path) in last
        if fault in ("heading-720", "position-off-grid"):
            # it parses, but the scene rejects the state of step 2 (line 4)
            assert f"{path}: step 2:" in last
        elif fault.startswith(("final-", "span-", "header-", "unknown-robot")):
            assert f"{path} line 1" in last
        elif fault == "step-index-a-bool":
            assert f"{path} line 3" in last
        elif fault == "stop-inside-a-window":
            assert f"{path} line 5: step 3 is a stop" in last
        elif fault not in ("cut", "steps-out-of-order", "unknown-target"):
            assert f"{path} line 4" in last
        assert not (tmp_path / "s.json").exists()

    def test_truncated_store_names_the_line(self, tmp_path, capsys, monkeypatch, two_room_scene):
        import numpy as np

        from lhnav import runner
        from lhnav.memory import LongTermStore
        from lhnav.taskforge import sample_task, save_tasks

        two_room_scene.save(tmp_path / "scene.json")
        save_tasks([sample_task(two_room_scene, seed=7)], tmp_path / "t.json")
        store = LongTermStore()
        for i in range(3):
            store.add("bag", np.arange(64.0) + i, np.eye(4)[i])
        path = tmp_path / "store.jsonl"
        store.save(path)
        cut = path.read_bytes()
        cut = cut[: cut.index(b"\n") + 40]
        path.write_bytes(cut)
        episodes = []
        monkeypatch.setattr(runner, "run_episode", lambda *a, **k: episodes.append(a))
        last = usage_error_line(
            capsys, "rollout", "--scenes", tmp_path / "scene.json", "--tasks", tmp_path / "t.json",
            "--out", tmp_path / "run", "--policy", "memory", "--store", path,
        )
        assert re.search(rf"{re.escape(str(path))} line 2\b", last)
        assert episodes == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_store_of_another_embedding_length_is_a_usage_error(
        self, tmp_path, capsys, two_room_scene, workers
    ):
        # the memory policy embeds at 64; a store of 32-long rows, or of
        # 64-long rows and then 32-long ones, is refused at its first
        # 32-long line, before any episode runs or anything is written.
        # LongTermStore.add refuses such rows, so the files are written
        # by hand
        from lhnav.taskforge import sample_task, save_tasks

        two_room_scene.save(tmp_path / "scene.json")
        tasks = [sample_task(two_room_scene, seed=seed) for seed in (7, 8)]
        assert "bag-0" in [sub.object_id for sub in tasks[0].move_targets()]
        save_tasks(tasks, tmp_path / "t.json")
        for lengths, line in [([32, 32], 1), ([64, 32], 2)]:
            path = tmp_path / f"store-{line}.jsonl"
            with open(path, "w", encoding="utf-8") as fh:
                for target, act, n in zip(["desk", "bag"], [[0, 0, 1, 0], [0, 1, 0, 0]], lengths):
                    fh.write(json.dumps({"target": target, "obs": [1.0] * n, "act": act}) + "\n")
            out = tmp_path / "run"
            last = usage_error_line(
                capsys, "rollout", "--scenes", tmp_path / "scene.json", "--tasks", tmp_path / "t.json",
                "--out", out, "--policy", "memory", "--store", path, "--workers", workers,
            )
            assert f"{path} line {line}:" in last
            assert re.search(r"\b32\b", last) and re.search(r"\b64\b", last)
            assert not out.exists()

    @pytest.mark.parametrize("policy", ["expert", "random", "stop"])
    def test_store_for_another_policy_is_a_usage_error(self, tmp_path, capsys, two_room_scene, policy):
        # only the memory policy reads a store; another policy would skip
        # the file yet hash its path into every trajectory
        from lhnav.taskforge import sample_task, save_tasks

        two_room_scene.save(tmp_path / "scene.json")
        save_tasks([sample_task(two_room_scene, seed=7)], tmp_path / "t.json")
        missing = tmp_path / "missing.jsonl"
        out = tmp_path / "run"
        last = usage_error_line(
            capsys, "rollout", "--scenes", tmp_path / "scene.json", "--tasks", tmp_path / "t.json",
            "--out", out, "--policy", policy, "--store", missing,
        )
        assert "memory" in last and repr(policy) in last
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize(
        "fault", ["missing", "truncated", "not-a-report", "no-aggregate", "no-metric"]
    )
    def test_bad_report_is_a_usage_error(self, tmp_path, capsys, two_room_scene, fault, fmt):
        from lhnav.runner import RunConfig, run_suite
        from lhnav.taskforge import sample_task

        task = sample_task(two_room_scene, seed=7)
        report = run_suite({two_room_scene.scene_id: two_room_scene}, [task], RunConfig())
        path = tmp_path / "report.json"
        if fault == "truncated":
            path.write_text(json.dumps(report, indent=2)[:200])
        elif fault == "not-a-report":
            path.write_text(json.dumps([task.to_dict()]))
        elif fault == "no-aggregate":
            path.write_text(json.dumps({k: v for k, v in report.items() if k != "aggregate"}))
        elif fault == "no-metric":
            del report["aggregate"]["tar"]
            path.write_text(json.dumps(report))
        last = usage_error_line(capsys, "report", "--results", path, "--format", fmt)
        assert str(path) in last


class TestOutputUnderAMissingDirectory:
    """Every --out creates the directories that it names."""

    def test_gen_tasks(self, tmp_path, two_room_scene):
        two_room_scene.save(tmp_path / "scene.json")
        out = tmp_path / "missing" / "deeper" / "tasks.json"
        assert run_cli(
            "gen-tasks", "--scenes", str(tmp_path / "scene.json"), "--count", "2", "--out", str(out)
        ) == 0
        assert len(json.loads(out.read_text())) == 2

    def test_split(self, tmp_path, two_room_scene):
        from lhnav.taskforge import sample_task, save_tasks

        scene = tmp_path / "scene.json"
        two_room_scene.save(scene)
        save_tasks([sample_task(two_room_scene, seed=7)], tmp_path / "t.json")
        run = tmp_path / "run"
        assert run_cli(
            "rollout", "--scenes", str(scene), "--tasks", str(tmp_path / "t.json"),
            "--policy", "expert", "--out", str(run),
        ) == 0
        out = tmp_path / "missing" / "steps.json"
        assert run_cli(
            "split", "--trajectories", str(run / "trajectories"), "--scenes", str(scene),
            "--out", str(out),
        ) == 0
        assert json.loads(out.read_text())


# the path, then the system's reason, which depends on the path's depth
CANNOT_WRITE = r"cannot be written \((Not a directory|File exists)\)$"


class TestOutputThatCannotBeWritten:
    """An --out under a file is a usage error naming the path and the
    system's reason, and leaves the file as it was."""

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "a-file"
        path.write_text("kept\n")
        yield path
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_rollout(self, tmp_path, capsys, two_room_scene, blocker, workers):
        from lhnav.taskforge import sample_task, save_tasks

        two_room_scene.save(tmp_path / "scene.json")
        save_tasks([sample_task(two_room_scene, seed=s) for s in (7, 8)], tmp_path / "t.json")
        last = usage_error_line(
            capsys, "rollout", "--scenes", tmp_path / "scene.json", "--tasks", tmp_path / "t.json",
            "--policy", "expert", "--workers", workers, "--out", blocker,
        )
        assert re.search(f"{re.escape(str(blocker))}/trajectories/.*: {CANNOT_WRITE}", last)

    def test_gen_tasks(self, tmp_path, capsys, two_room_scene, blocker):
        two_room_scene.save(tmp_path / "scene.json")
        out = blocker / "t.json"
        last = usage_error_line(
            capsys, "gen-tasks", "--scenes", tmp_path / "scene.json", "--count", "1", "--out", out
        )
        assert re.search(f"{re.escape(str(out))}: {CANNOT_WRITE}", last)

    def test_gen_scene(self, capsys, blocker):
        last = usage_error_line(capsys, "gen-scene", "--out", blocker)
        assert re.search(f"{re.escape(str(blocker))}/scene-0.json: {CANNOT_WRITE}", last)


class TestConfigFile:
    """There is no config file: every value comes from a flag."""

    def test_config_flag_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("budget=3\npolicy=random\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "--config", str(cfg), "rollout", "--scenes", str(tmp_path),
                "--tasks", str(tmp_path / "t.json"), "--out", str(tmp_path / "run"),
            )
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: lhnav")
        assert not (tmp_path / "run").exists()
