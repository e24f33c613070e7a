import json
import math
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from lhnav.cli import main as cli_main
from lhnav.expert import geodesic_distance
from lhnav.scenegen import generate_scene
from lhnav import taskforge
from lhnav.taskforge import (
    GRAB,
    LlmNetworkError,
    MOVE_TO,
    RELEASE,
    SceneTooSparseError,
    Subtask,
    TaskSpec,
    TaskValidationError,
    generate_via_llm,
    load_tasks,
    parse_reply,
    sample_spawn,
    sample_task,
    save_tasks,
    validate_task,
)
from lhnav.world import ROBOTS, ObjectInstance, Region, Scene

from conftest import scene_from

SPOT = ROBOTS["spot"]

PROMPT1_EXAMPLE_REPLY = json.dumps(
    {
        "Task instruction": "take the bag in bedroom to the desk in office",
        "Subtask list": [
            "Move_to('bag_0')",
            "Grab('bag')",
            "Move_to('desk_4')",
            "Release('bag')",
        ],
    }
)

# the jar's room has no door to the cup's in the sealed_scene fixture
SEALED_REPLY = json.dumps(
    {
        "Task instruction": "take the cup in cellar to the jar in vault",
        "Subtask list": [
            "Move_to('cup_0')",
            "Grab('cup')",
            "Move_to('jar_1')",
            "Release('cup')",
        ],
    }
)


class TestSampleTask:
    def test_two_room_fixture(self, two_room_scene):
        task = sample_task(two_room_scene, SPOT, seed=7)
        assert task.instruction == "take the bag in bedroom to the desk in office"
        assert [(s.kind, s.object_id) for s in task.subtasks] == [
            (MOVE_TO, "bag-0"),
            (GRAB, "bag-0"),
            (MOVE_TO, "desk-0"),
            (RELEASE, "bag-0"),
        ]
        assert task.subtasks[0].region_id == "0"
        assert task.subtasks[2].region_id == "4"

    def test_same_seed_identical(self, two_room_scene):
        assert sample_task(two_room_scene, SPOT, seed=7) == sample_task(
            two_room_scene, SPOT, seed=7
        )

    def test_single_region_scene_rejected(self):
        rows = ["#####", "#...#", "#####"]
        scene = scene_from(
            rows,
            objects=[("a-0", "apple", (1, 1), True), ("b-0", "bowl", (1, 3), False)],
        )
        with pytest.raises(SceneTooSparseError):
            sample_task(scene, SPOT, seed=1)

    def test_scene_without_receptacles_hosts_a_task_at_every_seed(self):
        # two portables and no place: every stage needs a portable of its
        # own, so the stage count is capped at two, not left to the seed
        scene = Scene(
            grid=["#######", "#.....#", "#######"],
            regions=[Region("0", "den", ((1, 1),)), Region("1", "study", ((1, 5),))],
            objects=[
                ObjectInstance("cup-0", "cup", "0", (0.375, 0.375), True),
                ObjectInstance("jar-0", "jar", "1", (1.375, 0.375), True),
            ],
        )
        for seed in range(20):
            assert len(sample_task(scene, SPOT, seed=seed).move_targets()) == 2

    def test_bulk_sampled_tasks_satisfy_invariants(self):
        scenes = [generate_scene(seed=s, size=22, regions=4) for s in (1, 2, 3)]
        checked = 0
        for seed in range(10_000):
            scene = scenes[seed % len(scenes)]
            task = sample_task(scene, SPOT, seed=seed)
            validate_task(scene, task)
            moves = task.move_targets()
            assert 2 <= len(moves) <= 4
            # instruction names every referenced region
            for sub in moves:
                assert scene.region(sub.region_id).label in task.instruction
            # targets reachable from the sampled spawn
            spawn = sample_spawn(scene, task)
            for sub in moves:
                d = geodesic_distance(
                    scene, spawn.position, scene.object(sub.object_id).position
                )
                assert d < math.inf
            checked += 1
        assert checked == 10_000

    def test_spawn_at_least_two_meters_out(self):
        scene = generate_scene(seed=12, size=22, regions=4)
        for seed in range(50):
            task = sample_task(scene, SPOT, seed=seed)
            spawn = sample_spawn(scene, task)
            first = scene.object(task.move_targets()[0].object_id)
            assert geodesic_distance(scene, spawn.position, first.position) >= 2.0

    def test_split_scene_draws_every_target_from_one_component(self, sealed_room_scene):
        # the cup and the desk share the component with the most objects;
        # the jar, sealed in a room of its own, is never a target
        scene = sealed_room_scene
        for seed in range(40):
            task = sample_task(scene, SPOT, seed=seed)
            first, *rest = [scene.object(s.object_id) for s in task.move_targets()]
            for obj in rest:
                assert geodesic_distance(scene, obj.position, first.position) < math.inf
            assert [s.object_id for s in task.move_targets()] == ["cup-0", "desk-1"]

    def test_a_tie_between_components_goes_to_the_smallest_object_id(self, sealed_scene):
        # one object per room: the cup's component wins, and its one region
        # is too few
        with pytest.raises(SceneTooSparseError, match="at least two regions"):
            sample_task(sealed_scene, SPOT, seed=0)

    def test_stage_range_respected(self):
        scene = generate_scene(seed=4, size=24, regions=5, objects_per_region=6)
        for seed in range(40):
            task = sample_task(scene, SPOT, seed=seed, allowed_stages=[3])
            assert len(task.move_targets()) == 3

    @pytest.mark.parametrize("stages", [2, 3, 4])
    def test_instruction_names_each_carry(self, stages):
        scene = generate_scene(seed=4, size=24, regions=5, objects_per_region=6)
        for seed in range(10):
            task = sample_task(scene, SPOT, seed=seed, allowed_stages=[stages])
            p = [
                f"the {o.category} in {scene.region(o.region_id).label}"
                for o in (scene.object(s.object_id) for s in task.move_targets())
            ]
            assert task.instruction == {
                2: "take {} to {}",
                3: "take {} to {}, then retrieve {}",
                4: "take {} to {}, then take {} to {}",
            }[stages].format(*p)

    def test_validating_a_sampled_task_queries_no_geodesic_field(self):
        # sample_task calls validate_task; a reachability query there would
        # compute fields toward targets that sampling never needed
        scene = generate_scene(seed=2, size=24, regions=5, objects_per_region=6)
        tasks = [sample_task(scene, SPOT, seed=seed) for seed in range(20)]
        scene._field_cache.clear()
        for task in tasks:
            validate_task(scene, task)
        assert scene._field_cache == {}


class TestValidateTask:
    def test_grab_while_holding_rejected(self, two_room_scene):
        bad = TaskSpec(
            id="x",
            instruction="i",
            subtasks=(
                Subtask(MOVE_TO, "bag-0", "0"),
                Subtask(GRAB, "bag-0"),
                Subtask(MOVE_TO, "bag-0", "0"),
                Subtask(GRAB, "bag-0"),
            ),
            robot="spot",
            scene_id=two_room_scene.scene_id,
            seed=0,
        )
        with pytest.raises(TaskValidationError):
            validate_task(two_room_scene, bad)

    def test_release_with_empty_arm_rejected(self, two_room_scene):
        bad = TaskSpec(
            id="x",
            instruction="i",
            subtasks=(
                Subtask(MOVE_TO, "desk-0", "4"),
                Subtask(RELEASE, "bag-0"),
                Subtask(MOVE_TO, "bag-0", "0"),
            ),
            robot="spot",
            scene_id=two_room_scene.scene_id,
            seed=0,
        )
        with pytest.raises(TaskValidationError):
            validate_task(two_room_scene, bad)

    def test_unknown_object_named_in_error(self, two_room_scene):
        bad = TaskSpec(
            id="x",
            instruction="i",
            subtasks=(
                Subtask(MOVE_TO, "piano-0", "0"),
                Subtask(MOVE_TO, "bag-0", "0"),
            ),
            robot="spot",
            scene_id=two_room_scene.scene_id,
            seed=0,
        )
        with pytest.raises(TaskValidationError, match="piano-0"):
            validate_task(two_room_scene, bad)


    @pytest.mark.parametrize(
        "subtasks, problem",
        [
            ([(MOVE_TO, "bag-0", "0")], "1 navigation stages"),
            ([(MOVE_TO, "piano-0", "0"), (MOVE_TO, "bag-0", "0")], "unknown object 'piano-0'"),
            ([(MOVE_TO, "bag-0", None), (MOVE_TO, "desk-0", "4")], "'bag-0' missing region"),
            ([(MOVE_TO, "bag-0", "attic"), (MOVE_TO, "desk-0", "4")], "unknown region 'attic'"),
            ([(MOVE_TO, "bag-0", "4"), (MOVE_TO, "desk-0", "4")], "'bag-0' is not in region"),
            (
                [(MOVE_TO, "bag-0", "0"), (GRAB, "bag-0"), (MOVE_TO, "bag-0", "0"), (GRAB, "bag-0")],
                "while already holding",
            ),
            ([(MOVE_TO, "desk-0", "4"), (GRAB, "desk-0"), (MOVE_TO, "bag-0", "0")], "not portable"),
            (
                [(MOVE_TO, "desk-0", "4"), (GRAB, "bag-0"), (MOVE_TO, "bag-0", "0")],
                "grab 'bag-0' not preceded",
            ),
            ([(MOVE_TO, "desk-0", "4"), (RELEASE, "bag-0"), (MOVE_TO, "bag-0", "0")], "empty arm"),
            (
                [(MOVE_TO, "bag-0", "0"), (GRAB, "bag-0"), (MOVE_TO, "desk-0", "4"),
                 (RELEASE, "desk-0")],
                "while holding 'bag-0'",
            ),
            (
                [(MOVE_TO, "bag-0", "0"), (GRAB, "bag-0"), (RELEASE, "bag-0"),
                 (MOVE_TO, "desk-0", "4")],
                "release 'bag-0' not preceded",
            ),
        ],
        ids=[
            "one-stage", "unknown-object", "missing-region", "unknown-region", "wrong-region",
            "grab-while-holding", "grab-non-portable", "grab-not-after-move", "release-empty-arm",
            "release-other-object", "release-not-after-move",
        ],
    )
    def test_every_rejection_names_the_task(self, two_room_scene, subtasks, problem):
        bad = TaskSpec(
            id="x",
            instruction="i",
            subtasks=tuple(Subtask(*sub) for sub in subtasks),
            robot="spot",
            scene_id=two_room_scene.scene_id,
            seed=0,
        )
        with pytest.raises(TaskValidationError) as exc:
            validate_task(two_room_scene, bad)
        assert str(exc.value).startswith("task 'x': ")
        assert problem in str(exc.value)

    @pytest.mark.parametrize(
        "fields, error",
        [
            (("jump", "bag-0"), ValueError),
            ((MOVE_TO, 3), TypeError),
            ((MOVE_TO, "bag-0", 0), TypeError),
        ],
        ids=["unknown-kind", "object-id-not-a-string", "region-id-not-a-string"],
    )
    def test_bad_subtask_rejected_when_built(self, fields, error):
        with pytest.raises(error):
            Subtask(*fields)


class _StubHandler(BaseHTTPRequestHandler):
    reply_content: str = PROMPT1_EXAMPLE_REPLY

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        assert body["temperature"] == 0
        assert body["messages"][0]["role"] == "system"
        payload = {
            "choices": [{"message": {"role": "assistant", "content": self.reply_content}}]
        }
        data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestLlmClient:
    def test_stub_reply_parses_to_template_fixture(self, two_room_scene, stub_server):
        _StubHandler.reply_content = PROMPT1_EXAMPLE_REPLY
        task = generate_via_llm(two_room_scene, SPOT, stub_server)
        expected = sample_task(two_room_scene, SPOT, seed=7)
        assert task.instruction == expected.instruction
        assert task.subtasks == expected.subtasks

    def test_stage_count_outside_the_range_rejected(self, two_room_scene, stub_server):
        _StubHandler.reply_content = PROMPT1_EXAMPLE_REPLY  # two navigation stages
        task = generate_via_llm(two_room_scene, SPOT, stub_server, allowed_stages=[2])
        assert len(task.move_targets()) == 2
        with pytest.raises(TaskValidationError, match=r"2 navigation stages, need one of \[3, 4\]"):
            generate_via_llm(two_room_scene, SPOT, stub_server, allowed_stages=[3, 4])

    def test_gen_tasks_honours_subtasks_over_the_llm(
        self, tmp_path, capsys, two_room_scene, stub_server
    ):
        _StubHandler.reply_content = PROMPT1_EXAMPLE_REPLY  # two navigation stages
        two_room_scene.save(tmp_path / "scene.json")
        argv = [
            "gen-tasks", "--scenes", str(tmp_path / "scene.json"), "--count", "1",
            "--llm-endpoint", stub_server,
        ]
        assert cli_main(argv + ["--subtasks", "2", "--out", str(tmp_path / "ok.json")]) == 0
        assert len(load_tasks(tmp_path / "ok.json")[0].move_targets()) == 2
        capsys.readouterr()
        # a task the scene or the stage range rejects is a usage error
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--subtasks", "3..4", "--out", str(tmp_path / "bad.json")])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert stub_server in last and "seed 0" in last and "2 navigation stages" in last
        assert not (tmp_path / "bad.json").exists()

    def test_gen_tasks_unparseable_reply_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys, two_room_scene, stub_server
    ):
        monkeypatch.setattr(_StubHandler, "reply_content", "no dictionary here")
        two_room_scene.save(tmp_path / "scene.json")
        with pytest.raises(SystemExit) as exc:
            cli_main([
                "gen-tasks", "--scenes", str(tmp_path / "scene.json"), "--count", "1",
                "--seed", "3", "--llm-endpoint", stub_server, "--out", str(tmp_path / "t.json"),
            ])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert stub_server in last and "seed 3" in last and "dictionary" in last
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("endpoint", ["foo", "http://[::1"])
    def test_gen_tasks_malformed_endpoint_is_a_usage_error(
        self, tmp_path, capsys, two_room_scene, endpoint
    ):
        # an endpoint that is not a URL fails before any request is sent,
        # as a network error that names it, not a ValueError traceback
        with pytest.raises(LlmNetworkError, match=re.escape(f"request to {endpoint} failed")):
            generate_via_llm(two_room_scene, SPOT, endpoint)
        two_room_scene.save(tmp_path / "scene.json")
        with pytest.raises(SystemExit) as exc:
            cli_main([
                "gen-tasks", "--scenes", str(tmp_path / "scene.json"), "--count", "1",
                "--seed", "3", "--llm-endpoint", endpoint, "--out", str(tmp_path / "t.json"),
            ])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert f"no task from {endpoint} for seed 3" in last
        assert not (tmp_path / "t.json").exists()

    def test_reply_with_an_unreachable_target_rejected(self, sealed_scene):
        with pytest.raises(
            TaskValidationError, match="target 'jar-0' is unreachable from 'cup-0'"
        ):
            parse_reply(sealed_scene, SPOT, SEALED_REPLY)

    def test_gen_tasks_refuses_a_reply_with_an_unreachable_target(
        self, tmp_path, monkeypatch, capsys, sealed_scene, stub_server
    ):
        monkeypatch.setattr(_StubHandler, "reply_content", SEALED_REPLY)
        sealed_scene.save(tmp_path / "scene.json")
        with pytest.raises(SystemExit) as exc:
            cli_main([
                "gen-tasks", "--scenes", str(tmp_path / "scene.json"), "--count", "1",
                "--llm-endpoint", stub_server, "--out", str(tmp_path / "t.json"),
            ])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert stub_server in last and "seed 0" in last
        assert "target 'jar-0' is unreachable from 'cup-0'" in last
        assert not (tmp_path / "t.json").exists()

    def test_hallucinated_object_rejected_by_name(self, two_room_scene):
        reply = json.dumps(
            {
                "Task instruction": "take the piano in bedroom to the desk in office",
                "Subtask list": ["Move_to('piano_0')", "Grab('piano')"],
            }
        )
        with pytest.raises(TaskValidationError, match="piano"):
            parse_reply(two_room_scene, SPOT, reply)

    def test_unparseable_reply(self, two_room_scene):
        with pytest.raises(Exception) as err:
            parse_reply(two_room_scene, SPOT, "no dictionary here")
        assert "dictionary" in str(err.value)

    def test_unreachable_endpoint_is_network_error(self, two_room_scene, monkeypatch):
        monkeypatch.setattr(taskforge, "LLM_TIMEOUT_S", 0.5)
        with pytest.raises(LlmNetworkError, match="127.0.0.1:9/never"):
            generate_via_llm(two_room_scene, SPOT, "http://127.0.0.1:9/never")

    def test_disabled_client_requires_no_endpoint(self, two_room_scene):
        # an empty endpoint means the client is off: asking it for a task
        # is an error before any request is made
        with pytest.raises(ValueError, match="endpoint"):
            generate_via_llm(two_room_scene, SPOT, "")


class TestPersistence:
    def test_task_file_round_trip(self, tmp_path, two_room_scene):
        tasks = [sample_task(two_room_scene, SPOT, seed=s) for s in range(5)]
        path = tmp_path / "tasks.json"
        save_tasks(tasks, path)
        assert load_tasks(path) == tasks

