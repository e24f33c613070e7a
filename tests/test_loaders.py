"""Every file loader turns a malformed file into an InputFileError that
names the file: scene, tasks, trajectory, long-term store, weights and
report.  The files are valid ones with one entry dropped, one value changed
to another JSON type, or the text cut short."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhnav.files import InputFileError, write_document
from lhnav.memory import LongTermStore
from lhnav.policy import ExpertPolicy, LinearSoftmaxBackend
from lhnav.runner import RunConfig, load_report, run_episode, run_suite
from lhnav.scenegen import generate_scene
from lhnav.taskforge import load_tasks, sample_task, save_tasks
from lhnav.trajectory import Trajectory
from lhnav.world import Scene

LOADERS = {
    "scene": Scene.load,
    "tasks": load_tasks,
    "trajectory": Trajectory.load,
    "store": LongTermStore.load,
    "weights": LinearSoftmaxBackend.load,
    "report": load_report,
}
JSONL = ("trajectory", "store")

# one value of each JSON type; a changed value takes one of another type
OTHER_VALUES = (None, True, 7, "text", [1, 2], {"k": 1})


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory, and the text of one valid file per loader written by
    its own save."""
    root = tmp_path_factory.mktemp("loaders")
    scene = generate_scene(seed=3, size=16)
    task = sample_task(scene, seed=1)
    trajectory, _ = run_episode(scene, task, ExpertPolicy(), RunConfig(budget=40))
    store = LongTermStore()
    for i in range(3):
        store.add("cup", np.arange(3.0) + i, np.eye(4)[i])
    writers = {
        "scene": scene.save,
        "tasks": lambda path: save_tasks([task], path),
        "trajectory": trajectory.save,
        "store": store.save,
        "weights": LinearSoftmaxBackend().save,
        "report": lambda path: write_document(
            path, run_suite({scene.scene_id: scene}, [task], RunConfig(budget=40))
        ),
    }
    texts = {}
    for name, save in writers.items():
        path = root / f"valid-{name}"
        save(path)
        texts[name] = path.read_text(encoding="utf-8")
    return root, texts


def _paths(value, prefix=()):
    """The path of every value inside a JSON document, the root first."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


@st.composite
def mutated(draw, name: str, text: str) -> str:
    """The text with one entry dropped, one value retyped, or cut short."""
    how = draw(st.sampled_from(["drop", "retype", "truncate"]))
    if how == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    # a JSONL file is treated as the list of its lines
    doc = [json.loads(line) for line in text.splitlines()] if name in JSONL else json.loads(text)
    paths = [p for p in _paths(doc) if p or (how == "retype" and name not in JSONL)]
    path = draw(st.sampled_from(paths))
    if how == "drop":
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    else:
        old = doc
        for key in path:
            old = old[key]
        new = draw(st.sampled_from([v for v in OTHER_VALUES if _json_type(v) != _json_type(old)]))
        if not path:
            doc = new
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = new
    if name in JSONL:
        return "".join(json.dumps(line) + "\n" for line in doc)
    return json.dumps(doc)


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_only_a_value_error_naming_the_file_escapes(valid, name, data):
    root, texts = valid
    path = root / f"mutated-{name}"
    path.write_text(texts[name], encoding="utf-8")
    LOADERS[name](path)
    path.write_text(data.draw(mutated(name, texts[name])), encoding="utf-8")
    try:
        LOADERS[name](path)
    except InputFileError as exc:
        assert str(path) in str(exc)


# (loader, the path in the file's first JSON value of the record that gets
# an extra key)
UNKNOWN_KEY_PLACES = {
    "scene": ("scene", ()),
    "region": ("scene", ("regions", 0)),
    "object": ("scene", ("objects", 1)),
    "task": ("tasks", (0,)),
    "subtask": ("tasks", (0, "subtasks", 0)),
    "span": ("trajectory", ("spans", 0)),
}


@pytest.mark.parametrize("place", sorted(UNKNOWN_KEY_PLACES))
def test_unknown_key_is_rejected(valid, place):
    # a record holds exactly its dataclass's fields
    root, texts = valid
    name, where = UNKNOWN_KEY_PLACES[place]
    first, _, rest = texts[name].partition("\n")
    doc = json.loads(first if name in JSONL else texts[name])
    record = doc
    for key in where:
        record = record[key]
    record["colour"] = "teal"
    path = root / f"unknown-key-{place}"
    if name in JSONL:
        path.write_text(json.dumps(doc) + "\n" + rest, encoding="utf-8")
    else:
        path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InputFileError, match="'colour'") as exc:
        LOADERS[name](path)
    assert str(path) in str(exc.value)
