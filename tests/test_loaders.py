"""Every file loader turns a malformed file into an InputFileError that
names the file: scene, tasks, trajectory, long-term store, weights and
report.  The files are valid ones with one entry dropped, one value changed
to another JSON type, or the text cut short."""

import json
from pathlib import Path
from unittest import mock

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
from lhnav.trajectory import StepRecord, Trajectory
from lhnav.world import Scene

from conftest import pad
from reference_impls import reference_saved_state, reference_step_from_dict

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


class ValidFiles:
    """A directory, and the text of one valid file per loader; unpacks as
    (root, texts).  Its repr names the directory only: hypothesis prints a
    failing example's arguments, this fixture among them, and warns on a
    repr as long as the six files', which this suite's filterwarnings
    makes an error.  Raised before the replay's first draw, that error
    came out as FlakyStrategyDefinition, with no falsifying example."""

    def __init__(self, root: Path, texts: dict) -> None:
        self.root, self.texts = root, texts

    def __iter__(self):
        return iter((self.root, self.texts))

    def __repr__(self) -> str:
        return f"ValidFiles({str(self.root)!r})"


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """ValidFiles, each file written by its loader's own save."""
    root = tmp_path_factory.mktemp("loaders")
    scene = generate_scene(seed=3, size=16)
    task = sample_task(scene, seed=1)
    trajectory, _ = run_episode(scene, task, ExpertPolicy(), RunConfig(budget=40))
    store = LongTermStore()
    for i in range(3):
        store.add("cup", pad(np.arange(3.0) + i), np.eye(4)[i])
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
    return ValidFiles(root, texts)


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


def _outcome(load, path):
    """What a load gives: the repr of its trajectory (which tells an int
    from a float) and the trajectory, or its error's type and message."""
    try:
        trajectory = load(path)
    except InputFileError as exc:
        return type(exc).__name__, str(exc)
    return repr(trajectory), trajectory


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_trajectory_load_matches_the_reference_loader(valid, data):
    # the same records, or the same error and message, as Trajectory.load
    # through the per-pose generators and the set difference of the
    # StepRecord.from_dict and _saved_state that it replaced
    root, texts = valid
    path = root / "mutated-trajectory-against-reference"
    for text in (texts["trajectory"], data.draw(mutated("trajectory", texts["trajectory"]))):
        path.write_text(text, encoding="utf-8")
        with mock.patch("lhnav.trajectory._saved_state", reference_saved_state), \
                mock.patch.object(StepRecord, "from_dict", staticmethod(reference_step_from_dict)):
            expected = _outcome(Trajectory.load, path)
        assert _outcome(Trajectory.load, path) == expected


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
