#!/usr/bin/env bash
# The offline end-to-end checks of the lhnav command: the modules an import
# of it loads, a smoke run of every subcommand and policy, then an expert
# rollout and split on a 48x48 scene.
# Each check that fails ends the script with a nonzero status.
#
#     bash tools/ci_smoke.sh
#
# It runs the installed `lhnav` console script when there is one, and
# `python -m lhnav.cli` over this checkout's src/ otherwise.  Outputs go
# under $RUNNER_TEMP, or under a new temporary directory when that is unset.
set -e
cd "$(dirname "$0")/.."
if ! command -v lhnav >/dev/null; then
  export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
  lhnav() { python -m lhnav.cli "$@"; }
fi
root="${RUNNER_TEMP:-$(mktemp -d)}"

# -- what a process loads -------------------------------------------------------
# importing the package and its command loads neither the LLM client's HTTP
# stack nor the worker pool's multiprocessing: both load on first use
python -c '
import sys
import lhnav, lhnav.cli
listed = ("urllib.request", "http.client", "ssl", "multiprocessing", "concurrent.futures.process")
loaded = [name for name in listed if name in sys.modules]
if loaded:
    sys.exit(f"importing {lhnav.__file__} loaded {loaded}")
print("importing lhnav.cli loads neither the LLM client nor the worker pool")
'

# -- smoke run ------------------------------------------------------------------
smoke="$root/lhnav-smoke"
lhnav gen-scene --seed 1 --size 20 --out "$smoke/scenes"
# every --out creates its parent directory: tasks/ and steps/ do not exist yet
lhnav gen-tasks --scenes "$smoke/scenes" --count 2 --out "$smoke/tasks/tasks.json"
lhnav rollout --scenes "$smoke/scenes" --tasks "$smoke/tasks/tasks.json" --policy expert --out "$smoke/run"
lhnav report --results "$smoke/run/report.json"
lhnav split --trajectories "$smoke/run/trajectories" --scenes "$smoke/scenes" --out "$smoke/steps/steps.json"
# the worker count changes neither the report nor a trajectory
lhnav rollout --scenes "$smoke/scenes" --tasks "$smoke/tasks/tasks.json" --policy expert --workers 2 --out "$smoke/expert-parallel"
diff -r "$smoke/run" "$smoke/expert-parallel"
lhnav rollout --scenes "$smoke/scenes" --tasks "$smoke/tasks/tasks.json" --policy memory --workers 2 --out "$smoke/memory"
lhnav rollout --scenes "$smoke/scenes" --tasks "$smoke/tasks/tasks.json" --policy memory --workers 1 --out "$smoke/memory-serial"
diff -r "$smoke/memory" "$smoke/memory-serial"
# with a valid store the memory step retrieves, once per (pose, target)
# of an episode; the worker count changes no file there either
python - "$smoke/scenes" "$smoke/store.jsonl" <<'EOF'
import sys
from pathlib import Path
import numpy as np
from lhnav.memory import EMBED_DIM, LongTermStore
from lhnav.world import Scene
rng = np.random.default_rng(0)
store = LongTermStore()
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    for obj in Scene.load(path).objects:
        for _ in range(3):
            store.add(obj.category, rng.random(EMBED_DIM) + 0.01, rng.dirichlet([1, 1, 1.5, 1]))
store.save(sys.argv[2])
EOF
lhnav rollout --scenes "$smoke/scenes" --tasks "$smoke/tasks/tasks.json" --policy memory --store "$smoke/store.jsonl" --workers 2 --out "$smoke/memory-store"
lhnav rollout --scenes "$smoke/scenes" --tasks "$smoke/tasks/tasks.json" --policy memory --store "$smoke/store.jsonl" --workers 1 --out "$smoke/memory-store-serial"
diff -r "$smoke/memory-store" "$smoke/memory-store-serial"
# a store whose embeddings are not the memory policy's 64 long, or
# one whose rows are 64 and then 32 long, is a usage error before
# any episode: exit 2 and no output directory
python - "$smoke/short-store.jsonl" "$smoke/mixed-store.jsonl" <<'EOF'
import json, sys
for path, lengths in zip(sys.argv[1:], [[32], [64, 32]]):
    with open(path, "w") as fh:
        for n in lengths:
            fh.write(json.dumps({"target": "bag", "obs": [1.0] * n, "act": [0, 0, 1, 0]}) + "\n")
EOF
for store in short-store mixed-store; do
  status=0
  lhnav rollout --scenes "$smoke/scenes" --tasks "$smoke/tasks/tasks.json" --policy memory --store "$smoke/$store.jsonl" --out "$smoke/$store-run" || status=$?
  test "$status" -eq 2
  test ! -e "$smoke/$store-run"
done
# only the memory policy reads a store: another policy given one is a
# usage error too, exit 2 and no output directory
status=0
lhnav rollout --scenes "$smoke/scenes" --tasks "$smoke/tasks/tasks.json" --policy expert --store "$smoke/no-such-store.jsonl" --out "$smoke/expert-store-run" || status=$?
test "$status" -eq 2
test ! -e "$smoke/expert-store-run"
# an --llm-endpoint that is not a URL is a usage error naming it: exit 2
# and no --out file
status=0
lhnav gen-tasks --scenes "$smoke/scenes" --count 1 --llm-endpoint foo --out "$smoke/llm-tasks.json" || status=$?
test "$status" -eq 2
test ! -e "$smoke/llm-tasks.json"
# split reads the memory policy's trajectories too, windows of a lone stop included
lhnav split --trajectories "$smoke/memory/trajectories" --scenes "$smoke/scenes" --out "$smoke/memory-steps.json"
# every --policy choice runs through the installed command; the stop
# policy's windows are lone stops, so its split writes no task
lhnav rollout --scenes "$smoke/scenes" --tasks "$smoke/tasks/tasks.json" --policy random --out "$smoke/random"
lhnav rollout --scenes "$smoke/scenes" --tasks "$smoke/tasks/tasks.json" --policy stop --out "$smoke/stop"
lhnav split --trajectories "$smoke/random/trajectories" --scenes "$smoke/scenes" --out "$smoke/random-steps.json"
lhnav split --trajectories "$smoke/stop/trajectories" --scenes "$smoke/scenes" --out "$smoke/stop-steps.json"
# a scene whose third room is sealed still hosts tasks: every target
# comes from the component of the cup's and the desk's rooms
python - "$smoke/sealed/scene-3.json" <<'EOF'
import sys
from lhnav.world import ObjectInstance, Region, Scene
rows = ["#############", "#...#...#...#", "#.......#...#", "#...#...#...#", "#############"]
def room(col):
    return tuple((r, c) for r in range(1, 4) for c in range(col, col + 3))
def at(row, col):
    return ((col + 0.5) * 0.25, (row + 0.5) * 0.25)
Scene(
    grid=rows,
    regions=[Region("0", "kitchen", room(1)), Region("1", "study", room(5)), Region("2", "pantry", room(9))],
    objects=[
        ObjectInstance("cup-0", "cup", "0", at(1, 1), True),
        ObjectInstance("desk-1", "desk", "1", at(3, 7), False),
        ObjectInstance("jar-2", "jar", "2", at(2, 10), True),
    ],
    seed=3,
).save(sys.argv[1])
EOF
lhnav gen-tasks --scenes "$smoke/sealed" --count 5 --out "$smoke/sealed-tasks.json"
lhnav rollout --scenes "$smoke/sealed" --tasks "$smoke/sealed-tasks.json" --policy expert --out "$smoke/sealed-run"

# -- 48x48 scene ----------------------------------------------------------------
# the benchmark's scenes are 24x24, where the geodesic fields' queues
# stay short; a 48x48 scene runs longer ones, and the expert's files
# must not depend on the worker count there either.  split then walks
# the replayed contexts of those longer windows
big="$root/lhnav-48"
lhnav gen-scene --seed 1 --size 48 --regions 8 --objects 6 --out "$big/scenes"
lhnav gen-tasks --scenes "$big/scenes" --count 20 --out "$big/tasks.json"
lhnav rollout --scenes "$big/scenes" --tasks "$big/tasks.json" --policy expert --out "$big/serial"
lhnav rollout --scenes "$big/scenes" --tasks "$big/tasks.json" --policy expert --workers 2 --out "$big/parallel"
diff -r "$big/serial" "$big/parallel"
# the rollout's bytes are pinned: its windows are longer than the benchmark's,
# so the expert's lookups and the judge's verdicts run over more poses
python - "$big/serial" <<'EOF'
import hashlib, sys
from pathlib import Path
root = Path(sys.argv[1])
trajectories = hashlib.sha256()
for path in sorted((root / "trajectories").glob("*.jsonl")):
    trajectories.update(path.name.encode())
    trajectories.update(path.read_bytes())
pinned = {
    "report.json": "4a04106b6dffb7a2a591bba8d68c8b8fc2852877e343c1d7f78b8dfb7fe88d6b",
    "trajectories": "1e0fd56c0ba72dac9edb8d5f4bbb5ef15408027f14e29e35a8cb7625c69a1b0d",
}
got = {
    "report.json": hashlib.sha256((root / "report.json").read_bytes()).hexdigest(),
    "trajectories": trajectories.hexdigest(),
}
for name, digest in pinned.items():
    assert got[name] == digest, f"{root}/{name}: sha256 {got[name]}, pinned {digest}"
print("48x48 expert rollout's report and trajectories have their pinned sha256")
EOF
lhnav split --trajectories "$big/serial/trajectories" --scenes "$big/scenes" --out "$big/steps.json"
# one step task per move_to span that has a non-stop action, in file order
python - "$big/serial/trajectories" "$big/steps.json" <<'EOF'
import json, sys
from pathlib import Path
expected = []
for path in sorted(Path(sys.argv[1]).glob("*.jsonl")):
    header, *steps = map(json.loads, path.read_text(encoding="utf-8").splitlines())
    expected += [
        (header["task_id"], span["index"])
        for span in header["spans"]
        if span["kind"] == "move_to"
        and any(s["action"] != "stop" for s in steps[span["start"] : span["end"]])
    ]
tasks = json.loads(Path(sys.argv[2]).read_text(encoding="utf-8"))
got = [(t["source_task_id"], t["source_subtask"]) for t in tasks]
assert expected and got == expected, (len(got), len(expected))
print(f"{len(got)} step tasks, one per move_to span with a non-stop action")
EOF
# and the split's bytes are pinned: 48 objects and longer sight lines than
# the golden workloads' put sensing, replay and trajectory reads to the test
python - "$big/steps.json" <<'EOF'
import hashlib, sys
from pathlib import Path
pinned = "52ec4f710976d670909a3c37f661561bec38817b886bd12547a0144d6a8ea2d7"
got = hashlib.sha256(Path(sys.argv[1]).read_bytes()).hexdigest()
assert got == pinned, f"{sys.argv[1]}: sha256 {got}, pinned {pinned}"
print(f"48x48 split output has the pinned sha256 {pinned[:12]}...")
EOF

echo "ci_smoke: every check passed under $root"
