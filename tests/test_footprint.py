"""What an lhnav process loads: the HTTP client and the process pool only
when a command uses them.

Each case runs in a fresh interpreter over this checkout's src/, so the
modules this test session has already imported cannot hide an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the LLM client's stack and the worker pool's; the cases that use each one
# see every name loaded, so a misspelt name cannot pass the first case
CLIENT = ("urllib.request", "http.client", "ssl")
POOL = ("multiprocessing", "concurrent.futures.process")


def fresh(code: str):
    """Run `code` in a new interpreter with PYTHONPATH=src; the JSON it
    prints last."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_lhnav_and_its_cli_loads_neither_client_nor_pool():
    loaded = fresh(
        "import json, sys\n"
        "import lhnav, lhnav.cli\n"
        f"print(json.dumps([m for m in {CLIENT + POOL!r} if m in sys.modules]))\n"
    )
    assert loaded == []


def test_parallel_suite_loads_the_pool_and_reports_as_the_serial_one():
    facts = fresh(
        "import json, sys\n"
        "from lhnav.runner import RunConfig, run_suite\n"
        "from lhnav.scenegen import generate_scene\n"
        "from lhnav.taskforge import sample_task\n"
        "from lhnav.world import ROBOTS\n"
        f"def loaded(): return [m for m in {POOL!r} if m in sys.modules]\n"
        "scene = generate_scene(seed=100, size=20, regions=4)\n"
        "tasks = [sample_task(scene, ROBOTS['spot'], seed=s) for s in (0, 1)]\n"
        "scenes = {scene.scene_id: scene}\n"
        "serial = run_suite(scenes, tasks, RunConfig(policy='expert', workers=1))\n"
        "after_serial = loaded()\n"
        "parallel = run_suite(scenes, tasks, RunConfig(policy='expert', workers=2))\n"
        "print(json.dumps({\n"
        "    'after_serial': after_serial,\n"
        "    'after_parallel': loaded(),\n"
        "    'same_report': parallel == serial,\n"
        "    'tasks': serial['num_tasks'],\n"
        "}))\n"
    )
    assert facts == {
        "after_serial": [],
        "after_parallel": list(POOL),
        "same_report": True,
        "tasks": 2,
    }


def test_chat_completion_loads_the_client_and_still_raises_a_network_error():
    facts = fresh(
        "import json, sys\n"
        "from lhnav.taskforge import LlmNetworkError, chat_completion\n"
        f"def loaded(): return [m for m in {CLIENT!r} if m in sys.modules]\n"
        "before = loaded()\n"
        "try:\n"
        "    chat_completion('foo', 'system', 'user')\n"
        "    raised = None\n"
        "except LlmNetworkError as exc:\n"
        "    raised = str(exc)\n"
        "print(json.dumps({'before': before, 'after': loaded(), 'raised': raised}))\n"
    )
    assert facts["before"] == [] and facts["after"] == list(CLIENT)
    assert facts["raised"] is not None and facts["raised"].startswith("request to foo failed")


def test_a_client_that_cannot_be_imported_is_not_a_network_error():
    # None in sys.modules makes the import raise ImportError
    raised = fresh(
        "import json, sys\n"
        "from lhnav.taskforge import chat_completion\n"
        "sys.modules['urllib.request'] = None\n"
        "try:\n"
        "    chat_completion('foo', 'system', 'user')\n"
        "except Exception as exc:\n"
        "    print(json.dumps(type(exc).__name__))\n"
    )
    assert raised == "ModuleNotFoundError"
