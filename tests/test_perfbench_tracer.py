"""The benchmark's span tracer must still bind every function it traces, so
renaming or dropping a benchmarked function fails here rather than in a
benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("tracer")
    yield module
    sys.modules.pop("tracer", None)


def test_every_traced_name_resolves(tracer_module):
    for module_name, qualname, _, _ in tracer_module.TRACED:
        owner = importlib.import_module(f"lhnav.{module_name}")
        for part in qualname.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{qualname}"


def test_install_is_binding_complete_and_uninstalls(tracer_module):
    import lhnav.runner

    original = lhnav.runner.run_episode
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert lhnav.runner.run_episode is not original
        assert tracer.unwrapped_bindings() == []
    finally:
        tracer.uninstall()
    assert lhnav.runner.run_episode is original
