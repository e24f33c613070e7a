"""Span tracer for the benchmark's traced run.

The tracer replaces each traced lhnav function with a wrapper in every
module that binds it by name, and each traced method on its class, so a
call is recorded whichever import path reaches it.  A span records its
name, start, end, parent span and the enclosing episode span.  Spans stay
in memory and are written out once, when the run ends.

A section (one set-up step or one timed pass) is a root span, and only
calls inside a section are recorded.  Within a section the tracer sums, per
function, the calls, the total time and the self time (duration minus the
time covered by child spans), plus the work counts that the count hooks
add.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# Count hooks: (tracer, args, result) -> None, run after the call returns.


def _fields_computed(tracer, args, result):
    tracer.counts["expert.compute_field.cells"] += len(result.steps)
    if tracer.parent_name() == "expert.field_from":
        tracer.counts["expert.field_from.misses"] += 1


def _collisions(tracer, args, result):
    tracer.counts["world.apply_action.collisions"] += int(result.collided)


def _entries_scanned(tracer, args, result):
    store, target = args[0], args[1]
    tracer.counts["memory.LongTermStore.rank.entries_scanned"] += len(
        store.buckets.get(target, ())
    )


def _retrieval_hits(tracer, args, result):
    tracer.counts["memory.LongTermStore.retrieve_topk.hits"] += int(bool(result))


def _samples(tracer, args, result):
    tracer.counts["policy.loss_and_grad.samples"] += int(args[1].shape[0])


def _bytes_saved(tracer, args, result):
    tracer.counts["trajectory.Trajectory.save.bytes"] += os.path.getsize(args[1])


def _bytes_loaded(tracer, args, result):
    tracer.counts["trajectory.Trajectory.load.bytes"] += os.path.getsize(args[1])


# (module, qualified name, count hook, opens an episode).  Scene.is_free is
# left out on purpose: it has millions of calls, and its cost shows in the
# self time of its callers.
TRACED = (
    ("expert", "compute_field", _fields_computed, False),
    ("expert", "field_from", None, False),
    ("expert", "geodesic_distance", None, False),
    ("expert", "expert_next_action", None, False),
    ("world", "subtask_success", None, False),
    ("world", "observe", None, False),
    ("world", "line_of_sight", None, False),
    ("world", "apply_action", _collisions, False),
    ("memory", "LongTermStore.rank", _entries_scanned, False),
    ("memory", "LongTermStore.retrieve_topk", _retrieval_hits, False),
    ("memory", "LongTermStore.load", None, False),
    ("memory", "forget_and_append", None, False),
    ("memory", "entropy_argmin", None, False),
    ("memory", "pool_candidates", None, False),
    ("policy", "memory_policy_step", None, False),
    ("policy", "EmbeddingOracle.embed_view", None, False),
    ("policy", "EmbeddingOracle.embed_observation", None, False),
    ("policy", "LinearSoftmaxBackend.decide", None, False),
    ("policy", "loss_and_grad", _samples, False),
    ("policy", "collect_imitation_dataset", None, True),
    ("policy", "train_backend", None, False),
    ("splitter", "split_trajectory", None, False),
    ("splitter", "tag_segment", None, False),
    ("splitter", "render_step_instruction", None, False),
    ("trajectory", "Trajectory.save", _bytes_saved, False),
    ("trajectory", "Trajectory.load", _bytes_loaded, False),
    ("runner", "run_episode", None, True),
    ("runner", "make_policy", None, False),
    ("runner", "run_suite", None, False),
    ("metrics", "aggregate", None, False),
    ("taskforge", "sample_spawn", None, False),
    ("scenegen", "generate_scene", None, False),
    ("cli", "main", None, False),
)

SPAN_NAMES = tuple(f"{module}.{name}" for module, name, _, _ in TRACED)


def lhnav_modules() -> list:
    """Every module of the lhnav package, imported."""
    import lhnav

    names = ["lhnav"] + [
        f"lhnav.{info.name}" for info in pkgutil.iter_modules(lhnav.__path__)
    ]
    return [importlib.import_module(name) for name in names]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, episode, name, start, end)
        self.sections: list[dict] = []
        self.counts: Counter = Counter()
        self.stats: defaultdict = defaultdict(lambda: [0, 0.0, 0.0])
        self._stack: list[list] = []  # [span id, name, time covered by children]
        self._episode: int | None = None
        self._next_id = 0
        self._restore: list = []
        self._originals: list = []

    # -- recording --------------------------------------------------------

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def _call(self, name, fn, args, kwargs, hook, opens_episode):
        if not self._stack:  # outside a section, e.g. the output checks
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        outer_episode = self._episode
        if opens_episode:
            self._episode = sid
        episode = self._episode
        frame = [sid, name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._episode = outer_episode
            duration = end - start
            if self._stack:
                self._stack[-1][2] += duration
            stat = self.stats[name]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[2]
            self.spans.append((sid, parent, episode, name, start, end))
        if hook is not None:
            hook(self, args, result)
        return result

    def _wrap(self, name, fn, hook, opens_episode):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs, hook, opens_episode)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def section(self, name: str):
        """A root span; its per-function sums go to self.sections."""
        if self._stack:
            raise RuntimeError("a section must be a root span")
        self.counts = Counter()
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((frame[0], None, None, name, start, end))
            self.sections.append(
                {
                    "name": name,
                    "wall_s": end - start,
                    "stats": {k: tuple(v) for k, v in self.stats.items()},
                    "counts": dict(self.counts),
                }
            )

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever lhnav binds it."""
        modules = lhnav_modules()
        by_name = {m.__name__: m for m in modules}
        for module_name, qualname, hook, opens_episode in TRACED:
            span = f"{module_name}.{qualname}"
            home = by_name[f"lhnav.{module_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span, raw.__func__, hook, opens_episode))
                    self._originals.append(raw.__func__)
                else:
                    wrapped = self._wrap(span, raw, hook, opens_episode)
                    self._originals.append(raw)
                setattr(cls, attr, wrapped)
                self._restore.append((cls, attr, raw))
                continue
            original = getattr(home, qualname)
            wrapped = self._wrap(span, original, hook, opens_episode)
            self._originals.append(original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Module-level names that still bind an original traced function;
        empty when the tracer is binding-complete."""
        originals = {id(fn) for fn in self._originals}
        found = []
        for module in lhnav_modules():
            for key, value in vars(module).items():
                if id(value) in originals:
                    found.append(f"{module.__name__}.{key}")
        return found

    # -- output -----------------------------------------------------------

    def write_spans(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, episode, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "episode": episode,
                            "name": name,
                            "start": start,
                            "end": end,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
