"""In-memory spans around calls into the nngp_card modules.

A `Tracer` wraps public functions of the package with span-recording
wrappers for the duration of a traced run. Every span records its name,
start, end, parent span and the workload-run id, plus call attributes
(input sizes, join counts) and, inside a `gp.fit` call, the peak of
tracemalloc's traced memory above the level at span start. tracemalloc runs
only during those calls, which allocate in large numpy buffers, so the
Python-heavy layers keep their untraced speed. Spans stay in memory until
the run writes them out.

`NullTracer` has the same interface and records nothing; the untraced run
uses it so that the end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import time
import tracemalloc

# (module, function, attributes taken from the call). Functions imported by
# name into other package modules are replaced there too.
TARGETS = (
    ("relstore", "synth_relation", None),
    ("workload", "gen_single_relation", None),
    ("workload", "gen_join", None),
    ("workload", "finalize", lambda a, kw, r: {"n_in": len(a[0]), "n_out": len(r)}),
    ("workload", "split", lambda a, kw, r: {"n_in": len(a[0])}),
    ("oracle", "execute_batch", lambda a, kw, r: {"n": len(a[0])}),
    ("oracle", "execute", lambda a, kw, r: {"joins": len(a[0].joins)}),
    ("queries", "read_queries_jsonl", lambda a, kw, r: {"n": len(r[0])}),
    ("queries", "write_queries_jsonl", None),
    ("encoder", "encode_batch", lambda a, kw, r: {"n": len(a[0])}),
    ("encoder", "encode", None),
    ("kernel", "kernel_matrix", lambda a, kw, r: {"n": r.shape[0], "m": r.shape[1]}),
    ("kernel", "nngp_kernel", None),
    ("kernel", "base_kernel", None),
    ("gp", "fit", lambda a, kw, r: {"n": r.n_train}),
    ("gp", "predict", lambda a, kw, r: {"n": len(r)}),
    ("gp", "save", None),
    ("gp", "load", lambda a, kw, r: {"n": r.n_train}),
    ("evaluation", "active_learn", None),
)

PACKAGE = "nngp_card"
# Spans that switch tracemalloc on for their duration (when it is off).
MEMORY_SPANS = frozenset({"gp.fit"})


class _Frame:
    __slots__ = ("record", "start_mem", "seen_peak", "started")

    def __init__(self, record, start_mem, started):
        self.record = record
        self.start_mem = start_mem
        self.seen_peak = start_mem
        self.started = started


class Tracer:
    """Records spans; `install` wraps the package's public functions."""

    recording = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, attrs: dict) -> _Frame:
        stack = self._stack
        record = {
            "id": next(self._ids),
            "parent": stack[-1].record["id"] if stack else None,
            "name": name,
            "run": self.run_id,
            "attrs": attrs,
        }
        start_mem, started = 0, False
        if name in MEMORY_SPANS and not tracemalloc.is_tracing():
            tracemalloc.start()
            started = True
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1].seen_peak = max(stack[-1].seen_peak, peak)
            tracemalloc.reset_peak()
            start_mem = current
        frame = _Frame(record, start_mem, started)
        stack.append(frame)
        record["start"] = time.perf_counter()
        return frame

    def _close(self, frame: _Frame) -> None:
        record = frame.record
        record["end"] = time.perf_counter()
        stack = self._stack
        stack.pop()
        if tracemalloc.is_tracing():
            peak = max(frame.seen_peak, tracemalloc.get_traced_memory()[1])
            record["mem_peak"] = peak - frame.start_mem
            if stack:
                stack[-1].seen_peak = max(stack[-1].seen_peak, peak)
            if frame.started:
                tracemalloc.stop()
        self.spans.append(record)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Span around a block of the benchmark's own code; yields its attrs."""
        frame = self._open(name, dict(attrs))
        try:
            yield frame.record["attrs"]
        finally:
            self._close(frame)

    def wrap(self, fn, name: str, attrs_fn=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name, {})
            try:
                result = fn(*args, **kwargs)
                if attrs_fn is not None:
                    frame.record["attrs"].update(attrs_fn(args, kwargs, result))
                return result
            finally:
                self._close(frame)

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Replace each target function, wherever the package holds it.

        A target the package no longer has raises, so a refactor of the
        package updates the benchmark on purpose.
        """
        originals = [
            (getattr(importlib.import_module(f"{PACKAGE}.{mod}"), fn), f"{mod}.{fn}", attrs_fn)
            for mod, fn, attrs_fn in TARGETS
        ]
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for original, name, attrs_fn in originals:
            wrapper = self.wrap(original, name, attrs_fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def active(self):
        """Wrappers installed for the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


class NullTracer:
    """The untraced run's tracer: no wrappers, no spans, no tracemalloc."""

    recording = False

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield dict(attrs)

    @contextlib.contextmanager
    def active(self):
        yield self


# ---------------------------------------------------------------------------
# queries over recorded spans
# ---------------------------------------------------------------------------


class SpanIndex:
    """Lookup of recorded spans by name within the subtree of a span."""

    def __init__(self, spans: list[dict]):
        self.spans = sorted(spans, key=lambda s: s["start"])
        self._children: dict[int | None, list[dict]] = {}
        for span in self.spans:
            self._children.setdefault(span["parent"], []).append(span)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def children(self, span: dict, name: str) -> list[dict]:
        return [c for c in self._children.get(span["id"], []) if c["name"] == name]

    def within(self, span: dict, name: str) -> list[dict]:
        """Descendants of `span` called `name`, in start order."""
        found, todo = [], list(self._children.get(span["id"], []))
        while todo:
            node = todo.pop()
            if node["name"] == name:
                found.append(node)
            todo.extend(self._children.get(node["id"], []))
        return sorted(found, key=lambda s: s["start"])


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def total(spans) -> float:
    return float(sum(duration(s) for s in spans))
