"""In-memory spans for the traced run, and the wrappers that record them.

The harness opens a span around each call it makes into a layer (a
bucket, a query, a Spark pipeline).  ``install`` additionally replaces
the layer entry points *inside* the program with timing wrappers:

* span wrappers (``state.ingest_bucket``, ``window.ingest``) record a
  full span, nested under whatever span is open;
* leaf wrappers (ranked-list upkeep, traversal, marginal gains,
  ``make_element``, ``singleton_delta``) are called hundreds of
  thousands of times per run, so they only add ``[calls, seconds]`` to
  the innermost open span instead of keeping one span per call.

A span's self time is its duration minus its child spans and its leaf
time.  Spans share a ``group`` id per bucket (``b<t>``) and per query
(``q<qid>``); children inherit the group of their parent.  Nothing is
written until :meth:`Tracer.dump` runs at the end of the benchmark.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

__all__ = ["Tracer", "NULL", "install"]

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "group", "name", "start", "end", "leaf")

    def __init__(self, sid, parent, group, name):
        self.id, self.parent, self.group, self.name = sid, parent, group, name
        self.start = _clock()
        self.end = None
        self.leaf: dict[str, list] = {}

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "group": self.group,
            "name": self.name, "start": self.start, "end": self.end,
            "leaf": self.leaf,
        }


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, group: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if group is None and parent is not None:
            group = parent.group
        s = Span(len(self.spans), parent.id if parent else None, group, name)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = _clock()
            self._stack.pop()

    def add_leaf(self, name: str, seconds: float) -> None:
        """Charge one call to the innermost open span (the run opens a root)."""
        acc = self._stack[-1].leaf.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += seconds

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s.as_dict()) + "\n")

    # -- aggregation over recorded spans --------------------------------
    def named(self, name: str, within: Span | None = None) -> list[Span]:
        spans = [s for s in self.spans if s.name == name]
        if within is not None:
            spans = [s for s in spans if s.start >= within.start and s.end <= within.end]
        return spans

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.named(name))

    def leaf_totals(self, within: Span | None = None) -> dict[str, list]:
        """{leaf name: [calls, seconds]} over every span (inside ``within``)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            if within is not None and not (s.start >= within.start and s.end <= within.end):
                continue
            for name, (n, sec) in s.leaf.items():
                out[name][0] += n
                out[name][1] += sec
        return out

    def leaf_seconds_in(self, name: str, leaves: tuple[str, ...]) -> float:
        """Leaf time recorded directly on the spans called ``name``."""
        return sum(
            s.leaf[l][1] for s in self.spans if s.name == name for l in leaves if l in s.leaf
        )


class _NullTracer:
    """Stands in for :class:`Tracer` in untraced runs; records nothing."""

    _ctx = contextlib.nullcontext()

    def span(self, name, group=None):
        return self._ctx


NULL = _NullTracer()


def _span_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _leaf_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add_leaf(name, _clock() - t0)

    return wrapper


def _entry_points(spark: bool):
    """(owner, attribute, kind, span name) for every wrapped entry point.

    ``make_element`` and ``singleton_delta`` are imported by name into
    other modules, so each importing module's binding is wrapped too.
    """
    # import_module: the packages re-export functions under the submodule names
    celf_mod, sieve_mod, ranked_lists, scoring, state, window = (
        importlib.import_module(f"repro.{m}")
        for m in ("baselines.celf", "baselines.sieve", "core.ranked_lists",
                  "core.scoring", "core.state", "core.window")
    )

    points = [
        (state.SIRStream, "ingest_bucket", "span", "state.ingest_bucket"),
        (window.ActiveWindow, "ingest", "span", "window.ingest"),
        (ranked_lists.RankedLists, "upsert", "leaf", "ranked_lists.upsert"),
        (ranked_lists.RankedLists, "remove", "leaf", "ranked_lists.remove"),
        (ranked_lists.Traversal, "pop_best", "leaf", "ranked_lists.pop_best"),
        (ranked_lists.Traversal, "upper_bound", "leaf", "ranked_lists.upper_bound"),
        (scoring.CoverageState, "gain", "leaf", "scoring.gain"),
        (scoring.CoverageState, "add", "leaf", "scoring.gain"),
        (scoring, "make_element", "leaf", "scoring.make_element"),
        (scoring, "singleton_delta", "leaf", "scoring.singleton_delta"),
        (celf_mod, "singleton_delta", "leaf", "scoring.singleton_delta"),
        (sieve_mod, "singleton_delta", "leaf", "scoring.singleton_delta"),
    ]
    if spark:
        streaming = importlib.import_module("repro.spark.streaming")
        points.append((streaming, "make_element", "leaf", "scoring.make_element"))
    return points


@contextlib.contextmanager
def install(tracer: Tracer, *, spark: bool):
    """Wrap the program's layer entry points for the duration of the block."""
    saved = []
    try:
        for owner, attr, kind, name in _entry_points(spark):
            fn = owner.__dict__[attr]
            wrap = _span_wrapper if kind == "span" else _leaf_wrapper
            saved.append((owner, attr, fn))
            setattr(owner, attr, wrap(tracer, fn, name))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
