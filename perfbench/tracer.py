"""Span tracer that wraps library functions from outside the package.

A traced name is replaced, in the module that looks it up at call time, by a
wrapper that records one span per call: the span's name, the span that was
open when it started (its parent), and its start and end.  Spans live in flat
arrays in memory and are written out once, at the end of a run.

A generator function gets one span per resume, not one for its whole life,
so the time its consumer spends between items is charged to the consumer.
Self time is a span's duration minus the durations of its children; summed
over every span of a tree it gives back the root span's duration.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter
from typing import Callable

import numpy as np


class Tracer:
    """Records spans for the functions it wraps until :meth:`restore`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.sizes: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.sizes.append(0)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = perf_counter()
        self._stack.pop()

    def wrap(
        self, fn: Callable, name: str, size: Callable[[object], int] | None = None
    ) -> Callable:
        """Return ``fn`` wrapped in a span; ``size`` measures each result."""
        name_id = self.name_id(name)
        calls, sizes = self.calls, self.sizes

        def traced(*args, **kwargs):
            calls[name_id] += 1
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if size is not None:
                sizes[name_id] += size(result)
            return result

        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Like :meth:`wrap`, with one span per resume of the generator."""
        name_id = self.name_id(name)
        calls = self.calls

        def traced(*args, **kwargs):
            calls[name_id] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = self._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    yield item
            finally:
                inner.close()

        return traced

    def patch(
        self,
        module_name: str,
        attr: str,
        name: str,
        generator: bool = False,
        size: Callable[[object], int] | None = None,
    ) -> None:
        """Replace ``module_name.attr`` by its traced wrapper."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        if generator:
            wrapper = self.wrap_generator(original, name)
        else:
            wrapper = self.wrap(original, name, size)
        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def self_times(self, lo: int, hi: int) -> np.ndarray:
        """Self time per name over spans ``[lo, hi)``.

        The spans in the range must form whole trees: every parent of a span
        in the range is in the range too, or is -1 for a root.
        """
        names = np.frombuffer(self.span_name, dtype=np.int32)[lo:hi]
        parents = np.frombuffer(self.span_parent, dtype=np.int64)[lo:hi]
        starts = np.frombuffer(self.span_start, dtype=np.float64)[lo:hi]
        ends = np.frombuffer(self.span_end, dtype=np.float64)[lo:hi]
        durations = ends - starts
        is_child = parents >= 0
        child_time = np.zeros(hi - lo)
        np.add.at(child_time, parents[is_child] - lo, durations[is_child])
        own = durations - child_time
        return np.bincount(names, weights=own, minlength=len(self.names))

    def distinct_parents(self, name: str) -> int:
        """Number of distinct spans that opened at least one ``name`` span."""
        if name not in self._ids:
            return 0
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        return int(np.unique(parents[names == self._ids[name]]).size)

    def save(self, path: str) -> None:
        """Write every span to ``path`` as an uncompressed ``.npz``."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
