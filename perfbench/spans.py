"""In-memory span tracing installed from outside the program.

A ``Tracer`` replaces module attributes with timing wrappers, so every
call that looks the name up through its module records a span (name,
start, end, parent).  Only the benchmark's own files do this: nothing in
``src/`` knows it is being traced.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, **self.attrs}


class Tracer:
    """Records nested spans; single-threaded, so nesting is a stack."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name, **attrs):
        s = Span(len(self.spans), self._stack[-1].id if self._stack else None,
                 name, time.perf_counter())
        s.attrs.update(attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr, name, on_result=None):
        """Time every call made through ``module.attr``.

        on_result(span, args, result) may attach counts to the span.  A name
        that no longer exists is recorded as absent and skipped.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(s, args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_times(self) -> dict:
        """span id -> duration minus the time its direct children cover.

        Children of one span run one after another on one thread, so the
        time they cover is the sum of their durations.
        """
        child_time = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) \
                    + s.duration
        return {s.id: s.duration - child_time.get(s.id, 0.0)
                for s in self.spans}

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")
