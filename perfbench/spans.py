"""In-memory span recorder shared by traced_stage.py and sweep.py.

A span is one call across a layer boundary: its name (``<module>.<function>``),
start and end from ``time.perf_counter``, the index of the enclosing span, the
stage it belongs to, whether it raised, and any work counts the wrapper adds.
Spans stay in memory and are written out once, when the child ends.
"""

from __future__ import annotations

import functools
import json
import time


class SpanRecorder:
    def __init__(self, stage: str):
        self.stage = stage
        self.spans = []
        self._open = []

    def wrap(self, name, fn, describe=None):
        """Return ``fn`` recording one span per call.

        ``describe(result, args, kwargs)`` may return extra fields for the
        span, computed after the span has ended; a ``name`` field renames it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "stage": self.stage,
                    "parent": self._open[-1] if self._open else None, "error": False}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if describe is not None:
                span.update(describe(result, args, kwargs))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
