"""In-memory spans recorded by the benchmark around its own calls.

A span is ``{name, layer, start, end, parent, request}``: ``layer`` is
the module under ``src/repro`` the call went into, ``parent`` the index
of the enclosing span on the same thread (``None`` at the top) and
``request`` the job or run the span belongs to.  Spans stay in memory
and are written once, at exit.  Nothing here reaches into the program
under test; spans inside it are a later issue.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, TypeVar

T = TypeVar("T")


class SpanRecorder:
    """Thread-safe span list with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        #: Flipped per operation by the traced passes, so traced and
        #: untraced operations interleave under identical conditions.
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(
        self, name: str, layer: str, request: Optional[str] = None
    ) -> Iterator[Optional[dict]]:
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "name": name,
            "layer": layer,
            "start": 0.0,
            "end": 0.0,
            "parent": stack[-1] if stack else None,
            "request": request,
        }
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


def repeat_until(
    step: Callable[[], T],
    until: float,
    recorder: SpanRecorder,
    alternate_tracing: bool = False,
) -> List[T]:
    """Call ``step`` back to back until the clock passes ``until``.
    With ``alternate_tracing`` every other call records spans, so traced
    and untraced operations see the same minute of the same machine."""
    results: List[T] = []
    was_enabled = recorder.enabled
    try:
        while time.perf_counter() < until:
            if alternate_tracing:
                recorder.enabled = len(results) % 2 == 1
            results.append(step())
    finally:
        recorder.enabled = was_enabled
    return results


def self_times(spans: List[dict]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def self_time_by_layer(spans: List[dict]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span["layer"]] += own
    return dict(totals)


def nesting_errors(spans: List[dict]) -> List[str]:
    """Violations of well-nestedness (empty when the trace is sound)."""
    errors = []
    for index, span in enumerate(spans):
        if span["end"] < span["start"]:
            errors.append(f"span {index} {span['name']}: ends before it starts")
        parent = span["parent"]
        if parent is None:
            continue
        if not 0 <= parent < index:
            errors.append(f"span {index} {span['name']}: bad parent {parent}")
            continue
        outer = spans[parent]
        if span["start"] < outer["start"] or span["end"] > outer["end"]:
            errors.append(
                f"span {index} {span['name']}: not inside parent "
                f"{parent} {outer['name']}"
            )
    return errors
