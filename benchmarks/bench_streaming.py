"""Sustained streaming ingestion throughput on the shm page plane.

Drives the 1M-record synthetic paged stream through the mp backend's
bounded-window admission loop and reports sustained records/sec, p99
page settle latency, and the number of backpressure pauses the window
took.  Its pages of about 400 KiB land on shared memory by size.  The
window is kept deliberately small so backpressure genuinely engages —
the run must be visibly *paced*, not a burst — and the trace is checked
for ``stream.backpressure`` events to prove it.

Asserted shape: the exact closed-form value total
(:func:`repro.apps.streams.synthetic_total` — streaming re-chunking,
re-rationing, and backpressure must not change *what* is computed), at
least one backpressure pause, and a sane sustained rate.  Exact numbers
land in ``BENCH_streaming.json`` for trajectory tracking.
"""

from __future__ import annotations

import os
import time

import pytest

np = pytest.importorskip("numpy")

from repro.apps.streams import stream_ops, synthetic_total
from repro.obs import STREAM_BACKPRESSURE, STREAM_PAGE, Tracer
from repro.runtime.backends import MultiprocessingBackend
from repro.runtime.config import RunConfig

from conftest import print_table

WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))

#: 1M records, 500 per task, 50k per page: 20 pages of ~400 KiB —
#: payload-heavy enough for the shm plane, small enough for CI.
RECORDS = int(os.environ.get("REPRO_BENCH_STREAM_RECORDS", str(1_000_000)))
RECORDS_PER_TASK = int(os.environ.get("REPRO_BENCH_STREAM_RPT", "500"))
PAGE_RECORDS = int(os.environ.get("REPRO_BENCH_STREAM_PAGE", str(50_000)))

#: A tight window so the admission gate demonstrably pauses: the bench
#: measures *paced* ingestion, not a burst admit.
WINDOW = 2


def run_stream():
    tracer = Tracer()
    cfg = RunConfig(
        processors=WORKERS,
        backend="mp",
        mp_timeout=300.0,
        stream_window=WINDOW,
        tracer=tracer,
    )
    ops = stream_ops(
        records=RECORDS,
        records_per_task=RECORDS_PER_TASK,
        page_records=PAGE_RECORDS,
    )
    backend = MultiprocessingBackend()
    start = time.perf_counter()
    result = backend.run_ops(ops, cfg)
    wall = time.perf_counter() - start
    return wall, result, tracer


def test_streaming_sustained_throughput():
    expected = synthetic_total(RECORDS)
    wall, result, tracer = run_stream()
    info = result.stream["stream"]
    pauses = sum(
        1
        for event in tracer.events
        if event.kind == STREAM_BACKPRESSURE
        and event.attrs.get("state") == "pause"
    )
    pages_traced = sum(
        1
        for event in tracer.events
        if event.kind == STREAM_PAGE and event.attrs.get("state") == "settle"
    )

    assert result.value_total == expected, (
        f"value_total {result.value_total} != closed-form {expected}"
    )
    assert info["plane"] == "shm"  # ~400 KiB pages clear the floor
    assert info["pages"] == pages_traced
    # The tight window must actually pace admission, and the pauses must
    # be visible in the obs trace, not just the counter.
    assert info["backpressure_events"] >= 1
    assert pauses == info["backpressure_events"]

    records_per_s = RECORDS / wall if wall > 0 else 0.0
    rows = [
        [
            info["plane"],
            WORKERS,
            RECORDS,
            info["pages"],
            info["tasks"],
            info["backpressure_events"],
            f"{records_per_s:.0f}",
            f"{info['page_latency_p50'] * 1000:.1f}",
            f"{info['page_latency_p99'] * 1000:.1f}",
            f"{wall:.3f}",
        ]
    ]

    print_table(
        f"Streaming ingestion: {RECORDS} records, window={WINDOW} pages, "
        f"{WORKERS} workers",
        [
            "plane",
            "workers",
            "records",
            "pages",
            "tasks",
            "bp_events",
            "records_per_s",
            "p50_page_ms",
            "p99_page_ms",
            "wall_s",
        ],
        rows,
        name="streaming",
    )
