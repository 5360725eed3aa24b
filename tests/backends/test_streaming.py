"""Streaming ingestion: bounded-window admission, backpressure, durable
page resume, and the streaming workload/CLI surface.

The acceptance scenario lives at the bottom: a 1M-record synthetic
streaming run killed mid-flight at the coordinator (``coordkill``) must
resume from the last durable page and report *exactly* the closed-form
total an uninterrupted run reports.
"""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.apps.streams import (
    DEFAULT_PAGE_TASKS,
    json_record_pages,
    resolve_stream_ops,
    stream_json_ops,
    stream_ops,
    synthetic_pages,
    synthetic_total,
    write_json_records,
)
from repro.obs import STREAM_BACKPRESSURE, STREAM_PAGE, Tracer
from repro.runtime.config import RunConfig
from repro.runtime.cost_model import CostFunction, DecayingStats
from repro.runtime.faults import COORDINATOR_KILL_EXIT
from repro.runtime.task import PageResult, StreamOp, StreamPage

from .. import procs

MP_CFG = RunConfig(
    processors=2,
    backend="mp",
    mp_timeout=60.0,
)


# -- sources and closed forms ------------------------------------------------


def test_synthetic_total_matches_brute_force():
    for records in (0, 1, 976, 977, 978, 5000):
        assert synthetic_total(records) == float(
            sum(i % 977 for i in range(records))
        )


def test_synthetic_pages_cover_every_record_once():
    pages = list(synthetic_pages(1000, records_per_task=64, page_records=256))
    # ceil(1000/256) pages; ragged tail page and ragged tail task.
    assert len(pages) == 4
    total = 0.0
    records = 0
    for page in pages:
        assert page.costs is not None and len(page.costs) == page.size
        for row in page.payloads:
            total += float(sum(row))
            records += len(row)
    assert records == 1000
    assert total == synthetic_total(1000)


def test_json_record_pages_roundtrip(tmp_path):
    path = str(tmp_path / "records.jsonl")
    expected = write_json_records(path, 730, records_per_task=50)
    pages = list(json_record_pages(path, page_tasks=4))
    tasks = sum(page.size for page in pages)
    assert tasks == 15  # ceil(730/50)
    total = sum(sum(row) for page in pages for row in page.payloads)
    assert total == expected


def test_json_record_pages_reject_malformed_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('[1, 2]\nnot json\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        list(json_record_pages(str(path)))


def test_resolve_stream_ops_targets(tmp_path):
    (op,) = resolve_stream_ops("stream", {"stream_records": 123})
    assert op.is_stream and op.name == "stream"
    path = str(tmp_path / "r.jsonl")
    write_json_records(path, 100, records_per_task=10)
    (op,) = resolve_stream_ops(path, {})
    assert op.name == "r.jsonl"
    with pytest.raises(ValueError, match="unknown stream target"):
        resolve_stream_ops("nope", {})


# -- StreamOp construction rules ---------------------------------------------


def test_stream_op_requires_source():
    from repro.apps.streams import STREAM_SUM

    with pytest.raises(ValueError, match="requires a source"):
        StreamOp(name="s", kernel=STREAM_SUM)


def test_stream_page_cost_shape_checked():
    with pytest.raises(ValueError, match="declared costs"):
        StreamPage(payloads=[[1.0], [2.0]], costs=[1.0])


def test_sim_backend_refuses_streams():
    (op,) = stream_ops(records=100)
    with pytest.raises(ValueError, match="sim backend"):
        api.run(op, RunConfig(backend="sim"))


# -- decaying cost statistics ------------------------------------------------


def test_decaying_stats_track_drift():
    flat = DecayingStats(alpha=0.2)
    for _ in range(50):
        flat.update(10.0)
    assert flat.mean == pytest.approx(10.0)
    assert flat.stddev == pytest.approx(0.0, abs=1e-9)

    drifting = DecayingStats(alpha=0.2)
    for _ in range(50):
        drifting.update(10.0)
    for _ in range(50):
        drifting.update(100.0)
    # The EWMA forgets the cheap prefix; a full-history mean would sit
    # at 55 forever.
    assert drifting.mean > 95.0


def test_cost_function_decay_selects_decaying_stats():
    fn = CostFunction(decay=0.1)
    assert isinstance(fn.stats, DecayingStats)
    fn.observe(0, 5.0)
    assert fn.stats.mean == 5.0
    assert isinstance(CostFunction().stats, DecayingStats) is False


# -- mp execution: totals, ordering, backpressure ----------------------------


def test_stream_run_exact_total_and_ordered_sink():
    delivered = []
    (op,) = stream_ops(
        records=20_000,
        records_per_task=100,
        page_records=2_000,
        sink=delivered.append,
    )
    tracer = Tracer()
    result = api.run(op, MP_CFG.with_(tracer=tracer, stream_window=2))
    assert result.value_total == synthetic_total(20_000)
    assert result.tasks == 200

    # Sink delivery is in page order, exactly once per page.
    assert [page.seq for page in delivered] == list(range(10))
    assert all(isinstance(page, PageResult) for page in delivered)
    assert sum(page.value for page in delivered) == synthetic_total(20_000)
    assert sum(page.tasks for page in delivered) == 200

    info = result.stream["stream"]
    assert info["pages"] == 10
    assert info["tasks"] == 200
    assert info["backpressure_events"] >= 1
    assert info["page_latency_p99"] >= info["page_latency_p50"] >= 0.0

    kinds = {event.kind for event in tracer.events}
    assert STREAM_PAGE in kinds
    assert STREAM_BACKPRESSURE in kinds
    settles = [
        event
        for event in tracer.events
        if event.kind == STREAM_PAGE and event.attrs.get("state") == "settle"
    ]
    assert len(settles) == 10


def test_stream_run_declared_cost_mode():
    (op,) = stream_ops(records=5_000, records_per_task=50, page_records=1_000)
    result = api.run(op, MP_CFG.with_(cost_source="declared"))
    assert result.value_total == synthetic_total(5_000)


def test_stream_json_run_by_cli_flag(tmp_path):
    path = str(tmp_path / "records.jsonl")
    expected = write_json_records(path, 5_000, records_per_task=50)
    result = api.run(path, MP_CFG, stream=True, page_tasks=25)
    assert result.value_total == expected
    assert result.tasks == 100


def test_window_bounds_what_waits_on_a_stream():
    # The window is the one gate: admission pauses at ``stream_window``
    # unsettled pages, so at most that many pages' tasks ever wait.
    (op,) = stream_ops(records=4_000, records_per_task=100, page_records=400)
    tracer = Tracer()
    result = api.run(op, MP_CFG.with_(tracer=tracer, stream_window=2))
    assert result.value_total == synthetic_total(4_000)
    gates = tracer.by_kind(STREAM_BACKPRESSURE)
    pauses = [event for event in gates if event.attrs["state"] == "pause"]
    assert len(pauses) == result.stream["stream"]["backpressure_events"] > 0
    for event in pauses:
        assert event.attrs["pages"] == 2
        assert event.attrs["waiting"] <= 2 * 4  # 4 tasks a page
    assert not any("reason" in event.attrs for event in gates)


def test_serve_resolve_ops_rejects_stream_workloads():
    # resolve_ops flattens a stream like any target (api.run executes
    # what it returns); refusing one is the daemon's admission policy.
    from ..serve.servers import process_server

    ops, deps, label = api.resolve_ops("stream", MP_CFG)
    assert [op.is_stream for op in ops] == [True] and label == "stream"
    server = process_server(1)
    try:
        ok, reason = server.submit("stream")
    finally:
        server.drain("test teardown")
    assert not ok and "cannot share the serve pool" in reason


# -- the acceptance scenario: 1M records, coordkill -> resume ----------------


STREAM_ARGS = (
    "run",
    "stream",
    "--backend",
    "mp",
    "-p",
    "2",
    "--stream-records",
    "1000000",
    "--records-per-task",
    "500",
    "--page-records",
    "50000",
    "--window",
    "2",
)


def test_million_record_stream_coordkill_resume_exact(tmp_path):
    """Its 400 KB pages ride shared memory: no segment outlives the
    killed run or the resume."""
    ckpt = str(tmp_path / "ckpt")
    expected = synthetic_total(1_000_000)
    segments = procs.repro_segments()

    rc, stdout, stderr = procs.repro(
        *STREAM_ARGS, "--checkpoint", ckpt, "--inject-fault", "coordkill:*:12"
    )
    assert rc == COORDINATOR_KILL_EXIT, stderr

    rc, stdout, stderr = procs.repro(
        "run", "--backend", "mp", "--resume", ckpt
    )
    assert rc == 0, stderr
    assert f"value_total={expected:.0f}" in stdout
    assert "resumed:" in stdout, (
        "resume re-ran the whole stream instead of restoring the "
        f"journaled prefix:\n{stdout}"
    )
    assert "tasks=2000" in stdout and "data plane:" in stdout
    assert procs.repro_segments() <= segments
