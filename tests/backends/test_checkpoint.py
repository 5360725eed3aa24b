"""Durability of the mp backend: journal, resume, speculation, cancel.

The acceptance scenario lives here: a run killed at the *coordinator*
level, resumed from its chunk journal, must produce value totals
identical to an uninterrupted run — without re-executing any journaled
chunk (asserted through chunk-dispatch counts in the trace).  The
suite-wide SIGALRM guard in ``tests/conftest.py`` turns hangs into loud
failures.
"""

import os
import signal
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.apps.streams import synthetic_total
from repro.obs import Tracer, aggregate
from repro.obs.audit import Run, check
from repro.obs.events import (
    CHECKPOINT_WRITE,
    CHUNK_ACQUIRE,
    CHUNK_SPECULATE,
    RUN_RESUMED,
    TASK_DISPATCH,
)
from repro.runtime.backends import MultiprocessingBackend
from repro.runtime.backends.mp import WorkerPool, _Flight, _MpSession
from repro.runtime.checkpoint import (
    SYNC_WORTH_S,
    CheckpointError,
    CheckpointMismatchError,
    ChunkJournal,
    JournalFailedError,
    ChunkRecord,
    RunManifest,
    init_checkpoint_dir,
    journal_path,
    load_manifest,
    read_journal,
)
from repro.runtime.config import RunConfig
from repro.runtime.faults import (
    DISK_ERRORS,
    JOURNAL_FAIL_EXIT,
    CoordinatorKilled,
    FaultPlan,
)
from repro.runtime.kernel import Kernel
from repro.runtime.task import RealOp

from .. import procs

#: Fingerprint-relevant knobs shared by every run of the `reduction`
#: workload in this file — a kill/resume pair must agree on these.
REDUCTION_CFG = RunConfig(
    processors=2,
    backend="mp",
    cost_source="declared",
    mp_timeout=60.0,
    retry_backoff=0.01,
)

PAYLOADS = [float(i) for i in range(60)]
EXPECTED = sum(PAYLOADS)


def identity_kernel(payload):
    return float(payload)


def identity_op(name="ident"):
    return RealOp(
        name=name,
        kernel=Kernel(fn=identity_kernel),
        payloads=list(PAYLOADS),
        costs=[1.0] * len(PAYLOADS),
    )


# -- config knobs ------------------------------------------------------------


def test_durability_knob_validation():
    with pytest.raises(ValueError):
        RunConfig(resume=True)  # resume needs a checkpoint_dir
    with pytest.raises(ValueError):
        RunConfig(speculation_factor=0.0)
    with pytest.raises(ValueError):
        RunConfig(wall_clock_limit=-1.0)


# -- manifest / fingerprint --------------------------------------------------


def test_manifest_roundtrip_and_mismatch(tmp_path):
    ops = [identity_op()]
    manifest = RunManifest.build(REDUCTION_CFG, ops)
    init_checkpoint_dir(str(tmp_path), manifest)
    stored = load_manifest(str(tmp_path))
    assert stored.fingerprint == manifest.fingerprint

    other = RunManifest.build(REDUCTION_CFG.with_(processors=5), ops)
    assert stored.fingerprint != other.fingerprint
    assert "processors" in stored.describe_mismatch(other)


#: The header a ``reduction`` run under ``REDUCTION_CFG`` wrote at
#: commit 718dec9, when ``RunConfig`` still had ``work_conserving``.
PARENT_HEADER = {
    "version": 2,
    "fingerprint": (
        "d8b69b51f9b34a1401cc87d10d87cfd014ad7f61d4443e74baf8fe99bc293700"
    ),
    "config": {
        "allocator": "balance", "backend": "mp", "batching": "auto",
        "cost_source": "declared", "min_chunk": 1, "policy": "taper",
        "processors": 2, "sample_tasks": 32, "seed": 0,
        "time_scale": 0.0002, "work_conserving": True,
    },
    "ops": [
        {
            "bytes_per_task": 128.0, "costs": "72ca878caa224dae",
            "name": "reduce", "size": 256,
        }
    ],
    "target": None,
}


def test_header_from_before_work_conserving_was_deleted_still_resumes(
    tmp_path, monkeypatch
):
    """The knob left ``RunConfig``; its constant stays in the
    fingerprint, so a journal the parent commit wrote still replays —
    also now that ``build`` shapes (and cost-hashes) each op once and
    hands the fingerprint the shapes."""
    from repro.apps.kernels import reduction_ops
    from repro.runtime import checkpoint

    shaped = []
    shape = checkpoint.op_shape
    monkeypatch.setattr(
        checkpoint, "op_shape", lambda op: shaped.append(op.name) or shape(op)
    )
    stored = RunManifest.from_dict(PARENT_HEADER)
    today = RunManifest.build(
        REDUCTION_CFG, reduction_ops(seed=REDUCTION_CFG.seed)
    )
    assert shaped == ["reduce"]
    assert not hasattr(REDUCTION_CFG, "work_conserving")
    assert today.config == stored.config
    assert today.ops == stored.ops
    assert today.fingerprint == stored.fingerprint
    init_checkpoint_dir(str(tmp_path), stored)
    resumed = api.run(
        "reduction",
        api.resume_config(str(tmp_path), REDUCTION_CFG),
    )
    assert resumed.tasks == 256


def test_resume_refuses_mismatched_config(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    result = api.run(
        "reduction", REDUCTION_CFG.with_(checkpoint_dir=ckpt)
    )
    assert result.tasks == 256

    backend = MultiprocessingBackend()
    mismatched = REDUCTION_CFG.with_(
        processors=3, checkpoint_dir=ckpt, resume=True
    )
    from repro.apps.kernels import reduction_ops

    with pytest.raises(CheckpointMismatchError) as excinfo:
        backend.run_ops(reduction_ops(seed=mismatched.seed), mismatched)
    assert "processors" in str(excinfo.value)
    assert "refusing" in str(excinfo.value)


# -- journal robustness ------------------------------------------------------


def _record(index, value, op_index=0):
    return ChunkRecord(
        op_index=op_index,
        label="ident",
        worker=0,
        time=float(index),
        tasks=[(index, 0.001, value, 0)],
    )


def _fresh_journal(directory, **kwargs):
    """A journal on a fresh checkpoint (header first, as a session's)."""
    manifest = RunManifest.build(REDUCTION_CFG, [identity_op()])
    return ChunkJournal(str(directory), header=manifest, **kwargs)


def test_journal_drops_only_torn_tail(tmp_path):
    journal = _fresh_journal(tmp_path)
    for i in range(3):
        journal.append(_record(i, float(i)))
    journal.close()
    # Simulate a crash mid-append: a torn, CRC-less final line.
    with open(journal_path(str(tmp_path)), "a") as handle:
        handle.write('deadbeef {"op_index": 0, "tasks"')

    replay = read_journal(str(tmp_path))
    assert replay.dropped == 1
    assert replay.tasks_restored == 3
    assert sorted(t[0] for r in replay.records for t in r.tasks) == [0, 1, 2]

    # A resume appends after the torn tail without gluing onto it.
    journal = ChunkJournal(str(tmp_path))
    journal.append(_record(3, 3.0))
    journal.close()
    replay = read_journal(str(tmp_path))
    assert replay.dropped == 1
    assert sorted(t[0] for r in replay.records for t in r.tasks) == [0, 1, 2, 3]


def test_headerless_or_version_1_directory_is_refused(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint journal"):
        load_manifest(str(tmp_path))
    # Format 1: manifest.json beside a journal that starts with a record.
    (tmp_path / "manifest.json").write_text("{}")
    journal = ChunkJournal(str(tmp_path))
    journal.append(_record(0, 0.0))
    journal.close()
    for reader in (load_manifest, read_journal, api.resume):
        with pytest.raises(CheckpointError, match="format 1"):
            reader(str(tmp_path))


def test_journal_drops_only_corrupted_middle_record(tmp_path):
    journal = _fresh_journal(tmp_path)
    for i in range(3):
        journal.append(_record(i, float(i)))
    journal.close()
    path = journal_path(str(tmp_path))
    lines = Path(path).read_text().splitlines()
    # lines[0] is the header; corrupt record 1's payload, keep its CRC.
    lines[2] = lines[2][:-5] + "XXXXX"
    Path(path).write_text("\n".join(lines) + "\n")

    replay = read_journal(str(tmp_path))
    assert replay.dropped == 1
    assert sorted(t[0] for r in replay.records for t in r.tasks) == [0, 2]


def test_journal_replay_dedups_task_indices(tmp_path):
    journal = _fresh_journal(tmp_path)
    journal.append(_record(7, 7.0))
    journal.append(_record(7, 7.0))  # duplicate (speculation race)
    journal.close()

    replay = read_journal(str(tmp_path))
    assert replay.duplicates == 1
    assert replay.tasks_restored == 1


# -- the acceptance scenario: coordinator kill -> resume ---------------------


def test_coordinator_kill_then_resume_matches_uninterrupted(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    killed = REDUCTION_CFG.with_(
        checkpoint_dir=ckpt, fault_plan=FaultPlan.kill_coordinator(at_chunk=4)
    )
    with pytest.raises(CoordinatorKilled):
        api.run("reduction", killed)
    assert os.listdir(ckpt) == ["journal.jsonl"]
    replay = read_journal(ckpt)
    assert replay.tasks_restored > 0, "kill left an empty journal"

    baseline = api.run("reduction", REDUCTION_CFG)
    tracer = Tracer()
    resumed = api.run(
        "reduction",
        REDUCTION_CFG.with_(
            checkpoint_dir=ckpt, resume=True, tracer=tracer
        ),
    )

    # Byte-identical totals: declared-cost reduction sums exact integers.
    assert resumed.value_total == baseline.value_total
    assert resumed.tasks == baseline.tasks == 256
    assert resumed.tasks_resumed == replay.tasks_restored

    # No journaled chunk runs again, and every task settles once.
    check(Run(tracer.events, {ckpt: read_journal(ckpt)}))
    assert any(e.kind == RUN_RESUMED for e in tracer.events)


def test_resume_of_completed_run_executes_nothing(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    first = api.run(
        "reduction", REDUCTION_CFG.with_(checkpoint_dir=ckpt)
    )
    tracer = Tracer()
    resumed = api.run(
        "reduction",
        REDUCTION_CFG.with_(
            checkpoint_dir=ckpt, resume=True, tracer=tracer
        ),
    )
    assert resumed.tasks_resumed == 256
    assert resumed.value_total == first.value_total
    assert not any(e.kind == CHUNK_ACQUIRE for e in tracer.events)
    assert not any(e.kind == TASK_DISPATCH for e in tracer.events)


# -- fsync accounting: durable at the acknowledgement ------------------------


@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync`` the checkpoint layer makes, as a live list of
    the journal size each one covered."""
    sizes = []
    real = os.fsync

    def recording(fd):
        real(fd)
        sizes.append(os.fstat(fd).st_size)

    monkeypatch.setattr("repro.runtime.checkpoint.os.fsync", recording)
    return sizes


def slow_kernel(payload):
    time.sleep(1.5 * SYNC_WORTH_S)  # every chunk is worth its own fsync
    return float(payload)


def slow_op(tasks):
    return RealOp(
        name="slow",
        kernel=Kernel(fn=slow_kernel),
        payloads=[float(i) for i in range(tasks)],
        costs=[1.0] * tasks,
    )


def test_short_run_syncs_once_into_one_file(tmp_path, fsyncs):
    # fig1's chunks hold a few ms of work between them: nothing is worth
    # a sync until the result is about to leave the run.
    from repro.apps.kernels import REAL_WORKLOADS

    ckpt = str(tmp_path / "ckpt")
    cfg = RunConfig(processors=2, backend="mp", checkpoint_dir=ckpt)
    result = MultiprocessingBackend().run_ops(
        REAL_WORKLOADS["fig1"](seed=0), cfg
    )
    assert os.listdir(ckpt) == ["journal.jsonl"]
    assert 1 <= len(fsyncs) <= 2
    assert fsyncs[-1] == os.path.getsize(journal_path(ckpt))
    assert result.journal_syncs == len(fsyncs)
    assert result.journal_bytes == fsyncs[-1]
    assert result.journal_records == result.chunks >= 2
    assert read_journal(ckpt).chunks_restored == result.journal_records


def test_chunks_worth_a_sync_get_one_each(tmp_path, fsyncs):
    tracer = Tracer()
    cfg = RunConfig(
        processors=2,
        backend="mp",
        checkpoint_dir=str(tmp_path / "ckpt"),
        tracer=tracer,
    )
    result = MultiprocessingBackend().run_ops([slow_op(12)], cfg)
    writes = [e for e in tracer.events if e.kind == CHECKPOINT_WRITE]
    assert len(writes) == result.journal_records == result.chunks
    assert all(e.attrs["synced"] for e in writes)
    # One fsync per chunk, as before group commit; close() finds
    # nothing left to sync.
    assert len(fsyncs) == result.journal_syncs == result.chunks
    report = aggregate(tracer.events, processors=2)
    assert report.checkpoint_syncs == report.checkpoint_writes == len(writes)


def test_stream_page_is_durable_before_its_sink_sees_it(tmp_path, fsyncs):
    from repro.apps.streams import stream_ops, synthetic_total

    ckpt = str(tmp_path / "ckpt")
    unsynced_at_sink = []

    def sink(page):
        unsynced_at_sink.append(
            os.path.getsize(journal_path(ckpt)) - (fsyncs[-1] if fsyncs else 0)
        )

    (op,) = stream_ops(
        records=10_000, records_per_task=100, page_records=2_000, sink=sink
    )
    result = api.run(
        op,
        RunConfig(
            processors=2, backend="mp", checkpoint_dir=ckpt, stream_window=2
        ),
    )
    assert result.value_total == synthetic_total(10_000)
    # Each page's records were fsynced before the sink was handed it.
    assert unsynced_at_sink == [0] * 5


# -- speculation -------------------------------------------------------------


def test_speculation_rescues_straggler_without_double_count():
    tracer = Tracer()
    cfg = RunConfig(
        processors=3,
        backend="mp",
        mp_timeout=60.0,
        retry_backoff=0.01,
        speculation_factor=2.0,
        fault_plan=FaultPlan.slow_chunk(1.0, at_chunk=1),
        tracer=tracer,
    )
    result = MultiprocessingBackend().run_ops([identity_op()], cfg)

    assert result.fault_report.chunks_speculated >= 1
    assert any(e.kind == CHUNK_SPECULATE for e in tracer.events)
    # Exactly-once accounting despite the duplicated chunk.
    assert result.value_total == EXPECTED
    assert result.tasks == len(PAYLOADS)


def test_speculative_dispatch_refilters_stale_live_set():
    # _maybe_speculate collects candidate (victim, live) pairs, then
    # dispatches after sorting; a report handled between collection and
    # dispatch can settle the victim's tasks.  The dispatch must
    # re-filter against completed/quarantined and keep the helper idle
    # when nothing is left — not ship a chunk of guaranteed-duplicate
    # work.
    cfg = RunConfig(
        processors=2,
        backend="mp",
        retry_backoff=0.01,
        speculation_factor=2.0,
    )
    sent = []
    pool = WorkerPool(2)  # never started: its sends are recorded
    pool.send = lambda wid, message: sent.append((wid, message))
    session = _MpSession([identity_op()], [set()], cfg, pool)
    state = session.ops[0]
    indices = [0, 1, 2]
    for index in indices:
        state.pending.remove(index)
    state.inflight.update(indices)
    victim_flight = _Flight(0, list(indices), 0.0)
    session.in_flight[0] = victim_flight
    session.idle = {1}

    # Stale case: every index settled after the live list was computed.
    state.completed.update(indices)
    assert not session._dispatch_speculative(0, list(indices))
    assert session.idle == {1}  # helper untouched
    assert not sent
    assert not victim_flight.speculated
    assert session.fault_report.chunks_speculated == 0

    # Partially stale: only the still-live suffix is duplicated.
    state.completed.clear()
    state.completed.add(0)
    assert session._dispatch_speculative(0, list(indices))
    assert session.idle == set()
    # The helper never ran this op: its lazy ``load`` precedes the run.
    assert [(wid, message[0]) for wid, message in sent] == [
        (1, "load"),
        (1, "run"),
    ]
    assert sent[-1][1] == ("run", 0, [1, 2], None, False)
    assert victim_flight.speculated
    assert session.fault_report.chunks_speculated == 1


def test_duplicate_report_is_dropped_not_double_counted():
    tracer = Tracer()
    cfg = RunConfig(
        processors=2,
        backend="mp",
        retry_backoff=0.01,
        tracer=tracer,
    )
    session = _MpSession([identity_op()], [set()], cfg, WorkerPool(2))
    state = session.ops[0]
    indices = [0, 1, 2]
    for index in indices:
        state.pending.remove(index)
    state.inflight.update(indices)
    primary = _Flight(0, list(indices), 0.0)
    helper = _Flight(0, list(indices), 0.0, speculative=True)
    records = [(i, 0.0, 0.001, float(i)) for i in indices]

    session._handle_report(1, (0, records), helper)  # helper wins
    assert state.value_total == sum(float(i) for i in indices)
    assert state.done_tasks == 3

    session._handle_report(0, (0, records), primary)  # straggler loses
    assert state.value_total == sum(float(i) for i in indices)
    assert state.done_tasks == 3
    assert session.fault_report.duplicate_results_dropped == 3
    check(Run(tracer.events))
    assert [e.attrs["indices"] for e in tracer.events
            if e.kind == "chunk.duplicate_dropped"] == [indices]


# -- graceful cancellation ---------------------------------------------------


def test_wall_clock_cancel_checkpoints_and_resumes(tmp_path, fsyncs):
    ckpt = str(tmp_path / "ckpt")
    cfg = RunConfig(
        processors=3,
        backend="mp",
        retry_backoff=0.01,
        checkpoint_dir=ckpt,
        wall_clock_limit=0.05,
        # at_chunk=1: the second global dispatch always exists (the
        # first taper chunk never covers all 60 tasks), so the stall
        # reliably holds the run open past the wall-clock limit.
        fault_plan=FaultPlan.slow_chunk(0.4, at_chunk=1),
    )
    backend = MultiprocessingBackend()
    cancelled = backend.run_ops([identity_op()], cfg)
    assert cancelled.cancelled, cancelled.fault_report.to_dict()
    assert cancelled.cancel_reason == "wall_clock_limit"
    assert cancelled.resume_dir == ckpt
    # Durable before the resume_dir is reported: the last fsync covers
    # every byte of the journal.
    assert fsyncs[-1] == os.path.getsize(journal_path(ckpt))

    resumed = backend.run_ops(
        [identity_op()],
        RunConfig(
            processors=3,
            backend="mp",
            retry_backoff=0.01,
            checkpoint_dir=ckpt,
            resume=True,
        ),
    )
    assert not resumed.cancelled
    assert resumed.value_total == EXPECTED
    assert resumed.tasks == len(PAYLOADS)
    assert resumed.tasks_resumed == cancelled.tasks


def test_cli_sigint_checkpoints_and_resume_exits_clean(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    proc = procs.spawn(
        "-m",
        "repro",
        "run",
        "reduction",
        "--backend",
        "mp",
        "-p",
        "2",
        "--cost-source",
        "declared",
        "--checkpoint",
        ckpt,
        "--inject-fault",
        "slow:*:1:3",
    )
    # Wait for the first durable journal record — the coordinator loop
    # (and its signal handler) is then provably up, and the injected 3 s
    # straggler keeps the run from finishing under us — then interrupt
    # the coordinator the way a terminal Ctrl-C would.
    def journaled_tasks():
        try:
            return read_journal(ckpt).tasks_restored
        except CheckpointError:  # no header yet: the run is starting
            return 0

    deadline = time.monotonic() + 20.0
    while (
        journaled_tasks() == 0
        and proc.poll() is None
        and time.monotonic() < deadline
    ):
        time.sleep(0.02)
    proc.send_signal(signal.SIGINT)
    stdout, stderr = proc.communicate(timeout=30)
    assert proc.returncode == 130, stderr
    assert "cancelled" in stdout
    assert read_journal(ckpt).tasks_restored > 0

    rc, stdout, stderr = procs.repro(
        "run", "--backend", "mp", "--resume", ckpt, timeout=60
    )
    assert rc == 0, stderr
    assert "resumed" in stdout


# -- a failing disk fails the run, by name -----------------------------------

STREAM = {"stream_records": 20_000, "records_per_task": 200,
          "page_records": 2_000}


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    call=st.sampled_from(["write", "fsync"]),
    at=st.integers(0, 14),
    error=st.sampled_from(sorted(DISK_ERRORS)),
)
def test_a_failed_journal_call_stops_the_run_and_resumes_from_its_last_sync(
    call, at, error
):
    """The ``diskfail`` term fails the journal's ``at``-th ``call``: the
    run stops there with :class:`JournalFailedError` (never retrying),
    its journal holds exactly the records the last good fsync covered,
    and a resume gives the closed-form total.  Each stream page's mark
    is fsynced, so the draws land across the whole run."""
    cfg = RunConfig(processors=2, backend="mp", mp_timeout=60.0)
    with tempfile.TemporaryDirectory() as ckpt:
        tracer = Tracer()
        plan = FaultPlan.parse(f"diskfail:{call}:{at}:{error}")
        try:
            api.run(
                "stream",
                cfg.with_(checkpoint_dir=ckpt, fault_plan=plan, tracer=tracer),
                **STREAM,
            )
        except JournalFailedError as failure:
            assert (failure.call, failure.errno) == (call, DISK_ERRORS[error])
            replay = read_journal(ckpt)
            assert len(replay.records) + len(replay.marks) == failure.durable
        check(Run(tracer.events))  # nothing acknowledged after it
        tracer = Tracer()
        resumed = api.run(
            "stream",
            cfg.with_(checkpoint_dir=ckpt, resume=True, tracer=tracer),
            **STREAM,
        )
        assert resumed.value_total == synthetic_total(STREAM["stream_records"])
        check(Run(tracer.events, {ckpt: read_journal(ckpt)}))


def test_cli_names_a_failed_journal_and_exits_with_its_own_status(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    status, _, stderr = procs.repro(
        "run", "reduction", "--backend", "mp", "-p", "2", "--checkpoint",
        ckpt, "--inject-fault", "diskfail:fsync:0:EIO",
    )
    assert status == JOURNAL_FAIL_EXIT
    assert stderr.startswith("JournalFailedError: [Errno 5] journal fsync")
