"""Aggregating the event stream into runtime metrics.

Turns the raw :mod:`repro.obs.events` stream into the quantities the
paper argues about: per-processor utilization, load imbalance, the
overhead breakdown (compute vs scheduling vs communication vs idle),
message/byte counts, epoch counts, and per-operation summaries.

Time accounting: every timed event carries its duration in one of three
cost categories —

* **compute** — :data:`~repro.obs.events.TASK_DISPATCH` durations,
* **sched**   — :data:`~repro.obs.events.CHUNK_ACQUIRE` durations (chunk
  dispatch + amortised epoch-tree share) plus per-task dispatch overhead
  (the ``overhead`` attr of task events),
* **comm**    — :data:`~repro.obs.events.MSG_RECV` durations (transfer
  time charged to the receiving processor).

Idle is what remains of ``makespan`` on each processor lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .events import (
    CHECKPOINT_WRITE,
    CHUNK_ACQUIRE,
    CHUNK_BATCHED,
    CHUNK_DUPLICATE_DROPPED,
    CHUNK_REASSIGN,
    CHUNK_RETRIED,
    CHUNK_SPECULATE,
    EPOCH_ADVANCE,
    Event,
    FAULT_INJECTED,
    MSG_RECV,
    MSG_SEND,
    POOL_GROW,
    POOL_QUARANTINE,
    POOL_RESPAWN,
    POOL_SHRINK,
    RUN_CANCELLED,
    SHM_ATTACH,
    SHM_MAP,
    STREAM_BACKPRESSURE,
    STREAM_PAGE,
    TASK_DISPATCH,
    WORKER_DIED,
)


@dataclass
class ProcMetrics:
    """One simulated processor's accounting."""

    proc: int
    compute: float = 0.0
    sched: float = 0.0
    comm: float = 0.0
    tasks: int = 0
    chunks: int = 0
    tasks_stolen: int = 0  # tasks this processor took from victims
    tasks_lost: int = 0  # tasks re-assigned away from this processor
    finish: float = 0.0  # last event end on this lane

    def idle(self, makespan: float) -> float:
        return max(0.0, makespan - self.compute - self.sched - self.comm)

    def utilization(self, makespan: float) -> float:
        if makespan <= 0:
            return 1.0
        return self.compute / makespan

    def to_dict(self, makespan: float) -> Dict[str, Any]:
        return {
            "proc": self.proc,
            "compute": self.compute,
            "sched": self.sched,
            "comm": self.comm,
            "idle": self.idle(makespan),
            "utilization": self.utilization(makespan),
            "tasks": self.tasks,
            "chunks": self.chunks,
            "tasks_stolen": self.tasks_stolen,
            "tasks_lost": self.tasks_lost,
            "finish": self.finish,
        }


@dataclass
class OpMetrics:
    """Per-parallel-operation accounting (grouped by event ``op`` label)."""

    op: str
    work: float = 0.0
    tasks: int = 0
    chunks: int = 0
    start: float = math.inf
    end: float = 0.0

    @property
    def span(self) -> float:
        if self.end <= self.start:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "work": self.work,
            "tasks": self.tasks,
            "chunks": self.chunks,
            "start": 0.0 if math.isinf(self.start) else self.start,
            "end": self.end,
            "span": self.span,
        }


@dataclass
class MetricsReport:
    """The aggregated view of one traced run."""

    makespan: float
    processors: int
    per_proc: List[ProcMetrics]
    per_op: Dict[str, OpMetrics]
    messages: int
    bytes_moved: float
    epochs: int
    reassignments: int
    tasks_moved: int
    #: Fault-recovery accounting (zero on clean runs).
    workers_died: int = 0
    chunk_retries: int = 0
    faults_injected: int = 0
    #: Durability accounting (mp backend with checkpoint/speculation).
    chunks_speculated: int = 0
    duplicates_dropped: int = 0
    checkpoint_writes: int = 0
    #: Of those writes, the ones whose append paid an fsync.
    checkpoint_syncs: int = 0
    runs_cancelled: int = 0
    #: Data-plane accounting (mp backend with the shm data plane).
    shm_ops_mapped: int = 0
    shm_attaches: int = 0
    shm_bytes: float = 0.0
    #: Batched-kernel accounting (mp backend with ``batching`` enabled).
    batched_chunks: int = 0
    batched_tasks: int = 0
    #: Streaming-ingestion accounting (mp backend with StreamOps).
    stream_pages_admitted: int = 0
    stream_pages_settled: int = 0
    stream_tasks: int = 0
    stream_backpressure_events: int = 0
    #: p99 admission-to-settle page latency (0 when no pages settled).
    stream_page_latency_p99: float = 0.0
    #: Elastic-pool accounting (resident WorkerPool self-healing).
    pool_respawns: int = 0
    pool_grows: int = 0
    pool_shrinks: int = 0
    pool_quarantines: int = 0

    # -- derived ------------------------------------------------------------

    @property
    def stream_tasks_per_second(self) -> float:
        """Sustained streaming throughput over the run's makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.stream_tasks / self.makespan

    @property
    def total_compute(self) -> float:
        return sum(m.compute for m in self.per_proc)

    @property
    def total_sched(self) -> float:
        return sum(m.sched for m in self.per_proc)

    @property
    def total_comm(self) -> float:
        return sum(m.comm for m in self.per_proc)

    @property
    def total_idle(self) -> float:
        return sum(m.idle(self.makespan) for m in self.per_proc)

    @property
    def utilization(self) -> float:
        """Mean fraction of processor-time spent computing."""
        if self.makespan <= 0 or self.processors <= 0:
            return 1.0
        return self.total_compute / (self.processors * self.makespan)

    @property
    def load_imbalance(self) -> float:
        """(max - mean) / mean of per-processor compute time.

        0 means perfectly balanced; 1 means the most loaded processor did
        twice the mean — i.e. makespan has ~2x headroom over ideal.
        """
        busies = [m.compute for m in self.per_proc]
        if not busies:
            return 0.0
        mean = sum(busies) / len(busies)
        if mean <= 0:
            return 0.0
        return (max(busies) - mean) / mean

    def breakdown(self) -> Dict[str, float]:
        """Fractions of total processor-time by category (sums to ~1)."""
        total = self.processors * self.makespan
        if total <= 0:
            return {"compute": 1.0, "sched": 0.0, "comm": 0.0, "idle": 0.0}
        return {
            "compute": self.total_compute / total,
            "sched": self.total_sched / total,
            "comm": self.total_comm / total,
            "idle": self.total_idle / total,
        }

    def chunks_histogram(self) -> Dict[int, int]:
        """chunks-acquired count keyed by processor index."""
        return {m.proc: m.chunks for m in self.per_proc}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "makespan": self.makespan,
            "processors": self.processors,
            "utilization": self.utilization,
            "load_imbalance": self.load_imbalance,
            "breakdown": self.breakdown(),
            "totals": {
                "compute": self.total_compute,
                "sched": self.total_sched,
                "comm": self.total_comm,
                "idle": self.total_idle,
            },
            "messages": self.messages,
            "bytes_moved": self.bytes_moved,
            "epochs": self.epochs,
            "reassignments": self.reassignments,
            "tasks_moved": self.tasks_moved,
            "workers_died": self.workers_died,
            "chunk_retries": self.chunk_retries,
            "faults_injected": self.faults_injected,
            "chunks_speculated": self.chunks_speculated,
            "duplicates_dropped": self.duplicates_dropped,
            "checkpoint_writes": self.checkpoint_writes,
            "checkpoint_syncs": self.checkpoint_syncs,
            "runs_cancelled": self.runs_cancelled,
            "shm_ops_mapped": self.shm_ops_mapped,
            "shm_attaches": self.shm_attaches,
            "shm_bytes": self.shm_bytes,
            "batched_chunks": self.batched_chunks,
            "batched_tasks": self.batched_tasks,
            "stream_pages_admitted": self.stream_pages_admitted,
            "stream_pages_settled": self.stream_pages_settled,
            "stream_tasks": self.stream_tasks,
            "stream_backpressure_events": self.stream_backpressure_events,
            "stream_page_latency_p99": self.stream_page_latency_p99,
            "stream_tasks_per_second": self.stream_tasks_per_second,
            "pool_respawns": self.pool_respawns,
            "pool_grows": self.pool_grows,
            "pool_shrinks": self.pool_shrinks,
            "pool_quarantines": self.pool_quarantines,
            "chunks_per_processor": {
                str(proc): count
                for proc, count in sorted(self.chunks_histogram().items())
            },
            "per_processor": [
                m.to_dict(self.makespan) for m in self.per_proc
            ],
            "per_op": {
                name: om.to_dict() for name, om in sorted(self.per_op.items())
            },
        }


def aggregate(
    events: Sequence[Event], processors: Optional[int] = None
) -> MetricsReport:
    """Fold an event stream into a :class:`MetricsReport`.

    ``processors`` fixes the lane count (so fully idle processors still
    appear); by default it is inferred as ``max(proc) + 1`` over the
    stream.
    """
    max_proc = -1
    for event in events:
        if event.proc > max_proc:
            max_proc = event.proc
    lanes = max(processors or 0, max_proc + 1)
    per_proc = [ProcMetrics(proc=index) for index in range(lanes)]
    per_op: Dict[str, OpMetrics] = {}
    messages = 0
    bytes_moved = 0.0
    epochs = 0
    reassignments = 0
    tasks_moved = 0
    workers_died = 0
    chunk_retries = 0
    faults_injected = 0
    chunks_speculated = 0
    duplicates_dropped = 0
    checkpoint_writes = 0
    checkpoint_syncs = 0
    runs_cancelled = 0
    shm_ops_mapped = 0
    shm_attaches = 0
    shm_bytes = 0.0
    batched_chunks = 0
    batched_tasks = 0
    stream_pages_admitted = 0
    stream_pages_settled = 0
    stream_tasks = 0
    stream_backpressure_events = 0
    pool_respawns = 0
    pool_grows = 0
    pool_shrinks = 0
    pool_quarantines = 0
    stream_settle_latencies: List[float] = []
    # Makespan from processor-lane events when any exist (machine-level
    # instants like token rounds carry amortised durations that would
    # overshoot the real finish); summary-only streams (pipeline stages,
    # graph executor) fall back to all events.
    lane_makespan = 0.0
    any_makespan = 0.0

    for event in events:
        end = event.end
        if end > any_makespan:
            any_makespan = end
        if event.proc >= 0 and end > lane_makespan:
            lane_makespan = end
        pm = per_proc[event.proc] if 0 <= event.proc < lanes else None
        if pm is not None and end > pm.finish:
            pm.finish = end
        if event.kind == TASK_DISPATCH:
            if pm is not None:
                pm.compute += event.dur
                pm.sched += event.attrs.get("overhead", 0.0)
                pm.tasks += 1
            if event.op:
                om = per_op.get(event.op)
                if om is None:
                    om = per_op[event.op] = OpMetrics(op=event.op)
                om.work += event.dur
                om.tasks += 1
                if event.time < om.start:
                    om.start = event.time
                if end > om.end:
                    om.end = end
        elif event.kind == CHUNK_ACQUIRE:
            if pm is not None:
                pm.sched += event.dur
                pm.chunks += 1
            if event.op:
                om = per_op.get(event.op)
                if om is None:
                    om = per_op[event.op] = OpMetrics(op=event.op)
                om.chunks += 1
        elif event.kind == MSG_RECV:
            if pm is not None:
                pm.comm += event.dur
        elif event.kind == MSG_SEND:
            messages += 1
            bytes_moved += event.attrs.get("bytes", 0.0)
        elif event.kind == EPOCH_ADVANCE:
            epochs += 1
        elif event.kind == CHUNK_REASSIGN:
            reassignments += 1
            moved = event.attrs.get("tasks", 0)
            tasks_moved += moved
            if pm is not None:
                pm.tasks_stolen += moved
            victim = event.attrs.get("victim", -1)
            if 0 <= victim < lanes:
                per_proc[victim].tasks_lost += moved
        elif event.kind == WORKER_DIED:
            workers_died += 1
        elif event.kind == CHUNK_RETRIED:
            chunk_retries += 1
        elif event.kind == FAULT_INJECTED:
            faults_injected += 1
        elif event.kind == CHUNK_SPECULATE:
            chunks_speculated += 1
        elif event.kind == CHUNK_DUPLICATE_DROPPED:
            duplicates_dropped += event.attrs.get("tasks", 1)
        elif event.kind == CHECKPOINT_WRITE:
            checkpoint_writes += 1
            checkpoint_syncs += bool(event.attrs.get("synced"))
        elif event.kind == RUN_CANCELLED:
            runs_cancelled += 1
        elif event.kind == SHM_MAP:
            shm_ops_mapped += 1
            shm_bytes += event.attrs.get("payload_bytes", 0.0)
            shm_bytes += event.attrs.get("result_bytes", 0.0)
        elif event.kind == SHM_ATTACH:
            shm_attaches += 1
        elif event.kind == CHUNK_BATCHED:
            batched_chunks += 1
            batched_tasks += event.attrs.get("tasks_per_call", 0)
        elif event.kind == STREAM_PAGE:
            if event.attrs.get("state") == "settle":
                stream_pages_settled += 1
                stream_tasks += event.attrs.get("tasks", 0)
                stream_settle_latencies.append(event.dur)
            else:
                stream_pages_admitted += 1
        elif event.kind == STREAM_BACKPRESSURE:
            if event.attrs.get("state") == "pause":
                stream_backpressure_events += 1
        elif event.kind == POOL_RESPAWN:
            pool_respawns += 1
        elif event.kind == POOL_GROW:
            pool_grows += 1
        elif event.kind == POOL_SHRINK:
            pool_shrinks += 1
        elif event.kind == POOL_QUARANTINE:
            pool_quarantines += 1

    p99 = 0.0
    if stream_settle_latencies:
        ordered = sorted(stream_settle_latencies)
        p99 = ordered[
            min(len(ordered) - 1, int(math.ceil(0.99 * len(ordered))) - 1)
        ]
    makespan = lane_makespan if lane_makespan > 0 else any_makespan
    return MetricsReport(
        makespan=makespan,
        processors=lanes,
        per_proc=per_proc,
        per_op=per_op,
        messages=messages,
        bytes_moved=bytes_moved,
        epochs=epochs,
        reassignments=reassignments,
        tasks_moved=tasks_moved,
        workers_died=workers_died,
        chunk_retries=chunk_retries,
        faults_injected=faults_injected,
        chunks_speculated=chunks_speculated,
        duplicates_dropped=duplicates_dropped,
        checkpoint_writes=checkpoint_writes,
        checkpoint_syncs=checkpoint_syncs,
        runs_cancelled=runs_cancelled,
        shm_ops_mapped=shm_ops_mapped,
        shm_attaches=shm_attaches,
        shm_bytes=shm_bytes,
        batched_chunks=batched_chunks,
        batched_tasks=batched_tasks,
        stream_pages_admitted=stream_pages_admitted,
        stream_pages_settled=stream_pages_settled,
        stream_tasks=stream_tasks,
        stream_backpressure_events=stream_backpressure_events,
        stream_page_latency_p99=p99,
        pool_respawns=pool_respawns,
        pool_grows=pool_grows,
        pool_shrinks=pool_shrinks,
        pool_quarantines=pool_quarantines,
    )
