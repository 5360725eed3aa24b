"""Typed runtime event stream (the `repro.obs` foundation).

Every interesting decision the simulated runtime makes — a chunk acquired
or completed, a task dispatched, a message sent, a TAPER epoch advancing,
a chunk re-assigned to a thief, an Eq. 1 allocation decision, a pipeline
stage — is recorded as one :class:`Event` on a :class:`Tracer`.

Design rules:

* **Zero overhead when disabled.**  Instrumented code paths take an
  optional ``tracer`` that defaults to ``None``; hot loops hoist the
  ``tracer is not None`` test out of the loop or pay a single pointer
  comparison per event site.  No event objects are built when tracing is
  off.
* **Deterministic.**  Events are appended in simulation order and carry
  only simulated time; the same workload and seed produce a byte-identical
  stream (see :meth:`Tracer.to_jsonl`).
* **Self-contained.**  This module imports nothing from the runtime, so
  the runtime can import it freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

# ---------------------------------------------------------------------------
# Event kinds
# ---------------------------------------------------------------------------

#: A processor acquired a chunk (one scheduling event).  ``dur`` carries the
#: scheduling overhead paid (dispatch + amortised epoch share).
CHUNK_ACQUIRE = "chunk.acquire"
#: A processor finished the executed portion of a chunk claim.
CHUNK_COMPLETE = "chunk.complete"
#: The root re-assigned the tail of a claim to a faster processor.
CHUNK_REASSIGN = "chunk.reassign"
#: One task executed.  ``dur`` is the task's compute cost.
TASK_DISPATCH = "task.dispatch"
#: Point-to-point message injected (steal transfers, pipeline batches).
MSG_SEND = "msg.send"
#: Point-to-point message delivered.  ``dur`` is the transfer time.
MSG_RECV = "msg.recv"
#: The distributed-TAPER global epoch advanced (root saw p tokens).
EPOCH_ADVANCE = "epoch.advance"
#: One token-gather + broadcast round on the binary tree.
TOKEN_ROUND = "epoch.token_round"
#: TAPER chose a chunk size (attrs carry beta, the cost-function scale...).
TAPER_DECISION = "taper.decision"
#: The Eq. 1 balancer fixed a processor split (attrs: shares, labels,
#: width = the live processors it rationed; the simulator adds its
#: estimates).
ALLOC_DECIDE = "alloc.decide"
#: One pipeline stage executed (attrs: stage, iteration, share).
PIPELINE_STAGE = "pipeline.stage"
#: Communication granularity chosen for a pipelined pair.
GRANULARITY_DECIDE = "granularity.decide"
#: A parallel operation entered / left the running set (begin attrs:
#: tasks = its size then; a stream's pages add theirs as admitted).
OP_BEGIN = "op.begin"
OP_END = "op.end"
#: A worker the session held died (attrs: tasks = in-flight tasks lost,
#: exitcode = its exit status, -N for signal N, ``None`` if unknown).
WORKER_DIED = "fault.worker_died"
#: A chunk failed (kernel exception) and was re-enqueued with backoff
#: (attrs: attempt, backoff, tasks; quarantined = the indices whose
#: retry budget ran out here).
CHUNK_RETRIED = "chunk.retry"
#: The fault-injection harness fired a planned fault
#: (attrs: fault kind, target worker).
FAULT_INJECTED = "fault.injected"
#: A straggler chunk was duplicated onto an idle worker
#: (attrs: tasks, victim = the slow worker, elapsed, expected).
CHUNK_SPECULATE = "chunk.speculate"
#: A completed task's result arrived after another copy already
#: delivered it; the duplicate was dropped, not double-counted
#: (attrs: tasks = duplicate count, indices, speculative).
CHUNK_DUPLICATE_DROPPED = "chunk.duplicate_dropped"
#: A whole TAPER chunk executed as one vectorized ``Kernel.batch_fn``
#: call instead of per-task Python calls (attrs: tasks_per_call = tasks
#: delivered by the one call, zero_copy = results written in place in
#: the shm result buffer).  ``dur`` is the chunk's measured wall time.
CHUNK_BATCHED = "chunk.batched"
#: One chunk record appended to the durable journal
#: (attrs: tasks, synced = whether this append fsynced).
CHECKPOINT_WRITE = "checkpoint.write"
#: A journal write or fsync failed; the run stops there (attrs: call,
#: error, durable = records the last good fsync covered).
CHECKPOINT_FAILED = "checkpoint.failed"
#: The journal was replayed at startup (attrs: tasks, chunks, dropped,
#: duplicates, restored = op label -> the task indices settled from it).
RUN_RESUMED = "run.resumed"
#: The run returned its result (attrs: tasks = settled, restored ones
#: included; bytes_shipped on a real fleet).
RUN_END = "run.end"
#: The run was cancelled gracefully — SIGINT/SIGTERM or the wall-clock
#: limit — after a drain-checkpoint-exit sequence
#: (attrs: reason, remaining = tasks left undone).
RUN_CANCELLED = "run.cancelled"
#: One key's payloads + result buffer (a fixed op's, or one stream
#: page's) were laid out in shared-memory segments at their first load
#: (attrs: mode = array/scalar/tuple, payload_bytes, result_bytes,
#: segment, reused = payload came verified from the segment cache
#: instead of being laid out).
SHM_MAP = "shm.map"
#: A worker attached zero-copy views of an op's shm segments
#: (attrs: bytes; ``proc`` is the attaching worker).
SHM_ATTACH = "shm.attach"
#: One ``Fleet.load`` of a key where ``proc`` runs (attrs: key, plane,
#: bytes_shipped = what this load moved).
KEY_LOAD = "key.load"
#: The session gave a key up everywhere (attrs: key).
KEY_UNLOAD = "key.unload"
#: -- streaming lane (StreamOp ingestion) ----------------------------------
#: One stream page admitted or settled (attrs: page = sequence number,
#: base = first global task index, tasks; settle events additionally
#: carry ``dur`` = admission-to-settle latency and ``value``).
STREAM_PAGE = "stream.page"
#: Stream admission paused or resumed at the ``stream_window`` of
#: unsettled pages (attrs: state = "pause"/"resume", waiting = tasks
#: pending + in flight, pages = unsettled pages).  Edge-triggered: one
#: event per transition.
STREAM_BACKPRESSURE = "stream.backpressure"
#: -- job lifecycle lane (the `repro serve` daemon) ------------------------
#: A job arrived (attrs: job ("" with rejected=reason), target, priority).
JOB_SUBMITTED = "job.submitted"
#: Admission control accepted the job into the bounded queue
#: (attrs: job, queued = jobs ahead of it).
JOB_ADMITTED = "job.admitted"
#: The job left the queue and its session began executing
#: (attrs: job, workers = its initial grant).
JOB_STARTED = "job.started"
#: The job finished cleanly (attrs: job, value_total, makespan).
JOB_DONE = "job.done"
#: The job's session raised (attrs: job, error).
JOB_FAILED = "job.failed"
#: The job was cancelled — client request or daemon drain — through the
#: graceful cancel path (attrs: job, reason, resume_dir).
JOB_CANCELLED = "job.cancelled"
#: -- elastic pool lane (resident WorkerPool self-healing) -----------------
#: A dead pool slot was respawned (attrs: slot, attempt = deaths in the
#: rolling window, backoff = seconds waited before this attempt).
POOL_RESPAWN = "pool.respawn"
#: A dormant slot was started because the serve load is compute-bound
#: (attrs: slot, width = live + pending workers after the grow).
POOL_GROW = "pool.grow"
#: An idle worker was stopped cooperatively after ``idle_timeout``
#: (attrs: slot, idle = seconds it sat free, width).
POOL_SHRINK = "pool.shrink"
#: A crash-looping slot tripped the circuit breaker and will not be
#: respawned (attrs: slot, deaths, window).
POOL_QUARANTINE = "pool.quarantine"
#: A cached shm payload segment was evicted: past the cache byte budget,
#: or displaced by a payload that collided with its probe key
#: (attrs: probe_key = key prefix, bytes, cache_bytes = total after,
#: segment = its name as ``shm.map`` records it, reclaimed = handed to
#: the miss that evicted it to lay out into, so a later ``shm.map``
#: names it again, instead of unlinked).
SHM_EVICT = "shm.evict"
#: -- multi-host lane (the `dist` backend) ---------------------------------
#: A host agent completed its handshake and joined the run
#: (attrs: host = --hosts index, addr, workers, width = global workers
#: after the join; ``proc`` is the host's first global worker id).
HOST_JOIN = "host.join"
#: A host agent was lost mid-run — connection dropped or silent too
#: long (attrs: host, addr, workers = workers it took down,
#: reclaimed = in-flight tasks requeued, width = surviving workers).
HOST_LOST = "host.lost"

ALL_KINDS = (
    CHUNK_ACQUIRE,
    CHUNK_COMPLETE,
    CHUNK_REASSIGN,
    TASK_DISPATCH,
    MSG_SEND,
    MSG_RECV,
    EPOCH_ADVANCE,
    TOKEN_ROUND,
    TAPER_DECISION,
    ALLOC_DECIDE,
    PIPELINE_STAGE,
    GRANULARITY_DECIDE,
    OP_BEGIN,
    OP_END,
    WORKER_DIED,
    CHUNK_RETRIED,
    FAULT_INJECTED,
    CHUNK_SPECULATE,
    CHUNK_DUPLICATE_DROPPED,
    CHUNK_BATCHED,
    CHECKPOINT_WRITE,
    CHECKPOINT_FAILED,
    RUN_RESUMED,
    RUN_END,
    RUN_CANCELLED,
    SHM_MAP,
    SHM_ATTACH,
    KEY_LOAD,
    KEY_UNLOAD,
    STREAM_PAGE,
    STREAM_BACKPRESSURE,
    JOB_SUBMITTED,
    JOB_ADMITTED,
    JOB_STARTED,
    JOB_DONE,
    JOB_FAILED,
    JOB_CANCELLED,
    POOL_RESPAWN,
    POOL_GROW,
    POOL_SHRINK,
    POOL_QUARANTINE,
    SHM_EVICT,
    HOST_JOIN,
    HOST_LOST,
)


@dataclass
class Event:
    """One runtime event on the simulated clock.

    ``time`` is the event's start in work units (already shifted by the
    tracer's origin), ``dur`` its extent (0 for instants), ``proc`` the
    simulated processor (-1 when not processor-specific), ``op`` the
    parallel-operation label, and ``attrs`` kind-specific details.
    """

    kind: str
    time: float
    dur: float = 0.0
    proc: int = -1
    op: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.time + self.dur

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "time": self.time,
            "dur": self.dur,
            "proc": self.proc,
            "op": self.op,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    """Collects the event stream of one simulated run.

    ``origin`` shifts emitted times onto a shared timeline: the simulators
    each start their local clock at zero, so a driver that runs several
    operations back to back calls :meth:`advance` with each makespan to
    lay them end to end.  ``now`` is a scratch clock that instrumented
    run loops keep updated so that deep components (the TAPER policy, the
    allocator) can stamp events without threading clocks through every
    signature.
    """

    __slots__ = ("events", "origin", "now")

    def __init__(self) -> None:
        self.events: List[Event] = []
        self.origin: float = 0.0
        self.now: float = 0.0

    def emit(
        self,
        kind: str,
        time: float,
        dur: float = 0.0,
        proc: int = -1,
        op: str = "",
        **attrs: Any,
    ) -> None:
        self.events.append(
            Event(kind, self.origin + time, dur, proc, op, attrs)
        )

    def advance(self, dt: float) -> None:
        """Shift the origin forward by ``dt`` (one completed sub-run)."""
        self.origin += dt

    def __len__(self) -> int:
        return len(self.events)

    def makespan(self) -> float:
        """Latest event end seen so far."""
        if not self.events:
            return 0.0
        return max(event.end for event in self.events)

    def by_kind(self, kind: str) -> List[Event]:
        return [event for event in self.events if event.kind == kind]

    def to_jsonl(self) -> str:
        """Canonical one-event-per-line serialisation.

        Deterministic byte-for-byte for a deterministic simulation: keys
        are sorted, separators fixed, floats rendered by ``repr``.
        """
        return events_to_jsonl(self.events)


def events_to_jsonl(events: Iterable[Event]) -> str:
    lines = [
        json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))
        for event in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def events_from_jsonl(text: str) -> List[Event]:
    events: List[Event] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        raw = json.loads(line)
        events.append(
            Event(
                kind=raw["kind"],
                time=raw["time"],
                dur=raw.get("dur", 0.0),
                proc=raw.get("proc", -1),
                op=raw.get("op", ""),
                attrs=raw.get("attrs", {}),
            )
        )
    return events
