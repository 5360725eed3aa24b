"""Real parallel execution on a ``multiprocessing`` worker pool.

The paper's runtime on a real (shared-memory) machine instead of the
simulator: Delirium graph operations execute as actual Python callables
in child processes, and the Section 4 orchestration algorithms make the
real scheduling decisions —

* **TAPER chunk self-scheduling** — workers pull chunks from the
  coordinator; each chunk's size follows the Eq. 2 taper computed from
  the *sampled* mean/variance of task durations (wall-clock measured, or
  declared costs in ``cost_source="declared"`` mode for determinism);
* **Eq. 1 processor rationing** — when several operations are runnable
  at once, :func:`allocate_many` balances their predicted finishing
  times and the resulting shares become *worker-subset assignments*
  (worker w prefers chunks of its assigned operation; with
  ``work_conserving`` idle workers flow across operation boundaries);
* **pipelined stage overlap** — dependency-aware dispatch lets iteration
  i+1's independent stage run beside iteration i's dependent/merge work,
  exactly the paper's A_I / A_D / A_M overlap;
* **re-allocation at every change in the running set** — operation
  completion triggers a fresh Eq. 1 split, mirroring
  :class:`GraphExecutor`'s preemptive behaviour.

The coordinator is *centralized* (one queue pair per worker); the paper
notes the distributed protocol "degenerates into the centralized TAPER
algorithm" under skew, and at worker counts a single host offers the
tree protocol buys nothing.  ``RunConfig.sim_model="central"`` puts the
simulator in the matching topology for the equivalence suite.

**Who owns worker processes.**  :class:`WorkerPool`, and nothing else:
it spawns, handshakes, respawns and reaps every :func:`_worker_main`
process.  A session (:class:`_MpSession`) only *borrows* workers from a
:class:`~repro.runtime.backends.base.Fleet` — that docstring is the
whole contract between the two — and hands them back on every exit
path.  The pool is resident (:meth:`MultiprocessingBackend.prepare`,
``repro serve``), or ephemeral around one unprepared run.  Ops reach a
worker lazily — one ``load`` per (worker, op) at first dispatch,
``unload`` when the session leaves — so kernels and pickle-plane
payloads must pickle under every start method
(:meth:`_MpSession._validate_picklable` names the op that cannot).

**Fault tolerance** (``RunConfig.on_fault="retry"``, the default): the
self-scheduling chunk queue is exactly the structure that makes recovery
cheap — a lost chunk is just re-enqueued.

* *Worker death* — the coordinator sweeps worker liveness plus
  per-worker heartbeat timestamps every ``heartbeat_interval`` seconds;
  a dead worker's in-flight chunk is reclaimed to the front of its
  operation's queue and the Eq. 1 ration re-runs over the shrunk fleet.
  The run continues degraded until the pool respawns the slot under
  :class:`PoolConfig` backoff (a host fleet cannot, and stays degraded).
* *Kernel exceptions* — the failing chunk is retried with exponential
  backoff (``retry_backoff * 2**attempt``) under a per-task
  ``max_retries`` budget; tasks that exhaust it are quarantined and the
  run completes with a structured
  :class:`~repro.runtime.faults.FaultReport` instead of hanging or
  crashing.
* *Honest statistics* — retried tasks are excluded from the TAPER
  mean/variance sample (:func:`first_attempt_records`) so recovery does
  not bias the chunk recurrence; their results still count.
* *Fault injection* — a seeded :class:`FaultPlan` threads directives
  (kill / raise / delay) into dispatch messages deterministically, so
  chaos tests replay exactly.

``on_fault="fail"`` restores the all-or-nothing behaviour (any fault
raises :class:`MpBackendError`).

**Durability** (``RunConfig.checkpoint_dir``): coordinator death is no
longer out of scope — every completed chunk is appended to a CRC-checked
journal (:mod:`repro.runtime.checkpoint`) as it is reported, so a
coordinator crash loses at most the chunks in flight.  A run restarted
with ``RunConfig.resume=True`` replays the journal: completed chunks are
skipped, their per-task durations re-seed the TAPER mean/variance
sample, and the Eq. 1 ration runs over only the remaining work.  The
run manifest fingerprints every scheduling-relevant config field plus
the operation shapes; resuming against a different run is refused with
:class:`~repro.runtime.checkpoint.CheckpointMismatchError`.

Two relatives of recovery ride on the same completed-set bookkeeping:

* *Straggler speculation* (``RunConfig.speculation_factor``) — when a
  chunk's elapsed wall-clock time exceeds the factor times its
  Kruskal–Weiss tail estimate (mean + :func:`lag_term` over the sampled
  durations), an idle worker is handed a duplicate copy; the first
  result wins and the loser's tasks are dropped at the journal/dedup
  level, never double-counted.
* *Graceful cancellation* — SIGINT/SIGTERM or
  ``RunConfig.wall_clock_limit`` trigger drain → checkpoint → clean
  worker shutdown, returning a partial :class:`BackendRunResult`
  flagged ``cancelled=True`` with a resume hint, instead of a stack
  trace and orphaned children.

**Data plane** (``RunConfig.data_plane``): payload movement is its own
axis.  The pickle plane ships an op's payload list to every worker that
runs it — O(P x total payload bytes) of ``load`` messages — and ships
every task's value back through the queue.  With the shared-memory
plane (:mod:`repro.runtime.backends.shm`; ``"auto"`` by default, forced
with ``"shm"``, disabled with ``"pickle"``), numpy-compatible payloads
are laid out once in ``multiprocessing.shared_memory`` segments, workers
attach zero-copy views, dispatch messages stay index-only, and chunk
values are written in place into a shared per-op result buffer — only
timing records cross the queue.  Eligibility is per op; ineligible
payloads (and numpy-less hosts) fall back to pickle transparently.
Segments are created and unlinked by the coordinator only, in ``_run``'s
outermost ``finally``, so injected worker/coordinator kills cannot leak
``/dev/shm`` entries.

Observability: the coordinator threads the same ``repro.obs`` Tracer the
simulator uses — CHUNK_ACQUIRE / TASK_DISPATCH / CHUNK_COMPLETE /
OP_BEGIN / OP_END / ALLOC_DECIDE / TAPER_DECISION events, plus the fault
lane (WORKER_DIED / CHUNK_REASSIGN / CHUNK_RETRIED / FAULT_INJECTED) —
with wall-clock timestamps (seconds since run start) on per-worker
lanes, so Chrome traces and metrics reports show recovery in place.

**Clock domains.**  No timestamp is ever compared across domains;
``Fleet`` states the rule at the seam.  Inside it: scheduling, tracing
and heartbeats run on ``time.perf_counter()`` relative to the session's
``t0`` (:meth:`_MpSession._now`; worker records are de-skewed from the
fleet's epoch with ``_skew``, durations never — they are domain-free
intervals); pool elasticity (death windows, respawn backoff, handshake
deadlines) runs on ``time.monotonic()`` inside :class:`WorkerPool`
only, because pool state outlives any one session; watchdog and drain
deadlines are raw ``perf_counter`` values compared within one function.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import multiprocessing
import os
import pickle
import queue as queue_module
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ...obs.events import (
    ALLOC_DECIDE,
    CHECKPOINT_WRITE,
    CHUNK_ACQUIRE,
    CHUNK_BATCHED,
    CHUNK_COMPLETE,
    CHUNK_DUPLICATE_DROPPED,
    CHUNK_REASSIGN,
    CHUNK_RETRIED,
    CHUNK_SPECULATE,
    FAULT_INJECTED,
    HOST_LOST,
    OP_BEGIN,
    OP_END,
    POOL_GROW,
    POOL_QUARANTINE,
    POOL_RESPAWN,
    POOL_SHRINK,
    RUN_CANCELLED,
    RUN_RESUMED,
    SHM_ATTACH,
    SHM_EVICT,
    SHM_MAP,
    STREAM_BACKPRESSURE,
    STREAM_PAGE,
    TASK_DISPATCH,
    Tracer,
    WORKER_DIED,
)
from ..allocation import ration
from ..checkpoint import (
    CheckpointMismatchError,
    ChunkJournal,
    ChunkRecord,
    JournalReplay,
    PageMark,
    RunManifest,
    load_manifest,
    read_journal,
)
from ..config import PoolConfig, RunConfig
from ..cost_model import CostFunction, OnlineStats
from ..estimates import FinishingTimeEstimator, OpProfile, lag_term
from ..faults import (
    COORDINATOR_KILL_EXIT,
    FaultInjector,
    FaultReport,
    InjectedFault,
)
from ..kernel import BATCH_AUTO_MIN_TASKS, Kernel
from ..machine import MachineConfig
from ..sampling import sample_mean_std
from ..schedulers import make_policy
from ..task import PageResult, RealOp, StreamPage, as_stream_page
from . import shm
from .base import (
    AnyOp,
    BackendRunResult,
    Fleet,
    OpOutcome,
    as_real_op,
    graph_ops_and_deps,
    name_deps,
    register_backend,
)


#: Seconds a cancelled run waits for in-flight chunks to report before
#: giving up on them (they are journaled if they make it; a hung worker
#: cannot turn Ctrl-C — or a serve drain — into a hang).
DRAIN_GRACE = 5.0
#: Weight each new observation carries in a stream's TAPER cost
#: statistics (an EWMA), so chunk sizing tracks cost drift across the
#: stream instead of averaging over its whole history.
STREAM_DECAY = 0.05
#: Rolling window (seconds) for the crash-loop death count of a pool slot.
RESPAWN_WINDOW = 30.0


class MpBackendError(RuntimeError):
    """An unrecoverable pool failure (or any fault under ``on_fault="fail"``)."""


def default_start_method() -> str:
    """The start method ``RunConfig.mp_start_method=None`` resolves to.

    ``fork`` wherever the platform offers it — workers start in
    milliseconds, and the pool forks before the coordinator starts any
    helper thread, so the fork+threads hazard does not apply — else
    ``spawn`` (macOS/Windows).  Kept explicit because Python 3.14
    changes the stdlib default away from ``fork``, which would silently
    change startup cost mid-reproduction.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def real_machine_config(p: int) -> MachineConfig:
    """Eq. 1 cost parameters in *seconds* for an in-host worker pool.

    The simulator's defaults are work-unit-scaled (sched overhead 0.4
    units against ~10-unit tasks); feeding wall-clock task means measured
    in milliseconds into those estimators would let the overhead terms
    swamp the compute term.  These constants are the same story at real
    scale: a fraction of a millisecond per chunk dispatch over a local
    queue, memory-speed transfer.
    """
    return MachineConfig(
        processors=p,
        sched_overhead=2e-4,
        message_latency=5e-5,
        bandwidth=2e9,
        task_overhead=5e-6,
    )


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


class _PageTable:
    """One stream op's worker-side payload store.

    Pages install via ``("page", key, entry)`` messages — entries are
    ``("pickle", seq, base, payloads)`` or ``("shm", seq, base,
    descriptor)`` — resolve by *global* task index (bisect over page
    bases), and drop again on ``("page_drop", key, seq)`` when the
    coordinator settles the page, so a worker holds at most the
    admission window's worth of payloads however long the stream runs.
    """

    def __init__(self):
        self._bases = []
        self._seqs = []
        self._getters = []
        self._attachments = {}

    def add(self, entry) -> int:
        """Install one page entry; returns attached shm bytes (0 for
        pickle pages)."""
        kind, seq, base, data = entry
        nbytes = 0
        if kind == "shm":
            attachment = shm.attach_page(data)
            self._attachments[seq] = attachment
            getter = attachment.get_payload
            nbytes = attachment.nbytes
        else:
            getter = data.__getitem__
        position = bisect.bisect_left(self._bases, base)
        self._bases.insert(position, base)
        self._seqs.insert(position, seq)
        self._getters.insert(position, getter)
        return nbytes

    def drop(self, seq: int) -> None:
        try:
            position = self._seqs.index(seq)
        except ValueError:
            return
        del self._bases[position]
        del self._seqs[position]
        del self._getters[position]
        attachment = self._attachments.pop(seq, None)
        if attachment is not None:
            attachment.close()

    def __getitem__(self, index: int):
        position = bisect.bisect_right(self._bases, index) - 1
        if position < 0:
            raise KeyError(f"task {index} is not on any installed page")
        return self._getters[position](index - self._bases[position])

    def close(self) -> None:
        for attachment in self._attachments.values():
            attachment.close()
        self._attachments = {}


def _worker_main(wid, ops_payload, request_q, reply_q, t0):
    """Chunk self-scheduling loop of one worker process.

    ``ops_payload`` maps an *op key* to one entry per op,
    ``("pickle", kernel, payloads)``, ``("shm", kernel, descriptor)`` or
    ``("stream", kernel, None)``.  The pool starts every worker with an
    *empty* table; sessions install entries with ``("load", key,
    entry)`` messages — op keys are a pool-wide monotonic namespace
    (:meth:`WorkerPool.allocate_keys`), so entries of different sessions
    (jobs) sharing the pool never collide and a stale report from a
    finished session is recognizable by its out-of-range key — and
    drop them again with ``("unload", key)`` when they end.
    shm-plane ops are attached lazily on first dispatch (zero-copy
    views over the coordinator's segments, announced with a one-shot
    ``("attached", wid, (key, bytes))`` message).  All timestamps are
    reported relative to the coordinator's ``t0`` (``perf_counter`` is
    system-wide on every platform we target, so worker and coordinator
    clocks agree).  Results are per-task
    ``(index, start, duration, value)`` records — per-task values are
    what lets the coordinator de-duplicate *partial* overlaps between a
    speculative copy and its primary without double-counting a
    reduction.  For shm ops the value is written in place into the
    shared result buffer and the record carries ``None``; the
    coordinator reads the slot when the report arrives.

    Dispatch messages are ``("run", key, indices, fault, batch)``.  With
    ``batch`` set and the op's :class:`~repro.runtime.kernel.Kernel`
    declaring a ``batch_fn``, the whole chunk executes as **one**
    vectorized call — over zero-copy views of the shm payload/result
    slices when the op is shm-planned (results land in place), over a
    payload list and a local out buffer on the pickle plane.  One chunk
    wall time is measured and normalized per task into the same record
    shape, so the coordinator's dedup, journal, and TAPER cost sampling
    are batched/per-task agnostic; the done reply carries a
    ``(tasks, duration, zero_copy)`` batch descriptor for the obs lane.
    A raising batch reports the normal chunk error — the coordinator's
    retry path re-dispatches per task, keeping quarantine per-task.

    A kernel exception does *not* kill the worker, and on the per-task
    path it does not poison its chunk-mates either: the loop catches per
    task and reports ``("error", wid, (key, failed_indices, traceback,
    completed_records))`` — only the raising tasks enter the
    coordinator's retry accounting, the rest of the chunk's work rides
    along settled.  Retry policy is the coordinator's call.  Fault
    directives attached to a dispatch are obeyed before/around the chunk:
    ``("kill",)`` exits the process abruptly (simulating a crash),
    ``("raise",)`` raises inside the kernel loop, ``("slow", s)`` stalls
    ``s`` seconds *before* computing (a straggler), ``("delay", s)``
    holds the reply for ``s`` seconds after computing (a slow link).
    """
    # Cancellation is the coordinator's job: a terminal Ctrl-C signals
    # the whole foreground process group, and workers dying on it would
    # turn a graceful drain into a mass casualty event.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    ops = dict(ops_payload)
    attachments = {}
    # Stream ops ship ("stream", kernel, None) entries: payloads arrive
    # later, page by page, and live in a _PageTable keyed by op.
    page_tables = {
        key: _PageTable()
        for key, entry in ops.items()
        if entry[0] == "stream"
    }

    def _resolve_op(key):
        """The op's (fn, batch_fn, get_payload, attachment), attaching
        shm segments on first use.  The per-task callable is unwrapped
        from the :class:`Kernel` once here so the hot loop pays no
        ``__call__`` indirection; bare callables (deprecated) still
        resolve with ``batch_fn=None``."""
        entry = attachments.get(key)
        if entry is None:
            plane, kernel, data = ops[key]
            if isinstance(kernel, Kernel):
                fn, batch_fn = kernel.fn, kernel.batch_fn
            else:
                fn, batch_fn = kernel, None
            if plane == "shm":
                attachment = shm.attach_op(data)
                entry = (fn, batch_fn, attachment.get_payload, attachment)
                request_q.put(
                    ("attached", wid, (key, attachment.nbytes))
                )
            elif plane == "stream":
                # Payloads resolve through the op's page table; stream
                # chunks never batch (pages re-chunk continuously), and
                # values always ride the report records.
                entry = (fn, None, page_tables[key].__getitem__, None)
            else:
                entry = (fn, batch_fn, data.__getitem__, None)
            attachments[key] = entry
        return entry

    request_q.put(("ready", wid, None))
    while True:
        message = reply_q.get()
        if message[0] == "stop":
            for _fn, _batch_fn, _get, attachment in attachments.values():
                if attachment is not None:
                    attachment.close()
            for table in page_tables.values():
                table.close()
            return
        if message[0] == "load":
            ops[message[1]] = message[2]
            if message[2][0] == "stream":
                page_tables[message[1]] = _PageTable()
            continue
        if message[0] == "unload":
            ops.pop(message[1], None)
            entry = attachments.pop(message[1], None)
            if entry is not None and entry[3] is not None:
                entry[3].close()
            table = page_tables.pop(message[1], None)
            if table is not None:
                table.close()
            continue
        if message[0] == "page":
            nbytes = page_tables[message[1]].add(message[2])
            if nbytes:
                request_q.put(("attached", wid, (message[1], nbytes)))
            continue
        if message[0] == "page_drop":
            table = page_tables.get(message[1])
            if table is not None:
                table.drop(message[2])
            continue
        _, op_index, indices, fault, batch = message
        if fault is not None and fault[0] == "kill":
            # Detach from the shared queue before dying: Queue writes go
            # through a feeder thread holding a cross-process lock, and
            # exiting inside its release window would wedge every
            # survivor's put() (corrupted shared state is out of scope —
            # a kill fault must only lose this worker).
            request_q.close()
            request_q.join_thread()
            os._exit(17)  # crash hard: no cleanup, no reply
        if fault is not None and fault[0] == "slow":
            time.sleep(fault[1])
        records = []
        failed = []
        failure_tb = ""
        batch_meta = None
        try:
            fn, batch_fn, get_payload, attachment = _resolve_op(op_index)
            if fault is not None and fault[0] == "raise":
                raise InjectedFault(
                    f"injected kernel fault on worker {wid}"
                )
            if batch and batch_fn is not None and indices:
                # Batched path: one vectorized call over the chunk.  One
                # wall time is measured for the call and normalized per
                # task, so the TAPER cost sample (and the journal) stay
                # in per-task units — Eq. 1 rationing and granularity
                # ablations see the same shape either way.
                chunk_start = time.perf_counter() - t0
                if attachment is not None:
                    payloads, out, writeback, zero_copy = (
                        attachment.batch_views(indices)
                    )
                    batch_fn(payloads, out)
                    if writeback is not None:
                        writeback()
                    values = None
                else:
                    payloads = [get_payload(index) for index in indices]
                    if shm._np is not None:
                        out = shm._np.zeros(len(indices))
                    else:
                        out = [0.0] * len(indices)
                    batch_fn(payloads, out)
                    values = [float(v) for v in out]
                    zero_copy = False
                duration = (time.perf_counter() - t0) - chunk_start
                per_task = duration / len(indices)
                records = [
                    (
                        index,
                        chunk_start + k * per_task,
                        per_task,
                        None if values is None else values[k],
                    )
                    for k, index in enumerate(indices)
                ]
                batch_meta = (len(indices), duration, zero_copy)
            elif attachment is not None:
                result = attachment.result
                for index in indices:
                    start = time.perf_counter() - t0
                    try:
                        value = fn(get_payload(index))
                    except Exception:
                        failed.append(index)
                        failure_tb = traceback.format_exc()
                        continue
                    duration = (time.perf_counter() - t0) - start
                    # In-place result delivery: only timings cross the
                    # queue.  Duplicate copies of a task write the same
                    # deterministic value, so write order is immaterial.
                    result[index] = value
                    records.append((index, start, duration, None))
            else:
                for index in indices:
                    start = time.perf_counter() - t0
                    try:
                        value = fn(get_payload(index))
                    except Exception:
                        failed.append(index)
                        failure_tb = traceback.format_exc()
                        continue
                    duration = (time.perf_counter() - t0) - start
                    records.append((index, start, duration, float(value)))
        except BaseException:
            request_q.put(
                ("error", wid, (op_index, list(indices), traceback.format_exc()))
            )
            continue
        if fault is not None and fault[0] == "delay":
            time.sleep(fault[1])
        if failed:
            # Per-task isolation: only the raising tasks are reported
            # failed; the chunk's completed records ride along so their
            # work is never lost to a chunk-mate's exception.
            request_q.put(
                ("error", wid, (op_index, failed, failure_tb, records))
            )
        else:
            request_q.put(("done", wid, (op_index, records, batch_meta)))


# ---------------------------------------------------------------------------
# Resident worker pool
# ---------------------------------------------------------------------------


class WorkerPool:
    """The one owner of worker processes, and the local
    :class:`~repro.runtime.backends.base.Fleet` (that docstring is the
    contract; :func:`_worker_main` documents the op table and its key
    namespace).  One reply queue per worker, one shared ``request_q``
    back, read through :meth:`recv` by an exclusive session (guarded by
    :meth:`try_acquire`) or by the serve router.  A
    :class:`shm.SegmentCache` rides along so identical payloads reuse
    their segments across runs.  Healing and elasticity follow
    :class:`PoolConfig`; the pool only ever *starts* processes —
    noticing deaths and pacing :meth:`sweep` belong to its driver.
    """

    name = "mp"

    def __init__(
        self,
        processors: int,
        start_method: Optional[str] = None,
        pool_config: Optional[PoolConfig] = None,
    ):
        if processors < 1:
            raise ValueError("processors must be >= 1")
        self.cfg = pool_config or PoolConfig()
        if (
            self.cfg.max_workers is not None
            and self.cfg.max_workers < processors
        ):
            raise ValueError(
                f"PoolConfig.max_workers ({self.cfg.max_workers}) is below "
                f"the pool's base width ({processors})"
            )
        if (
            self.cfg.min_workers is not None
            and self.cfg.min_workers > processors
        ):
            raise ValueError(
                f"PoolConfig.min_workers ({self.cfg.min_workers}) exceeds "
                f"the pool's base width ({processors})"
            )
        #: Base width: what sessions size their Eq. 1 ration against and
        #: what :meth:`start` spawns.
        self.p = processors
        #: Total slot space (base width + growth headroom).
        self.slots = max(processors, self.cfg.max_workers or processors)
        #: Shrink floor for serve-mode idle shrink.
        self.min_workers = self.cfg.min_workers or processors
        self.method = start_method or default_start_method()
        self.ctx = multiprocessing.get_context(self.method)
        self.request_q = self.ctx.Queue()
        self.reply_qs = [self.ctx.SimpleQueue() for _ in range(self.slots)]
        self.processes: List = [None] * self.slots
        self.alive: List[bool] = [False] * self.slots
        self.t0 = 0.0
        #: Worker processes ever started (a reuse metric: stays at ``p``
        #: across runs unless churn forces respawns or load forces grows).
        self.total_spawns = 0
        cache_budget = (
            shm.DEFAULT_CACHE_BYTES
            if self.cfg.shm_cache_bytes is None
            else self.cfg.shm_cache_bytes
        )
        self.segment_cache = (
            shm.SegmentCache(cache_budget) if shm.shm_available() else None
        )
        self._next_key = 0
        self._key_lock = threading.Lock()
        #: Op key -> estimated bytes of its pickle-plane payload list:
        #: the walk is per op, the load per (worker, op).  Dropped at
        #: the op's first unload.
        self._payload_nbytes: Dict[int, int] = {}
        self._use_lock = threading.Lock()
        #: Guards the per-slot elasticity state below (driver thread vs.
        #: session threads calling :meth:`mark_dead`).
        self._slot_lock = threading.Lock()
        #: Slots above the base width not currently running (grow pulls
        #: from here; shrink returns slots here).
        self.dormant: Set[int] = set(range(processors, self.slots))
        #: Slots waiting on a respawn/grow ready handshake.
        self.pending_ready: Set[int] = set()
        #: Crash-looping slots the circuit breaker retired.
        self.quarantined: Set[int] = set()
        #: Structured ``{"slot", "deaths", "window", "reason"}`` records,
        #: one per quarantined slot.
        self.quarantine_records: List[Dict[str, Any]] = []
        #: Rolling death timestamps per slot (crash-loop window).
        self._deaths: List[Deque[float]] = [
            deque() for _ in range(self.slots)
        ]
        #: Monotonic deadline before which a slot may not respawn.
        self._next_respawn_at = [0.0] * self.slots
        #: When the slot's pending handshake was started.
        self._spawned_at = [0.0] * self.slots
        #: Respawn attempts doomed to fail (``spawnfail`` injection).
        self.fail_next_spawns = 0
        #: What happened since the last :meth:`sweep` returned (the
        #: driver's thread only).
        self._happened: List[Dict[str, Any]] = []
        self.respawns = 0
        self.grows = 0
        self.shrinks = 0
        self.started = False
        self.stopped = False

    @property
    def running(self) -> bool:
        return self.started and not self.stopped

    def start(self, ready_timeout: float = 30.0) -> None:
        """Spawn the workers and wait for every ready handshake.

        Consuming the handshakes here (rather than leaving them for the
        first session) is what lets sessions treat membership as purely
        grant-driven: a pool worker never announces itself, it is handed
        over.
        """
        if self.started:
            return
        # Sessions may lay out shm segments (ops or stream pages) after
        # this fork; the workers must inherit the coordinator's tracker.
        shm.ensure_tracker_running()
        self.t0 = time.perf_counter()
        for wid in range(self.p):
            self.processes[wid] = self._process(wid)
        launched: List = []
        try:
            for wid in range(self.p):
                self.processes[wid].start()
                launched.append(self.processes[wid])
        except Exception as error:
            for process in launched:
                process.terminate()
                process.join(timeout=1.0)
            raise MpBackendError(
                f"could not start the worker pool under start method "
                f"{self.method!r}: {error}"
            ) from error
        self.started = True
        deadline = time.perf_counter() + ready_timeout
        pending = self.p
        while pending:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                self.stop()
                raise MpBackendError(
                    f"worker pool: {pending} of {self.p} workers never "
                    f"reported ready within {ready_timeout:.0f}s"
                )
            # Fail fast when a worker dies before its handshake instead
            # of burning the whole ready_timeout waiting for a message
            # that can never come.
            dead = [
                wid
                for wid in range(self.p)
                if not self.alive[wid]
                and not self.processes[wid].is_alive()
            ]
            if dead:
                codes = [self.processes[wid].exitcode for wid in dead]
                self.stop()
                raise MpBackendError(
                    f"worker pool: worker {dead[0]} died before its "
                    f"ready handshake (dead wids {dead}, exit codes "
                    f"{codes})"
                )
            try:
                kind, _wid, _payload = self.recv(min(remaining, 0.1))
            except queue_module.Empty:
                continue
            if kind == "grant":  # a completed ready handshake
                pending -= 1
        self.total_spawns += self.p

    def _process(self, wid: int):
        """An unstarted worker process for slot ``wid`` (empty op table)."""
        return self.ctx.Process(
            target=_worker_main,
            args=(wid, {}, self.request_q, self.reply_qs[wid], self.t0),
            daemon=True,
        )

    def allocate_keys(self, count: int) -> int:
        """Reserve ``count`` consecutive op keys; returns the base."""
        with self._key_lock:
            base = self._next_key
            self._next_key += count
            return base

    def arm(self, injector: FaultInjector) -> None:
        self.fail_next_spawns += injector.spawn_failures()

    def claim(self) -> List[int]:
        return self.live_workers()

    def release(self, wid: int, status: str) -> None:
        if status == "dead":
            self._happened += self.mark_dead(wid)

    def send(self, wid: int, message: tuple) -> None:
        """Queue one message for worker ``wid`` (the slot's queue is
        looked up per send, so a respawn's fresh queue is transparent)."""
        self.reply_qs[wid].put(message)

    def load(self, wid: int, key: int, entry: tuple) -> int:
        self.send(wid, ("load", key, entry))
        if entry[0] != "pickle":
            return 0
        nbytes = self._payload_nbytes.get(key)
        if nbytes is None:
            nbytes = shm.estimate_payload_nbytes(entry[2])
            self._payload_nbytes[key] = nbytes
        return nbytes

    def unload(self, wid: int, key: int) -> None:
        self._payload_nbytes.pop(key, None)
        self.send(wid, ("unload", key))

    def plane_of(self, key: int) -> Optional[str]:
        return None  # the session maps its own segments

    def recv(self, timeout: float):
        """The next event from any worker; raises ``queue.Empty`` on
        timeout.  A respawned or grown slot's ``ready`` handshake is
        completed here and surfaces as its ``grant``."""
        message = self.request_q.get(timeout=timeout)
        if message[0] != "ready":
            return message
        with self._slot_lock:
            self.pending_ready.discard(message[1])
            self.alive[message[1]] = True
        return ("grant", message[1], None)

    def is_alive(self, wid: int) -> bool:
        """Whether slot ``wid`` holds a running process."""
        process = self.processes[wid]
        return process is not None and process.is_alive()

    def weight(self, wid: int) -> float:
        return 1.0

    def live_workers(self) -> List[int]:
        return [
            wid
            for wid in range(self.slots)
            if self.alive[wid] and self.is_alive(wid)
        ]

    def mark_dead(self, wid: int) -> List[Dict[str, Any]]:
        """Record one death of slot ``wid`` and start its backoff clock;
        returns the ``quarantine`` fact when this death trips the
        crash-loop breaker (the caller reports it), else nothing."""
        with self._slot_lock:
            self.alive[wid] = False
            self.pending_ready.discard(wid)
            if wid in self.quarantined:
                return []
            now = time.monotonic()
            window = RESPAWN_WINDOW
            deaths = self._deaths[wid]
            deaths.append(now)
            while deaths and now - deaths[0] > window:
                deaths.popleft()
            if len(deaths) > self.cfg.max_respawns:
                self.quarantined.add(wid)
                record = {
                    "slot": wid,
                    "deaths": len(deaths),
                    "window": window,
                    "reason": (
                        f"crash loop: slot {wid} died {len(deaths)} times "
                        f"within {window:.0f}s (max_respawns="
                        f"{self.cfg.max_respawns})"
                    ),
                }
                self.quarantine_records.append(record)
                return [dict(record, kind="quarantine")]
            self._next_respawn_at[wid] = now + (
                self.cfg.respawn_backoff * (2 ** (len(deaths) - 1))
            )
            return []

    def _spawn_slot(self, wid: int) -> None:
        """Start a fresh worker process in slot ``wid``.

        The slot's reply queue is replaced first so messages queued for
        the dead incarnation are never replayed into the new one
        (sessions look the queue up per send, so the swap is
        transparent).  Raises on spawn failure — including injected
        ``spawnfail`` faults — which callers count as another death.
        """
        if self.fail_next_spawns > 0:
            self.fail_next_spawns -= 1
            raise MpBackendError(
                f"injected spawn failure (spawnfail) for slot {wid}"
            )
        self.reply_qs[wid] = self.ctx.SimpleQueue()
        process = self._process(wid)
        process.start()
        self.processes[wid] = process
        self.total_spawns += 1

    def sweep(
        self, eligible: Optional[Callable[[int], bool]] = None
    ) -> List[Dict[str, Any]]:
        """One pass of the self-healing loop; returns what happened.

        Respawns every dead, non-quarantined, non-dormant slot whose
        backoff expired (and which ``eligible`` — e.g. "not currently
        owned by a serve job" — admits), and times out pending ready
        handshakes.
        """
        if not self.running:
            return []
        now = time.monotonic()
        for wid in range(self.slots):
            with self._slot_lock:
                if (
                    wid in self.dormant
                    or wid in self.quarantined
                    or self.alive[wid]
                ):
                    continue
                if wid not in self.pending_ready:
                    # Process up though dead per the books: a stale
                    # ready is still queued; the driver's message loop
                    # will see it.
                    if self.is_alive(wid) or now < self._next_respawn_at[wid]:
                        continue
                elif self.is_alive(wid):
                    if now - self._spawned_at[wid] <= self.cfg.ready_timeout:
                        continue  # handshake still in flight
                    self.processes[wid].terminate()
                    self.processes[wid].join(timeout=1.0)
                # else the respawn itself died (or hung) before ready.
                if eligible is not None and not eligible(wid):
                    continue
                retry_pending = wid in self.pending_ready
                self.pending_ready.discard(wid)
            if retry_pending:
                # Count the failed handshake as another death (outside
                # the slot lock: mark_dead re-acquires it).
                self._happened += self.mark_dead(wid)
                continue
            attempt = len(self._deaths[wid])
            backoff = max(0.0, self._next_respawn_at[wid] -
                          (self._deaths[wid][-1] if self._deaths[wid]
                           else now))
            try:
                self._spawn_slot(wid)
            except Exception as error:
                self._happened.append(
                    {"kind": "spawnfail", "slot": wid, "error": str(error)}
                )
                self._happened += self.mark_dead(wid)
                continue
            with self._slot_lock:
                self.pending_ready.add(wid)
                self._spawned_at[wid] = now
                self.respawns += 1
                self._happened.append(
                    {
                        "kind": "respawn",
                        "slot": wid,
                        "attempt": attempt,
                        "backoff": backoff,
                    }
                )
        happened, self._happened = self._happened, []
        return happened

    def can_recover(self) -> bool:
        if not self.running:
            return False
        if self.live_workers():
            return True
        with self._slot_lock:
            if self.pending_ready:
                return True
            return any(
                not self.alive[wid]
                and wid not in self.quarantined
                and wid not in self.dormant
                for wid in range(self.slots)
            )

    def grow(self) -> Optional[int]:
        """Start one dormant slot; returns its wid (or ``None``)."""
        with self._slot_lock:
            candidates = sorted(
                wid for wid in self.dormant if wid not in self.quarantined
            )
        for wid in candidates:
            try:
                self._spawn_slot(wid)
            except Exception:
                continue
            with self._slot_lock:
                self.dormant.discard(wid)
                self.pending_ready.add(wid)
                self._spawned_at[wid] = time.monotonic()
                self.grows += 1
            return wid
        return None

    def shrink(self, wid: int) -> bool:
        """Cooperatively stop one live worker; its slot goes dormant.

        Only called on *free* (ungranted) workers, so there is never an
        in-flight chunk to reclaim — the revoke path already returned
        the worker at a chunk boundary with its results journaled.
        """
        with self._slot_lock:
            if not self.alive[wid] or wid in self.pending_ready:
                return False
            self.alive[wid] = False
            self.dormant.add(wid)
            self._deaths[wid].clear()
            process = self.processes[wid]
        try:
            self.reply_qs[wid].put(("stop",))
        except Exception:  # pragma: no cover - teardown best effort
            pass
        if process is not None:
            process.join(timeout=1.0)
        with self._slot_lock:
            self.shrinks += 1
        return True

    def try_acquire(self) -> bool:
        """Claim exclusive direct use of ``request_q`` (a run on a
        prepared pool); non-blocking, so an already-claimed pool makes
        the caller build an ephemeral pool instead of queueing."""
        return self._use_lock.acquire(blocking=False)

    def release_use(self) -> None:
        self._use_lock.release()

    def stop(self) -> None:
        """Stop every worker and drop the queues; idempotent."""
        if self.stopped:
            return
        self.stopped = True
        for wid in range(self.slots):
            # A crashed worker has no reader on its reply queue: skip it
            # so shutdown cannot wedge.  A respawn still handshaking is
            # told too — it reads the stop right after its ready.
            if not self.is_alive(wid):
                continue
            try:
                self.send(wid, ("stop",))
            except Exception:
                pass
        live = [p for p in self.processes if p is not None]
        for process in live:
            try:
                process.join(timeout=2.0)
            except Exception:  # pragma: no cover - teardown best effort
                pass
        for process in live:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for process in live:
            if process.is_alive():  # pragma: no cover - defensive
                process.kill()
                process.join(timeout=1.0)
        self.request_q.close()
        self.request_q.cancel_join_thread()
        if self.segment_cache is not None:
            self.segment_cache.close()
        self.alive = [False] * self.slots


def report_fleet_events(
    infos: Sequence[Dict[str, Any]],
    tracer: Optional[Tracer],
    now: float,
    report: Optional[FaultReport] = None,
) -> None:
    """Turn :meth:`Fleet.sweep` facts (plus the serve router's
    ``grow``/``shrink``) into tracer events stamped with the caller's
    ``now`` and, for a session, ``FaultReport`` entries."""
    if tracer is None:
        tracer = Tracer()  # nobody is listening
    if report is None:
        report = FaultReport()  # the serve router keeps none
    for info in infos:
        kind, slot = info["kind"], info["slot"]
        if kind == "respawn":
            report.workers_respawned += 1
            tracer.emit(
                POOL_RESPAWN,
                now,
                proc=slot,
                attempt=info["attempt"],
                backoff=info["backoff"],
            )
        elif kind == "spawnfail":
            report.injected.append(
                {"fault": kind, "worker": slot, "error": info["error"]}
            )
        elif kind == "quarantine":
            report.pool_quarantined.append(
                {k: v for k, v in info.items() if k != "kind"}
            )
            tracer.emit(
                POOL_QUARANTINE,
                now,
                proc=slot,
                deaths=info["deaths"],
                window=info["window"],
            )
        elif kind == "grow":
            tracer.emit(POOL_GROW, now, proc=slot, width=info["width"])
        elif kind == "shrink":
            tracer.emit(
                POOL_SHRINK, now, proc=slot, idle=info["idle"],
                width=info["width"],
            )
        elif kind == "host_lost":
            report.hosts_lost.append(info["host"])
            tracer.emit(
                HOST_LOST,
                now,
                proc=slot,
                host=info["host"],
                addr=info["addr"],
                workers=info["workers"],
                reclaimed=info.get("reclaimed", 0),
                width=info["width"],
                reason=info["reason"],
            )
        elif kind == "hostloss":
            report.injected.append(
                {"fault": kind, "host": info["host"], "addr": info["addr"]}
            )
            tracer.emit(
                FAULT_INJECTED, now, proc=slot, fault=kind, host=info["host"]
            )


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class _CoordinatorKill(BaseException):
    """Raised at dispatch by a ``coordkill`` fault directive.

    A ``BaseException`` so no recovery path can catch it: it unwinds
    through ``_run``'s ``finally`` (worker teardown + journal close),
    then :meth:`_MpSession.run` exits the process with
    :data:`~repro.runtime.faults.COORDINATOR_KILL_EXIT`.
    """


@dataclass
class _Flight:
    """One dispatched chunk copy currently on a worker."""

    op_index: int
    indices: List[int]
    started_at: float
    #: This copy is a speculative duplicate of another worker's chunk.
    speculative: bool = False
    #: A speculative duplicate of this (primary) flight was launched.
    speculated: bool = False


@dataclass
class _PageInfo:
    """Coordinator-side accounting for one admitted stream page."""

    seq: int
    base: int
    tasks: int
    #: Tasks settled (completed or quarantined) so far on this page.
    settled: int = 0
    #: Sum of settled task values (restored + live).
    value: float = 0.0
    admitted_at: float = 0.0
    done: bool = False
    #: Every task was restored from the journal: the page settles
    #: silently and skips the sink (it was delivered before the crash).
    restored_full: bool = False


@dataclass
class _StreamFeed:
    """Admission-side state of one streaming op.

    The coordinator pulls pages from the op's source between scheduling
    events, *gated* by two backpressure conditions (window of unsettled
    pages; high/low watermark on waiting tasks) — the journal writer is
    the third gate implicitly, because every admission fsyncs a
    :class:`PageMark` before the page ships.  Pages settle when all
    their tasks settle, deliver to the sink strictly in admission
    order, and are dropped from workers (and the shm plane) the moment
    they settle, bounding memory to the admission window.
    """

    op_index: int
    iterator: Optional[object] = None
    exhausted: bool = False
    pages: List[_PageInfo] = field(default_factory=list)
    #: Page base indices, ascending — bisect key for settling reports.
    bases: List[int] = field(default_factory=list)
    #: Pages admitted but not yet fully settled.
    unsettled: int = 0
    throttled: bool = False
    blocked_reason: str = ""
    backpressure_events: int = 0
    #: Admission-to-settle wall seconds per settled page.
    latencies: List[float] = field(default_factory=list)
    #: seq -> worker page entry, kept until the page settles.
    page_entries: Dict[int, tuple] = field(default_factory=dict)
    #: wid -> seqs shipped to that worker (drop targets).
    shipped: Dict[int, Set[int]] = field(default_factory=dict)
    #: Next page seq owed to the sink (in-order delivery).
    next_deliver: int = 0
    #: PageMarks replayed from the journal (contiguous seq prefix).
    restored_marks: List[PageMark] = field(default_factory=list)
    #: Bisect key over restored_marks' bases.
    restored_bases: List[int] = field(default_factory=list)
    #: seq -> (restored task count, restored value sum).
    restored_tasks: Dict[int, Tuple[int, float]] = field(
        default_factory=dict
    )
    #: Data plane of the first shipped page ("shm" | "pickle");
    #: ``None`` until a page ships.
    plane: Optional[str] = None


@dataclass
class _OpState:
    """Coordinator-side bookkeeping for one operation.

    The accounting invariant that carries fault tolerance, speculation
    and resume at once: every task index is in exactly one of
    ``pending`` / ``inflight`` / ``completed`` / ``quarantined`` — and
    *speculative duplicate copies never touch these sets*, so a result
    counts exactly once no matter how many copies were dispatched or
    how many times the run was restarted.
    """

    op: RealOp
    label: str
    index: int
    deps: Set[int]
    pending: Deque[int]
    policy: object
    cost_fn: CostFunction
    declared: Optional[List[float]] = None
    dispatched: int = 0
    chunks: int = 0
    measured_work: float = 0.0
    value_total: float = 0.0
    started: bool = False
    finished: bool = False
    first_time: float = 0.0
    last_time: float = 0.0
    #: Task indices currently dispatched as someone's *primary* copy.
    inflight: Set[int] = field(default_factory=set)
    #: Task indices whose result has been counted, exactly once.  A set
    #: rather than a counter: membership is what lets duplicate results
    #: (speculation losers, replayed journal records) be dropped.
    completed: Set[int] = field(default_factory=set)
    #: Wall-clock durations of first-attempt tasks, in *seconds* in both
    #: cost modes — speculation deadlines are real time even when the
    #: TAPER sample is declared work units.
    wall_stats: OnlineStats = field(default_factory=OnlineStats)
    #: Task indices dispatched more than once (reclaimed or retried);
    #: their measured durations are excluded from cost statistics.
    retried: Set[int] = field(default_factory=set)
    #: Failed attempts per task index (kernel exceptions + crashes).
    attempts: Dict[int, int] = field(default_factory=dict)
    #: Task indices whose retry budget ran out; they count as "done"
    #: for completion purposes but contribute no value.
    quarantined: Set[int] = field(default_factory=set)
    #: Streaming admission state (``None`` for fixed-size ops).
    feed: Optional[_StreamFeed] = None

    @property
    def stream_done(self) -> bool:
        """Admission is over: not a stream, or the source is exhausted.
        Completion checks must not finish an op whose source can still
        grow it — ``size`` starts at 0 for streams, so the plain
        ``settled >= size`` test is trivially true before admission."""
        return self.feed is None or self.feed.exhausted

    @property
    def size(self) -> int:
        return self.op.size

    @property
    def remaining(self) -> int:
        return len(self.pending)

    @property
    def outstanding(self) -> int:
        return len(self.inflight)

    @property
    def done_tasks(self) -> int:
        return len(self.completed)

    @property
    def settled_tasks(self) -> int:
        """Tasks that need no further dispatch (succeeded or poisoned)."""
        return self.done_tasks + len(self.quarantined)

    def remaining_work_estimate(self) -> float:
        mean = self.cost_fn.stats.mean
        if mean <= 0 and self.declared:
            mean = sum(self.declared) / len(self.declared)
        return self.remaining * max(mean, 1e-12)


class _MpSession:
    """One dependency-aware run of a set of operations: the one
    scheduling core, on any started
    :class:`~repro.runtime.backends.base.Fleet` (``pool``).  All it
    knows of its workers comes through that interface.  Op payloads
    ship lazily per worker (``load``/``unload``) under fleet-unique
    keys; report timestamps are de-skewed to the session's epoch.
    """

    def __init__(
        self,
        real_ops: Sequence[RealOp],
        deps: Sequence[Set[int]],
        cfg: RunConfig,
        pool: Fleet,
    ):
        if cfg.processors != pool.p:
            raise MpBackendError(
                f"config wants {cfg.processors} processors but the "
                f"worker pool holds {pool.p}"
            )
        self.cfg = cfg
        self.tracer: Optional[Tracer] = cfg.tracer
        # Per-wid arrays span the pool's full slot space so grown and
        # respawned slots index cleanly; the Eq. 1 ration only ever
        # sees the granted subset.
        self.p = pool.slots
        self.declared_mode = cfg.cost_source == "declared"
        # Eq. 1 estimation needs cost parameters in the same unit as the
        # sampled task means: work units when costs are declared, seconds
        # when they are measured.
        if self.declared_mode:
            self.machine = cfg.machine_config()
        elif cfg.machine is not None:
            self.machine = cfg.machine
        else:
            self.machine = real_machine_config(cfg.processors)
        self.ops: List[_OpState] = []
        labels_seen: Dict[str, int] = {}
        for index, (op, dep_set) in enumerate(zip(real_ops, deps)):
            label = op.name
            if label in labels_seen:
                labels_seen[label] += 1
                label = f"{label}#{labels_seen[op.name]}"
            else:
                labels_seen[label] = 0
            if self.declared_mode and op.costs is None and op.payloads:
                raise ValueError(
                    f"cost_source='declared' but op {op.name!r} declares "
                    "no costs"
                )
            if getattr(op, "is_stream", False):
                # Streams have no final size to bucket by, and their
                # cost profile can drift over a long run: use a fixed
                # bucket and an exponentially-decaying sample so TAPER
                # re-chunks each page against *recent* costs.
                cost_fn = CostFunction(bucket_size=64, decay=STREAM_DECAY)
            else:
                cost_fn = CostFunction(bucket_size=max(1, op.size // 16))
            self.ops.append(
                _OpState(
                    op=op,
                    label=label,
                    index=index,
                    deps=set(dep_set),
                    pending=deque(range(op.size)),
                    policy=make_policy(cfg.policy, min_chunk=cfg.min_chunk),
                    cost_fn=cost_fn,
                    declared=(
                        list(op.costs) if op.costs is not None else None
                    ),
                )
            )
        self.streams: List[_StreamFeed] = []
        for state in self.ops:
            if getattr(state.op, "is_stream", False):
                state.feed = _StreamFeed(op_index=state.index)
                self.streams.append(state.feed)
        # Worker-subset assignment: worker w prefers self.assignment[w].
        self.assignment: List[int] = [-1] * self.p
        self.idle: Set[int] = set()
        self.t0 = 0.0
        # -- fault-tolerance state ------------------------------------------
        # Membership is grant-driven: nobody is ours until granted (an
        # exclusive run self-grants every live worker at startup).
        self.alive: List[bool] = [False] * self.p
        self.live_count = 0
        #: wid -> the chunk copy a worker is currently running.
        self.in_flight: Dict[int, _Flight] = {}
        #: Heartbeat timestamps: last message seen per worker.
        self.last_seen: Dict[int, float] = {}
        #: Backoff queue of failed chunks: (ready_time, op_index, indices).
        self.delayed: List[Tuple[float, int, List[int]]] = []
        self.fault_report = FaultReport()
        self.injector: Optional[FaultInjector] = (
            FaultInjector(cfg.fault_plan) if cfg.fault_plan else None
        )
        # -- durability state -----------------------------------------------
        self.journal: Optional[ChunkJournal] = None
        #: Tasks restored from a replayed journal (never re-executed).
        self.tasks_resumed = 0
        self.restored_chunks = 0
        #: Why the run is being cancelled (``None`` = running normally).
        self.cancel_reason: Optional[str] = None
        # -- data-plane state -----------------------------------------------
        #: Shared-memory segments (``None`` until _setup_data_plane maps
        #: at least one op; stays ``None`` on the pure-pickle path).
        self.plane: Optional[shm.ShmDataPlane] = None
        #: Per-op plane actually chosen ("shm" | "pickle"), by op index.
        self.plane_of: List[str] = ["pickle"] * len(self.ops)
        #: Estimated payload bytes serialized at worker startup.
        self.bytes_shipped = 0
        #: Chunks / fresh tasks delivered by one vectorized
        #: ``Kernel.batch_fn`` call instead of per-task Python calls.
        self.batched_chunks = 0
        self.batched_tasks = 0
        # -- fleet state ----------------------------------------------------
        self.pool = pool
        #: Detaching from the pool: park reports, dispatch nothing new.
        self.detaching = False
        #: Workers the server asked back; released after their current
        #: chunk reports (a revoke never preempts a running kernel).
        self.revoked: Set[int] = set()
        #: This session's slice of the pool-wide op-key namespace.
        self.key_base = pool.allocate_keys(len(self.ops))
        #: Worker record timestamps are relative to the pool's epoch;
        #: subtract this to land on the session's.
        self._skew = 0.0
        #: (wid, op_index) pairs whose "load" message has been sent.
        self._loaded: Set[Tuple[int, int]] = set()
        #: Cached worker entries per op (built once, sent per worker).
        self._entries: Dict[int, tuple] = {}
        # Fleet-level faults (spawn failures, host loss) fire inside the
        # fleet, so chaos runs replay deterministically end to end.
        if self.injector is not None:
            pool.arm(self.injector)

    # -- helpers -------------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self.t0

    def _runnable(self, state: _OpState) -> bool:
        return (
            not state.finished
            and state.remaining > 0
            and all(self.ops[d].finished for d in state.deps)
        )

    def _resolve_instant_ops(self) -> None:
        """Zero-task operations complete the moment their deps do."""
        changed = True
        while changed:
            changed = False
            for state in self.ops:
                if (
                    not state.finished
                    and state.stream_done
                    and state.settled_tasks >= state.size
                    and state.remaining == 0
                    and state.outstanding == 0
                    and all(self.ops[d].finished for d in state.deps)
                ):
                    state.finished = True
                    changed = True

    def _profile(self, state: _OpState) -> OpProfile:
        """The runtime's sampled view of an op — shared sampling helper,
        fed from measured durations or the declared-cost prefix."""
        if state.cost_fn.stats.count > 0:
            stats = state.cost_fn.stats
            mean, stddev = stats.mean, stats.stddev
        elif state.declared is not None:
            observed = state.declared[
                : max(1, min(self.cfg.sample_tasks, len(state.declared)))
            ]
            mean, stddev = sample_mean_std(observed)
        else:
            mean, stddev = 0.0, 0.0
        return OpProfile(
            tasks=max(state.remaining, 1), mean=mean, stddev=stddev
        )

    def _live_workers(self) -> List[int]:
        """Held wids fastest first, so Eq. 1 shares assign the quick
        workers before the slow ones (the identity on a uniform fleet)."""
        weight = self.pool.weight
        return sorted(
            (wid for wid in range(self.p) if self.alive[wid]),
            key=lambda wid: (-weight(wid), wid),
        )

    # -- fleet membership ----------------------------------------------------

    def _grant(self, wid: int) -> None:
        """A pool worker joins this session's ration."""
        if self.alive[wid]:
            return
        self.alive[wid] = True
        self.live_count += 1
        self.revoked.discard(wid)
        self._reallocate()
        self._dispatch(wid)

    def _release_worker(self, wid: int, status: str = "free") -> None:
        """Hand a worker back to the pool and re-ration the remainder."""
        if not self.alive[wid]:
            return
        self.alive[wid] = False
        self.live_count -= 1
        self.idle.discard(wid)
        self.revoked.discard(wid)
        self.assignment[wid] = -1
        self.pool.release(wid, status)
        self._reallocate()

    def _on_message(self, kind: str, wid: int, payload) -> bool:
        """Apply one transport event; returns whether ``wid`` now owes a
        dispatch decision (report consumed / handshake seen).

        Report keys are translated back to session op indices here; a
        key outside this session's range is a stale report from a chunk
        dispatched by a *previous* tenant of the same pool worker
        (released ``"busy"``) and is dropped — its task results belong
        to a session that already ended.
        """
        if kind == "sweep":
            self._check_liveness()
            return False
        self.last_seen[wid] = self._now()
        if kind == "grant":
            # _grant already dispatched; a second dispatch from the
            # caller would clobber the new flight.
            self._grant(wid)
            return False
        if kind == "revoke":
            if not self.alive[wid]:
                return False
            if wid in self.idle:
                self._release_worker(wid)
            else:
                self.revoked.add(wid)
            return False
        if kind == "attached":
            # One-shot shm attach notification — not a scheduling event:
            # the worker's flight stays in place and no dispatch is owed
            # (the chunk reply is still coming).
            op_index = payload[0] - self.key_base
            if self.tracer is not None and 0 <= op_index < len(self.ops):
                self.tracer.emit(
                    SHM_ATTACH,
                    self._now(),
                    proc=wid,
                    op=self.ops[op_index].label,
                    bytes=payload[1],
                )
            return False
        op_index = payload[0] - self.key_base
        if not 0 <= op_index < len(self.ops):
            return False  # stale report from a prior pool session
        flight = self.in_flight.pop(wid, None)
        if kind == "error":
            if len(payload) > 3 and payload[3]:
                # The chunk's successfully-computed records ride along
                # with the failure: settle them first so only the
                # genuinely raising tasks enter retry accounting.
                self._handle_report(
                    wid, (op_index, self._deskew(payload[3])), flight
                )
            self._handle_error(
                wid, (op_index, payload[1], payload[2]), flight
            )
        elif kind == "done":
            batch_meta = payload[2] if len(payload) > 2 else None
            self._handle_report(
                wid, (op_index, self._deskew(payload[1])), flight, batch_meta
            )
        return True

    def _deskew(self, records):
        """Record starts from the pool's epoch to the session's."""
        if not self._skew:
            return records
        return [
            (index, start - self._skew, duration, value)
            for index, start, duration, value in records
        ]

    def _load_op(self, wid: int, op_index: int) -> None:
        """Install one op's payload entry on one pool worker (lazily,
        first dispatch of that op to that worker)."""
        state = self.ops[op_index]
        entry = self._entries.get(op_index)
        if entry is None:
            if state.feed is not None:
                entry = ("stream", state.op.kernel, None)
            elif self.plane_of[op_index] == "shm":
                entry = (
                    "shm", state.op.kernel, self.plane.descriptor(op_index)
                )
            else:
                entry = ("pickle", state.op.kernel, state.op.payloads)
            self._entries[op_index] = entry
        self._loaded.add((wid, op_index))
        self.bytes_shipped += self.pool.load(
            wid, self.key_base + op_index, entry
        )
        if state.feed is not None:
            # A late-joining pool worker needs every still-live page.
            for seq in sorted(state.feed.page_entries):
                self._ship_page(wid, state.feed, seq)

    def job_profile(self) -> OpProfile:
        """This session's *remaining* work as one aggregate op profile.

        The serve daemon's cross-job Eq. 1 balancer treats every running
        job as a single op and rations pool workers by equalized
        finishing times — the paper's allocator lifted one level.  Reads
        scheduling state owned by the session thread without locking;
        the races are benign (a slightly stale estimate re-rations at
        the next scheduling event anyway).
        """
        remaining = 0
        weighted_mean = 0.0
        weighted_var = 0.0
        for state in self.ops:
            if state.finished:
                continue
            profile = self._profile(state)
            tasks = state.remaining + state.outstanding
            if tasks == 0 and not state.started:
                tasks = state.size
            if tasks <= 0:
                continue
            remaining += tasks
            weighted_mean += tasks * profile.mean
            weighted_var += tasks * profile.stddev**2
        if remaining == 0:
            return OpProfile(tasks=1, mean=0.0, stddev=0.0)
        return OpProfile(
            tasks=remaining,
            mean=weighted_mean / remaining,
            stddev=math.sqrt(weighted_var / remaining),
        )

    def _reallocate(self) -> None:
        """Eq. 1 processor rationing -> worker-subset assignment.

        Rations only the *surviving* workers: after a worker death the
        same machinery re-runs over the shrunk pool, which is the whole
        of "continue degraded".
        """
        runnable = [s for s in self.ops if self._runnable(s)]
        if not runnable:
            return
        live = self._live_workers()
        width = len(live)
        if width == 0:
            return
        shares = ration(
            width,
            [
                FinishingTimeEstimator(self._profile(s), self.machine).finish
                for s in runnable
            ],
            allocator=self.cfg.allocator,
            works=[s.remaining_work_estimate() for s in runnable],
        )
        new_assignment = [-1] * self.p
        cursor = 0
        for state, share in zip(runnable, shares):
            for _ in range(max(share, 1)):
                if cursor < width:
                    new_assignment[live[cursor]] = state.index
                    cursor += 1
        while cursor < width:
            new_assignment[live[cursor]] = runnable[-1].index
            cursor += 1
        if new_assignment != self.assignment:
            self.assignment = new_assignment
            if self.tracer is not None:
                self.tracer.emit(
                    ALLOC_DECIDE,
                    self._now(),
                    op="+".join(s.label for s in runnable),
                    shares=[int(s) for s in shares],
                    labels=[s.label for s in runnable],
                )

    def _pick_op(self, wid: int) -> Optional[_OpState]:
        preferred = self.assignment[wid]
        if preferred >= 0 and self._runnable(self.ops[preferred]):
            return self.ops[preferred]
        if not self.cfg.work_conserving and preferred >= 0:
            return None
        candidates = [s for s in self.ops if self._runnable(s)]
        if not candidates:
            return None
        return max(candidates, key=lambda s: s.remaining_work_estimate())

    def _share_width(self, state: _OpState) -> int:
        """TAPER's ``p`` for one op, in worker-speed capacity units."""
        weight = self.pool.weight
        width = sum(
            weight(wid)
            for wid, assigned in enumerate(self.assignment)
            if assigned == state.index and self.alive[wid]
        )
        return max(int(round(width)), 1)

    def _batch_chunk(self, state: _OpState, indices: Sequence[int]) -> bool:
        """Should this chunk go out as one batched call?

        ``batching="off"`` and batch-less kernels never batch; a chunk
        touching any *retried* task always re-runs per task, so a
        raising batch degrades to per-task retries and quarantine
        isolates the one poisoned payload instead of its whole chunk;
        ``"auto"`` additionally skips chunks too small to amortize the
        view plumbing (``"on"`` batches them anyway).
        """
        if self.cfg.batching == "off":
            return False
        if getattr(state, "feed", None) is not None:
            # Stream chunks resolve payloads through the worker's page
            # table (pages come and go mid-run); the batched fast path
            # assumes a fixed payload universe, so streams run per task.
            return False
        kernel = state.op.kernel
        if not isinstance(kernel, Kernel) or not kernel.batchable:
            return False
        if state.retried and any(
            index in state.retried for index in indices
        ):
            return False
        if (
            self.cfg.batching == "auto"
            and len(indices) < BATCH_AUTO_MIN_TASKS
        ):
            return False
        return True

    def _dispatch(self, wid: int) -> bool:
        if not self.alive[wid]:
            return False
        if self.cancel_reason is not None or self.detaching:
            # Draining (or detaching from a resident pool): no new work;
            # workers park idle until teardown/handback.
            self.idle.add(wid)
            return False
        state = self._pick_op(wid)
        if state is None:
            self.idle.add(wid)
            return False
        tracer = self.tracer
        remaining_before = state.remaining
        if tracer is not None:
            tracer.now = self._now()
            if hasattr(state.policy, "tracer"):
                state.policy.tracer = tracer
        size = state.policy.next_chunk(
            remaining_before,
            self._share_width(state),
            state.cost_fn,
            state.dispatched,
        )
        if size <= 0:
            size = 1
        size = min(size, remaining_before)
        # Reclaim + speculation can leave already-settled indices in
        # pending (a speculative copy may finish tasks that were
        # requeued when their primary died); skip them lazily here.
        indices: List[int] = []
        while state.pending and len(indices) < size:
            index = state.pending.popleft()
            if index in state.completed or index in state.quarantined:
                continue
            indices.append(index)
        if not indices:
            self._maybe_complete(state)
            return self._dispatch(wid)
        if self.declared_mode:
            # Observe the chunk's declared costs at dispatch, matching
            # run_central's observation order for equivalence.  Retried
            # tasks were observed at their first dispatch; observing
            # them again would double-count the sample.
            for index in indices:
                if index not in state.retried:
                    state.cost_fn.observe(index, state.declared[index])
        state.inflight.update(indices)
        state.dispatched += len(indices)
        state.chunks += 1
        fault = None
        if self.injector is not None:
            fault = self.injector.on_dispatch(wid)
        if fault is not None and fault[0] == "coordkill":
            # Simulated coordinator crash: the exception unwinds through
            # _run's finally (worker teardown, journal close), then
            # run() exits the process with COORDINATOR_KILL_EXIT.  The
            # chunk we were about to send was never dispatched, so the
            # journal holds only genuinely completed work.
            raise _CoordinatorKill()
        if tracer is not None:
            now = self._now()
            if not state.started:
                tracer.emit(OP_BEGIN, now, op=state.label)
            tracer.emit(
                CHUNK_ACQUIRE,
                now,
                proc=wid,
                op=state.label,
                size=len(indices),
                remaining=remaining_before,
            )
            if fault is not None:
                tracer.emit(
                    FAULT_INJECTED,
                    now,
                    proc=wid,
                    op=state.label,
                    fault=fault[0],
                )
        if fault is not None:
            self.fault_report.injected.append(
                {
                    "fault": fault[0],
                    "worker": wid,
                    "op": state.label,
                    "tasks": len(indices),
                }
            )
        if not state.started:
            state.started = True
            state.first_time = self._now()
        self.in_flight[wid] = _Flight(state.index, indices, self._now())
        self._send_chunk(wid, state, indices, fault)
        return True

    def _send_chunk(
        self, wid: int, state: _OpState, indices: List[int], fault=None
    ) -> None:
        """The one ``run`` command: load the op there first if needed."""
        if (wid, state.index) not in self._loaded:
            self._load_op(wid, state.index)
        self.pool.send(
            wid,
            (
                "run",
                self.key_base + state.index,
                indices,
                fault,
                self._batch_chunk(state, indices),
            ),
        )

    def _wake_idle(self) -> None:
        for idle_wid in sorted(self.idle):
            self.idle.discard(idle_wid)
            self._dispatch(idle_wid)

    def _maybe_complete(self, state: _OpState) -> None:
        if (
            state.finished
            or not state.stream_done
            or state.settled_tasks < state.size
            or not all(self.ops[d].finished for d in state.deps)
        ):
            return
        # Every task is settled; anything still pending or in flight is
        # a stale duplicate copy whose eventual result (if any) will be
        # dropped by the completed-set dedup.  Speculation depends on
        # this: the op must not wait for its overtaken straggler.
        state.pending.clear()
        state.finished = True
        if self.tracer is not None:
            self.tracer.emit(OP_END, state.last_time, op=state.label)
        self._resolve_instant_ops()
        # The running set changed: re-ration and wake idle workers.
        self._reallocate()
        self._wake_idle()

    # -- streaming admission -------------------------------------------------

    def _advance_streams(self) -> None:
        """Pull pages from every stream source whose gates are open.

        Called between scheduling events (main-loop top), so admission
        interleaves with execution: TAPER re-chunks each new page with
        the cost stats observed so far and Eq. 1 re-rations as the
        remaining-cost estimate evolves.
        """
        if not self.streams:
            return
        admitted = False
        for feed in self.streams:
            if self._advance_stream(feed):
                admitted = True
        if admitted:
            self._reallocate()
            self._wake_idle()

    def _advance_stream(self, feed: _StreamFeed) -> bool:
        """Admit pages from one source until a gate closes or it ends;
        returns whether anything was admitted."""
        state = self.ops[feed.op_index]
        if (
            feed.exhausted
            or self.cancel_reason is not None
            or self.detaching
        ):
            return False
        if not all(self.ops[d].finished for d in state.deps):
            return False
        if feed.iterator is None:
            feed.iterator = state.op.open_source()
        admitted = False
        while True:
            reason = self._stream_gate(feed, state)
            if reason:
                if not feed.throttled or feed.blocked_reason != reason:
                    feed.throttled = True
                    feed.blocked_reason = reason
                    feed.backpressure_events += 1
                    if self.tracer is not None:
                        self.tracer.emit(
                            STREAM_BACKPRESSURE,
                            self._now(),
                            op=state.label,
                            state="pause",
                            reason=reason,
                            waiting=state.remaining + state.outstanding,
                            pages=feed.unsettled,
                        )
                break
            if feed.throttled:
                feed.throttled = False
                if self.tracer is not None:
                    self.tracer.emit(
                        STREAM_BACKPRESSURE,
                        self._now(),
                        op=state.label,
                        state="resume",
                        reason=feed.blocked_reason,
                        waiting=state.remaining + state.outstanding,
                        pages=feed.unsettled,
                    )
                feed.blocked_reason = ""
            try:
                raw = next(feed.iterator)
            except StopIteration:
                feed.exhausted = True
                if len(feed.pages) < len(feed.restored_marks):
                    raise CheckpointMismatchError(
                        f"stream source for op {state.label!r} ended "
                        f"after {len(feed.pages)} pages but the journal "
                        f"recorded {len(feed.restored_marks)}; refusing "
                        "to resume against a different source"
                    )
                self._maybe_complete(state)
                break
            self._admit_page(feed, state, as_stream_page(raw))
            admitted = True
        return admitted

    def _stream_gate(self, feed: _StreamFeed, state: _OpState) -> str:
        """Why admission is blocked right now ("" = open).

        Two explicit gates: the bounded *window* of unsettled pages
        (in-flight chunks, the sink, and in-order delivery all hang off
        page settlement, so a slow consumer backs this up), and a
        high/low *watermark* with hysteresis on waiting tasks — once
        paused at ``high``, admission stays paused until the backlog
        drains to ``low``.  The default high watermark derives from the
        observed mean page size; the first page always admits.
        """
        if feed.unsettled >= self.cfg.stream_window:
            return "window"
        if not feed.pages:
            return ""
        waiting = state.remaining + state.outstanding
        high = self.cfg.stream_high_watermark
        if high is None:
            mean_page = sum(info.tasks for info in feed.pages) / len(
                feed.pages
            )
            high = max(1, int(8 * mean_page))
        low = self.cfg.stream_low_watermark
        if low is None:
            low = high // 2
        if feed.throttled and feed.blocked_reason == "watermark":
            return "watermark" if waiting > low else ""
        return "watermark" if waiting >= high else ""

    def _admit_page(
        self, feed: _StreamFeed, state: _OpState, page: StreamPage
    ) -> None:
        """One page enters the run: grow the op, journal the admission
        barrier, enqueue the fresh tasks, ship payloads to workers."""
        seq = len(feed.pages)
        restored = (
            feed.restored_marks[seq]
            if seq < len(feed.restored_marks)
            else None
        )
        base = state.op.admit(page)
        if self.declared_mode:
            if page.costs is None:
                raise MpBackendError(
                    f"cost_source='declared' but stream op "
                    f"{state.label!r} produced page {seq} without costs"
                )
            if state.declared is None:
                state.declared = []
            state.declared.extend(page.costs)
        if restored is not None and (
            restored.base != base or restored.tasks != page.size
        ):
            raise CheckpointMismatchError(
                f"stream page {seq} of op {state.label!r} has base "
                f"{base} and {page.size} tasks but the journal recorded "
                f"base {restored.base} with {restored.tasks} tasks; the "
                "source does not match the checkpointed run"
            )
        restored_count, restored_value = feed.restored_tasks.get(
            seq, (0, 0.0)
        )
        info = _PageInfo(
            seq=seq,
            base=base,
            tasks=page.size,
            settled=restored_count,
            value=restored_value,
            admitted_at=self._now(),
            restored_full=restored_count >= page.size,
        )
        feed.pages.append(info)
        feed.bases.append(base)
        feed.unsettled += 1
        fresh = [
            index
            for index in range(base, base + page.size)
            if index not in state.completed
        ]
        state.pending.extend(fresh)
        if self.journal is not None and restored is None:
            # The durable admission barrier: fsynced *before* the page
            # ships, so a resumed run re-admits exactly the pages whose
            # task results may exist in the journal.  The synchronous
            # fsync is also the implicit journal-writer gate — a slow
            # checkpoint disk slows admission, not memory growth.
            self.journal.append_mark(
                PageMark(
                    op_index=state.index,
                    seq=seq,
                    base=base,
                    tasks=page.size,
                )
            )
        if self.tracer is not None:
            self.tracer.emit(
                STREAM_PAGE,
                self._now(),
                op=state.label,
                state="admit",
                page=seq,
                base=base,
                tasks=page.size,
            )
        if fresh:
            feed.page_entries[seq] = self._page_entry(
                feed, state, page, seq, base
            )
            for wid in self._page_targets(state):
                self._ship_page(wid, feed, seq)
        self._maybe_settle_page(feed, state, info)

    def _page_entry(
        self,
        feed: _StreamFeed,
        state: _OpState,
        page: StreamPage,
        seq: int,
        base: int,
    ) -> tuple:
        """Build the worker entry for one page — a zero-copy shm
        segment when the payloads stack and clear the size bar, pickled
        payloads otherwise (per page: a ragged page falls back without
        demoting the stream)."""
        if self.cfg.data_plane != "pickle" and shm.shm_available():
            planned = shm.plan_payloads(page.payloads)
            if planned is not None:
                mode, stacked = planned
                if (
                    self.cfg.data_plane == "shm"
                    or stacked.nbytes >= shm.AUTO_MIN_BYTES
                ):
                    try:
                        descriptor = self._ensure_plane().add_stream_page(
                            state.index, seq, base, mode, stacked
                        )
                    except OSError:
                        pass  # /dev/shm full: this page rides pickle
                    else:
                        if feed.plane is None:
                            feed.plane = "shm"
                        return ("shm", seq, base, descriptor)
        self.bytes_shipped += shm.estimate_payload_nbytes(page.payloads)
        if feed.plane is None:
            feed.plane = "pickle"
        return ("pickle", seq, base, list(page.payloads))

    def _ensure_plane(self) -> shm.ShmDataPlane:
        """The shm plane, created lazily for the first stream page
        (fixed-size ops map theirs up front in _setup_data_plane)."""
        if self.plane is None:
            self.plane = shm.ShmDataPlane(cache=self.pool.segment_cache)
        return self.plane

    def _page_targets(self, state: _OpState) -> List[int]:
        """Workers owed this op's new pages: the ones that loaded it
        (late joiners catch up in _load_op)."""
        return [
            wid
            for wid in self._live_workers()
            if (wid, state.index) in self._loaded
        ]

    def _ship_page(self, wid: int, feed: _StreamFeed, seq: int) -> None:
        shipped = feed.shipped.setdefault(wid, set())
        if seq in shipped:
            return
        entry = feed.page_entries.get(seq)
        if entry is None:
            return
        shipped.add(seq)
        self.pool.send(wid, ("page", self.key_base + feed.op_index, entry))

    def _stream_account(
        self, state: _OpState, settled: List[Tuple[int, float]]
    ) -> None:
        """Fold newly settled (index, value) pairs into their pages."""
        feed = state.feed
        touched: Dict[int, _PageInfo] = {}
        for index, value in settled:
            position = bisect.bisect_right(feed.bases, index) - 1
            if position < 0:
                continue
            info = feed.pages[position]
            if not info.base <= index < info.base + info.tasks:
                continue
            info.settled += 1
            info.value += value
            touched[position] = info
        for info in touched.values():
            self._maybe_settle_page(feed, state, info)

    def _maybe_settle_page(
        self, feed: _StreamFeed, state: _OpState, info: _PageInfo
    ) -> None:
        """A fully-settled page leaves the window: record its latency,
        drop its payloads everywhere, and deliver what is deliverable."""
        if info.done or info.settled < info.tasks:
            return
        info.done = True
        feed.unsettled -= 1
        now = self._now()
        latency = max(now - info.admitted_at, 0.0)
        feed.latencies.append(latency)
        if self.tracer is not None:
            self.tracer.emit(
                STREAM_PAGE,
                now,
                dur=latency,
                op=state.label,
                state="settle",
                page=info.seq,
                base=info.base,
                tasks=info.tasks,
                value=info.value,
            )
        entry = feed.page_entries.pop(info.seq, None)
        if entry is not None:
            key = self.key_base + state.index
            for wid, seqs in feed.shipped.items():
                if info.seq in seqs:
                    seqs.discard(info.seq)
                    if self.alive[wid]:
                        # FIFO per-worker queues order the drop after
                        # any still-queued run touching this page, and
                        # a worker finishes a chunk before reading the
                        # next message — so the drop can never yank
                        # payloads out from under a running kernel.
                        try:
                            self.pool.send(wid, ("page_drop", key, info.seq))
                        except Exception:  # pragma: no cover
                            pass  # dying worker: reclaim handles it
            if self.plane is not None:
                self.plane.drop_stream_page(state.index, info.seq)
        self._deliver_pages(feed, state)

    def _deliver_pages(self, feed: _StreamFeed, state: _OpState) -> None:
        """Hand settled pages to the op's sink strictly in admission
        order; a slow sink stalls this (coordinator-thread) call and
        therefore admission itself — sink lag is backpressure."""
        sink = state.op.sink
        while feed.next_deliver < len(feed.pages):
            info = feed.pages[feed.next_deliver]
            if not info.done:
                break
            if sink is not None and not info.restored_full:
                if self.journal is not None:
                    self.journal.sync()  # durable before it leaves the run
                sink(
                    PageResult(
                        seq=info.seq,
                        base=info.base,
                        tasks=info.tasks,
                        value=info.value,
                    )
                )
            feed.next_deliver += 1

    # -- data plane ----------------------------------------------------------

    def _setup_data_plane(self) -> None:
        """Decide, per op, whether payloads live in shared memory.

        ``"pickle"`` disables the plane; ``"auto"`` maps eligible ops at
        or above :data:`shm.AUTO_MIN_BYTES`; ``"shm"`` maps every
        eligible op.  Ineligible payloads — and numpy-less hosts — stay
        on the pickle plane silently: fallback is the contract, not an
        error.  Runs before checkpoint replay so restored values can be
        re-materialized into the result buffers.
        """
        if self.cfg.data_plane == "pickle" or not shm.shm_available():
            return
        plane = shm.ShmDataPlane(cache=self.pool.segment_cache)
        for state in self.ops:
            planned = shm.plan_payloads(state.op.payloads)
            if planned is None:
                continue
            mode, stacked = planned
            if (
                self.cfg.data_plane == "auto"
                and stacked.nbytes < shm.AUTO_MIN_BYTES
            ):
                continue
            reused_before = plane.reused_bytes
            try:
                descriptor = plane.add_op(state.index, mode, stacked)
            except OSError:
                continue  # /dev/shm full or absent: keep this op on pickle
            self.plane_of[state.index] = "shm"
            if self.tracer is not None:
                self.tracer.emit(
                    SHM_MAP,
                    0.0,
                    op=state.label,
                    mode=mode,
                    payload_bytes=int(stacked.nbytes),
                    result_bytes=descriptor.size * 8,
                    segment=descriptor.payload_name,
                    reused=plane.reused_bytes > reused_before,
                )
        if len(plane):
            self.plane = plane
        else:
            plane.close(unlink=True)
        self._drain_cache_evictions()

    def _drain_cache_evictions(self) -> None:
        """Surface segment-cache LRU evictions as ``shm.evict`` events.

        Evictions happen inside :meth:`shm.SegmentCache.put` when a new
        segment pushes the cache past its byte budget (or takes a
        colliding probe key's place); the cache logs
        them (it has no tracer) and the session emits them here so a
        long-lived serve daemon's /dev/shm pressure is visible in the
        same stream as the segments' ``shm.map`` events.
        """
        cache = self.pool.segment_cache
        if cache is None:
            return
        evicted = cache.take_evicted()
        if not evicted:
            return
        if self.tracer is not None:
            cache_bytes = cache.stats()["bytes"]
            for probe_key, nbytes in evicted:
                self.tracer.emit(
                    SHM_EVICT,
                    self._now() if self.t0 else 0.0,
                    probe_key=probe_key[:16],
                    bytes=nbytes,
                    cache_bytes=cache_bytes,
                )

    def _handle_report(
        self,
        wid: int,
        report,
        flight: Optional[_Flight] = None,
        batch_meta: Optional[Tuple[int, float, bool]] = None,
    ) -> None:
        op_index, records = report
        state = self.ops[op_index]
        tracer = self.tracer
        if self.plane is not None and self.plane_of[op_index] == "shm":
            # shm-plane records carry None values; read the slots the
            # worker wrote in place.  Reading before the dedup below is
            # fine: a duplicate's slot holds the same deterministic
            # value, and the read is dropped with the record.
            records = [
                (
                    index,
                    start,
                    duration,
                    self.plane.result_value(op_index, index)
                    if value is None
                    else value,
                )
                for index, start, duration, value in records
            ]
        speculative = flight.speculative if flight is not None else False
        # First-result-wins dedup: a task already completed (by the
        # other copy of a speculated chunk, or restored from the
        # journal) or quarantined is dropped, never counted again.
        fresh: List[Tuple[int, float, float, float]] = []
        dups = 0
        for index, start, duration, value in records:
            if index in state.completed or index in state.quarantined:
                dups += 1
                continue
            state.completed.add(index)
            state.inflight.discard(index)
            fresh.append((index, start, duration, value))
        if dups:
            self.fault_report.duplicate_results_dropped += dups
            if tracer is not None:
                tracer.emit(
                    CHUNK_DUPLICATE_DROPPED,
                    self._now(),
                    proc=wid,
                    op=state.label,
                    tasks=dups,
                    speculative=speculative,
                )
        if not fresh:
            self._maybe_complete(state)
            return
        for index, start, duration, value in fresh:
            # Retried tasks ran under post-fault conditions; keep them
            # out of the TAPER sample (their results still count).
            if index not in state.retried:
                state.wall_stats.update(duration)
                if not self.declared_mode:
                    state.cost_fn.observe(index, duration)
            state.measured_work += duration
            state.value_total += value
            if tracer is not None:
                tracer.emit(
                    TASK_DISPATCH,
                    start,
                    dur=duration,
                    proc=wid,
                    op=state.label,
                    task=index,
                )
        first_start = fresh[0][1]
        last_end = fresh[-1][1] + fresh[-1][2]
        state.last_time = max(state.last_time, last_end)
        if batch_meta is not None:
            # Counted over *fresh* records only: a speculation loser's
            # whole batched chunk deduplicates to nothing above and its
            # batch never shows up here (first result wins for batched
            # chunk results exactly as for per-task values).
            tasks_per_call, chunk_duration, zero_copy = batch_meta
            self.batched_chunks += 1
            self.batched_tasks += len(fresh)
            if tracer is not None:
                tracer.emit(
                    CHUNK_BATCHED,
                    first_start,
                    dur=chunk_duration,
                    proc=wid,
                    op=state.label,
                    tasks_per_call=tasks_per_call,
                    fresh=len(fresh),
                    zero_copy=zero_copy,
                )
        if tracer is not None:
            tracer.emit(
                CHUNK_COMPLETE,
                first_start,
                dur=last_end - first_start,
                proc=wid,
                op=state.label,
                tasks=len(fresh),
            )
        if state.pending and (
            self.fault_report.tasks_reassigned
            or self.fault_report.chunks_speculated
        ):
            # A speculative winner may have settled indices that a
            # reclaim put back into pending; purge so `remaining` stays
            # truthful for the chunk policy and completion checks.
            state.pending = deque(
                index
                for index in state.pending
                if index not in state.completed
                and index not in state.quarantined
            )
        if self.journal is not None:
            record = ChunkRecord(
                op_index=op_index,
                label=state.label,
                worker=wid,
                time=self._now(),
                tasks=[
                    (index, duration, value, state.attempts.get(index, 0))
                    for index, _start, duration, value in fresh
                ],
            )
            synced = self.journal.append(record)
            if tracer is not None:
                tracer.emit(
                    CHECKPOINT_WRITE,
                    self._now(),
                    op=state.label,
                    tasks=len(fresh),
                    synced=synced,
                )
        if state.feed is not None:
            # After the journal write: a settled page's sink delivery
            # must never precede the durability of its task results.
            self._stream_account(
                state,
                [
                    (index, value)
                    for index, _start, _duration, value in fresh
                ],
            )
        self._maybe_complete(state)

    # -- fault handling ------------------------------------------------------

    def _handle_error(
        self, wid: int, payload, flight: Optional[_Flight] = None
    ) -> None:
        """A kernel raised inside a chunk: retry, quarantine, or fail."""
        op_index, indices, tb = payload
        state = self.ops[op_index]
        if flight is not None and flight.speculative:
            # A failed speculative copy costs nothing: the primary is
            # still in flight and owns all retry accounting.
            return
        if self.cfg.on_fault == "fail":
            raise MpBackendError(f"worker {wid} raised:\n{tb}")
        now = self._now()
        survivors: List[int] = []
        quarantined_indices: List[int] = []
        max_attempt = 0
        quarantined_now = 0
        for index in indices:
            state.inflight.discard(index)
            if index in state.completed or index in state.quarantined:
                continue  # another copy already settled this task
            attempt = state.attempts.get(index, 0) + 1
            state.attempts[index] = attempt
            state.retried.add(index)
            if attempt > self.cfg.max_retries:
                state.quarantined.add(index)
                quarantined_now += 1
                quarantined_indices.append(index)
                self.fault_report.quarantined.append((state.label, index))
            else:
                survivors.append(index)
                max_attempt = max(max_attempt, attempt)
        backoff = 0.0
        if survivors:
            backoff = self.cfg.retry_backoff * (2 ** (max_attempt - 1))
            self.delayed.append((now + backoff, op_index, survivors))
            self.fault_report.retries += 1
        if self.tracer is not None:
            self.tracer.emit(
                CHUNK_RETRIED,
                now,
                proc=wid,
                op=state.label,
                tasks=len(indices),
                attempt=max_attempt,
                backoff=backoff,
                quarantined=quarantined_now,
            )
        if state.feed is not None and quarantined_indices:
            # Poisoned tasks settle their page with zero value so a
            # quarantine cannot wedge the admission window.
            self._stream_account(
                state, [(index, 0.0) for index in quarantined_indices]
            )
        self._maybe_complete(state)

    def _release_delayed(self) -> None:
        """Move backoff-expired chunks back into their pending queues."""
        if not self.delayed:
            return
        now = self._now()
        ready = [entry for entry in self.delayed if entry[0] <= now]
        if not ready:
            return
        self.delayed = [entry for entry in self.delayed if entry[0] > now]
        for _, op_index, indices in ready:
            state = self.ops[op_index]
            state.pending.extendleft(reversed(indices))
        self._wake_idle()

    def _next_delayed_due(self) -> Optional[float]:
        if not self.delayed:
            return None
        return min(entry[0] for entry in self.delayed)

    def _unsettled(self, flight: _Flight) -> List[int]:
        """The flight's task indices no copy has settled yet."""
        state = self.ops[flight.op_index]
        return [
            index
            for index in flight.indices
            if index not in state.completed
            and index not in state.quarantined
        ]

    def _check_liveness(self) -> None:
        """The heartbeat sweep: hand dead workers back, let the fleet
        heal, then reclaim the dead workers' chunks.

        The fleet's ``is_alive`` is authoritative; the ``last_seen``
        timestamps recorded per message are kept in the fault report
        for post-mortems.  The fleet's facts are reported *before* the
        reclaim so a lost host's ``reclaimed`` count can still be read
        off ``in_flight``.
        """
        dead = [
            wid
            for wid in range(self.p)
            if self.alive[wid] and not self.pool.is_alive(wid)
        ]
        for wid in dead:
            self.pool.release(wid, "dead")
        infos = self.pool.sweep()
        for info in infos:
            if info["kind"] == "host_lost":
                info["reclaimed"] = sum(
                    len(self._unsettled(self.in_flight[wid]))
                    for wid in info["wids"]
                    if wid in self.in_flight
                    and not self.in_flight[wid].speculative
                )
        report_fleet_events(
            infos, self.tracer, self._now(), self.fault_report
        )
        for wid in dead:
            self._reclaim(wid)

    def _reclaim(self, wid: int) -> None:
        """Settle the books of one dead worker and continue degraded."""
        now = self._now()
        self.alive[wid] = False
        self.live_count -= 1
        self.idle.discard(wid)
        self.revoked.discard(wid)
        # A respawned incarnation of this slot starts with an empty op
        # table and no stream pages: forget everything we shipped so a
        # re-grant reloads from scratch.
        self._loaded = {(w, o) for (w, o) in self._loaded if w != wid}
        for feed in self.streams:
            feed.shipped.pop(wid, None)
        flight = self.in_flight.pop(wid, None)
        if flight is not None and flight.speculative:
            # A dead speculative copy loses nothing: the primary flight
            # still owns these indices.
            flight = None
        lost: List[int] = []
        if flight is not None:
            state = self.ops[flight.op_index]
            state.inflight.difference_update(flight.indices)
            lost = self._unsettled(flight)
        if self.tracer is not None:
            self.tracer.emit(
                WORKER_DIED,
                now,
                proc=wid,
                tasks=len(lost),
                last_seen=self.last_seen.get(wid, 0.0),
            )
        self.fault_report.workers_died.append(wid)
        if self.cfg.on_fault == "fail":
            raise MpBackendError(f"worker {wid} died unexpectedly")
        if lost:
            # A crash loses the dead worker's unreported results;
            # re-running the un-settled tasks is safe — any copy that
            # *did* report was settled into `completed` and is excluded
            # from `lost`, so nothing double-counts.
            state.pending.extendleft(reversed(lost))
            for index in lost:
                state.retried.add(index)
                state.attempts[index] = state.attempts.get(index, 0) + 1
            self.fault_report.chunks_reassigned += 1
            self.fault_report.tasks_reassigned += len(lost)
            if self.tracer is not None:
                self.tracer.emit(
                    CHUNK_REASSIGN,
                    now,
                    proc=wid,
                    op=state.label,
                    tasks=len(lost),
                    victim=wid,
                )
        elif flight is not None:
            # Everything the dead worker held was already settled (its
            # speculative duplicate won); the op may be done.
            self._maybe_complete(state)
        if self.live_count == 0 and not self.pool.can_recover():
            # A tenant holding no live worker just waits for its next
            # grant — only a fleet with nobody left alive *and* nobody
            # respawnable is unrecoverable.
            raise MpBackendError(
                "every worker process died; nothing left to run on"
            )
        # Continue degraded: re-ration the survivors and put them to
        # work on the reclaimed chunks.
        self._reallocate()
        self._wake_idle()

    # -- durability ----------------------------------------------------------

    def _setup_checkpoint(self) -> None:
        """Open (or replay) the chunk journal in ``cfg.checkpoint_dir``."""
        cfg = self.cfg
        directory = cfg.checkpoint_dir
        manifest = RunManifest.build(cfg, [state.op for state in self.ops])
        if cfg.resume:
            stored = load_manifest(directory)
            if stored.fingerprint != manifest.fingerprint:
                raise CheckpointMismatchError(
                    f"checkpoint at {directory} was written by a "
                    "different run; refusing to replay its journal "
                    f"({stored.describe_mismatch(manifest)})"
                )
            self._apply_replay(read_journal(directory))
        self.journal = ChunkJournal(
            directory,
            cfg.checkpoint_interval,
            header=None if cfg.resume else manifest,
        )

    def _apply_replay(self, replay: JournalReplay) -> None:
        """Restore journaled chunk results; only the remainder will run.

        Per journaled task: the value and duration fold into the totals
        exactly as the live report did, and first-attempt tasks
        (``attempt == 0``) re-seed the TAPER cost sample — declared
        costs in declared mode (matching dispatch-time observation),
        measured durations otherwise.  Quarantine is *not* persisted:
        a task that exhausted its retry budget before the crash gets a
        fresh budget on resume.
        """
        for mark in sorted(replay.marks, key=lambda m: (m.op_index, m.seq)):
            if not 0 <= mark.op_index < len(self.ops):
                continue
            feed = self.ops[mark.op_index].feed
            if feed is None:
                continue
            # Only the contiguous seq prefix is trustworthy: marks are
            # fsynced in admission order, so a gap means torn data and
            # everything past it is discarded with the torn records.
            if mark.seq == len(feed.restored_marks):
                feed.restored_marks.append(mark)
                feed.restored_bases.append(mark.base)
        for record in replay.records:
            if not 0 <= record.op_index < len(self.ops):
                continue  # fingerprint matched, so only torn data hits this
            state = self.ops[record.op_index]
            feed = state.feed
            restored = 0
            for index, duration, value, attempt in record.tasks:
                if feed is not None:
                    # A stream has no size yet; a task is admissible iff
                    # a restored PageMark covers it (the mark was
                    # durable before the page could ship, so an
                    # uncovered index is torn data).
                    position = (
                        bisect.bisect_right(feed.restored_bases, index) - 1
                    )
                    if position < 0:
                        continue
                    mark = feed.restored_marks[position]
                    if index >= mark.base + mark.tasks:
                        continue
                elif not 0 <= index < state.size:
                    continue
                if index in state.completed:
                    continue
                if feed is not None:
                    count, total = feed.restored_tasks.get(
                        mark.seq, (0, 0.0)
                    )
                    feed.restored_tasks[mark.seq] = (
                        count + 1,
                        total + value,
                    )
                state.completed.add(index)
                state.value_total += value
                state.measured_work += duration
                if self.plane is not None and self.plane.has_op(
                    record.op_index
                ):
                    # Keep the shared result buffer a complete
                    # materialization of the op across restarts.
                    self.plane.write_result(record.op_index, index, value)
                if attempt > 0:
                    state.retried.add(index)
                    state.attempts[index] = max(
                        state.attempts.get(index, 0), attempt
                    )
                else:
                    state.wall_stats.update(duration)
                    if self.declared_mode:
                        if state.declared is not None:
                            state.cost_fn.observe(
                                index, state.declared[index]
                            )
                    else:
                        state.cost_fn.observe(index, duration)
                restored += 1
            if restored:
                state.chunks += 1
                state.dispatched += restored
                state.started = True
                self.restored_chunks += 1
        for state in self.ops:
            if not state.completed:
                continue
            self.tasks_resumed += len(state.completed)
            state.pending = deque(
                index
                for index in range(state.size)
                if index not in state.completed
            )
        # Ops wholly restored are finished (in dependency order).
        self._resolve_instant_ops()
        if self.tracer is not None and (
            self.tasks_resumed or replay.dropped
        ):
            self.tracer.emit(
                RUN_RESUMED,
                0.0,
                tasks=self.tasks_resumed,
                chunks=self.restored_chunks,
                dropped=replay.dropped,
                duplicates=replay.duplicates,
            )

    def _maybe_speculate(self) -> None:
        """Duplicate overdue chunks onto idle workers (first result wins).

        A primary flight is *overdue* when its elapsed wall-clock time
        exceeds ``speculation_factor`` times the Kruskal–Weiss finishing
        estimate for a block of n tasks — ``n·mean + lag_term(...)``
        over the sampled first-attempt durations.  Only one speculative
        copy per flight, most-overdue victims first, and the copy
        bypasses the fault injector: it exists to beat a straggler, not
        to re-roll its fault.
        """
        factor = self.cfg.speculation_factor
        if factor is None or not self.idle or self.cancel_reason is not None:
            return
        now = self._now()
        candidates: List[Tuple[float, float, float, int, List[int]]] = []
        for wid, flight in self.in_flight.items():
            if flight.speculative or flight.speculated:
                continue
            if not self.alive[wid]:
                continue
            state = self.ops[flight.op_index]
            stats = state.wall_stats
            if stats.count < 2 or stats.mean <= 0:
                continue  # no basis for a tail estimate yet
            live = self._unsettled(flight)
            if not live:
                continue
            n = len(flight.indices)
            expected = n * stats.mean + lag_term(
                stats.mean,
                stats.stddev,
                n,
                max(self.live_count, 2),
                adaptive=False,
            )
            elapsed = now - flight.started_at
            if expected <= 0 or elapsed <= factor * expected:
                continue
            candidates.append(
                (elapsed - factor * expected, elapsed, expected, wid, live)
            )
        candidates.sort(key=lambda item: -item[0])
        for _overdue, elapsed, expected, victim, live in candidates:
            if not self.idle:
                return
            self._dispatch_speculative(victim, live, elapsed, expected)

    def _dispatch_speculative(
        self,
        victim: int,
        live: List[int],
        elapsed: float = 0.0,
        expected: float = 0.0,
    ) -> bool:
        """Hand a duplicate of ``victim``'s chunk to an idle helper.

        ``live`` was computed at candidate-collection time; reports
        processed between collection and this dispatch (an earlier
        candidate's helper finishing, the victim's own report racing in)
        may have settled some — or all — of it.  Re-filter against the
        authoritative ``completed``/``quarantined`` sets *now*: a stale
        list would put a helper to work on tasks whose results are
        guaranteed to be dropped, and an empty one would burn the helper
        for nothing.  Returns whether a duplicate was dispatched.
        """
        flight = self.in_flight.get(victim)
        if flight is None or flight.speculated:
            return False
        state = self.ops[flight.op_index]
        live = [
            index
            for index in live
            if index not in state.completed
            and index not in state.quarantined
        ]
        if not live:
            # The victim settled in the meantime; the helper stays idle
            # for real work (or the next overdue victim).
            return False
        if not self.idle:
            return False
        now = self._now()
        helper = min(self.idle)
        self.idle.discard(helper)
        flight.speculated = True
        self.in_flight[helper] = _Flight(
            flight.op_index, list(live), now, speculative=True
        )
        self._send_chunk(helper, state, list(live))
        self.fault_report.chunks_speculated += 1
        if self.tracer is not None:
            self.tracer.emit(
                CHUNK_SPECULATE,
                now,
                proc=helper,
                op=state.label,
                tasks=len(live),
                victim=victim,
                elapsed=elapsed,
                expected=expected,
            )
        return True

    def _drain(self) -> None:
        """Graceful cancellation: harvest in-flight results, journal
        them, then hand off to the normal teardown.

        Dispatch is suppressed (:meth:`_dispatch` parks workers idle
        while ``cancel_reason`` is set), so the loop only consumes
        reports from primaries still alive, bounded by
        ``DRAIN_GRACE`` so a hung worker cannot turn Ctrl-C into a hang.
        """
        deadline = time.perf_counter() + min(DRAIN_GRACE, self.cfg.mp_timeout)

        def live_primaries() -> bool:
            return any(
                not flight.speculative
                and self.alive[wid]
                and self.pool.is_alive(wid)
                for wid, flight in self.in_flight.items()
            )

        while live_primaries() and time.perf_counter() < deadline:
            if not self._step(0.1):
                self._check_liveness()
        if self.journal is not None:
            self.journal.sync()
        remaining = sum(
            state.size - state.settled_tasks for state in self.ops
        )
        if self.tracer is not None:
            self.tracer.emit(
                RUN_CANCELLED,
                self._now(),
                reason=self.cancel_reason,
                remaining=remaining,
            )

    def _leave_pool(self) -> None:
        """Hand every borrowed worker back to the pool.

        Runs in ``_run_pool``'s ``finally`` on every exit path — normal
        completion, drain, backend error.  Ops are unloaded from the
        workers that loaded them (best-effort; the messages queue behind
        any chunk still running, so a straggler finishes its chunk
        before the entry disappears), then each granted worker is
        released: ``"free"`` if idle, ``"busy"`` if a chunk of ours is
        still on it — the server's router re-frees a busy worker when
        its stale report surfaces, and a prepared pool's next session
        drops the stale report by its out-of-range key.
        """
        self.detaching = True
        for wid, op_index in sorted(self._loaded):
            if not self.pool.is_alive(wid):
                continue
            try:
                self.pool.unload(wid, self.key_base + op_index)
            except Exception:  # pragma: no cover - handback best effort
                pass
        for wid in range(self.p):
            if not self.alive[wid]:
                continue
            status = "busy" if wid in self.in_flight else "free"
            self.in_flight.pop(wid, None)
            self._release_worker(wid, status)

    # -- main loop -----------------------------------------------------------

    def run(self) -> BackendRunResult:
        try:
            return self._run()
        except _CoordinatorKill:
            # Simulated coordinator crash (`coordkill` fault).  _run's
            # finally already handed the workers back and closed the
            # journal; stop the fleet (workers, cached segments) and
            # exit hard so the caller observes a real crash (no result,
            # distinctive exit status), minus the orphan processes.
            self.pool.stop()
            os._exit(COORDINATOR_KILL_EXIT)

    def _run(self) -> BackendRunResult:
        """Map the data plane, run the pool, and *always* unlink.

        The ``finally`` here is the crash-cleanup protocol: it runs
        after worker handback on every exit path — normal completion,
        backend errors, graceful cancellation, and the simulated
        coordinator kill (:class:`_CoordinatorKill` unwinds through it
        before ``run()`` calls ``os._exit``) — so injected kills never
        leak ``/dev/shm`` segments.
        """
        self._resolve_instant_ops()
        self._setup_data_plane()
        try:
            return self._run_pool()
        finally:
            if self.plane is not None:
                self.plane.close(unlink=True)

    def _validate_picklable(self) -> None:
        """Fail naming the op, not with a raw ``PicklingError`` out of a
        queue feeder, when a kernel or payload cannot ride a ``load``
        message.  Samples each op's kernel plus its first pickle-plane
        payload — pickling whole payload lists here would pay the
        serialization cost twice."""
        for state in self.ops:
            try:
                pickle.dumps(state.op.kernel)
            except Exception as error:
                raise MpBackendError(
                    f"op {state.label!r}: kernel is not picklable, as "
                    f"shipping it to a worker requires — use a "
                    f"module-level function ({error})"
                ) from None
            if self.plane_of[state.index] != "shm" and state.op.payloads:
                try:
                    pickle.dumps(state.op.payloads[0])
                except Exception as error:
                    raise MpBackendError(
                        f"op {state.label!r}: payloads are not "
                        f"picklable, as pickle-plane ops require "
                        f"({error})"
                    ) from None

    def _run_pool(self) -> BackendRunResult:
        cfg = self.cfg
        pool = self.pool
        if not pool.running:
            raise MpBackendError("the worker pool is not running")
        self._validate_picklable()
        if cfg.checkpoint_dir:
            self._setup_checkpoint()
        if all(state.finished for state in self.ops):
            # Nothing to execute: zero-size ops, or a resume of a run
            # that had already finished (totals restored wholly from
            # the journal, zero chunks dispatched).
            if self.journal is not None:
                self.journal.close()
            return self._result(0.0)
        self.t0 = time.perf_counter()
        self._skew = self.t0 - pool.t0
        # shm segments were laid out by _setup_data_plane; pickle
        # entries ship lazily per load, so the estimate starts at the
        # plane's footprint and grows per _load_op.
        self.bytes_shipped = (
            self.plane.payload_bytes if self.plane is not None else 0
        )
        for wid in pool.claim():
            self.alive[wid] = True
            self.live_count += 1
        if self.live_count == 0 and not pool.can_recover():
            raise MpBackendError("no live workers left in the pool")
        try:
            self._reallocate()
            # Prime the stream windows before anyone asks for work.
            self._advance_streams()
            # Put the claimed workers to work immediately (a tenant
            # holds none yet: its grants dispatch as they arrive).
            for wid in self._live_workers():
                self._dispatch(wid)
            self._coordinate()
        finally:
            self._leave_pool()
            if self.journal is not None:
                self.journal.close()
        makespan = max(
            (state.last_time for state in self.ops if state.size), default=0.0
        )
        return self._result(makespan)

    def _step(self, timeout: float) -> bool:
        """Apply the fleet's next event; ``False`` if none came within
        ``timeout``."""
        try:
            kind, wid, payload = self.pool.recv(timeout)
        except queue_module.Empty:
            return False
        if self._on_message(kind, wid, payload):
            if wid in self.revoked:
                # The balancer's revoke waited for this report; hand
                # the worker back instead of re-dispatching.
                self._release_worker(wid)
            else:
                self._dispatch(wid)  # parks it idle while draining
        return True

    def _coordinate(self) -> None:
        """The scheduling loop proper, transport-agnostic.

        Owns the watchdog deadline, heartbeat cadence, signal-driven
        cancellation and the drain path; worker handback stays with
        the caller.
        """
        cfg = self.cfg
        deadline = time.perf_counter() + cfg.mp_timeout
        next_heartbeat = time.perf_counter() + cfg.heartbeat_interval
        # Graceful cancellation: flip a flag from the signal handler and
        # let the main loop notice at its next iteration — only when
        # this is the process's main thread (signal.signal requires it).
        installed: Dict[int, object] = {}

        def _request_cancel(signum, frame):
            self.cancel_reason = f"signal:{signal.Signals(signum).name}"

        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    installed[signum] = signal.signal(
                        signum, _request_cancel
                    )
                except (ValueError, OSError):  # pragma: no cover
                    pass
        try:
            while not all(state.finished for state in self.ops):
                if (
                    self.cancel_reason is None
                    and cfg.wall_clock_limit is not None
                    and self._now() >= cfg.wall_clock_limit
                ):
                    self.cancel_reason = "wall_clock_limit"
                if self.cancel_reason is not None:
                    self._drain()
                    break
                self._release_delayed()
                # Admission interleaves with scheduling: gates re-check
                # here every iteration (reports just settled pages, the
                # sink just drained, a watermark just cleared).
                self._advance_streams()
                now_abs = time.perf_counter()
                remaining_time = deadline - now_abs
                if remaining_time <= 0:
                    raise MpBackendError(
                        f"mp backend watchdog expired after "
                        f"{cfg.mp_timeout:.1f}s"
                    )
                timeout = min(0.5, remaining_time, cfg.heartbeat_interval)
                due = self._next_delayed_due()
                if due is not None:
                    timeout = min(timeout, max(due - self._now(), 0.001))
                quiet = not self._step(timeout)
                if quiet or time.perf_counter() >= next_heartbeat:
                    self._check_liveness()
                    self._maybe_speculate()
                    next_heartbeat = (
                        time.perf_counter() + cfg.heartbeat_interval
                    )
                if (
                    self.cancel_reason is None
                    # A cancelled run parks workers idle on purpose; the
                    # loop top notices cancel_reason next iteration and
                    # drains instead of misreading the idle as deadlock.
                    and self.live_count > 0
                    and len(self.idle) == self.live_count
                    and all(s.outstanding == 0 for s in self.ops)
                    and not self.delayed
                    # An idle fleet with a live stream source is not
                    # deadlock — it is waiting for the next page.
                    and all(s.stream_done for s in self.ops)
                    and not all(s.finished for s in self.ops)
                ):
                    # A session holding no worker is not deadlocked —
                    # it is waiting for its next grant (bounded by the
                    # watchdog above).
                    raise MpBackendError(
                        "dependency deadlock: every worker idle with "
                        "operations still incomplete"
                    )
        except KeyboardInterrupt:
            # SIGINT landed outside the handler path (handler install
            # failed, or the default handler was already running): still
            # cancel gracefully rather than orphaning the pool.
            if self.cancel_reason is None:
                self.cancel_reason = "signal:SIGINT"
            self._drain()
        finally:
            for signum, handler in installed.items():
                try:
                    signal.signal(signum, handler)
                except (ValueError, OSError):  # pragma: no cover
                    pass

    @staticmethod
    def _latency_percentile(values: List[float], q: float) -> float:
        if not values:
            return 0.0
        ordered = sorted(values)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def _result(self, makespan: float) -> BackendRunResult:
        per_op = {
            state.label: OpOutcome(
                name=state.label,
                tasks=state.done_tasks,
                chunks=state.chunks,
                work=state.measured_work,
                value_total=state.value_total,
                finish=state.last_time,
            )
            for state in self.ops
        }
        self.fault_report.worker_last_seen = dict(self.last_seen)
        stream = {
            state.label: {
                "pages": len(state.feed.pages),
                "tasks": state.size,
                "backpressure_events": state.feed.backpressure_events,
                "plane": state.feed.plane or "pickle",
                "page_latency_p50": self._latency_percentile(
                    state.feed.latencies, 0.50
                ),
                "page_latency_p99": self._latency_percentile(
                    state.feed.latencies, 0.99
                ),
            }
            for state in self.ops
            if state.feed is not None
        }
        data_plane = {}
        for state in self.ops:
            if state.feed is not None:
                # A stream's plane is decided page by page; report the
                # plane its shipped pages actually rode.
                data_plane[state.label] = state.feed.plane or "pickle"
            else:
                data_plane[state.label] = (
                    self.pool.plane_of(self.key_base + state.index)
                    or self.plane_of[state.index]
                )
        journal = self.journal
        return BackendRunResult(
            backend=self.pool.name,
            makespan=makespan,
            total_work=sum(s.measured_work for s in self.ops),
            processors=self.p,
            tasks_total=sum(s.done_tasks for s in self.ops),
            chunks=sum(s.chunks for s in self.ops),
            time_unit="seconds",
            value_total=sum(s.value_total for s in self.ops),
            per_op=per_op,
            shares=[],
            fault_report=self.fault_report,
            cancelled=self.cancel_reason is not None,
            cancel_reason=self.cancel_reason or "",
            resume_dir=self.cfg.checkpoint_dir,
            tasks_resumed=self.tasks_resumed,
            data_plane=data_plane,
            stream=stream,
            bytes_shipped=self.bytes_shipped,
            shm_bytes=self.plane.shm_bytes if self.plane is not None else 0,
            shm_reused_bytes=(
                self.plane.reused_bytes if self.plane is not None else 0
            ),
            batched_chunks=self.batched_chunks,
            batched_tasks=self.batched_tasks,
            journal_records=journal.records_written if journal else 0,
            journal_bytes=journal.bytes_written if journal else 0,
            journal_syncs=journal.syncs if journal else 0,
        )


# ---------------------------------------------------------------------------
# Backend facade
# ---------------------------------------------------------------------------


class MultiprocessingBackend:
    """Real execution on ``RunConfig.processors`` child processes.

    :meth:`prepare` keeps a resident :class:`WorkerPool` until
    :meth:`release`, so runs skip worker spawn and (via the segment
    cache) shm payload layout.  A run uses it when its config matches
    (processor count, start method) and no other run holds it;
    otherwise it builds an ephemeral pool for the call and stops it on
    every exit path.
    """

    name = "mp"

    def __init__(self):
        self._pool: Optional[WorkerPool] = None

    @property
    def pool(self) -> Optional[WorkerPool]:
        """The resident pool while prepared, else ``None``."""
        return self._pool

    def prepare(self, cfg: RunConfig) -> "MultiprocessingBackend":
        """Spawn the resident pool once; subsequent runs reuse it."""
        if self._pool is None or not self._pool.running:
            pool = WorkerPool(
                cfg.processors,
                start_method=cfg.mp_start_method,
                pool_config=cfg.pool,
            )
            pool.start()
            self._pool = pool
        return self

    def release(self) -> None:
        """Stop the resident pool (no-op when not prepared)."""
        if self._pool is not None:
            self._pool.stop()
            self._pool = None

    def _pool_for(self, cfg: RunConfig) -> Optional[WorkerPool]:
        """The prepared pool iff this config can actually use it."""
        pool = self._pool
        if pool is None or not pool.running:
            return None
        if cfg.processors != pool.p:
            return None
        if (cfg.mp_start_method or default_start_method()) != pool.method:
            return None
        if not pool.live_workers():
            return None
        return pool

    @contextlib.contextmanager
    def _fleet(self, real_ops: Sequence[RealOp], cfg: RunConfig):
        """The started fleet one session runs on, with the config as
        that fleet sees it: the prepared pool when it fits and is not
        in use, else an ephemeral one stopped on every exit path.
        (``real_ops`` is for fleets that must refuse some ops.)"""
        pool = self._pool_for(cfg)
        if pool is not None and pool.try_acquire():
            leave = pool.release_use
        else:
            pool = WorkerPool(
                cfg.processors,
                start_method=cfg.mp_start_method,
                pool_config=cfg.pool,
            )
            leave = pool.stop
        try:
            pool.start()  # a no-op on the prepared pool
            yield pool, cfg
        finally:
            leave()

    def _session(
        self,
        ops: Sequence[AnyOp],
        deps: Sequence[Set[int]],
        cfg: RunConfig,
    ) -> BackendRunResult:
        real_ops = [as_real_op(op, cfg) for op in ops]
        with self._fleet(real_ops, cfg) as (fleet, cfg):
            return _MpSession(real_ops, deps, cfg, fleet).run()

    def run_op(self, op: AnyOp, cfg: RunConfig) -> BackendRunResult:
        return self._session([op], [set()], cfg)

    def run_ops(
        self, ops: Sequence[AnyOp], cfg: RunConfig
    ) -> BackendRunResult:
        # Honour declared name-dependencies among RealOps (graph fragments
        # flattened to a list); plain ParallelOps are all concurrent.
        return self._session(ops, name_deps(ops), cfg)

    def run_pipeline(
        self, iterations: Sequence, cfg: RunConfig
    ) -> BackendRunResult:
        """A_I / A_D / A_M with cross-iteration overlap.

        Dependences: A_D(i) needs A_I(i); A_M(i) needs A_D(i); A_D(i+1)
        needs A_M(i) (the loop-carried flow through the merged array).
        A_I is independent, so iteration i+1's independent stage overlaps
        iteration i's dependent work exactly as in the simulator.
        """
        from ..task import ParallelOp

        ops: List[AnyOp] = []
        deps: List[Set[int]] = []
        merge_of_prev: Optional[int] = None
        for i, iteration in enumerate(iterations):
            stages = (
                (f"independent[{i}]", iteration.independent),
                (f"dependent[{i}]", iteration.dependent),
                (f"merge[{i}]", iteration.merge),
            )
            indices = []
            for label, stage in stages:
                indices.append(len(ops))
                ops.append(
                    ParallelOp(
                        name=label,
                        costs=list(stage.costs),
                        bytes_per_task=stage.bytes_per_task,
                    )
                )
            indep_index, dep_index, merge_index = indices
            deps.append(set())  # A_I(i): independent
            dep_deps = {indep_index}
            if merge_of_prev is not None:
                dep_deps.add(merge_of_prev)
            deps.append(dep_deps)  # A_D(i)
            deps.append({dep_index})  # A_M(i)
            merge_of_prev = merge_index
        return self._session(ops, deps, cfg)

    def run_graph(
        self,
        graph,
        op_tasks: Dict[int, AnyOp],
        cfg: RunConfig,
        allow_placeholder: bool = False,
    ) -> BackendRunResult:
        """Every graph node becomes a session op; edges become
        dependences.  Unattached non-mirror nodes are refused unless
        ``allow_placeholder=True``, in which case they run as zero-task
        pass-throughs (structure only)."""
        ops, deps = graph_ops_and_deps(graph, op_tasks, allow_placeholder)
        return self._session(ops, deps, cfg)


register_backend("mp", MultiprocessingBackend)
