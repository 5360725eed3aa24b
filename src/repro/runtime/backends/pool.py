"""The local fleet: worker processes and where their payload bytes live.

:class:`WorkerPool` is the one owner of worker processes — it spawns,
handshakes, respawns and reaps every :func:`_worker_main` process — and
the local answer to :class:`~repro.runtime.backends.base.Fleet`, whose
docstring is the whole contract with the session that borrows it; its
slot rules are :class:`SlotPool`'s, as the simulator's fleet's are.  The
pool is resident (:meth:`MultiprocessingBackend.prepare`, ``repro
serve``, a ``repro hostagent``) or ephemeral around one unprepared run.

**Data plane**: payload movement is its own axis, and the pool's side
of the seam.  The pickle plane ships an op's payload list to every
worker that runs it — O(P x total payload bytes) of ``load`` messages —
and ships every task's value back through the queue.  With the
shared-memory plane (:mod:`repro.runtime.backends.shm`), payloads that
are numpy-compatible and large enough are laid out once in
``multiprocessing.shared_memory`` segments, workers attach zero-copy
views, dispatch messages stay index-only, and chunk values are written
in place into a shared per-op result buffer that :meth:`WorkerPool.recv`
reads back out — only timing records cross the queue.  Eligibility is
per op key (:func:`shm.place`; a stream page is a key like any other);
ineligible payloads (and numpy-less hosts) fall back to pickle
transparently.

**Clock domain.**  The pool has one clock, :meth:`WorkerPool.now`
(seconds since :meth:`WorkerPool.start`): worker records, pool
elasticity (death windows, respawn backoff, handshake deadlines) and
the deadlines of whoever drives the pool — a session, the serve
daemon's router and front end — all read it.  :meth:`WorkerPool.recv`
turns a due healing deadline, like a death, into an event.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import queue as queue_module
import select
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from ..config import PoolConfig
from ..faults import FaultInjector, InjectedFault
from . import shm
from .base import load_facts

#: Rolling window (seconds) for the crash-loop death count of a pool slot.
RESPAWN_WINDOW = 30.0

#: Seconds a started, respawned or grown worker gets to complete its
#: ready handshake before the attempt is counted as a death.
READY_TIMEOUT = 30.0


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


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(wid, request_q, reply_q, t0):
    """Chunk self-scheduling loop of one worker process.

    The worker reads four messages: ``load``, ``unload``, ``run`` and
    ``stop``.  The op table maps an *op key* to one entry,
    ``("pickle", kernel, payloads)`` or ``("shm", kernel,
    descriptor)``, and a ``run`` names a key and task indices local to
    that key's payloads.  Every worker starts with an *empty* table;
    the pool installs entries with ``("load", key, entry)`` messages —
    op keys are a pool-wide monotonic namespace
    (:meth:`WorkerPool.allocate_keys`), so entries of different
    sessions (jobs) sharing the pool never collide and a stale report
    is recognizable by a key its session no longer holds — and drops
    them again with ``("unload", key)`` when they end.  A fixed op is
    one key; each page of a stream is another.
    shm-plane ops are attached lazily on first dispatch (zero-copy
    views over the pool's segments, announced with a one-shot
    ``("attached", wid, (key, bytes))`` message).  All timestamps are
    reported on the pool's epoch ``t0``, :meth:`WorkerPool.now`'s too
    (``perf_counter`` is system-wide on every platform we target, so
    worker and coordinator clocks agree).  Results are per-task
    ``(index, start, duration, value)`` records — per-task values are
    what lets the coordinator de-duplicate *partial* overlaps between a
    speculative copy and its primary without double-counting a
    reduction.  For shm ops the value is written in place into the
    shared result buffer and the record carries ``None``;
    :meth:`WorkerPool.recv` reads the slot when the report arrives.

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
    ops = {}
    attachments = {}

    def _resolve_op(key):
        """The op's (fn, batch_fn, get_payload, attachment), attaching
        shm segments on first use.  The per-task callable is unwrapped
        from the :class:`Kernel` once here so the hot loop pays no
        ``__call__`` indirection."""
        entry = attachments.get(key)
        if entry is None:
            plane, kernel, data = ops[key]
            fn, batch_fn = kernel.fn, kernel.batch_fn
            if plane == "shm":
                attachment = shm.attach_op(data)
                entry = (fn, batch_fn, attachment.get_payload, attachment)
                request_q.put(
                    ("attached", wid, (key, attachment.nbytes))
                )
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
            return
        if message[0] == "load":
            ops[message[1]] = message[2]
            continue
        if message[0] == "unload":
            ops.pop(message[1], None)
            entry = attachments.pop(message[1], None)
            if entry is not None and entry[3] is not None:
                entry[3].close()
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


def _ready(fds: List[int], timeout: float) -> List[int]:
    """Those of ``fds`` readable or hung up within ``timeout`` s."""
    poller = select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    return [fd for fd, _events in poller.poll(timeout * 1000.0)]


@dataclass
class _Resident:
    """One loaded op key: what was laid out for it and who was told."""

    #: The ledger of this key's segments (stays empty on pickle).
    store: shm.ShmDataPlane
    #: The op-table entry a worker installs.
    entry: tuple
    #: The facts every further load of the key returns.
    again: Dict[str, Any]
    #: Workers sent the entry (they are owed the unload).
    holders: Set[int] = field(default_factory=set)


class SlotPool:
    """The one slot lifecycle under :class:`PoolConfig`, whatever runs
    behind a slot: the books, the healing and resizing rules, and the
    ``Fleet`` members they answer.  A subclass tells ``now()``, starts
    and stops a slot's worker, and its ``recv`` announces :meth:`_due`
    as a ``sweep`` and a ``ready`` as the ration :meth:`_joined` gives.
    """

    def __init__(
        self, processors: int, pool_config: Optional[PoolConfig] = None
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
        #: what starts alive.
        self.p = processors
        #: Total slot space (base width + growth headroom).
        self.slots = max(processors, self.cfg.max_workers or processors)
        #: Shrink floor for serve-mode idle shrink.
        self.min_workers = self.cfg.min_workers or processors
        self.alive: List[bool] = [False] * self.slots
        #: Workers ever started (a reuse metric: stays at ``p`` across
        #: runs unless churn forces respawns or load forces grows).
        self.total_spawns = 0
        #: Guards the per-slot state below (driver thread vs. session
        #: threads calling :meth:`mark_dead`).
        self._slot_lock = threading.Lock()
        #: Slots above the base width not currently running (grow pulls
        #: from here; shrink returns slots here).
        self.dormant: Set[int] = set(range(processors, self.slots))
        #: Slots waiting on a respawn/grow ready handshake.
        self.pending_ready: Set[int] = set()
        #: Dead or handshaking slots: the only ones with a deadline.
        self.healing: Set[int] = set()
        #: Crash-looping slots the circuit breaker retired.
        self.quarantined: Set[int] = set()
        #: Structured ``{"slot", "deaths", "window", "reason"}`` records,
        #: one per quarantined slot.
        self.quarantine_records: List[Dict[str, Any]] = []
        #: Rolling death timestamps per slot (crash-loop window).
        self._deaths: List[Deque[float]] = [
            deque() for _ in range(self.slots)
        ]
        #: Pool time before which a slot may not respawn.
        self._next_respawn_at = [0.0] * self.slots
        #: When the slot's pending handshake was started.
        self._spawned_at = [0.0] * self.slots
        #: Respawn attempts doomed to fail (``spawnfail`` injection).
        self.fail_next_spawns = 0
        #: Slots whose death ``recv`` reported (told once).
        self._reported: Set[int] = set()
        #: A deadline was announced and no :meth:`sweep` has run since.
        self._announced = False
        #: What happened since the last :meth:`sweep` returned (the
        #: driver's thread only).
        self._happened: List[Dict[str, Any]] = []
        self.respawns = 0
        self.grows = 0
        self.shrinks = 0
        self.started = False
        self.stopped = False
        self._next_key = 0
        self._key_lock = threading.Lock()

    @property
    def running(self) -> bool:
        return self.started and not self.stopped

    def _start_worker(self, wid: int) -> None:
        """Start slot ``wid``'s worker; raises if it cannot."""
        raise NotImplementedError

    def _stop_worker(self, wid: int) -> None:
        """Stop slot ``wid``'s idle or handshaking worker."""

    def allocate_keys(self, count: int) -> int:
        """Reserve ``count`` consecutive op keys; returns the base."""
        with self._key_lock:
            self._next_key += count
            return self._next_key - count

    def weight(self, wid: int) -> float:
        return 1.0

    def stop(self) -> None:
        self.stopped = True

    def arm(self, injector: FaultInjector) -> None:
        self.fail_next_spawns += injector.spawn_failures()

    def claim(self) -> List[int]:
        return self.live_workers()

    def release(self, handed: Dict[int, str]) -> None:
        for wid, status in handed.items():
            if status == "dead":
                self._happened += self.mark_dead(wid)

    def live_workers(self) -> List[int]:
        return [wid for wid in range(self.slots) if self.alive[wid]]

    def _joined(self, wid: int) -> tuple:
        """Slot ``wid``'s ``ready``: it lives, and joins as a ration."""
        with self._slot_lock:
            self.pending_ready.discard(wid)
            self.healing.discard(wid)
            self.alive[wid] = True
        return ("ration", None, ([wid], []))

    def _deadline(self, wid: int) -> float:
        """When healing slot ``wid`` next needs :meth:`sweep` (lock held):
        its respawn backoff or handshake timeout (now, if it died)."""
        if wid in self.pending_ready:
            if wid in self._reported:
                return 0.0
            return self._spawned_at[wid] + READY_TIMEOUT
        return self._next_respawn_at[wid]

    def _due(self) -> float:
        """When :meth:`sweep` is next due: what ``recv`` announces."""
        if self._announced or not self.running:
            return math.inf
        with self._slot_lock:
            return min(map(self._deadline, self.healing), default=math.inf)

    def mark_dead(self, wid: int) -> List[Dict[str, Any]]:
        """Record one death of slot ``wid`` and start its backoff clock;
        returns the ``quarantine`` fact when this death trips the
        crash-loop breaker (the caller reports it), else nothing."""
        with self._slot_lock:
            self.alive[wid] = False
            self.pending_ready.discard(wid)
            if wid in self.quarantined:
                return []
            now = self.now()
            deaths = self._deaths[wid]
            deaths.append(now)
            while deaths and now - deaths[0] > RESPAWN_WINDOW:
                deaths.popleft()
            if len(deaths) > self.cfg.max_respawns:
                self.quarantined.add(wid)
                self.healing.discard(wid)
                record = {
                    "slot": wid,
                    "deaths": len(deaths),
                    "window": RESPAWN_WINDOW,
                    "reason": (
                        f"crash loop: slot {wid} died {len(deaths)} times "
                        f"within {RESPAWN_WINDOW:.0f}s (max_respawns="
                        f"{self.cfg.max_respawns})"
                    ),
                }
                self.quarantine_records.append(record)
                return [dict(record, kind="quarantine")]
            self.healing.add(wid)
            self._next_respawn_at[wid] = now + (
                self.cfg.respawn_backoff * (2 ** (len(deaths) - 1))
            )
            return []

    def _spawn_slot(self, wid: int) -> None:
        """Start a fresh worker in slot ``wid`` and await its handshake.
        Raises on spawn failure — including injected ``spawnfail``
        faults — which callers count as another death."""
        if self.fail_next_spawns > 0:
            self.fail_next_spawns -= 1
            raise MpBackendError(
                f"injected spawn failure (spawnfail) for slot {wid}"
            )
        self._start_worker(wid)
        with self._slot_lock:
            self._reported.discard(wid)
            self.pending_ready.add(wid)
            self.healing.add(wid)
            self._spawned_at[wid] = self.now()
        self.total_spawns += 1

    def sweep(
        self, eligible: Optional[Callable[[int], bool]] = None
    ) -> List[Dict[str, Any]]:
        """One pass of the self-healing loop; returns what happened.

        Acts on every due :meth:`_deadline` whose slot ``eligible`` —
        e.g. "not currently owned by a serve job" — admits: respawns a
        dead slot, or fails a handshake that timed out or whose worker
        died.
        """
        self._announced = False
        if not self.running:
            return []
        now = self.now()
        for wid in sorted(self.healing):
            with self._slot_lock:
                if wid not in self.healing or now < self._deadline(wid):
                    continue
                if eligible is not None and not eligible(wid):
                    continue
                failed = wid in self.pending_ready
            if failed:
                # Another death (outside the slot lock: mark_dead
                # re-acquires it), after stopping a hung handshake.
                self._stop_worker(wid)
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
        with self._slot_lock:  # every other slot lives or will respawn
            return self.running and any(
                wid not in self.quarantined and wid not in self.dormant
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
            self.shrinks += 1
        self._stop_worker(wid)
        return True


class WorkerPool(SlotPool):
    """The one owner of worker processes, and the local
    :class:`~repro.runtime.backends.base.Fleet` (that docstring is the
    contract, the data plane's included; :func:`_worker_main` documents
    the op table and its key namespace).  One reply queue per worker,
    one shared ``request_q`` back, read through :meth:`recv` by an
    exclusive session (guarded by :meth:`try_acquire`), the serve
    router or a host agent's pump.  A :class:`shm.SegmentCache` rides
    along so identical payloads reuse their segments across runs.
    Healing and elasticity are :class:`SlotPool`'s, on processes; the
    pool only ever *starts* processes; :meth:`recv` tells when one died
    or a healing deadline came due, and marking the dead and calling
    :meth:`sweep` are the driver's.
    """

    name = "mp"

    def __init__(
        self,
        processors: int,
        start_method: Optional[str] = None,
        pool_config: Optional[PoolConfig] = None,
    ):
        super().__init__(processors, pool_config)
        self.method = start_method or default_start_method()
        self.ctx = multiprocessing.get_context(self.method)
        self.request_q = self.ctx.Queue()
        self.reply_qs = [self.ctx.SimpleQueue() for _ in range(self.slots)]
        self.processes: List = [None] * self.slots
        self._t0 = 0.0  # the epoch of worker records and now()
        cache_budget = (
            shm.DEFAULT_CACHE_BYTES
            if self.cfg.shm_cache_bytes is None
            else self.cfg.shm_cache_bytes
        )
        self.segment_cache = (
            shm.SegmentCache(cache_budget) if shm.shm_available() else None
        )
        #: Op key -> what is loaded under it, from its first
        #: :meth:`load` to its :meth:`unload`.  Each key is written by
        #: its own session's thread only; :meth:`recv` reads.
        self._resident: Dict[int, _Resident] = {}
        self._use_lock = threading.Lock()

    def start(self) -> None:
        """Spawn the workers and wait for every ready handshake.

        Consuming the handshakes here (rather than leaving them for the
        first session) is what lets sessions treat membership as purely
        grant-driven: a pool worker never announces itself, it is handed
        over.
        """
        if self.started:
            return
        # Sessions lay out shm segments after this fork; the workers
        # must inherit the coordinator's tracker.
        shm.ensure_tracker_running()
        self._t0 = time.perf_counter()
        self.started = True
        try:
            for wid in range(self.p):
                self._spawn_slot(wid)
        except Exception as error:
            self.stop()
            raise MpBackendError(
                f"could not start the worker pool under start method "
                f"{self.method!r}: {error}"
            ) from error
        deadline = self.now() + READY_TIMEOUT
        while self.pending_ready:
            try:
                kind, wid, payload = self.recv(
                    max(0.0, deadline - self.now())
                )
            except queue_module.Empty:
                self.stop()
                raise MpBackendError(
                    f"worker pool: {len(self.pending_ready)} of {self.p} "
                    f"workers never reported ready within {READY_TIMEOUT:.0f}s"
                ) from None
            if kind == "dead":
                # Fail fast instead of burning the whole READY_TIMEOUT
                # on a handshake that can never come.
                self.stop()
                raise MpBackendError(
                    f"worker pool: worker {wid} died before its ready "
                    f"handshake (exit code {payload})"
                )
        self._announced = False

    def _process(self, wid: int):
        """An unstarted worker process for slot ``wid`` (empty op table)."""
        return self.ctx.Process(
            target=_worker_main,
            args=(wid, self.request_q, self.reply_qs[wid], self._t0),
            daemon=True,
        )

    def _start_worker(self, wid: int) -> None:
        # The slot's reply queue is replaced first so messages queued for
        # the dead incarnation are never replayed into the new one
        # (sessions look the queue up per send, so the swap is
        # transparent).
        self.reply_qs[wid] = self.ctx.SimpleQueue()
        process = self._process(wid)
        process.start()
        self.processes[wid] = process

    def _stop_worker(self, wid: int) -> None:
        process = self.processes[wid]
        if wid in self.pending_ready:  # a hung handshake reads nothing
            process.terminate()
        else:
            try:
                self.reply_qs[wid].put(("stop",))
            except Exception:  # pragma: no cover - teardown best effort
                pass
        process.join(timeout=1.0)

    def send(self, wid: int, message: tuple) -> None:
        """Queue one message for worker ``wid`` (the slot's queue is
        looked up per send, so a respawn's fresh queue is transparent)."""
        self.reply_qs[wid].put(message)

    def load(self, wid: int, key: int, kernel, payloads) -> Dict[str, Any]:
        resident = self._resident.get(key)
        if resident is None:
            store = shm.ShmDataPlane(cache=self.segment_cache)
            entry, facts, again = self._place(store, key, kernel, payloads)
            resident = self._resident[key] = _Resident(store, entry, again)
        else:
            facts = resident.again
        resident.holders.add(wid)
        self.send(wid, ("load", key, resident.entry))
        return dict(facts)

    @staticmethod
    def _place(store, key: int, kernel, payloads):
        """Decide, once, where one key's payloads live.

        Returns the entry a worker installs them by, the facts of the
        load that placed them, and the facts of every further load.
        """
        before = (store.payload_bytes, store.shm_bytes, store.reused_bytes)
        descriptor, nbytes = shm.place(store, payloads, key)
        if descriptor is None:
            # Sized once, shipped per (worker, key).
            facts = load_facts("pickle", nbytes)
            return ("pickle", kernel, payloads), facts, facts
        first = load_facts(
            "shm",
            store.payload_bytes - before[0],
            store.shm_bytes - before[1],
            store.reused_bytes - before[2],
            descriptor.payload_name,
            descriptor.mode,
        )
        return ("shm", kernel, descriptor), first, load_facts("shm")

    def unload(self, key: int) -> None:
        resident = self._resident.get(key)
        if resident is None:
            return
        # FIFO per-worker queues order this after any still-queued run
        # touching the payloads, and a worker finishes a chunk before
        # reading the next message — so an unload can never yank
        # payloads out from under a running kernel (an attached segment
        # outlives its unlink).
        for wid in resident.holders:
            if self.is_alive(wid):
                self.send(wid, ("unload", key))
        del self._resident[key]
        resident.store.close(unlink=True)

    def recv(self, timeout: float):
        """The next event (``queue.Empty`` on timeout), waiting on the
        report pipe, every watched ``Process.sentinel`` and the earliest
        :meth:`_due` sweep at once.  A ``ready`` handshake surfaces as a
        one-worker ``ration``; report values are read out of shm."""
        reader = self.request_q._reader.fileno()
        end = self.now() + timeout
        while not _ready([reader], 0.0):
            due = self._due()
            watched = {
                self.processes[wid].sentinel: wid
                for wid in range(self.slots)
                if (self.alive[wid] or wid in self.pending_ready)
                and wid not in self._reported
            }
            ready = _ready(
                [reader, *watched], max(0.0, min(end, due) - self.now())
            )
            if ready and reader not in ready:
                wid = watched[ready[0]]
                self.processes[wid].join(timeout=1.0)  # reaped: exitcode set
                self._reported.add(wid)
                return ("dead", wid, self.processes[wid].exitcode)
            if not ready and self.now() >= due:
                self._announced = True
                return ("sweep", None, None)
            if not ready and self.now() >= end:
                raise queue_module.Empty
        message = self.request_q.get()
        kind = message[0]
        if kind == "done" or kind == "error":
            return self._with_values(message)
        if kind != "ready":
            return message
        return self._joined(message[1])

    def _with_values(self, message: tuple) -> tuple:
        """A report whose records all carry numbers.

        shm-plane records carry ``None``; the worker wrote the values in
        place.  Reading before the session's dedup is fine: a
        duplicate's slot holds the same deterministic value, and the
        read is dropped with the record.  A straggler's report that
        races its key's unload finds the slots gone and comes back with
        no records (it is stale either way).
        """
        kind, wid, payload = message
        key = payload[0]
        resident = self._resident.get(key)
        at = 1 if kind == "done" else 3
        if (
            resident is None
            or len(payload) <= at
            or not resident.store.has_op(key)
        ):
            return message
        value_of = resident.store.result_value
        try:
            records = [
                (
                    index,
                    start,
                    duration,
                    value_of(key, index) if value is None else value,
                )
                for index, start, duration, value in payload[at]
            ]
        except KeyError:
            records = []
        return (kind, wid, payload[:at] + (records,) + payload[at + 1 :])

    def is_alive(self, wid: int) -> bool:
        """Whether slot ``wid`` holds a running process."""
        process = self.processes[wid]
        return process is not None and process.is_alive()

    def now(self) -> float:
        return time.perf_counter() - self._t0

    def live_workers(self) -> List[int]:
        # (A host agent never marks its dead: the process tells.)
        return [wid for wid in super().live_workers() if self.is_alive(wid)]

    def sweep(
        self, eligible: Optional[Callable[[int], bool]] = None
    ) -> List[Dict[str, Any]]:
        """:meth:`SlotPool.sweep`, then what the segment cache evicted."""
        happened = super().sweep(eligible)
        cache = self.segment_cache
        evicted = cache.take_evicted() if cache and self.running else ()
        for probe_key, nbytes, segment, reclaimed in evicted:
            happened.append(
                {
                    "kind": "evict",
                    "probe_key": probe_key[:16],
                    "bytes": nbytes,
                    "cache_bytes": cache.total_bytes,
                    "segment": segment,
                    "reclaimed": reclaimed,
                }
            )
        return happened

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
        # One grace period for the whole pool, not one per worker.
        deadline = self.now() + 2.0
        for process in live:
            try:
                process.join(timeout=max(0.0, deadline - self.now()))
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
        # Whatever a session (or a host agent's lost coordinator) left
        # loaded goes with the pool: no segment outlives its creator.
        for resident in list(self._resident.values()):
            resident.store.close(unlink=True)
        self._resident = {}
        if self.segment_cache is not None:
            self.segment_cache.close()
        self.alive = [False] * self.slots

