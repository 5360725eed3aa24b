"""The one scheduling session, on worker processes, hosts or the sim.

The paper's runtime: Delirium graph operations execute as actual Python
callables (inline in simulated time under ``sim``), and the Section 4
orchestration algorithms make the real scheduling decisions —

* **TAPER chunk self-scheduling** — workers pull chunks from the
  coordinator; each chunk's size follows the Eq. 2 taper computed from
  the *sampled* mean/variance of task durations (wall-clock measured, or
  declared costs in ``cost_source="declared"`` mode for determinism);
* **Eq. 1 processor rationing** — when several operations are runnable
  at once, :func:`allocate_many` balances their predicted finishing
  times and the resulting shares become *worker-subset assignments*
  (worker w prefers chunks of its assigned operation; idle workers
  flow across operation boundaries);
* **pipelined stage overlap** — dependency-aware dispatch lets iteration
  i+1's independent stage run beside iteration i's dependent/merge work,
  exactly the paper's A_I / A_D / A_M overlap;
* **re-allocation at every change in the running set** — an operation
  starting or completing triggers a fresh Eq. 1 split (the paper
  reallocates when B1 begins while A is partially complete).

The coordinator is *centralized* (one queue pair per worker); the paper
notes the distributed protocol "degenerates into the centralized TAPER
algorithm" under skew, and at worker counts a single host offers the
tree protocol buys nothing.  On the simulator's fleet one op walks
:func:`~repro.runtime.schedulers.run_central`'s chunks to its makespan,
which the equivalence suite checks for every policy.

**Who owns what.**  A session (:class:`_MpSession`) only *borrows*
workers from a :class:`~repro.runtime.backends.base.Fleet` — that
docstring is the whole contract between the two — and hands them back
on every exit path.  Worker processes, and where payload bytes live,
are the fleet's (:mod:`repro.runtime.backends.pool` is the local one).
Work reaches a worker by fleet key — a fixed op is one key, each
admitted page of a stream op another — lazily: one ``load`` per
(worker, key) at first dispatch, one ``unload`` per key when its page
settles or the session leaves.  Kernels and payloads must pickle under
every start method (:meth:`_MpSession._validate_picklable` names the op
that cannot).

**One loop.**  A session is four steps — ``start``, ``on_event`` for
each fleet event, ``tick`` (what is due now, and how long until the
next thing is) and ``finish`` — and :meth:`_MpSession.run` is the one
loop over them, on the simulator, local processes and remote hosts
alike.  The serve daemon's router calls the same steps for each job it
runs, so a daemon's sessions share one thread and the pool's clock.

**Fault tolerance** (``RunConfig.on_fault="retry"``, the default): the
self-scheduling chunk queue is exactly the structure that makes recovery
cheap — a lost chunk is just re-enqueued.

* *Worker death* — a ``dead`` event from the fleet (the ``Fleet``
  docstring states the rule): the dead worker's in-flight chunk is
  reclaimed to the front of its operation's queue and the Eq. 1 ration
  re-runs over the shrunk fleet.  The run continues degraded until the
  fleet respawns the slot under :class:`PoolConfig` backoff (a pool
  and the simulator's fleet do; a host fleet cannot, and stays
  degraded).
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
with ``RunConfig.resume=True`` replays the journal, and a restored task
is a settled task: each chunk :func:`~repro.runtime.checkpoint.restorable`
trusts goes through the :meth:`~_MpSession._settle` a live report does,
once its fleet key exists — at session start for a fixed op, at
re-admission (declared costs and all) for a stream page.  It never runs
again, its durations re-seed the TAPER sample, and the Eq. 1 ration
covers only the remaining work.  The run manifest fingerprints every
scheduling-relevant config field plus the operation shapes; resuming
against a different run is refused with
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

Observability: the coordinator threads a ``repro.obs`` Tracer —
CHUNK_ACQUIRE / TASK_DISPATCH / CHUNK_COMPLETE / OP_BEGIN / OP_END /
ALLOC_DECIDE / TAPER_DECISION events, plus the fault lane (WORKER_DIED /
CHUNK_REASSIGN / CHUNK_RETRIED / FAULT_INJECTED) — on the fleet's clock
since run start, per-worker lanes, so traces show recovery in place.

**Clock domains.**  No timestamp is ever compared across domains;
``Fleet`` states the rule at the seam.  Inside it: scheduling and
tracing run on the fleet's ``now()`` relative to its reading at start,
``t0`` (:meth:`_MpSession._now`; worker records are de-skewed by
``t0``, durations never — they are domain-free intervals); healing
deadlines are the fleet's private clock; the watchdog and drain guard
real hangs, on raw ``perf_counter`` values the session keeps to itself.
"""

from __future__ import annotations

import bisect
import contextlib
import graphlib
import math
import pickle
import queue as queue_module
import signal
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ...obs.events import (
    ALLOC_DECIDE,
    CHECKPOINT_FAILED,
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
    KEY_LOAD,
    KEY_UNLOAD,
    OP_BEGIN,
    OP_END,
    POOL_GROW,
    POOL_QUARANTINE,
    POOL_RESPAWN,
    POOL_SHRINK,
    RUN_CANCELLED,
    RUN_END,
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
    JournalFailedError,
    PageMark,
    RunManifest,
    read_journal,
    restorable,
)
from ..config import RunConfig
from ..cost_model import CostFunction, OnlineStats
from ..estimates import FinishingTimeEstimator, OpProfile, lag_term
from ..faults import CoordinatorKilled, FaultInjector, FaultReport
from ..kernel import BATCH_AUTO_MIN_TASKS
from ..machine import MachineConfig
from ..sampling import sample_costs, sample_mean_std
from ..schedulers import make_policy
from ..task import PageResult, RealOp, StreamPage, as_stream_page
from .base import (
    LOAD_SUMS,
    AnyOp,
    BackendRunResult,
    Fleet,
    OpOutcome,
    as_real_op,
    name_deps,
    register_backend,
)
from .pool import MpBackendError, WorkerPool, default_start_method


#: Seconds a cancelled run waits for in-flight chunks to report before
#: giving up on them (they are journaled if they make it; a hung worker
#: cannot turn Ctrl-C — or a serve drain — into a hang).
DRAIN_GRACE = 5.0
#: Weight each new observation carries in a stream's TAPER cost
#: statistics (an EWMA), so chunk sizing tracks cost drift across the
#: stream instead of averaging over its whole history.
STREAM_DECAY = 0.05


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


def eq1_machine(cfg: RunConfig) -> MachineConfig:
    """Eq. 1's cost parameters in the unit of ``cfg``'s sampled means."""
    if cfg.cost_source == "declared" or cfg.machine is not None:
        return cfg.machine_config()
    return real_machine_config(cfg.processors)


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def _always_pickles(payload: Any) -> bool:
    """Is ``payload`` a plain numpy array of a dtype holding no Python
    objects?  Such an array pickles as its buffer, always, so probing
    it proves nothing (numpy is looked up, never imported, here)."""
    numpy = sys.modules.get("numpy")
    return (
        numpy is not None
        and type(payload) is numpy.ndarray
        and not payload.dtype.hasobject
    )


def report_fleet_events(
    infos: Sequence[Dict[str, Any]],
    tracer: Optional[Tracer],
    now: float,
    report: Optional[FaultReport] = None,
) -> None:
    """Turn :meth:`Fleet.sweep` facts (plus a session's ``load`` facts
    and the serve router's ``grow``/``shrink``) into tracer events
    stamped with the caller's ``now`` and, for a session,
    ``FaultReport`` entries."""
    if tracer is None:
        tracer = Tracer()  # nobody is listening
    if report is None:
        report = FaultReport()  # the serve router keeps none
    for info in infos:
        kind, slot = info["kind"], info.get("slot")
        if kind == "load":
            if info["segment"] is not None:  # this load laid the op out
                payload = info["bytes_shipped"] + info["shm_reused_bytes"]
                tracer.emit(
                    SHM_MAP,
                    now,
                    op=info["op"],
                    mode=info["mode"],
                    payload_bytes=payload,
                    result_bytes=info["shm_bytes"] - payload,
                    segment=info["segment"],
                    reused=info["shm_reused_bytes"] > 0,
                )
        elif kind == "evict":
            tracer.emit(
                SHM_EVICT,
                now,
                probe_key=info["probe_key"],
                bytes=info["bytes"],
                cache_bytes=info["cache_bytes"],
                segment=info["segment"],
                reclaimed=info["reclaimed"],
            )
        elif kind == "respawn":
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
    #: The page's fleet key (``None`` when it has nothing to run: every
    #: task was restored from the journal, so the page settles silently;
    #: :attr:`_StreamFeed.sinking` says whether the sink sees it).
    key: Optional[int] = None
    #: Tasks settled (completed or quarantined) so far on this page.
    settled: int = 0
    #: Sum of settled task values (restored + live).
    value: float = 0.0
    admitted_at: float = 0.0
    done: bool = False


@dataclass
class _StreamFeed:
    """Admission-side state of one streaming op.

    The coordinator pulls pages from the op's source between scheduling
    events, *gated* by a window of unsettled pages — the journal writer
    is the second gate implicitly, because every admission fsyncs a
    :class:`PageMark` before the page ships.  Pages settle when all
    their tasks settle, deliver to the sink strictly in admission
    order, and their keys are unloaded from the fleet the moment they
    settle, bounding memory to the admission window.
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
    backpressure_events: int = 0
    #: Admission-to-settle wall seconds per settled page.
    latencies: List[float] = field(default_factory=list)
    #: Next page seq owed to the sink (in-order delivery).
    next_deliver: int = 0
    #: A page went to the sink, so every later one goes (delivery is in
    #: order: only a leading run of pages restored whole had gone).
    sinking: bool = False
    #: ``(mark, journaled chunks)`` per page a resume re-admits, by seq.
    restored: List[Tuple[PageMark, List[ChunkRecord]]] = field(
        default_factory=list
    )


@dataclass
class _OpState:
    """Coordinator-side bookkeeping for one operation.

    The accounting invariant that carries fault tolerance, speculation
    and resume at once: every task index is in exactly one of
    ``pending`` / ``inflight`` / ``completed`` / ``quarantined`` — and
    *speculative duplicate copies never touch these sets*, so a result
    counts exactly once no matter how many copies were dispatched or
    how many times the run was restarted.

    ``size`` and ``declared`` are the session's, not the op's: a stream
    grows them as its pages are admitted, and the :class:`StreamOp`
    itself is never changed, so it can run again.
    """

    op: RealOp
    label: str
    index: int
    deps: Set[int]
    pending: Deque[int]
    policy: object
    cost_fn: CostFunction
    #: Tasks known to this run (for a stream: admitted so far).
    size: int
    #: Declared per-task costs by global task index.
    declared: Optional[List[float]] = None
    #: A fixed op's fleet key (``None`` for a stream: each page has one).
    key: Optional[int] = None
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
    #: Where the fleet put the payloads, as its first ``load`` that
    #: placed any said; ``None`` until then.
    plane: Optional[str] = None

    @property
    def stream_done(self) -> bool:
        """Admission is over: not a stream, or the source is exhausted.
        Completion checks must not finish an op whose source can still
        grow it — ``size`` starts at 0 for streams, so the plain
        ``settled >= size`` test is trivially true before admission."""
        return self.feed is None or self.feed.exhausted

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
    knows of its workers comes through that interface.  Payloads ship
    lazily per worker (``load``/``unload``) under fleet-unique keys,
    one per fixed op and one per admitted stream page, held in one
    table; report timestamps are de-skewed to the session's epoch.
    """

    def __init__(
        self,
        ops: Sequence[AnyOp],
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
        self.machine = eq1_machine(cfg)
        self.ops: List[_OpState] = []
        labels_seen: Dict[str, int] = {}
        for index, (op, dep_set) in enumerate(zip(ops, deps)):
            op = as_real_op(op, cfg)
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
            stream = getattr(op, "is_stream", False)
            if stream:
                # Streams have no final size to bucket by, and their
                # cost profile can drift over a long run: use a fixed
                # bucket and an exponentially-decaying sample so TAPER
                # re-chunks each page against *recent* costs.
                cost_fn = CostFunction(bucket_size=64, decay=STREAM_DECAY)
                size, declared = 0, []
            else:
                cost_fn = CostFunction(bucket_size=max(1, op.size // 16))
                size = op.size
                declared = list(op.costs) if op.costs is not None else None
            self.ops.append(
                _OpState(
                    op=op,
                    label=label,
                    index=index,
                    deps=set(dep_set),
                    pending=deque(range(size)),
                    policy=make_policy(cfg.policy, min_chunk=cfg.min_chunk),
                    cost_fn=cost_fn,
                    size=size,
                    declared=declared,
                    feed=_StreamFeed(op_index=index) if stream else None,
                )
            )
        try:
            graphlib.TopologicalSorter(dict(enumerate(deps))).prepare()
        except graphlib.CycleError as error:
            names = [self.ops[i].label for i in sorted(set(error.args[1]))]
            raise ValueError(
                f"dependency cycle among operations {names}: none of "
                "them can start"
            ) from None
        self.streams: List[_StreamFeed] = [
            state.feed for state in self.ops if state.feed is not None
        ]
        # Worker-subset assignment: worker w prefers self.assignment[w].
        self.assignment: List[int] = [-1] * self.p
        self.idle: Set[int] = set()
        #: The fleet's clock, and its reading at start (records de-skew).
        self._clock = pool.now
        self.t0 = 0.0
        # -- fault-tolerance state ------------------------------------------
        # Membership is grant-driven: nobody is ours until granted (an
        # exclusive run self-grants every live worker at startup).
        self.alive: List[bool] = [False] * self.p
        self.live_count = 0
        #: wid -> the chunk copy a worker is currently running.
        self.in_flight: Dict[int, _Flight] = {}
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
        #: Why the run is being cancelled (``None`` = running normally).
        self.cancel_reason: Optional[str] = None
        #: ``perf_counter`` deadlines, because they bound real hangs:
        #: the run-level watchdog (set by :meth:`start`) and the drain's
        #: grace (set when the drain begins).
        self._watchdog = math.inf
        self._drain_until: Optional[float] = None
        #: Sums of the byte facts the fleet's ``load`` returned.
        self.loaded_bytes: Dict[str, int] = dict.fromkeys(LOAD_SUMS, 0)
        #: Chunks / fresh tasks delivered by one vectorized
        #: ``Kernel.batch_fn`` call instead of per-task Python calls.
        self.batched_chunks = 0
        self.batched_tasks = 0
        # -- fleet state ----------------------------------------------------
        self.pool = pool
        #: Workers the server asked back; released after their current
        #: chunk reports (a revoke never preempts a running kernel).
        self.revoked: Set[int] = set()
        #: Every fleet key this session holds, ``key -> (op index, base,
        #: payloads)``: a task's global index is its key-local index
        #: plus ``base``.  A fixed op is one entry (base 0); each
        #: admitted stream page adds one until it settles.  A report
        #: naming a key not in here is stale.
        self._keys: Dict[int, Tuple[int, int, Sequence[Any]]] = {}
        fixed = [state for state in self.ops if state.feed is None]
        for key, state in enumerate(fixed, pool.allocate_keys(len(fixed))):
            state.key = key
            self._keys[key] = (state.index, 0, state.op.payloads)
        #: (wid, key) pairs loaded (and not since lost to a death).
        self._loaded: Set[Tuple[int, int]] = set()
        # Fleet-level faults (spawn failures, host loss) fire inside the
        # fleet, so chaos runs replay deterministically end to end.
        if self.injector is not None:
            pool.arm(self.injector)

    # -- helpers -------------------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self.t0

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
            mean, stddev = sample_mean_std(sample_costs(state.declared))
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

    def _ration(self, granted: Sequence[int], revoked: Sequence[int]) -> None:
        """Apply one change of this session's worker set, whole.

        The granted join first (so a swap never passes through width
        0), a revoked worker leaves now if it is idle and after its
        chunk reports otherwise (a revoke never preempts a running
        kernel), then Eq. 1 runs once over the new set and the joiners
        take their first chunks.
        """
        joined = [wid for wid in granted if not self.alive[wid]]
        for wid in joined:
            self.alive[wid] = True
            self.live_count += 1
        leaving = {}
        for wid in revoked:
            if wid in self.in_flight:
                self.revoked.add(wid)
            elif self.alive[wid]:
                leaving[wid] = "free"
        if leaving:
            self._release_workers(leaving)
        self._reallocate()
        for wid in joined:
            self._dispatch(wid)

    def _release_workers(self, handed: Dict[int, str]) -> None:
        """Hand workers back to the fleet, each under its status, in
        one call."""
        for wid in handed:
            self.alive[wid] = False
            self.live_count -= 1
            self.idle.discard(wid)
            self.revoked.discard(wid)
            self.assignment[wid] = -1
        self.pool.release(handed)

    def _on_message(self, kind: str, wid: int, payload) -> bool:
        """Apply one transport event; returns whether ``wid`` now owes a
        dispatch decision (report consumed / handshake seen).

        Report keys are translated back to ``(op index, base)`` through
        the key table, and key-local task indices to global ones.  A
        key not in the table is stale: a chunk dispatched by a
        *previous* tenant of the same pool worker (released
        ``"busy"``), whose results belong to a session that already
        ended, or a late copy of tasks on a page that has settled since
        — only the latter frees a worker of ours.
        """
        if kind == "sweep":
            self._sweep()
            return False
        if kind == "dead":
            # Released (even if let go already); the fleet's facts come
            # before the reclaim empties a lost host's ``in_flight``.
            self.pool.release({wid: "dead"})
            if self.alive[wid]:
                self._sweep()
                self._reclaim(wid, payload)
            return False
        if kind == "ration":
            # The joiners are dispatched there; the caller owes nothing.
            self._ration(*payload)
            return False
        entry = self._keys.get(payload[0])
        if kind == "attached":
            # One-shot segment attach notification — not a scheduling event:
            # the worker's flight stays in place and no dispatch is owed
            # (the chunk reply is still coming).
            if self.tracer is not None and entry is not None:
                self.tracer.emit(
                    SHM_ATTACH,
                    self._now(),
                    proc=wid,
                    op=self.ops[entry[0]].label,
                    bytes=payload[1],
                )
            return False
        if entry is None:
            flight = self.in_flight.get(wid)
            late = flight is not None and payload[0] == self._key_span(
                self.ops[flight.op_index], flight.indices[0]
            )[0]
            if late:
                del self.in_flight[wid]
            return late
        op_index, base, _payloads = entry
        flight = self.in_flight.pop(wid, None)
        if kind == "error":
            if len(payload) > 3 and payload[3]:
                # The chunk's successfully-computed records ride along
                # with the failure: settle them first so only the
                # genuinely raising tasks enter retry accounting.
                self._handle_report(
                    wid, (op_index, self._deskew(payload[3], base)), flight
                )
            failed = [index + base for index in payload[1]]
            self._handle_error(wid, (op_index, failed, payload[2]), flight)
        elif kind == "done":
            batch_meta = payload[2] if len(payload) > 2 else None
            self._handle_report(
                wid,
                (op_index, self._deskew(payload[1], base)),
                flight,
                batch_meta,
            )
        return True

    def _deskew(self, records, base: int):
        """Records from the fleet's epoch and the key's local indices to
        the session's epoch and global indices."""
        skew = self.t0
        if not skew and not base:
            return records
        return [
            (index + base, start - skew, duration, value)
            for index, start, duration, value in records
        ]

    def _key_span(self, state: _OpState, index: int) -> Tuple[int, int, int]:
        """``(key, base, end)`` of the key holding ``state``'s global
        task ``index``: the op's own, or its stream page's."""
        if state.feed is None:
            return state.key, 0, state.size
        feed = state.feed
        info = feed.pages[bisect.bisect_right(feed.bases, index) - 1]
        return info.key, info.base, info.base + info.tasks

    def _load(self, wid: int, key: int) -> None:
        """One ``Fleet.load`` of ``key`` where ``wid`` runs (lazily: at
        its first chunk there), folded into the run's accounts."""
        op_index, _base, payloads = self._keys[key]
        state = self.ops[op_index]
        self._loaded.add((wid, key))
        facts = self.pool.load(wid, key, state.op.kernel, payloads)
        for name in LOAD_SUMS:
            self.loaded_bytes[name] += facts[name]
        state.plane = state.plane or facts["plane"]
        if self.tracer is not None:
            self.tracer.emit(
                KEY_LOAD,
                self._now(),
                proc=wid,
                op=state.label,
                key=key,
                plane=facts["plane"],
                bytes_shipped=facts["bytes_shipped"],
            )
            report_fleet_events(
                [dict(facts, slot=wid, op=state.label)],
                self.tracer,
                self._now(),
            )

    def _unload(self, key: int) -> None:
        """Give ``key`` up: the fleet unloads it everywhere, and its
        payloads leave the table."""
        del self._keys[key]
        self._loaded.difference_update((wid, key) for wid in range(self.p))
        self.pool.unload(key)
        if self.tracer is not None:
            self.tracer.emit(KEY_UNLOAD, self._now(), key=key)

    def job_profile(self) -> OpProfile:
        """This session's *remaining* work as one aggregate op profile.

        The serve daemon's cross-job Eq. 1 balancer treats every running
        job as a single op and rations pool workers by equalized
        finishing times — the paper's allocator lifted one level.  It
        reads between two steps of the session, under the server lock
        every step runs under, so the state it reads is whole.
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
                    width=width,
                )

    def _pick_op(self, wid: int) -> Optional[_OpState]:
        preferred = self.assignment[wid]
        if preferred >= 0 and self._runnable(self.ops[preferred]):
            return self.ops[preferred]
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

        ``batching="off"``, batch-less kernels and chunks too small to
        amortize the view plumbing never batch; a chunk touching any
        *retried* task always re-runs per task, so a raising batch
        degrades to per-task retries and quarantine isolates the one
        poisoned payload instead of its whole chunk.
        """
        return (
            self.cfg.batching == "auto"
            and state.op.kernel.batchable
            and len(indices) >= BATCH_AUTO_MIN_TASKS
            and not (
                state.retried
                and any(index in state.retried for index in indices)
            )
        )

    def _dispatch(self, wid: int) -> bool:
        if not self.alive[wid]:
            return False
        if self.cancel_reason is not None:
            # Draining: no new work; workers park idle until handback.
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
        # requeued when their primary died); skip them lazily here.  A
        # chunk never spans two keys: a stream chunk ends at its page's
        # end.
        indices: List[int] = []
        span = None
        while state.pending and len(indices) < size:
            index = state.pending.popleft()
            if index in state.completed or index in state.quarantined:
                continue
            if span is None:
                span = self._key_span(state, index)
            elif not span[1] <= index < span[2]:
                state.pending.appendleft(index)
                break
            indices.append(index)
        if not indices:
            self._maybe_complete(state)
            return self._dispatch(wid)
        self._observe_dispatch(state, indices)
        state.inflight.update(indices)
        state.dispatched += len(indices)
        state.chunks += 1
        fault = None
        if self.injector is not None:
            fault = self.injector.on_dispatch(wid)
        if fault is not None and fault[0] == "coordkill":
            # Simulated coordinator crash: the exception unwinds through
            # finish() (workers handed back, journal closed).
            # The chunk we were about to send was never dispatched, so
            # the journal holds only genuinely completed work.
            raise CoordinatorKilled(
                f"coordkill fault at the dispatch to worker {wid}"
            )
        if tracer is not None:
            now = self._now()
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
        self._send_chunk(wid, span[0], indices, fault)
        return True

    def _observe_dispatch(self, state: _OpState, indices: List[int]) -> None:
        """Declared mode samples a chunk's declared costs as it goes out,
        matching run_central's observation order for equivalence.
        Retried tasks were observed at their first dispatch; observing
        them again would double-count the sample."""
        if self.declared_mode:
            for index in indices:
                if index not in state.retried:
                    state.cost_fn.observe(index, state.declared[index])

    def _send_chunk(
        self, wid: int, key: int, indices: List[int], fault=None
    ) -> None:
        """The one ``run`` command, in ``key``'s local indices: load
        the key there first if needed."""
        if (wid, key) not in self._loaded:
            self._load(wid, key)
        op_index, base, _payloads = self._keys[key]
        state = self.ops[op_index]
        self.pool.send(
            wid,
            (
                "run",
                key,
                [index - base for index in indices] if base else indices,
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

        Called between scheduling events (at every tick), so admission
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
        if feed.exhausted or self.cancel_reason is not None:
            return False
        if not all(self.ops[d].finished for d in state.deps):
            return False
        if feed.iterator is None:
            feed.iterator = state.op.open_source()
        admitted = False
        while True:
            # The window of unsettled pages is the gate: in-flight
            # chunks, the sink and in-order delivery all hang off page
            # settlement, so a slow consumer backs it up.
            closed = feed.unsettled >= self.cfg.stream_window
            if closed != feed.throttled:
                feed.throttled = closed
                feed.backpressure_events += closed
                if self.tracer is not None:
                    self.tracer.emit(
                        STREAM_BACKPRESSURE,
                        self._now(),
                        op=state.label,
                        state="pause" if closed else "resume",
                        waiting=state.remaining + state.outstanding,
                        pages=feed.unsettled,
                    )
            if closed:
                break
            try:
                raw = next(feed.iterator)
            except StopIteration:
                feed.exhausted = True
                if len(feed.pages) < len(feed.restored):
                    raise CheckpointMismatchError(
                        f"stream source for op {state.label!r} ended "
                        f"after {len(feed.pages)} pages but the journal "
                        f"recorded {len(feed.restored)}; refusing "
                        "to resume against a different source"
                    )
                self._maybe_complete(state)
                break
            self._admit_page(feed, state, as_stream_page(raw))
            admitted = True
        return admitted

    def _admit_page(
        self, feed: _StreamFeed, state: _OpState, page: StreamPage
    ) -> None:
        """One page enters the run: grow the op's size, journal the
        admission barrier (or, re-admitting a journaled page, settle its
        restored chunks), enqueue the fresh tasks under a fleet key of
        their own (loaded where they run, at their first chunk there)."""
        seq = len(feed.pages)
        mark, restored = (
            feed.restored[seq] if seq < len(feed.restored) else (None, ())
        )
        base = state.size
        state.size += page.size
        if self.declared_mode:
            if page.costs is None:
                raise MpBackendError(
                    f"cost_source='declared' but stream op "
                    f"{state.label!r} produced page {seq} without costs"
                )
            state.declared.extend(page.costs)
        if mark is not None and (
            mark.base != base or mark.tasks != page.size
        ):
            raise CheckpointMismatchError(
                f"stream page {seq} of op {state.label!r} has base "
                f"{base} and {page.size} tasks but the journal recorded "
                f"base {mark.base} with {mark.tasks} tasks; the "
                "source does not match the checkpointed run"
            )
        info = _PageInfo(
            seq=seq, base=base, tasks=page.size, admitted_at=self._now()
        )
        feed.pages.append(info)
        feed.bases.append(base)
        feed.unsettled += 1
        if self.journal is not None and mark is None:
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
        # Its declared costs are in: the journaled chunks settle now.
        self._restore(state, restored)
        fresh = [
            index
            for index in range(base, base + page.size)
            if index not in state.completed
        ]
        state.pending.extend(fresh)
        if fresh:
            info.key = self.pool.allocate_keys(1)
            self._keys[info.key] = (state.index, base, page.payloads)
        self._maybe_settle_page(feed, state, info)

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
        unload its key, and deliver what is deliverable."""
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
        if info.key is not None:
            self._unload(info.key)
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
            feed.sinking = feed.sinking or info.key is not None
            if sink is not None and feed.sinking:
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

    def _settle(self, state: _OpState, records) -> list:
        """Count a live report's or a restored chunk's ``(index, start,
        duration, value)`` results into ``state``; returns the ones that
        counted.  First result wins: a task already completed (by the
        other copy of a speculated chunk, or restored from the journal)
        or quarantined is dropped, never counted again."""
        fresh = []
        for record in records:
            index, _start, duration, value = record
            if index in state.completed or index in state.quarantined:
                continue
            state.completed.add(index)
            state.inflight.discard(index)
            # Retried tasks ran under post-fault conditions; keep them
            # out of the TAPER sample (their results still count).
            if index not in state.retried:
                state.wall_stats.update(duration)
                if not self.declared_mode:
                    state.cost_fn.observe(index, duration)
            state.measured_work += duration
            state.value_total += value
            fresh.append(record)
        return fresh

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
        fresh = self._settle(state, records)
        dups = []
        if len(fresh) < len(records):
            # A result for a quarantined task is stale, as a report for a
            # settled page is: its outcome is final, and no counted
            # result of it exists to duplicate.
            counted = {record[0] for record in fresh}
            dups = [
                index
                for index, _start, _duration, _value in records
                if index not in counted and index not in state.quarantined
            ]
        if dups:
            self.fault_report.duplicate_results_dropped += len(dups)
            if tracer is not None:
                tracer.emit(
                    CHUNK_DUPLICATE_DROPPED,
                    self._now(),
                    proc=wid,
                    op=state.label,
                    tasks=len(dups),
                    indices=dups,
                    speculative=flight is not None and flight.speculative,
                )
        if not fresh:
            self._maybe_complete(state)
            return
        if tracer is not None:
            for index, start, duration, _value in fresh:
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
        if flight is None or flight.speculative:
            # A failed speculative copy costs nothing: the primary is
            # still in flight and owns all retry accounting.  No flight
            # means the worker was declared dead first: its reclaim
            # already charged the attempt and requeued the tasks.
            return
        if self.cfg.on_fault == "fail":
            raise MpBackendError(f"worker {wid} raised:\n{tb}")
        now = self._now()
        survivors: List[int] = []
        quarantined_indices: List[int] = []
        max_attempt = 0
        for index in indices:
            state.inflight.discard(index)
            if index in state.completed or index in state.quarantined:
                continue  # another copy already settled this task
            attempt = state.attempts.get(index, 0) + 1
            state.attempts[index] = attempt
            state.retried.add(index)
            if attempt > self.cfg.max_retries:
                state.quarantined.add(index)
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
                quarantined=quarantined_indices,
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

    def _unsettled(self, flight: _Flight) -> List[int]:
        """The flight's task indices no copy has settled yet."""
        state = self.ops[flight.op_index]
        return [
            index
            for index in flight.indices
            if index not in state.completed
            and index not in state.quarantined
        ]

    def _sweep(self) -> None:
        """Let the fleet heal what is due and report what happened."""
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

    def _reclaim(self, wid: int, exitcode: Optional[int]) -> None:
        """Settle the books of one dead worker and continue degraded."""
        now = self._now()
        self.alive[wid] = False
        self.live_count -= 1
        self.idle.discard(wid)
        self.revoked.discard(wid)
        # A respawned incarnation of this slot starts with an empty op
        # table: forget everything we loaded there so a re-grant
        # reloads from scratch.
        self._loaded = {(w, k) for (w, k) in self._loaded if w != wid}
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
                exitcode=exitcode,
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
        # Continue degraded: re-ration the survivors and put them to
        # work on the reclaimed chunks.
        self._reallocate()
        self._wake_idle()

    # -- durability ----------------------------------------------------------

    def _setup_checkpoint(self) -> None:
        """Open the chunk journal in ``cfg.checkpoint_dir``.  A resume
        first checks the header's fingerprint and restores a fixed op's
        trusted chunks (a stream page's wait for :meth:`_admit_page`).
        Quarantine is *not* persisted: a task that exhausted its retry
        budget before the crash gets a fresh budget on resume."""
        cfg = self.cfg
        directory = cfg.checkpoint_dir
        manifest = RunManifest.build(cfg, [state.op for state in self.ops])
        if cfg.resume:
            replay = read_journal(directory)
            if replay.manifest.fingerprint != manifest.fingerprint:
                raise CheckpointMismatchError(
                    f"checkpoint at {directory} was written by a "
                    "different run; refusing to replay its journal "
                    f"({replay.manifest.describe_mismatch(manifest)})"
                )
            chunks = []
            for op_index, pages in restorable(replay).items():
                state = self.ops[op_index]
                chunks += [chunk for _mark, page in pages for chunk in page]
                if state.feed is not None:
                    state.feed.restored = pages
                    continue
                self._restore(state, pages[0][1])
                state.pending = deque(
                    index
                    for index in range(state.size)
                    if index not in state.completed
                )
            # Ops wholly restored are finished (in dependency order).
            self._resolve_instant_ops()
            self.tasks_resumed = sum(len(chunk.tasks) for chunk in chunks)
            if self.tracer is not None and (
                self.tasks_resumed or replay.dropped
            ):
                restored: Dict[str, List[int]] = {}
                for chunk in chunks:
                    restored.setdefault(
                        self.ops[chunk.op_index].label, []
                    ).extend(task[0] for task in chunk.tasks)
                self.tracer.emit(
                    RUN_RESUMED,
                    0.0,
                    tasks=self.tasks_resumed,
                    chunks=len(chunks),
                    dropped=replay.dropped,
                    duplicates=replay.duplicates,
                    restored=restored,
                )
        self.journal = ChunkJournal(
            directory,
            header=None if cfg.resume else manifest,
            fault=self._disk_fault if self.injector else None,
        )

    def _disk_fault(self, call: str) -> None:
        """Before each journal ``write`` / ``fsync``: a planned
        ``diskfail`` fires here, on the record."""
        try:
            self.injector.on_journal(call)
        except OSError:
            if self.tracer is not None:
                self.tracer.emit(
                    FAULT_INJECTED, self._now(), fault="diskfail", call=call
                )
            raise

    def _restore(
        self, state: _OpState, chunks: Sequence[ChunkRecord]
    ) -> None:
        """Settle journaled chunks as the reports they were: each task's
        attempt count, the dispatch-time observation, then
        :meth:`_settle`.  No trace event, no journal line."""
        for chunk in chunks:
            for index, _duration, _value, attempt in chunk.tasks:
                if attempt:
                    state.retried.add(index)
                    state.attempts[index] = attempt
            self._observe_dispatch(state, [task[0] for task in chunk.tasks])
            # A report's record shape; the journal keeps no start time.
            records = [(i, 0.0, d, v) for i, d, v, _a in chunk.tasks]
            fresh = self._settle(state, records)
            state.dispatched += len(fresh)
            state.chunks += 1
            state.started = True
            if state.feed is not None:
                self._stream_account(
                    state, [(record[0], record[3]) for record in fresh]
                )

    def _maybe_speculate(self) -> Optional[float]:
        """Duplicate overdue chunks onto idle workers (first result wins);
        returns the session time the next flight falls overdue.

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
            return None
        now = self._now()
        dues: List[float] = []
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
            if expected <= 0:
                continue
            elapsed = now - flight.started_at
            if elapsed <= factor * expected:
                dues.append(flight.started_at + factor * expected)
                continue
            candidates.append(
                (elapsed - factor * expected, elapsed, expected, wid, live)
            )
        candidates.sort(key=lambda item: -item[0])
        for _overdue, elapsed, expected, victim, live in candidates:
            if not self.idle:
                break
            self._dispatch_speculative(victim, live, elapsed, expected)
        return min(dues, default=None)

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
        self._send_chunk(helper, self._key_span(state, live[0])[0], live)
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

    def _drain(self) -> Optional[float]:
        """Graceful cancellation, one :meth:`tick` at a time; ``None``
        once done.  Dispatch is suppressed (:meth:`_dispatch` parks
        workers idle while ``cancel_reason`` is set), so the session
        only harvests in-flight results until no primary is in flight,
        bounded by ``DRAIN_GRACE`` so a hung worker cannot turn Ctrl-C
        into a hang; then the journal is synced."""
        now = time.perf_counter()
        if self._drain_until is None:
            self._drain_until = now + min(DRAIN_GRACE, self.cfg.mp_timeout)
        if now < self._drain_until and any(
            not flight.speculative and self.alive[wid]
            for wid, flight in self.in_flight.items()
        ):
            return self._drain_until - now
        if self.journal is not None:
            self.journal.sync()
        if self.tracer is not None:
            self.tracer.emit(
                RUN_CANCELLED,
                self._now(),
                reason=self.cancel_reason,
                remaining=sum(s.size - s.settled_tasks for s in self.ops),
            )
        return None

    def _leave_pool(self) -> None:
        """Give the fleet back everything this session holds of it.

        Runs in :meth:`finish`, on every exit path — normal completion,
        drain, backend error, injected coordinator kill.
        Every key still in the table is unloaded, live loader or none
        (a straggler finishes its chunk before its entry disappears),
        then every held worker goes back in one ``release``: ``"free"``
        if idle, ``"busy"`` if a chunk of ours is still on it — the
        server's router re-frees a busy worker when its stale report
        surfaces, and a prepared pool's next session drops the stale
        report by a key it never held.  A last sweep reports what only
        leaving showed (a short run's evictions).
        """
        for key in list(self._keys):
            self._unload(key)
        self._release_workers(
            {
                wid: "busy" if wid in self.in_flight else "free"
                for wid in range(self.p)
                if self.alive[wid]
            }
        )
        self._sweep()

    def _validate_picklable(self) -> None:
        """Fail naming the op, not with a raw ``PicklingError`` out of a
        queue feeder, when a kernel or payload cannot ride a ``load``
        message.  Samples each op's kernel plus its first payload
        (wherever the fleet will put it) — pickling whole payload lists
        here would pay the serialization cost twice — unless that
        payload is an array that always pickles."""
        for state in self.ops:
            try:
                pickle.dumps(state.op.kernel)
            except Exception as error:
                raise MpBackendError(
                    f"op {state.label!r}: kernel is not picklable, as "
                    f"shipping it to a worker requires — use a "
                    f"module-level function ({error})"
                ) from None
            payloads = state.op.payloads
            if payloads and not _always_pickles(payloads[0]):
                try:
                    pickle.dumps(payloads[0])
                except Exception as error:
                    raise MpBackendError(
                        f"op {state.label!r}: payloads are not "
                        f"picklable, as pickle-plane ops require "
                        f"({error})"
                    ) from None

    @contextlib.contextmanager
    def _cancel_on_signal(self):
        """While inside, SIGINT/SIGTERM flip ``cancel_reason`` and the
        loop drains at its next tick — only when this is the process's
        main thread (``signal.signal`` requires it)."""
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
            yield
        finally:
            for signum, handler in installed.items():
                try:
                    signal.signal(signum, handler)
                except (ValueError, OSError):  # pragma: no cover
                    pass

    # -- the steps, and the one loop over them -------------------------------

    def run(self) -> BackendRunResult:
        """Run the session to its end on a fleet of its own: each wait
        for a fleet event lasts at most what the last :meth:`tick` said."""
        try:
            # From before the first journal write: a watcher that sees
            # a journal worth interrupting must find the handlers in.
            with self._cancel_on_signal():
                try:
                    self.start()
                    wait = self.tick()
                    while wait is not None:
                        try:
                            event = self.pool.recv(wait)
                        except queue_module.Empty:
                            pass
                        else:
                            self.on_event(*event)
                        wait = self.tick()
                finally:
                    result = self.finish()
        except JournalFailedError as error:
            if self.tracer is not None:
                self.tracer.emit(
                    CHECKPOINT_FAILED,
                    self._now(),
                    call=error.call,
                    error=error.strerror,
                    durable=error.durable,
                )
            raise
        if self.tracer is not None:
            self.tracer.emit(
                RUN_END,
                self._now(),
                tasks=result.tasks,
                bytes_shipped=result.bytes_shipped,
            )
        return result

    def start(self) -> None:
        """Open the run: check that every kernel ships, open the journal
        (a resume replays it first), take the first workers and send
        them their first chunks.  A session with nothing left to run
        takes no worker."""
        pool = self.pool
        if not pool.running:
            raise MpBackendError("the worker pool is not running")
        self._resolve_instant_ops()
        self._validate_picklable()
        if self.cfg.checkpoint_dir:
            self._setup_checkpoint()
        self.t0 = self._clock()
        if self.tracer is not None:
            for state in self.ops:
                self.tracer.emit(
                    OP_BEGIN, 0.0, op=state.label, tasks=state.size
                )
        if not all(state.finished for state in self.ops):
            # The whole first set at once (a serve tenant's is empty:
            # its every share arrives as a ration).
            for wid in pool.claim():
                self.alive[wid] = True
                self.live_count += 1
            if self.live_count == 0 and not pool.can_recover():
                raise MpBackendError("no live workers left in the pool")
            self._reallocate()
            # Prime the stream windows before anyone asks for work.
            self._advance_streams()
            for wid in self._live_workers():
                self._dispatch(wid)
        self._watchdog = time.perf_counter() + self.cfg.mp_timeout

    def on_event(self, kind: str, wid: int, payload) -> None:
        """Apply one fleet event; the worker it frees takes its next
        chunk, or goes back if the balancer revoked it."""
        if self._on_message(kind, wid, payload):
            if wid in self.revoked:
                # The balancer's revoke waited for this report; hand
                # the worker back instead of re-dispatching.
                self._ration((), (wid,))
            else:
                self._dispatch(wid)  # parks it idle while draining

    def tick(self) -> Optional[float]:
        """Do what is due now — a retry backoff, an overdue flight, the
        wall-clock limit, a cancel, the run-level watchdog (``mp_timeout``
        from the end of :meth:`start`), the drain and its grace, a
        deadlock or a fleet that can give it no worker again (which
        raise) — and return the seconds to wait at most for the next
        fleet event, or ``None`` once finished."""
        cfg = self.cfg
        if self._drain_until is not None:
            return self._drain()
        if (
            self.cancel_reason is None
            # A cancelled run parks workers idle on purpose; that is a
            # drain, not a deadlock.
            and self.live_count > 0
            and len(self.idle) == self.live_count
            and all(s.outstanding == 0 for s in self.ops)
            and not self.delayed
            # An idle fleet with a live stream source is not deadlock —
            # it is waiting for the next page.
            and all(s.stream_done for s in self.ops)
            and not all(s.finished for s in self.ops)
        ):
            # A session holding no worker is not deadlocked — it is
            # waiting for its next grant (bounded by the watchdog).
            raise MpBackendError(
                "dependency deadlock: every worker idle with "
                "operations still incomplete"
            )
        if all(state.finished for state in self.ops):
            return None
        if (
            self.cancel_reason is None
            and cfg.wall_clock_limit is not None
            and self._now() >= cfg.wall_clock_limit
        ):
            self.cancel_reason = "wall_clock_limit"
        if self.cancel_reason is not None:
            return self._drain()
        if self.live_count == 0 and not self.pool.can_recover():
            # A tenant holding no live worker just waits for its next
            # grant — only a fleet with nobody left alive *and* nobody
            # respawnable is unrecoverable.
            raise MpBackendError(
                "every worker process died; nothing left to run on"
            )
        self._release_delayed()
        # Admission interleaves with scheduling: the window re-checks
        # at every tick (reports just settled pages, the sink just
        # drained).
        self._advance_streams()
        remaining_time = self._watchdog - time.perf_counter()
        if remaining_time <= 0:
            raise MpBackendError(
                f"mp backend watchdog expired after {cfg.mp_timeout:.1f}s"
            )
        timeout = min(0.5, remaining_time)
        for due in (
            min((entry[0] for entry in self.delayed), default=None),
            self._maybe_speculate(),
            cfg.wall_clock_limit,
        ):
            if due is not None:
                timeout = min(timeout, max(due - self._now(), 0.001))
        return timeout

    def finish(self) -> BackendRunResult:
        """Close the run, on every exit path (whoever drives a session
        that raised calls this too): leave the fleet, close the
        journal, and report."""
        try:
            self._leave_pool()
        finally:
            if self.journal is not None:
                self.journal.close()
        return self._result()

    def _result(self) -> BackendRunResult:
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
        stream = {
            state.label: {
                "pages": len(state.feed.pages),
                "tasks": state.size,
                "backpressure_events": state.feed.backpressure_events,
                "plane": state.plane or "pickle",
                "page_latency_p50": _percentile(state.feed.latencies, 0.50),
                "page_latency_p99": _percentile(state.feed.latencies, 0.99),
            }
            for state in self.ops
            if state.feed is not None
        }
        journal = self.journal
        return BackendRunResult(
            backend=self.pool.name,
            makespan=max(
                (state.last_time for state in self.ops if state.size),
                default=0.0,
            ),
            total_work=sum(s.measured_work for s in self.ops),
            processors=self.p,
            tasks=sum(s.done_tasks for s in self.ops),
            chunks=sum(s.chunks for s in self.ops),
            time_unit="seconds",
            value_total=sum(s.value_total for s in self.ops),
            per_op=per_op,
            fault_report=self.fault_report,
            cancelled=self.cancel_reason is not None,
            cancel_reason=self.cancel_reason or "",
            resume_dir=self.cfg.checkpoint_dir,
            tasks_resumed=self.tasks_resumed,
            # (An op no worker was ever sent was placed nowhere.)
            data_plane={
                state.label: state.plane or "pickle" for state in self.ops
            },
            stream=stream,
            **self.loaded_bytes,
            batched_chunks=self.batched_chunks,
            batched_tasks=self.batched_tasks,
            journal_records=journal.records_written if journal else 0,
            journal_bytes=journal.bytes_written if journal else 0,
            journal_syncs=journal.syncs if journal else 0,
        )


# ---------------------------------------------------------------------------
# Backend facade
# ---------------------------------------------------------------------------


class SessionBackend:
    """A backend that runs each call as one :class:`_MpSession` on the
    started fleet its ``_fleet(cfg)`` context yields, with the config as
    that fleet sees it; it keeps nothing warm unless it says so."""

    def prepare(self, cfg: RunConfig) -> "SessionBackend":
        return self

    def release(self) -> None:
        pass

    def run_op(self, op: AnyOp, cfg: RunConfig) -> BackendRunResult:
        return self.run_ops([op], cfg)

    def run_ops(
        self,
        ops: Sequence[AnyOp],
        cfg: RunConfig,
        deps: Optional[Sequence[Set[int]]] = None,
    ) -> BackendRunResult:
        if deps is None:
            deps = name_deps(ops)
        with self._fleet(cfg) as (fleet, cfg):
            return _MpSession(ops, deps, cfg, fleet).run()


class MultiprocessingBackend(SessionBackend):
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
    def _fleet(self, cfg: RunConfig):
        """The prepared pool when it fits and is not in use, else an
        ephemeral one stopped on every exit path."""
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


register_backend("mp", MultiprocessingBackend)
