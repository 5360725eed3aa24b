"""The serve daemon: one warm worker pool, many tenant jobs.

:class:`JobServer` owns a started fleet (a ``WorkerPool``, or a
``SimFleet`` in simulated time) and multiplexes submitted jobs onto it.
Each running job is one :class:`~repro.runtime.backends.mp._MpSession`
tenant.  :meth:`JobServer.start` starts three threads whatever
``max_running`` is, and none run per request or per job; a server never
started is stepped by hand, one :meth:`JobServer._turn` at a time.

* The **router** is the one loop over every running job's session.  It
  reads the pool's events and hands each worker report or death to the
  session that owns the worker (a report from a worker nobody owns any
  more, released busy, marks it free instead), ticks each session when
  it is due, and heals and resizes the pool.  Each wait on the pool
  lasts until the earliest session is due or the next resize.
* The **front end** is one ``selectors`` loop that owns the Unix socket
  (optional: tests drive :meth:`submit`/:meth:`drain` in process) and
  every client connection.  It reads each request through a buffer and
  answers ``ping``, ``status`` and ``cancel`` inline.  A ``wait`` is
  parked on its job and holds no thread: it is answered when the job
  ends (:meth:`JobServer._end` wakes the loop through a socket pair) or
  when its ``timeout`` passes.  A ``submit`` goes, with its connection,
  to the **admission** thread, which resolves submits in arrival order
  and replies, so nothing the loop answers waits behind a resolve.
  A ``shutdown`` drains on the admission thread too: a drain never runs
  on the loop, which answers the parked waits as the drain ends their
  jobs.  A bug in serving one request closes that connection, not the
  loop.

Every session step — start, event, tick, finish, a ration — runs under
the server lock, so a session and the books about it are never read
half-changed; a submit starts its job's session on the admission
thread, under the same lock.  Every deadline and event time is the
pool's clock (``pool.now()``); only a job's
``submitted_at`` / ``started_at`` / ``finished_at`` stamps are
wall-clock records.

Worker rationing is the paper's Eq. 1 lifted one level: every running
job's remaining work (its session's :meth:`job_profile`) is treated as a
single aggregate operation and :func:`ration` equalises predicted
finishing times across jobs.  The split is recomputed on every job
arrival, completion, and worker hand-back; a session starts with no
worker and every change of its share, the first included, reaches it as
one ``_ration`` call (a revoke in it is honoured after the current
chunk, never preempting a running kernel).
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import json
import math
import os
import queue as queue_module
import selectors
import socket
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.events import (
    ALLOC_DECIDE,
    JOB_ADMITTED,
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_STARTED,
    JOB_SUBMITTED,
    Tracer,
    events_to_jsonl,
)
from ..runtime.allocation import ration
from ..runtime.backends.mp import (
    DRAIN_GRACE,
    _MpSession,
    eq1_machine,
    report_fleet_events,
)
from ..runtime.checkpoint import RunManifest, init_checkpoint_dir
from ..runtime.config import RunConfig
from ..runtime.estimates import FinishingTimeEstimator
from ..runtime.faults import FaultPlan
from .jobs import Job, JobQueue, JobState
from .protocol import (
    DRAIN_LIMIT,
    MAX_LINE,
    ProtocolError,
    encode_message,
    take_message,
)

#: Config fields a submission may not override (they are properties of
#: the shared pool, not of one job).
_POOL_FIELDS = ("backend", "processors", "mp_start_method", "tracer")
#: Longest the router waits before it looks at a drain's stop flag.
_STOP_CHECK = 0.5
#: Longest the front end sleeps in one ``select``: epoll refuses a
#: timeout past ``INT_MAX`` ms (24.8 days), so a later deadline is met
#: by waking again.
_SELECT_MAX = 3600.0
#: Whether a thread's CPU clock can be read from another thread.
_THREAD_CLOCKS = hasattr(time, "pthread_getcpuclockid")


class _TenantFleet:
    """One job's view of the daemon's pool, as the
    :class:`~repro.runtime.backends.base.Fleet` its session runs on.
    Commands go straight to the pool; membership, events and healing
    are the server's: the session claims no worker (every share, the
    first included, arrives as a ``_ration`` call), the router hands it
    its workers' reports and deaths, workers go back through the
    ownership books (a dead one is marked there, on the daemon's
    trace), and the router sweeps the pool, so the job's own ``sweep``
    has nothing to report.
    """

    #: The Fleet members the pool answers for every tenant alike.
    _SHARED = frozenset(
        "name p slots now running send weight "
        "allocate_keys load unload arm can_recover stop".split()
    )

    def __init__(self, server: "JobServer", job: Job):
        self._server = server
        self._job = job
        self._pool = server.pool

    def __getattr__(self, member):
        if member not in self._SHARED:
            raise AttributeError(member)
        return getattr(self._pool, member)

    def claim(self) -> List[int]:
        return []

    def release(self, handed: Dict[int, str]) -> None:
        self._server._released(self._job, handed)

    def sweep(self) -> List[Dict[str, Any]]:
        return []


class JobServer:
    """A resident multi-tenant job service over one started fleet,
    which it stops at :meth:`drain` (or here, if it cannot start: the
    socket cannot bind, say).  Eq. 1 across jobs prices work in
    ``base_config``'s unit (:func:`~repro.runtime.backends.mp.eq1_machine`)."""

    def __init__(
        self,
        fleet,
        socket_path: Optional[str] = None,
        state_dir: Optional[str] = None,
        queue_limit: int = 8,
        max_running: int = 4,
        base_config: Optional[RunConfig] = None,
    ):
        self.pool = fleet
        try:
            if max_running < 1:
                raise ValueError("JobServer.max_running must be >= 1")
            self.state_dir = state_dir
            if state_dir:
                os.makedirs(state_dir, exist_ok=True)
            self.socket_path = socket_path
            base = base_config or RunConfig()
            self.base_config = base.with_(
                backend="mp", processors=fleet.p, tracer=None
            )
            self.queue = JobQueue(queue_limit)
            self.max_running = max_running
            self.tracer = Tracer()
            self.draining = False
            self.drain_reason = ""
            #: Set once the (single) drain has stopped the pool and dumped
            #: state; concurrent :meth:`drain` callers wait on it.
            self._drained = threading.Event()
            self._lock = threading.RLock()
            self._stop = threading.Event()
            self._next_job = 0
            #: Every job ever seen, by id (status survives completion).
            self.jobs: Dict[str, Job] = {}
            #: Jobs that reached a terminal state.
            self.jobs_finished = 0
            #: Jobs whose session runs, by id.
            self.running: Dict[str, Job] = {}
            #: Job id -> the pool time its session is next due a tick.
            self._due: Dict[str, float] = {}
            #: A worker went free, or a job ended, since the last
            #: :meth:`_schedule`: the router's turn ends in one.
            self._freed = False
            #: wid -> id of the job whose session owns the worker.
            self.owner: Dict[int, str] = {}
            #: Workers not granted to any job.
            self.free: set = set(fleet.live_workers())
            #: wid -> pool time it entered the free set (idle-shrink
            #: bookkeeping).
            self.free_since = dict.fromkeys(self.free, fleet.now())
            #: The last emitted cross-job decision, ``(job ids, shares)``.
            self._decided: Tuple[List[str], List[int]] = ([], [])
            #: Resolved (ops, deps) per admitted job, consumed at start.
            self._work: Dict[str, Tuple[list, list]] = {}
            self._configs: Dict[str, RunConfig] = {}
            #: Admission work in arrival order; ``None`` stops the thread.
            self._admissions: "queue_module.SimpleQueue" = (
                queue_module.SimpleQueue()
            )
            # The front end's state: the calls other threads post to it
            # (_post), and the waits parked on each job with their
            # deadlines, which only its own thread touches.
            self._posted: "collections.deque" = collections.deque()
            self._waiters: Dict[str, List[_Conn]] = {}
            self._deadlines: List[Tuple[float, int, _Conn]] = []
            self._seq = itertools.count()
            self._selector = selectors.DefaultSelector()
            self._wake_r, self._wake_w = socket.socketpair()
            for end in (self._wake_r, self._wake_w):
                end.setblocking(False)
            self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
            self._server_sock: Optional[socket.socket] = None
            if socket_path is not None:
                try:
                    self._open_socket(socket_path)
                except BaseException:
                    self._selector.close()
                    self._wake_r.close()
                    self._wake_w.close()
                    raise
            #: Thread role -> its CPU clock while it runs, then its CPU
            #: seconds (a float) once it has ended.
            self._clocks: Dict[str, Any] = {}
            self._threads: List[threading.Thread] = []
        except BaseException:  # (a server that cannot start)
            fleet.stop()
            raise

    def start(self) -> None:
        """Start the router, the front end and the admission thread (a
        pool's respawned and grown workers touch only their own fresh
        reply queue, so forks after this are safe)."""
        self._threads = [
            self._spawn("router", self._route),
            self._spawn("frontend", self._front),
            self._spawn("admission", self._admit_in_order),
        ]

    def _spawn(self, role: str, body: Callable[[], None]) -> threading.Thread:
        def run() -> None:
            if _THREAD_CLOCKS:
                self._clocks[role] = time.pthread_getcpuclockid(
                    threading.get_ident()
                )
            try:
                body()
            finally:
                if _THREAD_CLOCKS:
                    self._clocks[role] = time.thread_time()

        thread = threading.Thread(
            target=run, name=f"serve-{role}", daemon=True
        )
        thread.start()
        return thread

    def _thread_cpu(self) -> Dict[str, float]:
        """CPU seconds each thread role has used (empty where a thread's
        clock cannot be read from another thread)."""
        cpu = {}
        for role, clock in list(self._clocks.items()):
            try:
                cpu[role] = (
                    clock
                    if isinstance(clock, float)
                    else time.clock_gettime(clock)
                )
            except OSError:  # the thread ended between the two reads
                pass
        return cpu

    def _emit(self, kind: str, job: Job, **attrs) -> None:
        self.tracer.emit(
            kind, self.pool.now(), op=job.target, job=job.id, **attrs
        )

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        target: str,
        priority: int = 0,
        overrides: Optional[Dict[str, Any]] = None,
    ) -> Tuple[bool, Any]:
        """Admit one job.  Returns ``(True, job)`` or ``(False, reason)``.

        The target is resolved to concrete operations *here*, so a bad
        target (unknown name, multi-session workload, invalid override)
        is rejected at the socket instead of failing inside a running
        session.  Resolution (a compile on first sight of a source, op
        and payload construction every time) runs before the server lock
        is taken: a slow submit delays neither ``status`` nor another
        submit.  Under the lock the job is numbered, given its
        checkpoint directory and offered to the queue, so ids are dense
        (a rejected submit consumes none).
        """
        submitted_at = time.time()
        overrides = dict(overrides or {})
        try:
            cfg, ops, deps = self._admit_config(target, overrides)
        except Exception as error:
            return False, str(error)
        with self._lock:
            job_id = f"job-{self._next_job + 1:04d}"
            job = Job(
                id=job_id,
                target=str(target),
                priority=priority,
                overrides=overrides,
                submitted_at=submitted_at,
            )
            if self.state_dir and cfg.checkpoint_dir is None:
                cfg = cfg.with_(
                    checkpoint_dir=os.path.join(
                        self.state_dir, "jobs", job_id
                    )
                )
            job.checkpoint_dir = cfg.checkpoint_dir
            ok, reason = self.queue.offer(job)
            if not ok:
                # No id was consumed (the next admitted submit takes this
                # number), so the arrival is on record under no job.
                job.id = ""
                self._emit(
                    JOB_SUBMITTED,
                    job,
                    target=job.target,
                    priority=priority,
                    rejected=reason,
                )
                return False, reason
            self._next_job += 1
            self._emit(
                JOB_SUBMITTED, job, target=job.target, priority=priority
            )
            job.advance(JobState.ADMITTED)
            self.jobs[job_id] = job
            self._work[job_id] = (ops, deps)
            self._configs[job_id] = cfg
            self._emit(JOB_ADMITTED, job, queued=len(self.queue))
        self._schedule()
        return True, job

    def _admit_config(
        self, target, overrides: Dict[str, Any]
    ) -> Tuple[RunConfig, list, list]:
        """Vet ``overrides`` against the pool and resolve ``target``;
        touches no server state, so it runs outside the lock."""
        from .. import api

        for key in _POOL_FIELDS:
            value = overrides.pop(key, None)
            if value is None:
                continue
            current = getattr(self.base_config, key)
            if value != current:
                raise ValueError(
                    f"override {key}={value!r} conflicts with the shared "
                    f"pool ({key}={current!r}); per-job overrides cannot "
                    "reshape the pool"
                )
        # Fault plans arrive as CLI spec strings (FaultPlan itself is not
        # JSON); parse them here so churn chaos is seed-reproducible
        # through the socket.
        given = {k: v for k, v in overrides.items() if k != "inject_fault"}
        if overrides.get("inject_fault"):
            given["fault_plan"] = FaultPlan.parse(overrides["inject_fault"])
        # Jobs run untraced: nothing reads a session's per-task events.
        # The daemon's own tracer carries JOB_* / ALLOC_DECIDE / POOL_*.
        target, cfg, workload = api.configure(target, self.base_config, given)
        ops, deps, label = api.resolve_ops(target, cfg, workload)
        if any(getattr(op, "is_stream", False) for op in ops):
            raise ValueError(
                f"streaming target {label!r} paces its own admission "
                "against the coordinator loop and cannot share the serve "
                "pool as a job; run it directly with `python -m repro "
                "run stream --backend mp`"
            )
        return cfg, ops, deps

    # -- scheduling ----------------------------------------------------------

    def _schedule(self) -> None:
        """Start queued jobs up to ``max_running``, then re-ration.

        A new job's session starts with no worker; Eq. 1 then splits the
        pool over every running job, and each job's change reaches its
        session as one ``_ration`` — a new job's first share included,
        before anything else runs, so it starts at its real width.  A
        worker a ration frees waits for the next call (the router's turn
        ends in one): the balancer never runs inside itself.
        """
        with self._lock:
            self._freed = False
            started: List[Job] = []
            if not self.draining:
                while len(self.running) < self.max_running:
                    job = self.queue.pop()
                    if job is None:
                        break
                    if job.state is not JobState.ADMITTED:
                        continue  # cancelled while queued
                    if self._start_job(job):
                        started.append(job)
            moves = self._rebalance()
            for job in started:
                self._emit(JOB_STARTED, job, workers=len(job.granted))
            for job, move in moves:
                if any(move) or job in started:
                    self._step(job, job.session._ration, *move)

    def _start_job(self, job: Job) -> bool:
        """Lock held: build and start the job's session and book it as
        running; ``False`` if that failed (and with it the job)."""
        ops, deps = self._work.pop(job.id)
        cfg = self._configs.pop(job.id)
        job.advance(JobState.RUNNING)
        self.running[job.id] = job
        try:
            job.session = _MpSession(
                ops, deps, cfg, _TenantFleet(self, job)
            )
            job.session.start()
        except Exception:
            self._finish(job, traceback.format_exc())
            return False
        self._due[job.id] = self.pool.now()
        return True

    def _rebalance(self) -> List[Tuple[Job, Tuple[List[int], List[int]]]]:
        """Eq. 1 across jobs: equalise predicted finishing times.

        Each running job's remaining work is one aggregate op profile
        (its session's live TAPER statistics); the same allocator that
        rations processors among concurrent operations inside a session
        rations pool workers among sessions.  Moves the books and
        returns each job's ``(granted, revoked)``, for the caller to
        hand to its session.
        """
        running = list(self.running.values())
        width = len(self.pool.live_workers())
        if not running or width == 0:
            return []
        shares = ration(
            width,
            [
                FinishingTimeEstimator(
                    job.session.job_profile(), eq1_machine(self.base_config)
                ).finish
                for job in running
            ],
        )
        decision = ([job.id for job in running], list(shares))
        if decision != self._decided:
            self._decided = decision
            self.tracer.emit(
                ALLOC_DECIDE,
                self.pool.now(),
                op="+".join(decision[0]),
                shares=decision[1],
                labels=decision[0],
                width=width,
            )
        # Revokes first: they free nothing now (the session hands the
        # worker back after its current chunk), but they stop the
        # over-granted job from being considered under target below.
        moves = [([], []) for _ in running]
        for job, share, (_, revoked) in zip(running, shares, moves):
            current = len(job.granted) - len(job.pending_revoke)
            for wid in sorted(job.granted - job.pending_revoke):
                if current <= share:
                    break
                job.pending_revoke.add(wid)
                revoked.append(wid)
                current -= 1
        for job, share, (granted, _) in zip(running, shares, moves):
            current = len(job.granted) - len(job.pending_revoke)
            while current < share and self.free:
                wid = self.free.pop()
                self.free_since.pop(wid, None)
                if not self.pool.alive[wid]:
                    continue
                self.owner[wid] = job.id
                job.granted.add(wid)
                granted.append(wid)
                current += 1
        return list(zip(running, moves))

    def _released(self, job: Job, handed: Dict[int, str]) -> None:
        """Lock held: the job's session handed workers back, each with a
        status.

        ``"free"`` — idle, grantable at the next :meth:`_schedule`;
        ``"busy"`` — its last chunk is still running, the router frees
        it when the orphan report arrives; ``"dead"`` — gone
        (:meth:`_bury` marks it, and its facts go on the daemon's trace).
        """
        for wid, status in handed.items():
            job.granted.discard(wid)
            job.pending_revoke.discard(wid)
            if self.owner.get(wid) == job.id:
                del self.owner[wid]
            if status == "free":
                self._free(wid)
            elif status == "dead":
                report_fleet_events(
                    self._bury(wid, None), self.tracer, self.pool.now()
                )

    def _free(self, wid: int) -> None:
        """Lock held: ``wid`` joins the free set."""
        self.free.add(wid)
        self.free_since[wid] = self.pool.now()
        self._freed = True

    # -- the router: the one loop over the sessions ---------------------------

    def _route(self) -> None:
        """The router thread: :meth:`_turn` until a drain stops it."""
        wait = _STOP_CHECK
        while not self._stop.is_set():
            try:
                wait = self._turn(wait)
            except (EOFError, OSError):  # pool torn down under us
                break

    def _turn(self, wait: float) -> float:
        """Run every job's session and the pool, one event — waited for
        at most ``wait`` seconds — at a time; returns the next wait.

        A report from an unowned worker means the worker was released
        ``"busy"`` and has now finished that chunk: only ``done``/
        ``error`` free it (``attached`` notifications are progress, not
        completion, and are dropped); a death goes to :meth:`_bury`.
        The pool's own events stay here: a ``ration`` (a respawned or
        grown worker's handshake) frees the worker, and a ``sweep``
        respawns the due slots nobody owns (an owned one is its
        session's to release first).  Then every session that is due
        ticks, a freed worker or an ended job re-rations, and
        :meth:`_resize` runs; the next wait ends when the earliest
        session or resize is due.
        """
        try:
            kind, wid, payload = self.pool.recv(wait)
        except queue_module.Empty:
            kind = None
        events: List[Dict[str, Any]] = []
        with self._lock:
            if kind == "ration":
                for wid in payload[0]:
                    self._free(wid)
            elif kind == "sweep":
                if not self.draining:
                    events += self.pool.sweep(
                        eligible=lambda wid: wid not in self.owner
                    )
            elif kind == "dead":
                events += self._bury(wid, payload)
            elif kind is not None:
                job = self.jobs.get(self.owner.get(wid, ""))
                if job is not None:
                    self._step(job, job.session.on_event, kind, wid, payload)
                elif kind in ("done", "error") and self.pool.alive[wid]:
                    self._free(wid)
            now = self.pool.now()
            for job_id, due in list(self._due.items()):
                if due <= now:
                    self._step(self.running[job_id])
            if self._freed:
                self._schedule()
            wait = self._resize(events)
            if self._freed:  # (a ration just freed a worker)
                wait = 0.0
            elif self._due:
                soonest = min(self._due.values())
                wait = min(wait, max(0.0, soonest - self.pool.now()))
        if events:
            report_fleet_events(events, self.tracer, self.pool.now())
        return wait

    def _step(
        self, job: Job, call: Optional[Callable] = None, *args
    ) -> None:
        """Lock held: one step of ``job``'s session — ``call(*args)``,
        if given, then its tick — and when it is next due, or its end.
        A step that raises fails its job, never the router."""
        try:
            if call is not None:
                call(*args)
            wait = job.session.tick()
        except Exception:
            self._finish(job, traceback.format_exc())
            return
        if wait is None:
            self._finish(job)
        else:
            self._due[job.id] = self.pool.now() + wait

    def _resize(self, events: List[Dict[str, Any]]) -> float:
        """Grow under compute-bound demand, shrink one worker idle past
        ``idle_timeout`` (lock held); returns seconds to the next one."""
        if self.draining or not self.pool.running:
            return _STOP_CHECK
        if self._grow_wanted():
            grown = self.pool.grow()
            if grown is not None:
                events.append(
                    {
                        "kind": "grow",
                        "slot": grown,
                        "width": len(self.pool.live_workers())
                        + len(self.pool.pending_ready),
                    }
                )
        idle_timeout = self.pool.cfg.idle_timeout
        if idle_timeout is None:
            return _STOP_CHECK
        wait, now = _STOP_CHECK, self.pool.now()
        width = len(self.pool.live_workers())
        for wid in sorted(self.free, reverse=True):
            if width <= self.pool.min_workers:
                break
            since = self.free_since.setdefault(wid, now)
            if now < since + idle_timeout:  # (so the wait is never 0)
                wait = min(wait, since + idle_timeout - now)
                continue
            if self.pool.shrink(wid):
                self.free.discard(wid)
                self.free_since.pop(wid, None)
                events.append(
                    {
                        "kind": "shrink",
                        "slot": wid,
                        "idle": now - since,
                        "width": width - 1,
                    }
                )
                return 0.0  # one per wake; the next may be due too
        return wait

    def _grow_wanted(self) -> bool:
        """Whether demand justifies starting a dormant slot (lock held).

        Compute-bound means: no spare capacity (nothing free, nothing
        mid-handshake), work genuinely waiting (queued jobs, or the
        running jobs' aggregate remaining tasks exceed twice the
        current width), and at least one running job's TAPER cost
        samples show real per-task cost — a fleet blocked on a stream
        source should not grow.
        """
        if self.free or self.pool.pending_ready or not self.running:
            return False
        width = len(self.pool.live_workers())
        if width >= self.pool.slots - len(self.pool.quarantined):
            return False
        profiles = [
            job.session.job_profile() for job in self.running.values()
        ]
        if not any(profile.mean > 0 for profile in profiles):
            return False
        remaining = sum(profile.tasks for profile in profiles)
        return len(self.queue) > 0 or remaining > 2 * width

    # -- job ends ------------------------------------------------------------

    def _end(self, job: Job, state: JobState) -> None:
        """Lock held: the one way a job reaches a terminal ``state``.  It
        is counted, and the front end answers the waits parked on it."""
        job.advance(state)
        self.jobs_finished += 1
        self._post(self._answer_waits, job.id)

    def _finish(self, job: Job, error: Optional[str] = None) -> None:
        """Lock held: close ``job``'s session and record how the job
        ended; ``error`` is the traceback of the step that raised."""
        # The record outlives the job; its ops, payloads and per-task
        # books must not.
        session, job.session = job.session, None
        del self.running[job.id]
        self._due.pop(job.id, None)
        self._freed = True  # a slot opened
        raw = None
        if session is not None:
            try:
                raw = session.finish()
            except Exception:
                error = error or traceback.format_exc()
        if error is not None:
            # The status field keeps the one-line summary; the full
            # traceback goes to disk — losing the stack behind
            # `splitlines()[-1]` made remote failures undebuggable.
            job.error = error.strip().splitlines()[-1]
            self._persist_error(job, error)
            self._end(job, JobState.FAILED)
            self._emit(JOB_FAILED, job, error=job.error)
            return
        job.result = {
            "value_total": raw.value_total,
            "makespan": raw.makespan,
            "total_work": raw.total_work,
            "tasks": raw.tasks,
            "chunks": raw.chunks,
            "cancelled": raw.cancelled,
        }
        if raw.cancelled:
            job.resume_dir = raw.resume_dir
            self._end(job, JobState.CANCELLED)
            self._emit(
                JOB_CANCELLED,
                job,
                reason=raw.cancel_reason,
                resume_dir=job.resume_dir or "",
            )
        else:
            self._end(job, JobState.DONE)
            self._emit(
                JOB_DONE,
                job,
                value_total=raw.value_total,
                makespan=raw.makespan,
            )

    def _persist_error(self, job: Job, formatted_traceback: str) -> None:
        """Write a failed job's full traceback to
        ``STATE_DIR/jobs/<id>/error.txt`` and remember the path.

        Best effort: a daemon running without ``state_dir`` (or on a
        full disk) still fails the job normally, just without the file.
        """
        if not self.state_dir:
            return
        directory = os.path.join(self.state_dir, "jobs", job.id)
        path = os.path.join(directory, "error.txt")
        try:
            os.makedirs(directory, exist_ok=True)
            with open(path, "w") as handle:
                handle.write(formatted_traceback)
        except OSError:
            return
        job.error_file = path

    def _bury(
        self, wid: int, exitcode: Optional[int]
    ) -> List[Dict[str, Any]]:
        """Lock held: a death goes to the job owning the worker, whose
        session reclaims it; any other is marked here (the pool's facts)."""
        job = self.jobs.get(self.owner.get(wid, ""))
        if job is not None:
            self._step(job, job.session.on_event, "dead", wid, exitcode)
            return []
        self.free.discard(wid)
        self.free_since.pop(wid, None)
        return self.pool.mark_dead(wid) if self.pool.alive[wid] else []

    # -- queries / control ---------------------------------------------------

    def status(self, job_id: Optional[str] = None) -> Dict[str, Any]:
        """One job's record, or the daemon's: its pool, every job, and
        ``threads``, the CPU seconds of each thread role (where a thread
        clock can be read), which over ``jobs_finished`` is the CPU a
        job costs each role."""
        threads = self._thread_cpu() if job_id is None else {}
        with self._lock:
            if job_id is not None:
                job = self.jobs.get(job_id)
                if job is None:
                    return {"ok": False, "error": f"unknown job {job_id!r}"}
                return {"ok": True, "job": job.info()}
            status = {
                "ok": True,
                "draining": self.draining,
                "processors": self.pool.p,
                "live_workers": len(self.pool.live_workers()),
                "queued": len(self.queue),
                "running": len(self.running),
                "pool": {
                    "base": self.pool.p,
                    "slots": self.pool.slots,
                    "min_workers": self.pool.min_workers,
                    "max_workers": self.pool.cfg.max_workers
                    or self.pool.p,
                    "live": len(self.pool.live_workers()),
                    "pending": len(self.pool.pending_ready),
                    "dormant": len(self.pool.dormant),
                    "quarantined": sorted(self.pool.quarantined),
                    "respawns": self.pool.respawns,
                    "grows": self.pool.grows,
                    "shrinks": self.pool.shrinks,
                },
                "jobs": [
                    job.info()
                    for job in sorted(
                        self.jobs.values(), key=lambda j: j.id
                    )
                ],
                "jobs_finished": self.jobs_finished,
            }
        if threads:
            status["threads"] = threads
        return status

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        with self._lock:
            job = self.jobs.get(job_id)
        if job is None:
            return {"ok": False, "error": f"unknown job {job_id!r}"}
        if not job.done.wait(timeout):
            return {"ok": False, "error": f"timeout waiting for {job_id}"}
        with self._lock:
            return {"ok": True, "job": job.info()}

    def cancel(self, job_id: str, reason: str = "client cancel") -> Dict:
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                return {"ok": False, "error": f"unknown job {job_id!r}"}
            if job.state.terminal:
                return {"ok": True, "job": job.info()}
            if job.state is JobState.ADMITTED:
                self._cancel_queued(job, reason)
                return {"ok": True, "job": job.info()}
            # RUNNING: flag the session; its drain path journals
            # in-flight chunks and reports a resumable partial result.
            job.session.cancel_reason = reason
            return {"ok": True, "job": job.info()}

    def _cancel_queued(self, job: Job, reason: str) -> None:
        """Under the lock: cancel a job no session ever ran.  It leaves
        a header-only journal, so its ``resume_dir`` resumes — as a
        fresh run of the same target.  A journal that cannot be written
        leaves the job cancelled with the error and no ``resume_dir``;
        the cancel (or the drain it is part of) goes on."""
        ops, _deps = self._work.pop(job.id)
        cfg = self._configs.pop(job.id)
        if job.checkpoint_dir:
            try:
                init_checkpoint_dir(
                    job.checkpoint_dir, RunManifest.build(cfg, ops)
                )
            except OSError as error:
                job.error = f"{type(error).__name__}: {error}"
            else:
                job.resume_dir = job.checkpoint_dir
        self._end(job, JobState.CANCELLED)
        self._emit(
            JOB_CANCELLED, job, reason=reason, resume_dir=job.resume_dir or ""
        )

    def drain(self, reason: str = "shutdown") -> Dict[str, Any]:
        """Graceful shutdown: cancel everything, sync journals, stop.

        Queued jobs are cancelled in place (a header-only journal makes
        them resumable as fresh runs); running sessions take the PR4 cancel
        path — stop dispatching, harvest in-flight chunks within
        ``DRAIN_GRACE``, sync the journal — so every interrupted job
        reports a ``resume_dir``.  Idempotent: a second caller (the CLI
        loop noticing a client ``shutdown``'s drain) waits for the drain
        in progress to finish instead of returning — and letting the
        process exit — before journals, pool and state files are done.
        """
        with self._lock:
            already = self.draining
            self.draining = True
        if already:
            self._drained.wait()
            return self.status()
        try:
            return self._drain(reason)
        finally:
            self._drained.set()

    def _drain(self, reason: str) -> Dict[str, Any]:
        with self._lock:
            self.drain_reason = reason
            for job in self.queue.drain():
                if job.state is JobState.ADMITTED:  # (not cancelled)
                    self._cancel_queued(job, reason)
            running = list(self.running.values())
            for job in running:
                job.session.cancel_reason = reason
        # Wait outside the lock: the router needs it to drain the jobs,
        # all at once, so they share one deadline.
        deadline = self.pool.now() + DRAIN_GRACE + 10.0
        if not self._threads:  # never started: step the router here
            wait = 0.0
            while self.running:  # (each session's drain grace bounds it)
                wait = self._turn(wait)
        for job in running:
            job.done.wait(timeout=max(0.0, deadline - self.pool.now()))
        self._stop.set()
        self._admissions.put(None)
        self._wake()
        # (A client's shutdown drains on the admission thread.)
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=2.0)
        if not self._threads:  # never started: the front end only closes
            self._front()
        # What the pool has to tell since the router's last sweep (the
        # last jobs' evictions); nothing is eligible to respawn now.
        last = self.pool.sweep(eligible=lambda wid: False)
        report_fleet_events(last, self.tracer, self.pool.now())
        self.pool.stop()
        status = self.status()
        self._dump_state(status)
        return status

    def _dump_state(self, status: Dict[str, Any]) -> None:
        if not self.state_dir:
            return
        try:
            with open(
                os.path.join(self.state_dir, "jobs.json"), "w"
            ) as handle:
                json.dump(status, handle, indent=2, sort_keys=True)
            with open(
                os.path.join(self.state_dir, "events.jsonl"), "w"
            ) as handle:
                handle.write(events_to_jsonl(self.tracer.events))
        except OSError:  # pragma: no cover - best-effort dump
            pass

    # -- the socket front end ------------------------------------------------

    def _open_socket(self, path: str) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if os.path.exists(path):
            os.unlink(path)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.bind(path)
            sock.listen()  # (a backlog of up to 128: a burst waits)
        except OSError:
            sock.close()
            raise
        sock.setblocking(False)
        self._server_sock = sock
        self._selector.register(sock, selectors.EVENT_READ, "accept")

    def _post(self, call: Callable[..., None], *args) -> None:
        """Have the front end run ``call(*args)`` on its thread."""
        self._posted.append((call, args))
        self._wake()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:  # full, so a wake is pending anyway; or closed
            pass

    def _front(self) -> None:
        """The front end's loop (the module docstring says what it
        answers and how); it returns once a drain has set ``_stop``."""
        while not self._stop.is_set():
            timeout = _SELECT_MAX
            if self._deadlines:
                timeout = min(
                    timeout,
                    max(0.0, self._deadlines[0][0] - self.pool.now()),
                )
            for key, events in self._selector.select(timeout):
                self._guarded(self._dispatch, key.data, events)
            self._guarded(self._expire)
        # Everything posted before the stop: the waits on the jobs the
        # drain just ended.
        self._woken()
        conns = [
            key.data
            for key in self._selector.get_map().values()
            if isinstance(key.data, _Conn)
        ]
        for conn in conns + sum(self._waiters.values(), []):
            if conn.out:
                try:
                    conn.sock.settimeout(1.0)
                    conn.sock.sendall(conn.out)
                except OSError:
                    pass
            self._close(conn)
        self._selector.close()
        for sock in (self._server_sock, self._wake_r, self._wake_w):
            if sock is not None:
                sock.close()
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def _guarded(self, call: Callable[..., None], *args) -> None:
        """Run one step of the loop: a bug in it costs the connection
        it was serving, never the loop every other client needs."""
        try:
            call(*args)
        except Exception:
            traceback.print_exc()
            for arg in args:
                if isinstance(arg, _Conn):
                    self._close(arg)

    def _dispatch(self, data: Any, events: int) -> None:
        if data == "wake":
            self._woken()
        elif data == "accept":
            self._accept()
        elif events & selectors.EVENT_WRITE:
            self._flush(data)
        else:
            self._read(data)

    def _woken(self) -> None:
        try:  # (what a read leaves, the next select reports again)
            self._wake_r.recv(4096)
        except BlockingIOError:
            pass
        while self._posted:
            call, args = self._posted.popleft()
            self._guarded(call, *args)

    def _accept(self) -> None:
        try:  # (one a wake: the next select reports any other)
            sock, _ = self._server_sock.accept()
        except OSError:  # taken already, or no descriptor left
            return
        sock.setblocking(False)
        # A client sends its request as it connects: it is usually here.
        self._read(_Conn(sock))

    def _read(self, conn: "_Conn") -> None:
        try:
            data = conn.sock.recv(65536)
        except BlockingIOError:
            self._watch(conn, selectors.EVENT_READ)
            return
        except OSError:
            self._close(conn)
            return
        if conn.refused is not None:  # discarding an over-long line
            conn.dropped += len(data)
            if not data or b"\n" in data or conn.dropped >= DRAIN_LIMIT:
                self._refuse(conn, conn.refused)
            return
        conn.buffer += data
        try:
            request = take_message(conn.buffer, eof=not data)
        except ProtocolError as error:
            if error.code == "line_too_long" and b"\n" not in conn.buffer:
                # Read to the newline first, so the sender finishes its
                # send and reads the reply instead of a broken pipe.
                conn.refused, conn.buffer = error, bytearray()
                self._watch(conn, selectors.EVENT_READ)
            else:
                self._refuse(conn, error)
            return
        if request is None:
            if data:
                self._watch(conn, selectors.EVENT_READ)
            else:  # a clean hang-up before any request
                self._close(conn)
            return
        # Nothing more is read: a client that hangs up now is noticed
        # when its reply fails.
        self._watch(conn, 0)
        try:
            self._serve(conn, request)
        except Exception as error:  # a malformed field, not a dead loop
            self._reply(
                conn, {"ok": False, "error": f"bad request: {error}"}
            )

    def _refuse(self, conn: "_Conn", error: ProtocolError) -> None:
        reply = {"ok": False, "error": str(error), "code": error.code}
        if error.code == "line_too_long":
            reply["max_line"] = MAX_LINE
        self._reply(conn, reply)

    def _serve(self, conn: "_Conn", request: Dict[str, Any]) -> None:
        """Answer one request: inline, parked, or through admission."""
        op, job_id = request.get("op"), request.get("job")
        if op == "ping":
            reply = {"ok": True, "pid": os.getpid()}
        elif op == "status":
            reply = self.status(job_id)
        elif op == "cancel":
            reply = (
                self.cancel(job_id)
                if job_id
                else {"ok": False, "error": "cancel needs a job id"}
            )
        elif op == "wait":
            if job_id:
                self._park(conn, job_id, request.get("timeout"))
                return
            reply = {"ok": False, "error": "wait needs a job id"}
        elif op == "submit":
            if request.get("target") and not self.draining:
                self._admissions.put(
                    functools.partial(self._admit, conn, request)
                )
                return
            reply = {
                "ok": False,
                "error": "draining"
                if request.get("target")
                else "submit needs a target",
            }
        elif op == "shutdown":
            self._admissions.put(
                functools.partial(self.drain, reason="client shutdown")
            )
            reply = {"ok": True, "draining": True}
        else:
            reply = {"ok": False, "error": f"unknown op {op!r}"}
        self._reply(conn, reply)

    def _admit(self, conn: "_Conn", request: Dict[str, Any]) -> None:
        """On the admission thread: run the submit and reply."""
        try:
            ok, result = self.submit(
                request["target"],
                priority=int(request.get("priority", 0)),
                overrides=request.get("overrides") or {},
            )
            reply = (
                {"ok": True, "job": result.info()}
                if ok
                else {"ok": False, "error": result}
            )
        except Exception as error:
            reply = {"ok": False, "error": f"bad request: {error}"}
        # The loop watches nothing on this connection once it queued the
        # submit, so the connection is this thread's until the reply is
        # out: sending it from here saves a wake of the loop a job (an
        # end-to-end cost on serve_small, EXPERIMENTS.md).  A tail the
        # socket does not take at once goes back to the loop.
        try:
            conn.out = encode_message(reply)
        except ProtocolError:  # past the line cap: nothing to send
            pass
        if self._send_some(conn):
            conn.sock.close()
        else:
            self._post(self._flush, conn)

    def _admit_in_order(self) -> None:
        for admit in iter(self._admissions.get, None):
            admit()

    def _park(self, conn: "_Conn", job_id: str, timeout: Any) -> None:
        """A ``wait``: answered now if its job has ended, else when it
        does (:meth:`_answer_waits`) or at its deadline (:meth:`_expire`).
        A negative ``timeout`` is due at once; one that is not a finite
        number is a bad request."""
        if timeout is not None:
            timeout = float(timeout)
            if not math.isfinite(timeout):
                raise ValueError(f"wait timeout {timeout} is not finite")
            deadline = self.pool.now() + max(0.0, timeout)
        with self._lock:
            job = self.jobs.get(job_id)
            info = job.info() if job and job.done.is_set() else None
        if job is None:
            self._reply(
                conn, {"ok": False, "error": f"unknown job {job_id!r}"}
            )
        elif info is not None:
            self._reply(conn, {"ok": True, "job": info})
        else:
            conn.waiting = job_id
            self._waiters.setdefault(job_id, []).append(conn)
            if timeout is not None:
                heapq.heappush(
                    self._deadlines, (deadline, next(self._seq), conn)
                )

    def _answer_waits(self, job_id: str) -> None:
        parked = self._waiters.pop(job_id, [])
        if parked:
            with self._lock:
                reply = {"ok": True, "job": self.jobs[job_id].info()}
            for conn in parked:
                conn.waiting = None
                self._reply(conn, reply)

    def _expire(self) -> None:
        now = self.pool.now()
        while self._deadlines and self._deadlines[0][0] <= now:
            conn = heapq.heappop(self._deadlines)[2]
            if conn.waiting is not None:
                error = f"timeout waiting for {conn.waiting}"
                self._reply(conn, {"ok": False, "error": error})

    def _unpark(self, conn: "_Conn") -> None:
        if conn.waiting is None:
            return
        parked = self._waiters.get(conn.waiting, [])
        if conn in parked:
            parked.remove(conn)
        if not parked:
            self._waiters.pop(conn.waiting, None)
        conn.waiting = None

    def _reply(self, conn: "_Conn", message: Dict[str, Any]) -> None:
        """Send ``message`` and close: one request per connection."""
        self._unpark(conn)
        try:
            conn.out = encode_message(message)
        except ProtocolError:  # past the line cap: nothing to send
            pass
        self._flush(conn)

    def _flush(self, conn: "_Conn") -> None:
        if self._send_some(conn):
            self._close(conn)
        else:
            self._watch(conn, selectors.EVENT_WRITE)

    @staticmethod
    def _send_some(conn: "_Conn") -> bool:
        """Send what the socket takes now; whether that ends the reply
        (all of it went, or none of it can)."""
        try:
            conn.out = conn.out[conn.sock.send(conn.out) :]
        except BlockingIOError:
            return False
        except OSError:
            conn.out = b""
        return not conn.out

    def _watch(self, conn: "_Conn", events: int) -> None:
        """Have the selector report ``events`` on ``conn`` (0: none)."""
        if events == conn.events:
            return
        if not conn.events:
            self._selector.register(conn.sock, events, conn)
        elif not events:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _close(self, conn: "_Conn") -> None:
        self._unpark(conn)
        if conn.sock.fileno() >= 0:
            self._watch(conn, 0)
            conn.sock.close()


class _Conn:
    """One client connection on the front end."""

    __slots__ = (
        "sock", "events", "buffer", "refused", "dropped", "out", "waiting"
    )

    def __init__(self, sock: socket.socket):
        self.sock = sock
        #: What the selector reports on it: while the request or the
        #: reply is part way, and nothing otherwise.
        self.events = 0
        #: The request's bytes so far.
        self.buffer = bytearray()
        #: The error an over-long line is being discarded for, and how
        #: many bytes of it went so far.
        self.refused: Optional[ProtocolError] = None
        self.dropped = 0
        #: Reply bytes not yet sent.
        self.out = b""
        #: The job a parked ``wait`` is on.
        self.waiting: Optional[str] = None
