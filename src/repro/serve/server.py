"""The serve daemon: one warm worker pool, many tenant jobs.

:class:`JobServer` owns a started :class:`~repro.runtime.backends.mp.
WorkerPool` and multiplexes submitted jobs onto it.  Each running job is
one :class:`~repro.runtime.backends.mp._MpSession` tenant driving its own
private inbox; the server contributes three threads:

* the **router** — reads the pool's events and forwards each worker
  report or death to the session that currently owns the worker
  (reports from just-released workers mark them free instead), and
  heals and resizes the pool;
* the **listener** — accepts JSON-line requests on a Unix socket
  (optional: tests drive :meth:`submit`/:meth:`drain` in process);
* one **job thread** per running session.

Worker rationing is the paper's Eq. 1 lifted one level: every running
job's remaining work (its session's :meth:`job_profile`) is treated as a
single aggregate operation and :func:`ration` equalises predicted
finishing times across jobs.  The split is recomputed on every job
arrival, completion, and worker hand-back; a job takes its first share
whole as its session starts and every later change as one ``ration``
message (a revoke in it is honoured after the current chunk, never
preempting a running kernel).
"""

from __future__ import annotations

import json
import os
import queue as queue_module
import socket
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

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
    WorkerPool,
    _MpSession,
    real_machine_config,
    report_fleet_events,
)
from ..runtime.checkpoint import RunManifest, init_checkpoint_dir
from ..runtime.config import PoolConfig, RunConfig
from ..runtime.estimates import FinishingTimeEstimator
from ..runtime.faults import FaultPlan
from .jobs import Job, JobQueue, JobState
from .protocol import MAX_LINE, ProtocolError, recv_message, send_message

#: Config fields a submission may not override (they are properties of
#: the shared pool, not of one job).
_POOL_FIELDS = ("backend", "processors", "mp_start_method", "tracer")
#: Longest the router waits before it looks at a drain's stop flag.
_STOP_CHECK = 0.5


class _TenantFleet:
    """One job's view of the daemon's pool, as the
    :class:`~repro.runtime.backends.base.Fleet` its session runs on.
    Commands go straight to the pool; membership and healing are the
    server's: ``claim`` is the share the balancer set aside before the
    session's thread started, later changes arrive as ``ration`` events
    on the job's inbox, as do its workers' deaths, and workers go back
    through the ownership books; the router sweeps the pool, so the
    job's own ``sweep`` reports only the quarantine that the death of a
    worker it held tripped.
    """

    #: The Fleet members the pool answers for every tenant alike.
    _SHARED = frozenset(
        "name p slots t0 running send weight "
        "allocate_keys load unload arm can_recover stop".split()
    )

    def __init__(self, server: "JobServer", job: Job):
        self._server = server
        self._job = job
        self._pool = server.pool
        self._happened: List[Dict[str, Any]] = []

    def __getattr__(self, member):
        if member not in self._SHARED:
            raise AttributeError(member)
        return getattr(self._pool, member)

    def claim(self) -> List[int]:
        with self._server._lock:
            return sorted(self._job.granted)

    def recv(self, timeout: float):
        return self._job.inbox.get(timeout=timeout)

    def release(self, handed: Dict[int, str]) -> None:
        for wid, status in handed.items():
            if status == "dead" and self._pool.alive[wid]:
                self._happened += self._pool.mark_dead(wid)
        self._server._released(self._job, handed)

    def sweep(self) -> List[Dict[str, Any]]:
        happened, self._happened = self._happened, []
        return happened


class JobServer:
    """A resident multi-tenant job service over one warm worker pool."""

    def __init__(
        self,
        processors: int = 4,
        socket_path: Optional[str] = None,
        state_dir: Optional[str] = None,
        queue_limit: int = 8,
        max_running: int = 4,
        start_method: Optional[str] = None,
        base_config: Optional[RunConfig] = None,
        pool_config: Optional[PoolConfig] = None,
    ):
        if max_running < 1:
            raise ValueError("JobServer.max_running must be >= 1")
        self.state_dir = state_dir
        if state_dir:
            os.makedirs(state_dir, exist_ok=True)
        self.socket_path = socket_path
        base = base_config or RunConfig()
        self.base_config = base.with_(
            backend="mp",
            processors=processors,
            mp_start_method=start_method,
            tracer=None,
        )
        self.queue = JobQueue(queue_limit)
        self.max_running = max_running
        self.tracer = Tracer()
        self.t0 = time.time()
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
        #: Jobs whose session thread is live, by id.
        self.running: Dict[str, Job] = {}
        #: wid -> id of the job whose session owns the worker.
        self.owner: Dict[int, str] = {}
        #: Workers not granted to any job.
        self.free: set = set()
        #: wid -> monotonic time it entered the free set (idle-shrink
        #: bookkeeping).
        self.free_since: Dict[int, float] = {}
        #: The last emitted cross-job decision, ``(job ids, shares)``.
        self._decided: Tuple[List[str], List[int]] = ([], [])
        #: Resolved (ops, deps) per admitted job, consumed at start.
        self._work: Dict[str, Tuple[list, list]] = {}
        self._configs: Dict[str, RunConfig] = {}
        # The pool forks its workers *before* any server thread starts
        # (the classic fork+threads hazard applies to the *initial*
        # cohort; respawned/grown workers immediately enter the worker
        # loop and touch only their own fresh reply queue, which keeps
        # the later forks safe too); sessions borrowing the pool never
        # fork.
        self.pool = WorkerPool(
            processors, start_method=start_method, pool_config=pool_config
        )
        self.pool.start()
        self.free = set(self.pool.live_workers())
        now = time.monotonic()
        self.free_since = {wid: now for wid in self.free}
        self._router = threading.Thread(
            target=self._route, name="serve-router", daemon=True
        )
        self._router.start()
        self._listener: Optional[threading.Thread] = None
        self._server_sock: Optional[socket.socket] = None
        if socket_path is not None:
            self._open_socket(socket_path)

    # -- time / events -------------------------------------------------------

    def _now(self) -> float:
        return time.time() - self.t0

    def _emit(self, kind: str, job: Job, **attrs) -> None:
        self.tracer.emit(kind, self._now(), op=job.target, job=job.id, **attrs)

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
        """Admit queued jobs up to ``max_running``, then re-ration.

        A new job's session is built first and its thread started last,
        so the share it is rationed in between is what its ``claim()``
        returns: it starts at its real width, not by waiting on its
        inbox.
        """
        started: List[Job] = []
        with self._lock:
            if not self.draining:
                while len(self.running) < self.max_running:
                    job = self.queue.pop()
                    if job is None:
                        break
                    if job.state is not JobState.ADMITTED:
                        continue  # cancelled while queued
                    if self._start_job(job):
                        started.append(job)
            self._rebalance()
            for job in started:
                self._emit(JOB_STARTED, job, workers=len(job.granted))
                job.thread = threading.Thread(
                    target=self._run_job,
                    args=(job,),
                    name=f"serve-{job.id}",
                    daemon=True,
                )
                job.thread.start()

    def _start_job(self, job: Job) -> bool:
        """Build the job's session and book it as running (its thread
        is :meth:`_schedule`'s to start); ``False`` if it failed."""
        ops, deps = self._work.pop(job.id)
        cfg = self._configs.pop(job.id)
        try:
            job.session = _MpSession(
                ops, deps, cfg, _TenantFleet(self, job)
            )
        except Exception as error:
            job.error = str(error)
            self._persist_error(job, traceback.format_exc())
            job.advance(JobState.RUNNING)
            job.advance(JobState.FAILED)
            self._emit(JOB_FAILED, job, error=job.error)
            return False
        job.advance(JobState.RUNNING)
        self.running[job.id] = job
        return True

    def _rebalance(self) -> None:
        """Eq. 1 across jobs: equalise predicted finishing times.

        Each running job's remaining work is one aggregate op profile
        (its session's live TAPER statistics); the same allocator that
        rations processors among concurrent operations inside a session
        rations pool workers among sessions.
        """
        running = [
            job
            for job in self.running.values()
            if job.session is not None and not job.session.detaching
        ]
        width = len(self.pool.live_workers())
        if not running or width == 0:
            return
        machine = real_machine_config(self.pool.p)
        shares = ration(
            width,
            [
                FinishingTimeEstimator(
                    job.session.job_profile(), machine
                ).finish
                for job in running
            ],
        )
        decision = ([job.id for job in running], list(shares))
        if decision != self._decided:
            self._decided = decision
            self.tracer.emit(
                ALLOC_DECIDE,
                self._now(),
                op="+".join(decision[0]),
                shares=decision[1],
                labels=decision[0],
            )
        # One (granted, revoked) pair per job.  Revokes first: they free
        # nothing immediately (the session hands the worker back after
        # its current chunk), but they stop the over-granted job from
        # being considered under target below.
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
        for job, move in zip(running, moves):
            # A job with no thread yet takes all of this by ``claim()``.
            if job.thread is not None and any(move):
                job.inbox.put(("ration", None, move))

    def _released(self, job: Job, handed: Dict[int, str]) -> None:
        """The job's session handed workers back, each with a status.

        ``"free"`` — idle, immediately grantable; ``"busy"`` — its last
        chunk is still running, the router reclaims it when the orphan
        report arrives; ``"dead"`` — gone (:meth:`_bury` tells any next
        owner).  Runs on the job's session thread.
        """
        with self._lock:
            for wid, status in handed.items():
                job.granted.discard(wid)
                job.pending_revoke.discard(wid)
                if self.owner.get(wid) == job.id:
                    del self.owner[wid]
                if status == "free":
                    self.free.add(wid)
                    self.free_since[wid] = time.monotonic()
                elif status == "dead":
                    self._bury(wid, None)
        if "free" in handed.values():
            self._schedule()

    # -- the router ----------------------------------------------------------

    def _route(self) -> None:
        """Forward pool reports to the owning session's inbox.

        A report from an unowned worker means the worker was released
        ``"busy"`` and has now finished that chunk: only ``done``/
        ``error`` free it (``attached`` notifications are progress, not
        completion, and are dropped); a death goes to :meth:`_bury`.
        The pool's own events stay here: a ``ration`` (a respawned or
        grown worker's handshake) frees the worker for the next
        rebalance, and a ``sweep`` respawns the due slots nobody owns
        (an owned one is its session's to release first).  Every wake
        ends in :meth:`_resize`, which bounds the next wait.
        """
        wait = _STOP_CHECK
        while not self._stop.is_set():
            try:
                kind, wid, payload = self.pool.recv(wait)
            except queue_module.Empty:
                kind = None
            except (EOFError, OSError):  # pool torn down under us
                break
            freed = False
            events: List[Dict[str, Any]] = []
            with self._lock:
                if kind == "ration":
                    for wid in payload[0]:
                        self.free.add(wid)
                        self.free_since[wid] = time.monotonic()
                    freed = True
                elif kind == "sweep":
                    if not self.draining:
                        events += self.pool.sweep(
                            eligible=lambda wid: wid not in self.owner
                        )
                elif kind == "dead":
                    events += self._bury(wid, payload)
                elif kind is not None:
                    job = self.jobs.get(self.owner.get(wid, ""))
                    if job is not None and job.session is not None:
                        job.inbox.put((kind, wid, payload))
                    elif kind in ("done", "error") and self.pool.alive[wid]:
                        self.free.add(wid)
                        self.free_since[wid] = time.monotonic()
                        freed = True
                wait = self._resize(events)
            if events:
                report_fleet_events(events, self.tracer, self._now())
            if freed:
                self._schedule()

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
        wait, now = _STOP_CHECK, time.monotonic()
        width = len(self.pool.live_workers())
        for wid in sorted(self.free, reverse=True):
            if width <= self.pool.min_workers:
                break
            since = self.free_since.setdefault(wid, now)
            if now - since < idle_timeout:
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
        if self.free or self.pool.pending_ready:
            return False
        running = [
            job
            for job in self.running.values()
            if job.session is not None and not job.done.is_set()
        ]
        if not running:
            return False
        width = len(self.pool.live_workers())
        if width >= self.pool.slots - len(self.pool.quarantined):
            return False
        profiles = [job.session.job_profile() for job in running]
        if not any(profile.mean > 0 for profile in profiles):
            return False
        remaining = sum(profile.tasks for profile in profiles)
        return len(self.queue) > 0 or remaining > 2 * width

    # -- job execution -------------------------------------------------------

    def _run_job(self, job: Job) -> None:
        try:
            raw = job.session.run()
        except Exception:
            error = traceback.format_exc()
            with self._lock:
                job.session = None
                self._reclaim_inbox(job)
                # The status field keeps the one-line summary; the full
                # traceback goes to disk — losing the stack behind
                # `splitlines()[-1]` made remote failures undebuggable.
                job.error = error.strip().splitlines()[-1]
                self._persist_error(job, error)
                job.advance(JobState.FAILED)
                self.running.pop(job.id, None)
                self._emit(JOB_FAILED, job, error=job.error)
        else:
            with self._lock:
                # The record outlives the job; its ops, payloads and
                # per-task books must not.
                job.session = None
                self._reclaim_inbox(job)
                job.result = {
                    "value_total": raw.value_total,
                    "makespan": raw.makespan,
                    "total_work": raw.total_work,
                    "tasks": raw.tasks,
                    "chunks": raw.chunks,
                    "cancelled": raw.cancelled,
                }
                self.running.pop(job.id, None)
                if raw.cancelled:
                    job.resume_dir = raw.resume_dir
                    job.advance(JobState.CANCELLED)
                    self._emit(
                        JOB_CANCELLED,
                        job,
                        reason=raw.cancel_reason,
                        resume_dir=job.resume_dir or "",
                    )
                else:
                    job.advance(JobState.DONE)
                    self._emit(
                        JOB_DONE,
                        job,
                        value_total=raw.value_total,
                        makespan=raw.makespan,
                    )
        self._schedule()

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

    def _reclaim_inbox(self, job: Job) -> None:
        """Recover what the ended session never took or never saw:
        every worker still on the job's books (a ration that raced its
        exit, or its first one if it failed before claiming), every
        busy-released worker whose report it had no time to read, and
        every death it never read — without this they would leak."""
        wids = set(job.granted)
        events: List[Dict[str, Any]] = []
        while True:
            try:
                kind, wid, payload = job.inbox.get_nowait()
            except queue_module.Empty:
                break
            if kind in ("done", "error"):
                wids.add(wid)
            elif kind == "dead":  # (the job has no session to tell now)
                events += self._bury(wid, payload)
        for wid in wids:
            job.granted.discard(wid)
            job.pending_revoke.discard(wid)
            if self.owner.get(wid) == job.id:
                del self.owner[wid]
            # (Unless it was granted again meanwhile.)
            if wid not in self.owner and self.pool.alive[wid]:
                self.free.add(wid)
                self.free_since[wid] = time.monotonic()
        report_fleet_events(events, self.tracer, self._now())

    def _bury(
        self, wid: int, exitcode: Optional[int]
    ) -> List[Dict[str, Any]]:
        """Lock held: a death goes to the job owning the worker, whose
        session reclaims it; any other is marked here (the pool's facts)."""
        job = self.jobs.get(self.owner.get(wid, ""))
        if job is not None and job.session is not None:
            job.inbox.put(("dead", wid, exitcode))
            return []
        self.free.discard(wid)
        self.free_since.pop(wid, None)
        return self.pool.mark_dead(wid) if self.pool.alive[wid] else []

    # -- queries / control ---------------------------------------------------

    def status(self, job_id: Optional[str] = None) -> Dict[str, Any]:
        with self._lock:
            if job_id is not None:
                job = self.jobs.get(job_id)
                if job is None:
                    return {"ok": False, "error": f"unknown job {job_id!r}"}
                return {"ok": True, "job": job.info()}
            return {
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
            }

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
            if job.session is not None:
                job.session.cancel_reason = reason
            return {"ok": True, "job": job.info()}

    def _cancel_queued(self, job: Job, reason: str) -> None:
        """Under the lock: cancel a job no session ever ran.  It leaves
        a header-only journal, so its ``resume_dir`` resumes — as a
        fresh run of the same target."""
        job.advance(JobState.CANCELLED)
        ops, _deps = self._work.pop(job.id)
        cfg = self._configs.pop(job.id)
        if job.checkpoint_dir:
            init_checkpoint_dir(
                job.checkpoint_dir, RunManifest.build(cfg, ops)
            )
            job.resume_dir = job.checkpoint_dir
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
                self._cancel_queued(job, reason)
            running = list(self.running.values())
            for job in running:
                if job.session is not None:
                    job.session.cancel_reason = reason
        # Join outside the lock: session threads need it to release
        # workers and report states.
        for job in running:
            if job.thread is not None:
                job.thread.join(timeout=DRAIN_GRACE + 10.0)
        self._stop.set()
        self._router.join(timeout=2.0)
        self._close_socket()
        # What the pool has to tell since the router's last sweep (the
        # last jobs' evictions); nothing is eligible to respawn now.
        last = self.pool.sweep(eligible=lambda wid: False)
        report_fleet_events(last, self.tracer, self._now())
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
        sock.bind(path)
        sock.listen(16)
        sock.settimeout(0.2)
        self._server_sock = sock
        self._listener = threading.Thread(
            target=self._listen, name="serve-listener", daemon=True
        )
        self._listener.start()

    def _close_socket(self) -> None:
        if self._server_sock is not None:
            try:
                self._server_sock.close()
            except OSError:
                pass
            self._server_sock = None
        if self._listener is not None:
            self._listener.join(timeout=2.0)
            self._listener = None
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def _listen(self) -> None:
        while not self._stop.is_set():
            sock = self._server_sock
            if sock is None:
                break
            try:
                conn, _ = sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(
                target=self._handle_conn, args=(conn,), daemon=True
            ).start()

    def _handle_conn(self, conn: socket.socket) -> None:
        try:
            try:
                request = recv_message(conn)
            except ProtocolError as error:
                reply = {
                    "ok": False,
                    "error": str(error),
                    "code": error.code,
                }
                if error.code == "line_too_long":
                    reply["max_line"] = MAX_LINE
                send_message(conn, reply)
                return
            if request is None:
                return
            response = self._handle_request(request)
            send_message(conn, response)
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pid": os.getpid()}
        if op == "submit":
            target = request.get("target")
            if not target:
                return {"ok": False, "error": "submit needs a target"}
            ok, result = self.submit(
                target,
                priority=int(request.get("priority", 0)),
                overrides=request.get("overrides") or {},
            )
            if not ok:
                return {"ok": False, "error": result}
            return {"ok": True, "job": result.info()}
        if op == "status":
            return self.status(request.get("job"))
        if op == "wait":
            job_id = request.get("job")
            if not job_id:
                return {"ok": False, "error": "wait needs a job id"}
            return self.wait(job_id, timeout=request.get("timeout"))
        if op == "cancel":
            job_id = request.get("job")
            if not job_id:
                return {"ok": False, "error": "cancel needs a job id"}
            return self.cancel(job_id)
        if op == "shutdown":
            threading.Thread(
                target=self.drain,
                kwargs={"reason": "client shutdown"},
                daemon=True,
            ).start()
            return {"ok": True, "draining": True}
        return {"ok": False, "error": f"unknown op {op!r}"}
