"""In-process JobServer tests: tenancy, admission, priority, drain.

These drive :class:`JobServer` directly (no socket) so failures point at
the scheduler, not the wire.  Every server is built on a tiny pool and
torn down via :meth:`drain` — the same path the daemon's SIGTERM takes.
"""

import collections
import json
import os

import pytest

import repro.api as api
from repro.apps.kernels import REAL_WORKLOADS
from repro.obs.events import SHM_EVICT, events_from_jsonl
from repro.runtime.backends.mp import _MpSession
from repro.runtime.config import PoolConfig
from repro.serve.jobs import JobState
from repro.serve.server import JobServer, _TenantFleet

POOL = 2
FIG1_TOTAL = None  # lazily computed sequential baseline

#: A multi-second graph job: examples/fig1.f scaled up so two of them
#: genuinely overlap on the shared pool.
SLOW_TARGET = os.path.join("examples", "fig1.f")
SLOW_OVERRIDES = {"tasks": 192, "elements": 3000}

#: The drain test needs jobs slow enough that the gap between "both
#: have a completed chunk" and "both finished" comfortably exceeds the
#: drain call — otherwise a fast box finishes the jobs before the
#: SIGTERM-equivalent lands and the interruption assertions race.
DRAIN_OVERRIDES = {"tasks": 384, "elements": 40000}


def fig1_baseline():
    global FIG1_TOTAL
    if FIG1_TOTAL is None:
        result = api.run(
            "fig1", api.RunConfig(backend="mp", processors=POOL)
        )
        FIG1_TOTAL = (result.value_total, result.tasks)
    return FIG1_TOTAL


@pytest.fixture
def server(tmp_path):
    instance = JobServer(
        processors=POOL,
        state_dir=str(tmp_path / "state"),
        queue_limit=4,
        max_running=2,
    )
    try:
        yield instance
    finally:
        instance.drain("test teardown")


def test_a_server_that_cannot_bind_stops_its_pool(tmp_path):
    """The pool starts before the socket binds; a failed bind stops it
    again, leaving no worker and no segment behind."""
    import multiprocessing

    from ..procs import repro_segments

    children = set(multiprocessing.active_children())
    segments = repro_segments()
    too_long = str(tmp_path / ("x" * 120 + ".sock"))  # AF_UNIX: 108 max
    with pytest.raises(OSError, match="too long"):
        JobServer(processors=2, socket_path=too_long)
    assert not set(multiprocessing.active_children()) - children
    assert repro_segments() <= segments


def test_two_concurrent_jobs_match_sequential_totals(server):
    """Multi-tenant isolation: two jobs sharing the pool produce exactly
    the totals two sequential runs would."""
    ok1, job1 = server.submit("fig1")
    ok2, job2 = server.submit("fig1")
    assert ok1 and ok2
    done1 = server.wait(job1.id, timeout=60)
    done2 = server.wait(job2.id, timeout=60)
    assert done1["job"]["state"] == "done"
    assert done2["job"]["state"] == "done"
    value, tasks = fig1_baseline()
    assert done1["job"]["result"]["value_total"] == value
    assert done2["job"]["result"]["value_total"] == value
    assert done1["job"]["result"]["tasks"] == tasks
    assert done2["job"]["result"]["tasks"] == tasks


def test_job_lifecycle_events_and_states(server):
    ok, job = server.submit("fig1")
    assert ok
    server.wait(job.id, timeout=60)
    assert job.state is JobState.DONE
    kinds = [event.kind for event in server.tracer.events
             if event.attrs.get("job") == job.id]
    assert kinds[:3] == ["job.submitted", "job.admitted", "job.started"]
    assert kinds[-1] == "job.done"
    # All workers came back to the free set.
    assert not job.granted
    assert len(server.free) == POOL
    # One decision, one record: the re-rations at hand-back and at exit
    # decide nothing new.
    assert [
        (event.attrs["labels"], event.attrs["shares"])
        for event in server.tracer.events
        if event.kind == "alloc.decide"
    ] == [([job.id], [POOL])]


# -- a ration is a set --------------------------------------------------------


@pytest.mark.parametrize("workload", ["fig1", "psirrfan"])
def test_uncontended_served_job_chunks_like_an_exclusive_run(
    server, monkeypatch, workload
):
    """served == exclusive: alone on the daemon a job takes the whole
    pool in its first ration, so with declared costs it sends the
    per-op chunk-size sequence ``api.run`` sends on a prepared pool of
    the same width (fig1: one chunk an op, not a taper from p = 1)."""
    cfg = api.RunConfig(
        backend="mp", processors=POOL, cost_source="declared"
    )

    def sizes_sent(pool, run):
        sent = []
        send = pool.send

        def recording(wid, message):
            if message[0] == "run":
                sent.append((message[1], len(message[2])))
            send(wid, message)

        monkeypatch.setattr(pool, "send", recording)
        run()
        first_key = min(key for key, _ in sent)
        per_op = collections.defaultdict(list)
        for key, size in sent:
            per_op[key - first_key].append(size)
        return dict(per_op)

    def served():
        ok, job = server.submit(
            REAL_WORKLOADS[workload](), overrides={"cost_source": "declared"}
        )
        assert ok
        assert server.wait(job.id, timeout=60)["job"]["state"] == "done"

    with api.prepared(cfg) as backend:
        exclusive = sizes_sent(
            backend.pool,
            lambda: api.run(REAL_WORKLOADS[workload](), cfg, executor=backend),
        )
    assert sizes_sent(server.pool, served) == exclusive


def test_jobs_admitted_together_start_with_their_share_each(
    server, monkeypatch
):
    """Both sessions are built, Eq. 1 splits the pool, then the threads
    start: each job's ``claim()`` is one worker, neither starts at
    width 0 waiting on its inbox, nor at width 2 owing one back."""
    schedule = server._schedule
    monkeypatch.setattr(server, "_schedule", lambda: None)
    jobs = [server.submit("fig1")[1] for _ in range(2)]
    monkeypatch.setattr(server, "_schedule", schedule)
    claimed = {}
    claim = _TenantFleet.claim

    def noting(fleet):
        claimed[fleet._job.id] = claim(fleet)
        return claimed[fleet._job.id]

    monkeypatch.setattr(_TenantFleet, "claim", noting)
    server._schedule()
    for job in jobs:
        assert server.wait(job.id, timeout=60)["job"]["state"] == "done"
    assert sorted(claimed.values()) == [[0], [1]]
    assert set(claimed) == {job.id for job in jobs}
    started = [
        event.attrs["workers"]
        for event in server.tracer.events
        if event.kind == "job.started"
    ]
    assert started == [1, 1]


def test_job_failing_before_it_claims_gives_its_first_ration_back(server):
    """The first ration sits on the server's books, not in the inbox: a
    session that dies before ``claim()`` (here: a kernel that cannot be
    shipped) must still leave every worker free."""
    from repro.runtime.kernel import Kernel
    from repro.runtime.task import RealOp

    ok, job = server.submit(
        [RealOp(name="bad", kernel=Kernel(fn=lambda p: 0.0), payloads=[1, 2])]
    )
    assert ok
    done = server.wait(job.id, timeout=60)["job"]
    assert done["state"] == "failed" and "not picklable" in done["error"]
    assert not job.granted
    assert server.free == set(range(POOL)) and not server.owner


def test_ration_racing_a_sessions_exit_is_reclaimed_whole(
    server, monkeypatch
):
    """The balancer may read a session as running just before it starts
    to leave and grant it workers it will never see.  Replayed here with
    the real balancer: once the session has handed everything back, it
    is shown as not leaving for one ``_schedule``, which grants it the
    whole free pool in one ``ration``; the job's exit must put every one
    of those workers back."""
    leave = _MpSession._leave_pool
    raced = []

    def leave_then_race(session):
        leave(session)
        job = session.pool._job
        session.detaching = False
        server._schedule()
        session.detaching = True
        raced.append((sorted(job.granted), job.inbox.qsize()))

    monkeypatch.setattr(_MpSession, "_leave_pool", leave_then_race)
    ok, job = server.submit("fig1")
    assert ok
    assert server.wait(job.id, timeout=60)["job"]["state"] == "done"
    assert raced == [(list(range(POOL)), 1)]  # the race did happen
    monkeypatch.setattr(_MpSession, "_leave_pool", leave)
    assert not job.granted and not job.pending_revoke
    assert server.free == set(range(POOL)) and not server.owner
    ok, after = server.submit("fig1")
    assert ok
    done = server.wait(after.id, timeout=60)["job"]
    assert done["state"] == "done"
    assert done["result"]["value_total"] == fig1_baseline()[0]


def test_a_revoke_racing_the_first_claim_frees_the_worker_at_once(
    server, monkeypatch
):
    """A job whose session has not claimed yet never had its workers: a
    re-ration that takes one back puts it in the free set at once, so
    the job admitted meanwhile starts with it, and no session is told
    about a worker it will also claim."""
    import threading

    gate = threading.Event()
    claim = _TenantFleet.claim
    claimed = {}

    def gated(fleet):
        assert gate.wait(timeout=30)
        claimed[fleet._job.id] = claim(fleet)
        return claimed[fleet._job.id]

    monkeypatch.setattr(_TenantFleet, "claim", gated)
    try:
        ok, first = server.submit("fig1")
        assert ok and sorted(first.granted) == [0, 1]
        ok, second = server.submit("fig1")
        assert ok
        assert len(first.granted) == len(second.granted) == 1
        assert not first.pending_revoke and first.inbox.qsize() == 0
    finally:
        gate.set()
    for job in (first, second):
        assert server.wait(job.id, timeout=60)["job"]["state"] == "done"
    assert sorted(claimed[first.id] + claimed[second.id]) == [0, 1]


def test_an_app_workload_runs_as_one_job(server):
    # A Section 5 app is one graph of its phases, a job like any other;
    # its spin tasks return 1.0 each.
    ok, job = server.submit("emu", overrides={"steps": 1, "time_scale": 1e-6})
    assert ok
    done = server.wait(job.id, timeout=60)["job"]
    assert done["state"] == "done" and done["target"] == "emu"
    assert done["result"]["tasks"] == done["result"]["value_total"] == 10286


def test_bad_target_rejected_at_submit(server):
    ok, reason = server.submit("no-such-workload")
    assert not ok
    assert "unknown run target" in reason
    # A stream resolves like any target; not sharing the pool with one
    # is the daemon's policy.
    ok, reason = server.submit("stream")
    assert not ok
    assert "cannot share the serve pool" in reason
    ok, reason = server.submit("fig1", overrides={"colour": "red"})
    assert not ok
    assert "colour" in reason
    # Pool-shape overrides are refused, not silently ignored.
    ok, reason = server.submit("fig1", overrides={"processors": 8})
    assert not ok
    assert "conflicts with the shared pool" in reason


def test_queue_full_rejection(tmp_path):
    server = JobServer(
        processors=POOL,
        state_dir=str(tmp_path / "state"),
        queue_limit=1,
        max_running=1,
    )
    try:
        ok, running = server.submit(SLOW_TARGET, overrides=SLOW_OVERRIDES)
        assert ok
        ok, queued = server.submit("fig1")
        assert ok
        ok, reason = server.submit("fig1")
        assert not ok
        assert reason == "queue full (limit 1)"
        server.wait(running.id, timeout=60)
        server.wait(queued.id, timeout=60)
        assert queued.state is JobState.DONE
        # The rejected submit consumed no id, so the next admitted one
        # takes it: the rejection is on record, but under no job.
        ok, after = server.submit("fig1")
        assert ok and after.id == "job-0003"
        server.wait(after.id, timeout=60)
        submitted = [
            event.attrs
            for event in server.tracer.events
            if event.kind == "job.submitted"
        ]
        assert [attrs["job"] for attrs in submitted] == [
            "job-0001", "job-0002", "", "job-0003",
        ]
        assert [attrs.get("rejected") for attrs in submitted] == [
            None, None, "queue full (limit 1)", None,
        ]
    finally:
        server.drain("test teardown")


def test_priority_orders_the_queue(tmp_path):
    """With one running slot, a later high-priority job overtakes an
    earlier low-priority one."""
    server = JobServer(
        processors=POOL,
        state_dir=str(tmp_path / "state"),
        queue_limit=4,
        max_running=1,
    )
    try:
        ok, blocker = server.submit(SLOW_TARGET, overrides=SLOW_OVERRIDES)
        assert ok
        ok, low = server.submit("fig1", priority=0)
        assert ok
        ok, high = server.submit("fig1", priority=5)
        assert ok
        for job in (blocker, low, high):
            server.wait(job.id, timeout=90)
        assert high.started_at < low.started_at
        assert low.state is JobState.DONE
        assert high.state is JobState.DONE
    finally:
        server.drain("test teardown")


def test_cross_job_rationing_emits_alloc_decisions(server):
    """While two jobs overlap, the balancer splits the pool between
    them and records the decision."""
    ok1, job1 = server.submit(SLOW_TARGET, overrides=SLOW_OVERRIDES)
    ok2, job2 = server.submit(SLOW_TARGET, overrides=SLOW_OVERRIDES)
    assert ok1 and ok2
    server.wait(job1.id, timeout=90)
    server.wait(job2.id, timeout=90)
    assert job1.state is JobState.DONE
    assert job2.state is JobState.DONE
    decisions = [
        event
        for event in server.tracer.events
        if event.kind == "alloc.decide" and len(event.attrs["labels"]) == 2
    ]
    assert decisions, "no two-job allocation decision was recorded"
    for event in decisions:
        assert sum(event.attrs["shares"]) == POOL
        assert all(share >= 0 for share in event.attrs["shares"])


def assert_resumes_as_a_fresh_fig1(job):
    """No session ever ran ``job``, yet the resume_dir it reports
    resumes: a header-only journal, replayed to the full totals."""
    assert job.state is JobState.CANCELLED
    assert os.listdir(job.resume_dir) == ["journal.jsonl"]
    resumed = api.resume(job.resume_dir)
    assert resumed.tasks_resumed == 0
    assert (resumed.value_total, resumed.tasks) == fig1_baseline()


def test_cancel_queued_job(tmp_path):
    server = JobServer(
        processors=POOL,
        state_dir=str(tmp_path / "state"),
        queue_limit=4,
        max_running=1,
    )
    try:
        ok, blocker = server.submit(SLOW_TARGET, overrides=SLOW_OVERRIDES)
        assert ok
        ok, queued = server.submit("fig1")
        assert ok
        response = server.cancel(queued.id)
        assert response["ok"]
        assert queued.state is JobState.CANCELLED
        server.wait(blocker.id, timeout=90)
        assert blocker.state is JobState.DONE
    finally:
        server.drain("test teardown")
    assert_resumes_as_a_fresh_fig1(queued)


def test_drained_queued_job_resumes(tmp_path):
    server = JobServer(
        processors=POOL,
        state_dir=str(tmp_path / "state"),
        queue_limit=4,
        max_running=1,
    )
    try:
        ok, _blocker = server.submit(SLOW_TARGET, overrides=DRAIN_OVERRIDES)
        assert ok
        ok, queued = server.submit("fig1")
        assert ok
    finally:
        server.drain("test teardown")
    assert_resumes_as_a_fresh_fig1(queued)


def test_drain_mid_flight_cancels_and_resumes_cleanly(tmp_path):
    """The tentpole drain guarantee: SIGTERM with two jobs in flight
    journals both, reports both resume_dirs, and resuming each run
    reproduces the uninterrupted totals exactly."""
    import time

    baseline = api.run(
        SLOW_TARGET,
        api.RunConfig(backend="mp", processors=POOL),
        **DRAIN_OVERRIDES,
    )
    server = JobServer(
        processors=POOL,
        state_dir=str(tmp_path / "state"),
        queue_limit=4,
        max_running=2,
    )
    ok1, job1 = server.submit(SLOW_TARGET, overrides=DRAIN_OVERRIDES)
    ok2, job2 = server.submit(SLOW_TARGET, overrides=DRAIN_OVERRIDES)
    assert ok1 and ok2
    # Let both sessions genuinely start executing chunks.
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if all(
            job.state is JobState.RUNNING
            and job.session is not None
            and any(s.completed for s in job.session.ops)
            for job in (job1, job2)
        ):
            break
        time.sleep(0.02)
    status = server.drain("signal:SIGTERM")
    assert status["draining"]
    for job in (job1, job2):
        assert job.state is JobState.CANCELLED
        assert job.resume_dir, f"{job.id} reported no resume_dir"
        assert os.path.isdir(job.resume_dir)
        assert os.path.exists(os.path.join(job.resume_dir, "journal.jsonl"))
        partial = job.result["value_total"]
        assert partial < baseline.value_total  # genuinely interrupted
        resumed = api.resume(job.resume_dir)
        assert not resumed.cancelled
        assert resumed.value_total == baseline.value_total
        assert resumed.tasks == baseline.tasks
        assert resumed.tasks_resumed > 0  # the journal carried progress
    # The shutdown dump landed in the state dir.
    assert os.path.exists(str(tmp_path / "state" / "jobs.json"))
    assert os.path.exists(str(tmp_path / "state" / "events.jsonl"))


def test_cache_evictions_land_on_the_daemons_trace(tmp_path):
    """Evictions are the pool's to tell, and on a daemon the router's
    sweep is who listens: two jobs with distinct 128 KiB payloads
    through a one-byte cache leave ``shm.evict`` in ``events.jsonl``."""
    pytest.importorskip("numpy")
    from repro.apps.kernels import array_ops

    server = JobServer(
        processors=POOL,
        state_dir=str(tmp_path / "state"),
        pool_config=PoolConfig(shm_cache_bytes=1),
    )
    try:
        for seed in (1, 2):
            ok, job = server.submit(
                array_ops(tasks=16, row_elements=1024, seed=seed)
            )
            assert ok
            assert server.wait(job.id, timeout=60)["job"]["state"] == "done"
        assert server.pool.segment_cache.stats()["evictions"] == 2
    finally:
        server.drain("test teardown")
    with open(str(tmp_path / "state" / "events.jsonl")) as handle:
        events = events_from_jsonl(handle.read())
    evicted = [event.attrs for event in events if event.kind == SHM_EVICT]
    assert [attrs["bytes"] for attrs in evicted] == [16 * 1024 * 8] * 2
    assert all(
        set(attrs)
        == {"probe_key", "bytes", "cache_bytes", "segment", "reclaimed"}
        for attrs in evicted
    )
    # Each job's segment went at its own unpin, so none was left to reclaim.
    assert not any(attrs["reclaimed"] for attrs in evicted)


def test_submit_rejected_while_draining(server):
    server.drain("test drain")
    ok, reason = server.submit("fig1")
    assert not ok
    assert reason == "draining"


def test_failed_job_persists_full_traceback(server, tmp_path):
    """The status field keeps a one-line summary, but the *full* stack
    lands in STATE_DIR/jobs/<id>/error.txt and status points at it —
    truncating to ``splitlines()[-1]`` used to lose the stack entirely."""
    ok, job = server.submit(
        "fig1",
        overrides={"on_fault": "fail", "inject_fault": ["kill:0:0"]},
    )
    assert ok
    done = server.wait(job.id, timeout=60)
    info = done["job"]
    assert info["state"] == "failed"
    assert "\n" not in info["error"]  # the one-liner stays a one-liner
    path = info["error_file"]
    assert path and os.path.exists(path)
    assert os.path.join("jobs", job.id) in path
    with open(path) as handle:
        text = handle.read()
    assert "Traceback (most recent call last)" in text
    assert info["error"] in text  # summary is the traceback's last line


# -- admission: compile once, resolve off the lock, keep nothing ------------

POST_SOURCE = """\
program post
  integer i, j, n
  real q(n, n), output(n, n)
  do i = 1, n
    do j = 1, n
      output(j, i) = f(q(j, i))
    end do
  end do
end program
"""


def test_finished_jobs_release_their_sessions(server):
    """The job record outlives the job; the session (ops, payload
    lists, per-task books) does not, whichever way the job ended."""
    submissions = [
        ("fig1", {}),
        (SLOW_TARGET, {"tasks": 16, "elements": 50}),
        ("fig1", {"on_fault": "fail", "inject_fault": ["kill:0:0"]}),
        ("fig1", {}),
    ]
    finished = []
    for target, overrides in submissions:
        ok, job = server.submit(target, overrides=overrides)
        assert ok
        finished.append((job, server.wait(job.id, timeout=60)["job"]))
    assert [record["state"] for _, record in finished] == [
        "done", "done", "failed", "done"
    ]
    for job, record in finished:
        assert job.state.terminal
        assert job.session is None
        assert server.status(job.id)["job"] == record
    assert not server.running and not server._work and not server._configs


def test_submit_resolves_outside_the_server_lock(server, monkeypatch):
    """A submit that is still resolving its target holds no server lock:
    status answers and another submit is admitted meanwhile, and job ids
    stay dense in admission order."""
    import threading

    resolving = threading.Event()
    release = threading.Event()
    real_resolve = api.resolve_ops

    def gated(target, cfg, overrides=None):
        if target == SLOW_TARGET:
            resolving.set()
            assert release.wait(timeout=30)
        return real_resolve(target, cfg, overrides)

    monkeypatch.setattr(api, "resolve_ops", gated)
    answers = {}

    def run(name, call):
        def body():
            answers[name] = call()

        thread = threading.Thread(target=body, name=name)
        thread.start()
        return thread

    slow = run(
        "slow",
        lambda: server.submit(
            SLOW_TARGET, overrides={"tasks": 16, "elements": 50}
        ),
    )
    try:
        assert resolving.wait(timeout=10)
        for name, call in (
            ("status", server.status),
            ("bad", lambda: server.submit("no-such-workload")),
            ("quick", lambda: server.submit("fig1")),
        ):
            thread = run(name, call)
            thread.join(timeout=10)
            assert not thread.is_alive(), f"{name} waited for the resolve"
        assert slow.is_alive()
    finally:
        release.set()
        slow.join(timeout=30)
    assert not slow.is_alive()
    assert answers["status"]["ok"]
    assert answers["bad"][0] is False  # and consumed no id
    ok, quick = answers["quick"]
    assert ok and quick.id == "job-0001"
    ok, slow_job = answers["slow"]
    assert ok and slow_job.id == "job-0002"
    # The slow job's clock started when its request arrived.
    assert slow_job.submitted_at < quick.submitted_at
    for job in (quick, slow_job):
        assert server.wait(job.id, timeout=60)["job"]["state"] == "done"
        kinds = [
            event.kind
            for event in server.tracer.events
            if event.attrs.get("job") == job.id
        ]
        assert kinds[:2] == ["job.submitted", "job.admitted"]


def test_jobs_run_untraced_and_the_daemon_trace_stands(tmp_path):
    server = JobServer(
        processors=POOL,
        state_dir=str(tmp_path / "state"),
        queue_limit=4,
        max_running=1,
    )
    try:
        ok, blocker = server.submit(SLOW_TARGET, overrides=SLOW_OVERRIDES)
        assert ok
        ok, queued = server.submit("fig1")
        assert ok
        assert server._configs[queued.id].tracer is None
        for job in (blocker, queued):
            assert server.wait(job.id, timeout=90)["job"]["state"] == "done"
        kinds = {event.kind for event in server.tracer.events}
        assert {
            "job.submitted", "job.admitted", "job.started", "job.done",
            "alloc.decide",
        } <= kinds
    finally:
        server.drain("test teardown")


def test_resubmitted_source_file_follows_its_edit(server, tmp_path):
    """The compiled program is kept per source *text*: the file is read
    at every submit, so an edit between two submits is a new program."""
    path = tmp_path / "job.f"
    shape = {"tasks": 8, "elements": 20}

    def submit_and_check(source):
        path.write_text(source)
        ok, job = server.submit(str(path), overrides=shape)
        assert ok
        result = server.wait(job.id, timeout=60)["job"]["result"]
        ops, _, _ = api.resolve_ops(
            api.compile(source), server.base_config, shape
        )
        assert result["tasks"] == sum(op.size for op in ops)
        assert result["value_total"] == sum(
            op.run_serial()[1] for op in ops
        )
        return result["tasks"]

    with open(SLOW_TARGET) as handle:
        fig1_tasks = submit_and_check(handle.read())
    assert submit_and_check(POST_SOURCE) != fig1_tasks


def test_journal_that_cannot_sync_fails_the_job_not_the_daemon(
    server, monkeypatch
):
    """A journal whose final fsync fails never reached the disk, so the
    job must not report ``done``: it fails naming the failed fsync, with
    its traceback on disk, and the daemon serves the next job."""
    import errno

    from repro.runtime import checkpoint

    def broken(fd):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(checkpoint.os, "fsync", broken)
    # No append is worth a sync, so the one that fails is close()'s.
    monkeypatch.setattr(checkpoint, "SYNC_WORTH_S", float("inf"))
    ok, job = server.submit("fig1")
    assert ok
    info = server.wait(job.id, timeout=60)["job"]
    assert info["state"] == "failed" and "result" not in info
    assert info["error"] == (
        "repro.runtime.checkpoint.JournalFailedError: [Errno 5] journal "
        "fsync failed: Input/output error; 0 records durable, nothing "
        "after them is trusted"
    )
    with open(info["error_file"]) as handle:
        assert "fsync" in handle.read()
    monkeypatch.undo()
    ok, after = server.submit("fig1")
    assert ok
    done = server.wait(after.id, timeout=60)["job"]
    assert done["state"] == "done"
    assert done["result"]["value_total"] == fig1_baseline()[0]


def test_a_disk_fault_fails_the_job_and_the_daemon_serves_on(server):
    """The ``diskfail`` fault term through a submit: the job fails on
    its first failed journal write, named, and the next job is served."""
    ok, job = server.submit(
        "fig1", overrides={"inject_fault": ["diskfail:write:1:ENOSPC"]}
    )
    assert ok
    info = server.wait(job.id, timeout=60)["job"]
    assert info["state"] == "failed" and "result" not in info
    assert "JournalFailedError: [Errno 28] journal write failed" in (
        info["error"]
    )
    ok, after = server.submit("fig1")
    assert ok
    assert server.wait(after.id, timeout=60)["job"]["state"] == "done"


def test_a_coordinator_kill_fails_the_job_and_the_daemon_serves_on(server):
    """A ``coordkill`` fails its job, named; the daemon serves on."""
    ok, job = server.submit(
        "fig1", overrides={"inject_fault": "coordkill:*:1"}
    )
    assert ok
    info = server.wait(job.id, timeout=60)["job"]
    assert info["state"] == "failed" and "result" not in info
    assert info["error"].startswith("repro.runtime.faults.CoordinatorKilled")
    ok, after = server.submit("fig1")
    assert ok
    done = server.wait(after.id, timeout=60)["job"]
    assert done["state"] == "done"
    assert done["result"]["value_total"] == fig1_baseline()[0]


# -- the thread model: a fixed set, nothing per request or per job ----------


def _socket_server(tmp_path, **kwargs):
    return JobServer(
        processors=POOL,
        socket_path=str(tmp_path / "s"),
        state_dir=str(tmp_path / "state"),
        **kwargs,
    )


def _send(server, message):
    """A connection with ``message`` sent on it, its reply unread."""
    import socket

    from repro.serve.protocol import send_message

    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(60)
    sock.connect(server.socket_path)
    send_message(sock, message)
    return sock


def _reply(sock):
    from repro.serve.protocol import recv_message

    try:
        return recv_message(sock)
    finally:
        sock.close()


def test_no_thread_per_request_or_per_job(tmp_path):
    import threading

    from repro.serve.client import ServeClient

    server = _socket_server(tmp_path, max_running=2)
    try:
        client = ServeClient(server.socket_path)

        def cycle(over_the_socket):
            if over_the_socket:
                job = client.submit("fig1")
                info = client.wait(job["id"], timeout=60)
            else:
                job = server.submit("fig1")[1]
                info = server.wait(job.id, timeout=60)["job"]
            assert info["state"] == "done"

        cycle(True)
        after_one = threading.active_count()
        for index in range(50):
            cycle(index % 5 != 0)
        assert threading.active_count() == after_one
        status = client.status()
        assert status["jobs_finished"] == 51
        assert sorted(status["threads"]) == [
            "admission", "frontend", "router", "runner-0", "runner-1",
        ]
        assert all(cpu > 0 for cpu in status["threads"].values())
        assert sorted(
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("serve-")
        ) == [
            "serve-admission", "serve-frontend", "serve-router",
            "serve-runner-0", "serve-runner-1",
        ]
    finally:
        server.drain("test teardown")
    with open(str(tmp_path / "state" / "jobs.json")) as handle:
        assert len(json.load(handle)["threads"]) == 5


def test_many_parked_waits_are_all_answered(tmp_path):
    """64 waits parked at once on a one-runner daemon hold no thread,
    and each is answered when its job ends, also with the threads
    switched every few microseconds."""
    import sys

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    server = _socket_server(tmp_path, max_running=1, queue_limit=8)
    try:
        ids = [server.submit("fig1")[1].id for _ in range(4)]
        parked = [
            _send(server, {"op": "wait", "job": ids[k % 4], "timeout": 60})
            for k in range(64)
        ]
        replies = [_reply(sock) for sock in parked]
        assert [reply["job"]["id"] for reply in replies] == [
            ids[k % 4] for k in range(64)
        ]
        assert {reply["job"]["state"] for reply in replies} == {"done"}
    finally:
        sys.setswitchinterval(interval)
        server.drain("test teardown")


def test_parked_wait_times_out_on_a_queued_job_while_status_answers(tmp_path):
    """A parked wait's deadline is the loop's to keep; ``status`` and
    ``cancel`` answer meanwhile, and the cancel ends the other wait."""
    server = _socket_server(tmp_path, max_running=1)
    try:
        ok, blocker = server.submit(SLOW_TARGET, overrides=DRAIN_OVERRIDES)
        assert ok
        ok, queued = server.submit("fig1")
        assert ok
        waiting = _send(server, {"op": "wait", "job": blocker.id})
        timing_out = _send(
            server, {"op": "wait", "job": queued.id, "timeout": 0.05}
        )
        status = _reply(_send(server, {"op": "status"}))
        assert status["ok"] and status["queued"] == 1
        assert _reply(timing_out) == {
            "ok": False, "error": f"timeout waiting for {queued.id}",
        }
        assert queued.state is JobState.ADMITTED
        assert _reply(_send(server, {"op": "cancel", "job": blocker.id}))["ok"]
        assert _reply(waiting)["job"]["state"] == "cancelled"
        assert server.wait(queued.id, timeout=60)["job"]["state"] == "done"
    finally:
        server.drain("test teardown")


def test_shutdown_answers_parked_waits_with_their_resume_dirs(tmp_path):
    server = _socket_server(tmp_path, max_running=1)
    try:
        ok, running = server.submit(SLOW_TARGET, overrides=DRAIN_OVERRIDES)
        assert ok
        ok, queued = server.submit("fig1")
        assert ok
        parked = [
            _send(server, {"op": "wait", "job": job.id})
            for job in (running, queued)
        ]
        assert _reply(_send(server, {"op": "shutdown"})) == {
            "ok": True, "draining": True,
        }
        for sock, job in zip(parked, (running, queued)):
            info = _reply(sock)["job"]
            assert info["id"] == job.id
            assert info["state"] == "cancelled"
            assert info["resume_dir"] == job.checkpoint_dir
    finally:
        server.drain("test teardown")
    assert_resumes_as_a_fresh_fig1(queued)


def test_status_answers_while_a_submit_compiles_a_new_source(
    tmp_path, monkeypatch
):
    """The front end never waits behind admission: ``ping`` and
    ``status`` answer while a cold compile of a new source runs in a
    ``submit``, whose reply follows once the compile is done."""
    import threading

    compiling = threading.Event()
    release = threading.Event()
    real_compile = api.compile

    def gated(source, *args, **kwargs):
        compiling.set()
        assert release.wait(timeout=30)
        return real_compile(source, *args, **kwargs)

    monkeypatch.setattr(api, "compile", gated)
    path = tmp_path / "cold.f"
    path.write_text(POST_SOURCE.replace("program post", "program cold"))
    server = _socket_server(tmp_path)
    try:
        submitting = _send(
            server,
            {"op": "submit", "target": str(path),
             "overrides": {"tasks": 8, "elements": 20}},
        )
        assert compiling.wait(timeout=10)
        assert _reply(_send(server, {"op": "ping"}))["ok"]
        status = _reply(_send(server, {"op": "status"}))
        assert status["ok"] and status["jobs"] == []
        release.set()
        job = _reply(submitting)["job"]
        assert server.wait(job["id"], timeout=60)["job"]["state"] == "done"
    finally:
        release.set()
        server.drain("test teardown")


def test_a_parked_wait_timeout_out_of_range_never_stops_the_front_end(tmp_path):
    """A timeout too long for one ``select`` stays parked; one that is
    not a finite number is a bad request; a negative one is due at once.
    Whatever a wait asks for, ``ping`` answers afterwards."""
    import socket

    server = _socket_server(tmp_path, max_running=1)
    try:
        ok, blocker = server.submit(SLOW_TARGET, overrides=DRAIN_OVERRIDES)
        assert ok
        far = _send(server, {"op": "wait", "job": blocker.id, "timeout": 1e7})
        for text in ("NaN", "Infinity", "-Infinity", "1e999"):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(60)
            sock.connect(server.socket_path)
            sock.sendall(
                b'{"op": "wait", "job": "%s", "timeout": %s}\n'
                % (blocker.id.encode(), text.encode())
            )
            reply = _reply(sock)
            assert not reply["ok"] and reply["error"].startswith(
                "bad request: wait timeout"
            ), (text, reply)
        assert _reply(
            _send(server, {"op": "wait", "job": blocker.id, "timeout": -1})
        ) == {"ok": False, "error": f"timeout waiting for {blocker.id}"}
        assert _reply(_send(server, {"op": "ping"}))["ok"]
        assert _reply(_send(server, {"op": "cancel", "job": blocker.id}))["ok"]
        assert _reply(far)["job"]["state"] == "cancelled"
        assert _reply(_send(server, {"op": "ping"}))["ok"]
    finally:
        server.drain("test teardown")


def test_a_queued_journal_that_cannot_sync_still_cancels_and_drains(
    tmp_path, monkeypatch
):
    """Cancelling a queued job writes its header-only journal.  If that
    cannot reach the disk, the job is cancelled with the error and no
    ``resume_dir``, and the cancel (answered on the front end) and the
    drain (which cancels the rest of the queue) both still finish."""
    import errno

    from repro.obs.events import JOB_CANCELLED
    from repro.runtime import checkpoint

    server = _socket_server(tmp_path, max_running=1)
    try:
        ok, blocker = server.submit(SLOW_TARGET, overrides=DRAIN_OVERRIDES)
        assert ok
        queued = [server.submit("fig1")[1] for _ in range(2)]

        def broken(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(checkpoint.os, "fsync", broken)
        parked = _send(server, {"op": "wait", "job": queued[1].id})
        info = _reply(_send(server, {"op": "cancel", "job": queued[0].id}))
        assert info["ok"], info
        assert info["job"]["state"] == "cancelled"
        assert info["job"]["error"] == (
            "JournalFailedError: [Errno 5] journal fsync failed: "
            "Input/output error; 0 records durable, nothing after them "
            "is trusted"
        )
        assert "resume_dir" not in info["job"]
        status = server.drain("test drain")
    finally:
        server.drain("test teardown")
    monkeypatch.undo()
    assert _reply(parked)["job"]["state"] == "cancelled"
    assert not any(thread.is_alive() for thread in server._threads)
    by_id = {job["id"]: job for job in status["jobs"]}
    for job in queued:
        assert by_id[job.id]["state"] == "cancelled"
        assert by_id[job.id]["error"].startswith("JournalFailedError")
        assert "resume_dir" not in by_id[job.id]
    assert by_id[blocker.id]["state"] in ("cancelled", "failed")
    cancelled = {
        event.attrs["job"]
        for event in server.tracer.events
        if event.kind == JOB_CANCELLED
    }
    assert {job.id for job in queued} <= cancelled
    with open(str(tmp_path / "state" / "jobs.json")) as handle:
        assert json.load(handle)["jobs_finished"] == 3
