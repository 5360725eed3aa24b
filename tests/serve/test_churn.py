"""The serve daemon in simulated time: exact instants and shares.

Each scenario runs a :class:`JobServer` on a :class:`SimFleet` and no
thread: it submits, then steps the router (:func:`turn_until`) until
what it checks holds, so every check lands at an exact simulated
instant, and a scenario run twice leaves the same trace.  Compute-bound
load grows the pool and idleness shrinks it back; two jobs split the
pool by Eq. 1, and a revoked worker moves at its chunk's simulated
finish; a drain harvests a job's chunks in flight at their simulated
finish; a death handed back twice is marked once.  Drawn schedules of
kills, crash loops, drains and failing jobs are ``test_dst.py``'s.  One
test keeps the kill on worker processes.
"""

import functools
import os

import pytest

from repro.runtime.backends.mp import _MpSession
from repro.runtime.config import PoolConfig
from repro.serve import server as serve_server
from repro.serve.jobs import JobState

from .servers import process_server, sim_server, turn_until

POOL = 2

#: A graph job of a few dozen chunks: long in work units, cheap to run.
SLOW_TARGET = "examples/fig1.f"
SLOW_OVERRIDES = {"tasks": 192, "elements": 300}

#: A pool of one that may grow to two, and shrinks after 0.3 idle units.
ELASTIC = {"max_workers": 2, "idle_timeout": 0.3}


@functools.lru_cache(maxsize=None)
def baseline():
    """``(value_total, tasks)`` of an undisturbed served run."""
    server = sim_server(POOL)
    job = submitted(server)
    turn_until(server, lambda: job.state.terminal)
    server.drain("baseline")
    return totals(job)


def submitted(server, target=SLOW_TARGET, overrides=SLOW_OVERRIDES):
    ok, job = server.submit(target, overrides=overrides)
    assert ok, job
    return job


def totals(job):
    assert job.state is JobState.DONE, job.error
    return job.result["value_total"], job.result["tasks"]


def kinds(server, kind):
    return [event for event in server.tracer.events if event.kind == kind]


def replayed(scenario):
    """Run ``scenario`` twice; it returns its server, and the daemon's
    trace must come out the same both times."""

    @functools.wraps(scenario)
    def twice(**fixtures):
        first, again = scenario(**fixtures), scenario(**fixtures)
        for server in (first, again):
            server.drain("test teardown")
        assert first.tracer.events == again.tracer.events

    return twice


@replayed
def test_a_death_handed_back_twice_is_counted_once(monkeypatch):
    release = serve_server._TenantFleet.release

    def twice(tenant, handed):
        release(tenant, handed)
        release(tenant, handed)

    monkeypatch.setattr(serve_server._TenantFleet, "release", twice)
    server = sim_server(POOL, pool_config=PoolConfig(max_respawns=1))
    job = submitted(
        server, overrides=dict(SLOW_OVERRIDES, inject_fault=["kill:0:0"])
    )
    turn_until(server, lambda: job.state.terminal)
    assert totals(job) == baseline()
    assert len(server.pool._deaths[0]) == 1 and not server.pool.quarantined
    return server


def test_draining_mid_job_cancels_it_in_simulated_time(tmp_path):
    server = sim_server(POOL, state_dir=str(tmp_path))
    job = submitted(server)
    turn_until(server, lambda: job.session.ops[0].completed)
    # The drain harvests the chunks in flight, at their simulated finish.
    harvested = max(at for at, *_ in server.pool._events)
    server.drain("test drain")
    assert server.pool.now() == harvested
    assert job.state is JobState.CANCELLED
    assert os.path.exists(os.path.join(job.resume_dir, "journal.jsonl"))
    assert job.result["value_total"] < baseline()[0]


@replayed
def test_compute_bound_load_grows_then_idle_shrinks():
    server = sim_server(1, max_running=2, pool_config=PoolConfig(**ELASTIC))
    jobs = [submitted(server), submitted(server)]
    # Two jobs on one worker are compute-bound: the pool grows at once.
    turn_until(server, lambda: server.pool.grows)
    assert server.pool.now() == 0.0
    turn_until(server, lambda: len(server.pool.live_workers()) == 2)
    turn_until(server, lambda: all(job.state.terminal for job in jobs))
    assert [totals(job) for job in jobs] == [baseline()] * 2
    ended = server.pool.now()
    # Both workers idle past idle_timeout: shrink to min_workers=1.
    turn_until(server, lambda: server.pool.shrinks)
    assert server.pool.now() == pytest.approx(ended + 0.3)
    pool_status = server.status()["pool"]
    assert (pool_status["live"], pool_status["grows"]) == (1, 1)
    return server


def test_cross_job_rationing_emits_alloc_decisions(monkeypatch):
    """On four workers a long job, then a short one: Eq. 1 gives them
    3 + 1, and once the long job's revoked worker came back each holds
    its share."""
    curves = []
    ration = serve_server.ration

    def noting(width, estimates, **kwargs):
        curves.append([[f(n) for n in range(1, width + 1)] for f in estimates])
        return ration(width, estimates, **kwargs)

    monkeypatch.setattr(serve_server, "ration", noting)
    server = sim_server(4)
    long_job = submitted(server)
    short_job = submitted(server, "fig1", overrides={})
    turn_until(server, lambda: len(short_job.granted) == 1)
    assert len(long_job.granted) == 3
    turn_until(server, lambda: long_job.state.terminal)
    assert totals(long_job) == baseline() and totals(short_job)
    decisions = [
        (len(event.attrs["labels"]), event.attrs["shares"])
        for event in kinds(server, "alloc.decide")
    ]
    assert decisions == [(1, [4]), (2, [3, 1]), (1, [4])]
    server.drain("test teardown")
    # Eq. 1 equalises predicted finishing times: no other split of the
    # four workers finishes both jobs sooner than 3 + 1.
    finish_long, finish_short = curves[1]
    best = max(finish_long[2], finish_short[0])
    assert all(
        best <= max(finish_long[n - 1], finish_short[3 - n])
        for n in range(1, 4)
    )


@replayed
def test_a_revoked_worker_moves_at_its_chunks_simulated_finish():
    server = sim_server(POOL)
    running = submitted(server)
    assert running.granted == {0, 1}
    arriving = submitted(server, "fig1", overrides={})
    # Eq. 1 gives the newcomer one worker, but both are busy: the revoke
    # waits for the chunk on the revoked worker to finish.
    (wid,) = running.pending_revoke
    assert server.owner[wid] == running.id and not arriving.granted
    finish = min(at for at, owner, *_ in server.pool._events if owner == wid)
    assert server.pool.now() < finish
    turn_until(server, lambda: wid in arriving.granted)
    assert server.pool.now() == finish
    assert running.granted == {1 - wid} and not running.pending_revoke
    turn_until(server, lambda: running.state.terminal)
    assert totals(running) == baseline()
    return server


def test_jobs_admitted_together_start_with_their_share_each(monkeypatch):
    """Both sessions start, Eq. 1 splits the pool, then each session's
    first ration is its share: one worker each, neither runs at width 0
    waiting for the other, nor at width 2 owing one back."""
    server = sim_server(POOL)
    schedule = server._schedule
    monkeypatch.setattr(server, "_schedule", lambda: None)
    jobs = [server.submit("fig1")[1] for _ in range(2)]
    monkeypatch.setattr(server, "_schedule", schedule)
    first = {}
    ration = _MpSession._ration

    def noting(session, granted, revoked):
        first.setdefault(session.pool._job.id, (list(granted), list(revoked)))
        return ration(session, granted, revoked)

    monkeypatch.setattr(_MpSession, "_ration", noting)
    server._schedule()
    turn_until(server, lambda: all(job.state.terminal for job in jobs))
    assert all(job.state is JobState.DONE for job in jobs)
    assert sorted(first.values()) == [([0], []), ([1], [])]
    assert set(first) == {job.id for job in jobs}
    started = [event.attrs["workers"] for event in kinds(server, "job.started")]
    assert started == [1, 1]
    server.drain("test teardown")


def test_rejected_inject_fault_spec_fails_at_admission():
    server = sim_server(POOL)
    ok, reason = server.submit("fig1", overrides={"inject_fault": ["meteor:0"]})
    server.drain("test teardown")
    assert not ok and "unknown fault kind" in reason


def test_poolkill_on_worker_processes_keeps_totals_exact():
    """The same kill on real processes: once the job has ended, its
    totals are an undisturbed run's."""
    server = process_server(POOL, pool_config=PoolConfig(respawn_backoff=0.05))
    try:
        job = submitted(
            server,
            overrides=dict(SLOW_OVERRIDES, inject_fault=["poolkill:*:2:1"]),
        )
        assert server.wait(job.id)["job"]["state"] == "done"
        assert totals(job) == baseline()
        assert not server.pool.quarantined
    finally:
        server.drain("test teardown")
