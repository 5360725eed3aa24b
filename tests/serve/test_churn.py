"""Pool churn under the serve daemon: respawn, quarantine, grow/shrink.

The chaos acceptance for the elastic-pool PR, serve side: kill half the
pool mid-job and the job still reports totals identical to an
undisturbed run while the router's pool sweep respawns the dead slot
and re-grants it through the normal ready -> free -> rebalance path; a
crash-looping slot is quarantined durably; compute-bound load grows the
pool up to ``max_workers`` and idleness shrinks it back down.
"""

import os
import time

import pytest

from repro.runtime.config import PoolConfig
from repro.serve.server import JobServer

POOL = 2

#: A graph job of a few chunks, same scaling as test_server.py.
SLOW_TARGET = os.path.join("examples", "fig1.f")
SLOW_OVERRIDES = {"tasks": 192, "elements": 3000}
#: One that outlives a respawn: a worker killed at global dispatch 2 is
#: back in the job's ration (the death, the backoff, the router's sweep
#: when it is due, the handshake) with most of the job still ahead (~2 s
#: here).  A job that starts at its real width is a handful of large
#: chunks, and the lost one re-runs task by task, so "long" has to come
#: from the kernels.
CHURN_OVERRIDES = {"tasks": 512, "elements": 16000}

FIG1F_TOTALS = {}  # lazily computed undisturbed baselines


def fig1f_baseline(overrides=SLOW_OVERRIDES):
    """Totals of an undisturbed serve run of the slow job."""
    shape = tuple(sorted(overrides.items()))
    if shape not in FIG1F_TOTALS:
        server = JobServer(processors=POOL)
        try:
            ok, job = server.submit(SLOW_TARGET, overrides=overrides)
            assert ok, job
            done = server.wait(job.id, timeout=120)
            assert done["job"]["state"] == "done"
            FIG1F_TOTALS[shape] = (
                done["job"]["result"]["value_total"],
                done["job"]["result"]["tasks"],
            )
        finally:
            server.drain("baseline teardown")
    return FIG1F_TOTALS[shape]


def wait_for(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def test_poolkill_mid_job_heals_and_totals_match():
    """Kill half the pool mid-job: exact totals, full width restored."""
    value, tasks = fig1f_baseline(CHURN_OVERRIDES)
    server = JobServer(
        processors=POOL,
        pool_config=PoolConfig(respawn_backoff=0.05),
    )
    try:
        ok, job = server.submit(
            SLOW_TARGET,
            overrides=dict(
                CHURN_OVERRIDES,
                inject_fault=["poolkill:*:2:1"],
            ),
        )
        assert ok, job
        # Mid-job: the victim's slot is respawned and rationed back to
        # the job that lost it (a one-worker ``ration``), which is
        # still running.
        assert wait_for(
            lambda: server.pool.respawns >= 1 and len(job.granted) == POOL,
            timeout=60,
        )
        assert not job.done.is_set()
        done = server.wait(job.id, timeout=120)
        assert done["job"]["state"] == "done"
        assert done["job"]["result"]["value_total"] == value
        assert done["job"]["result"]["tasks"] == tasks
        # The sweep respawned the victim and the router re-granted it:
        # full width soon after the job ends.
        assert wait_for(
            lambda: len(server.pool.live_workers()) == POOL
        )
        assert server.pool.respawns >= 1
        pool_status = server.status()["pool"]
        assert pool_status["live"] == POOL
        assert pool_status["respawns"] >= 1
        assert not pool_status["quarantined"]

        # The healed pool serves a fresh job exactly.
        ok2, job2 = server.submit(SLOW_TARGET, overrides=SLOW_OVERRIDES)
        assert ok2
        done2 = server.wait(job2.id, timeout=120)
        assert done2["job"]["state"] == "done"
        assert done2["job"]["result"]["value_total"] == fig1f_baseline()[0]
    finally:
        server.drain("test teardown")


def test_crash_looping_slot_quarantined_under_serve():
    """A slot that dies at every grant trips the breaker durably."""
    value, tasks = fig1f_baseline()
    server = JobServer(
        processors=POOL,
        pool_config=PoolConfig(respawn_backoff=0.02, max_respawns=1),
    )
    try:
        ok, job = server.submit(
            SLOW_TARGET,
            overrides=dict(
                SLOW_OVERRIDES,
                inject_fault=["kill:0:0:10"],
            ),
        )
        assert ok, job
        done = server.wait(job.id, timeout=120)
        assert done["job"]["state"] == "done"
        assert done["job"]["result"]["value_total"] == value
        assert done["job"]["result"]["tasks"] == tasks
        # One job may finish before slot 0's replacement is granted and
        # killed a second time; keep feeding it victims until the
        # breaker trips (deaths accumulate on the pool across jobs).
        for _ in range(6):
            if wait_for(lambda: 0 in server.pool.quarantined, timeout=3.0):
                break
            ok, job = server.submit(
                SLOW_TARGET,
                overrides=dict(
                    SLOW_OVERRIDES,
                    inject_fault=["kill:0:0:10"],
                ),
            )
            assert ok, job
            done = server.wait(job.id, timeout=120)
            assert done["job"]["state"] == "done"
            assert done["job"]["result"]["value_total"] == value
        assert 0 in server.pool.quarantined
        record = server.pool.quarantine_records[0]
        assert record["slot"] == 0
        assert "crash loop" in record["reason"]
        pool_status = server.status()["pool"]
        assert pool_status["quarantined"] == [0]
        # Quarantine is durable: the slot stays out across later jobs.
        ok2, job2 = server.submit(SLOW_TARGET, overrides=SLOW_OVERRIDES)
        assert ok2
        done2 = server.wait(job2.id, timeout=120)
        assert done2["job"]["state"] == "done"
        assert done2["job"]["result"]["value_total"] == value
        assert server.pool.quarantined == {0}
    finally:
        server.drain("test teardown")


def test_compute_bound_load_grows_then_idle_shrinks():
    """Two jobs on a 1-wide pool grow it to 2; idleness shrinks it."""
    server = JobServer(
        processors=1,
        max_running=2,
        pool_config=PoolConfig(max_workers=2, idle_timeout=0.3),
    )
    try:
        # Long enough (~0.25 s a job here) that the second is still
        # queued for a worker when the first one's reports wake the
        # router to look for demand.
        overrides = {"tasks": 2048, "elements": 3000}
        ok1, job1 = server.submit(SLOW_TARGET, overrides=overrides)
        ok2, job2 = server.submit(SLOW_TARGET, overrides=overrides)
        assert ok1 and ok2
        # Gate on the monotone counter, not the instantaneous width: a
        # poller starved past idle_timeout on a loaded box can miss the
        # width passing through 2 on its way back down.
        assert wait_for(lambda: server.pool.grows >= 1, timeout=30.0)
        done1 = server.wait(job1.id, timeout=120)
        done2 = server.wait(job2.id, timeout=120)
        assert done1["job"]["state"] == "done"
        assert done2["job"]["state"] == "done"
        # Both workers idle past idle_timeout: shrink to min_workers=1.
        # Poll the counter together with the width — shrink() drops the
        # worker from the live set before it finishes joining the
        # process and bumping the counter.
        assert wait_for(
            lambda: len(server.pool.live_workers()) == 1
            and server.pool.shrinks >= 1
        )
        pool_status = server.status()["pool"]
        assert pool_status["live"] == 1
        assert pool_status["grows"] >= 1
        assert pool_status["shrinks"] >= 1
    finally:
        server.drain("test teardown")


def test_rejected_inject_fault_spec_fails_at_admission():
    server = JobServer(processors=POOL)
    try:
        ok, reason = server.submit(
            "fig1", overrides={"inject_fault": ["meteor:0"]}
        )
        assert not ok
        assert "unknown fault kind" in reason
    finally:
        server.drain("test teardown")
