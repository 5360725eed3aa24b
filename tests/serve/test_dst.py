"""Deterministic simulation testing of the serve daemon: a threadless
:class:`JobServer` on ``tests/dst.py``'s adversarial fleet, driven only
by ``submit``, ``cancel``, ``_turn`` and ``drain``.

Hypothesis draws the pool, ``max_running`` and a schedule of submits
(targets, priorities, fault plans), cancels and a drain, each at a
drawn turn.  Each session the daemon runs gets a tracer of its own, on
the pool's clock.  Each job passes ``audit.check`` on its trace and
journal, and all of them together audit's cross-job predicates.  A done
job's total is its solo total less what it quarantined; a cancelled
one's is what it settled, and its journal resumes to the solo total; a
failed one failed by its plan or on a wholly quarantined pool.  No
worker idles free two turns beside a running job, a quiet daemon holds
every live worker free, a drained one holds nothing, and a recorded
example replays to an equal daemon trace.
"""

import dataclasses
import math
import os
import shutil
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import api
from repro.obs import Tracer, audit
from repro.obs.events import JOB_FAILED, POOL_QUARANTINE, POOL_RESPAWN
from repro.runtime.backends import mp
from repro.runtime.checkpoint import read_journal
from repro.runtime.config import PoolConfig, RunConfig
from repro.runtime.faults import DISK_ERRORS
from repro.serve import server as serve_server
from repro.serve.jobs import JobState
from repro.serve.server import JobServer

from ..dst import LONG, TIER1, AdversarialFleet, chooser

SMALL = "examples/fig1.f"
#: Targets and their overrides: a few hundred to a few thousand turns
#: each (every idle pool unit costs the router two).
TARGETS = {"fig1": {}, "reduction": {}, SMALL: {"tasks": 48, "elements": 100}}
#: The errors a failed job's fault terms explain it by.
FAILS_BY = {"coordkill": "CoordinatorKilled", "diskfail": "JournalFailedError"}
#: Pool time a schedule may take, its drain's included, and turns the
#: router may take without moving the pool's clock.
QUIET_BY, SPIN = 100_000.0, 1000


def plans(p):
    """``inject_fault`` spec lists: each term drawn or left out."""
    at, anyone = st.integers(0, 4), st.sampled_from(["*", *map(str, range(p))])
    terms = [
        st.builds("kill:{}:{}:{}".format, anyone, at, st.integers(1, 3)),
        st.builds("raise:{}:{}:{}".format, anyone, at, st.integers(1, 3)),
        st.builds("slow:{}:{}:{}".format, anyone, at,
                  st.sampled_from([20.0, 100.0])),
        st.builds("poolkill:*:{}:{}".format, at, st.integers(1, p)),
        st.builds("coordkill:*:{}".format, st.integers(0, 16)),
        st.builds("diskfail:{}:{}:{}".format,
                  st.sampled_from(["write", "fsync"]), st.integers(0, 8),
                  st.sampled_from(sorted(DISK_ERRORS))),
    ]
    return st.tuples(*(st.none() | term for term in terms)).map(
        lambda specs: [spec for spec in specs if spec is not None])


@st.composite
def schedules(draw):
    p = draw(st.integers(2, 4))
    return {
        "p": p, "max_running": draw(st.integers(1, 3)),
        "pool": {"max_workers": draw(st.integers(p, p + 2)),
                 "idle_timeout": draw(st.sampled_from([None, 0.3, 5.0])),
                 "max_respawns": draw(st.sampled_from([1, 3]))},
        "submits": draw(st.lists(st.tuples(
            st.integers(0, 400), st.sampled_from(sorted(TARGETS)),
            st.integers(0, 2), plans(p)), min_size=1, max_size=3)),
        "cancels": draw(st.lists(st.tuples(
            st.integers(0, 2000), st.integers(0, 2)), max_size=2)),
        "drain": draw(st.none() | st.integers(0, 3000)),
    }


def check_daemon(schedule, data, state):
    """Run ``schedule`` on a daemon with its state in ``state`` (made
    afresh) and judge it; returns the drained server."""
    shutil.rmtree(state, ignore_errors=True)
    sessions = {}

    class Traced(mp._MpSession):
        def __init__(self, ops, deps, cfg, fleet):
            super().__init__(ops, deps, cfg.with_(tracer=Tracer()), fleet)
            # The job's trace on the pool's clock, as the daemon's is.
            self.tracer.origin = fleet.now()
            sessions[fleet._job.id] = self

    fleet = AdversarialFleet(schedule["p"], None, chooser(data),
                             PoolConfig(**schedule["pool"]))
    server = JobServer(fleet, state_dir=state,
                       max_running=schedule["max_running"],
                       base_config=RunConfig(cost_source="declared"))
    steps = [(turn, 0, args) for turn, *args in schedule["submits"]]
    steps += [(turn, 1, job) for turn, job in schedule["cancels"]]
    steps += [(schedule["drain"], 2, None)] * (schedule["drain"] is not None)
    jobs, turns = [], _Turns(server)
    # (The drain's grace is wall-clock time: simulated, it is unbounded.)
    with mock.patch.object(serve_server, "_MpSession", Traced), \
            mock.patch.object(mp, "DRAIN_GRACE", math.inf):
        for at, kind, args in sorted(steps, key=lambda step: step[:2]):
            turns.until(lambda: turns.count >= at)
            if kind == 0:
                ok, job = server.submit(args[0], args[1], dict(
                    TARGETS[args[0]], inject_fault=args[2]))
                assert ok, job
                jobs.append(job)
            elif kind == 1 and args < len(jobs):
                assert server.cancel(jobs[args].id)["ok"]
            elif kind == 2:
                break
        else:
            turns.until(lambda: all(job.state.terminal for job in jobs)
                        and not (fleet.healing or fleet.sent_at))
            # Quiet: every live worker free, every slot accounted for.
            assert server.free == set(fleet.live_workers())
            assert all(fleet.alive[wid] or wid in fleet.dormant
                       | fleet.quarantined for wid in range(fleet.slots))
        assert server.drain("end of schedule")["draining"]
    assert not (server.owner or server.running or server._work)
    assert fleet.stopped and not any(job.session for job in jobs)
    # The pool's heals and retirements are on the daemon's trace, each
    # slot retired at the breaker's limit.
    retired = server.tracer.by_kind(POOL_QUARANTINE)
    assert sorted(event.proc for event in retired) == sorted(fleet.quarantined)
    assert {e.attrs["deaths"] for e in retired} <= {fleet.cfg.max_respawns + 1}
    assert len(server.tracer.by_kind(POOL_RESPAWN)) == fleet.respawns
    audit.check(audit.load([state]))
    merged = audit.Run(server.tracer.events + [
        dataclasses.replace(event, attrs=dict(event.attrs, job=job_id))
        for job_id, session in sessions.items()
        for event in session.tracer.events])
    audit.one_job_per_worker(merged)
    audit.quarantine_is_final(merged)
    for job in jobs:
        check_job(job, sessions.get(job.id), server)
    return server


class _Turns:
    """The router's turns, the drain's included, each followed by the
    check that no worker idles free for two turns while a job runs."""

    def __init__(self, server):
        self.server, self.turn = server, server._turn
        server._turn = self
        self.count, self.still, self.wait, self.idle = 0, 0, 0.0, set()

    def __call__(self, wait):
        now = self.server.pool.now()
        assert now < QUIET_BY, "not quiet in time"
        wait = self.turn(wait)
        self.count += 1
        self.still = self.still + 1 if self.server.pool.now() == now else 0
        assert self.still < SPIN, f"the router spins at t={now}"
        idle = self.server.free if self.server.running else set()
        assert not self.idle & idle, f"{idle} idle beside a running job"
        self.idle = set(idle)
        return wait

    def until(self, predicate):
        while not predicate():
            self.wait = self(self.wait)


def check_job(job, session, server):
    directory, fleet = job.checkpoint_dir, server.pool
    run = audit.Run(session.tracer.events if session else [], {
        directory: read_journal(directory)
    } if os.path.exists(os.path.join(directory, "journal.jsonl")) else {})
    audit.check(run)
    kinds = {spec.split(":")[0] for spec in job.overrides["inject_fault"]}
    settled = set(run.settled())
    if job.state is JobState.FAILED:
        assert job.result is None
        causes = {FAILS_BY[kind] for kind in kinds & set(FAILS_BY)}
        (end,) = [event.time for event in server.tracer.by_kind(JOB_FAILED)
                  if event.attrs["job"] == job.id]
        retired = server.tracer.by_kind(POOL_QUARANTINE)
        if sum(event.time <= end for event in retired) == fleet.slots:
            causes.add("MpBackendError")  # no slot left to run on
        assert any(cause in job.error for cause in causes), job.error
        return
    if job.state is JobState.DONE:
        lost = set(session.fault_report.quarantined)
        assert not lost or "raise" in kinds
        assert settled == set(solo(session)) - lost
        assert (job.result["value_total"], job.result["tasks"]) == (
            worth(solo(session), settled), len(settled))
        return
    # Cancelled: its chunks in flight harvested, what it settled counted
    # and journaled, and the journal resumes to the solo total.
    assert job.state is JobState.CANCELLED
    assert session is None or not session.in_flight
    assert os.listdir(job.resume_dir) == ["journal.jsonl"]
    cfg = api.resume_config(job.resume_dir, RunConfig(tracer=Tracer()))
    target, cfg, workload = api.configure(None, cfg, {})
    again = mp._MpSession(*api.resolve_ops(target, cfg, workload)[:2], cfg,
                          AdversarialFleet(cfg.processors, None, fleet.choose))
    result = again.run()
    audit.check(audit.Run(cfg.tracer.events, {
        directory: read_journal(directory)}))
    values = solo(again)
    assert (job.result or {}).get("value_total", 0.0) == worth(
        values, settled)
    done = set(values) - set(result.fault_report.quarantined)
    assert (result.value_total, result.tasks, result.tasks_resumed) == (
        worth(values, done), len(done), len(settled))


def solo(session):
    """Each task's value, ``(op label, index) -> value``: the closed
    form of a solo run of ``session``'s ops."""
    return {(state.label, index): state.op.kernel(payload)
            for state in session.ops
            for index, payload in enumerate(state.op.payloads)}


def worth(values, tasks):
    """What ``tasks`` add up to, in a solo run's order."""
    return sum(value for task, value in values.items() if task in tasks)


def recorded(*submits, p=2, max_running=2, drain=None, **pool):
    """A schedule of ``submits``, ``(turn, target, priority, faults)``
    each, on a pool of ``p`` that, unless ``pool`` says otherwise,
    neither grows nor shrinks."""
    return {"p": p, "max_running": max_running, "submits": list(submits),
            "pool": {"max_workers": p, "idle_timeout": None,
                     "max_respawns": 3, **pool},
            "cancels": [], "drain": drain}


@settings(TIER1, max_examples=20)
# Half the pool killed mid-job: the slot respawns and goes back to the
# job, and the healed pool serves the next one.
@example(schedule=recorded((0, SMALL, 0, ["poolkill:*:2:1"]),
                           (800, "fig1", 0, [])), data=())
# A crash-looping slot is quarantined, and stays out of the next job.
@example(schedule=recorded((0, SMALL, 0, ["kill:0:0:10"]),
                           (800, "fig1", 0, []), max_respawns=1), data=())
# A drain cancels a running job, harvesting its chunks in flight.
@example(schedule=recorded((0, SMALL, 0, []), drain=100), data=())
# Two jobs at once, each its solo total, under tied and late reports.
@example(schedule=recorded((0, "fig1", 0, []), (0, "fig1", 0, [])),
         data=("late", 2, "lost", 1))
# A disk fault and a coordinator kill each fail their job alone.
@example(schedule=recorded((0, "fig1", 0, ["diskfail:write:1:ENOSPC"]),
                           (0, "fig1", 0, ["coordkill:*:1"]),
                           (0, "fig1", 0, []), max_running=1), data=())
# Found: an idle worker due to shrink when the clock, a float, reads an
# ulp short of its deadline made the router wait 0 forever.
@example(schedule=recorded((185, "reduction", 1, ["diskfail:fsync:2:ENOSPC"]),
                           p=3, max_running=1, max_workers=5,
                           idle_timeout=0.3), data=("late",))
# Found: with every slot quarantined, a job holding no worker waited
# for a grant that could never come.
@example(schedule=recorded((98, "fig1", 0, ["kill:*:2:3", "poolkill:*:2:2"]),
                           (326, SMALL, 0, ["kill:*:0:2", "poolkill:*:0:2"]),
                           max_workers=3, max_respawns=1),
         data=("now", "lost", 1))
@given(schedule=schedules(), data=st.data())
def test_daemon_dst(schedule, data):
    with tempfile.TemporaryDirectory() as scratch:
        server = check_daemon(schedule, data, scratch)
        if isinstance(data, tuple):  # a recorded example replays
            again = check_daemon(schedule, data, scratch)
            assert again.tracer.events == server.tracer.events


def test_daemon_dst_long():
    if settings.get_current_profile_name() != LONG:
        pytest.skip(f"long profile only: --hypothesis-profile {LONG}")
    given(schedule=schedules(), data=st.data())(
        test_daemon_dst.hypothesis.inner_test)()
