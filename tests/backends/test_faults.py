"""Fault tolerance of the mp backend: crash recovery, retry, injection.

Every scenario uses the deterministic fault-injection harness
(``repro.runtime.faults``) so chaos replays exactly; the suite-wide
SIGALRM guard in ``tests/conftest.py`` turns any hang into a loud failure.
"""

import time

import pytest

from repro.apps.kernels import fig1_ops
from repro.obs import Tracer
from repro.obs.events import (
    CHUNK_ACQUIRE,
    CHUNK_REASSIGN,
    CHUNK_RETRIED,
    FAULT_INJECTED,
    WORKER_DIED,
)
from repro.runtime.backends import (
    MpBackendError,
    MultiprocessingBackend,
    SimBackend,
)
from repro.runtime.config import RunConfig
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    parse_fault_spec,
)
from repro.runtime.kernel import Kernel
from repro.runtime.task import RealOp

CFG = RunConfig(
    processors=3,
    backend="mp",
    mp_timeout=60.0,
    retry_backoff=0.01,
)

PAYLOADS = [float(i) for i in range(60)]
EXPECTED = sum(PAYLOADS)


def identity_kernel(payload):
    return float(payload)


def slow_identity_kernel(payload):
    # ~1ms per task: long enough that all workers engage (so faults
    # targeting any worker reliably fire mid-run), short enough that a
    # 60-task run stays well under a second.
    time.sleep(0.001)
    return float(payload)


def failing_kernel(payload):
    raise RuntimeError("kernel always fails")


def work_op():
    return RealOp(
        name="work", kernel=Kernel(fn=slow_identity_kernel), payloads=list(PAYLOADS)
    )


# ---------------------------------------------------------------------------
# Plans, specs, and the injector (pure coordinator-side logic)
# ---------------------------------------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("explode")
    with pytest.raises(ValueError, match="delay"):
        FaultSpec("delay", delay=0.0)
    with pytest.raises(ValueError, match="times"):
        FaultSpec("raise", times=0)


def test_fault_plan_random_is_seeded():
    a = FaultPlan.random(seed=7, workers=4, faults=3)
    b = FaultPlan.random(seed=7, workers=4, faults=3)
    c = FaultPlan.random(seed=8, workers=4, faults=3)
    assert a == b
    assert a != c
    assert len(a.specs) == 3


def test_parse_fault_spec_forms():
    kill = parse_fault_spec("kill:1:2")
    assert (kill.kind, kill.worker, kill.at_chunk) == ("kill", 1, 2)
    any_raise = parse_fault_spec("raise:*:3:2")
    assert (any_raise.worker, any_raise.at_chunk, any_raise.times) == (-1, 3, 2)
    delay = parse_fault_spec("delay:0:1:0.25")
    assert delay.delay == pytest.approx(0.25)
    with pytest.raises(ValueError, match="unknown fault kind"):
        parse_fault_spec("meteor:0")


def test_injector_targets_worker_chunk_and_times():
    plan = FaultPlan(
        (FaultSpec("raise", worker=1, at_chunk=1, times=2),)
    )
    injector = FaultInjector(plan)
    # Worker 0 never matches; worker 1 fires at its chunks 1 and 2 only.
    assert injector.on_dispatch(0) is None
    assert injector.on_dispatch(1) is None  # worker 1 chunk 0
    assert injector.on_dispatch(1) == ("raise",)  # chunk 1
    assert injector.on_dispatch(0) is None
    assert injector.on_dispatch(1) == ("raise",)  # chunk 2, times spent
    assert injector.on_dispatch(1) is None


# ---------------------------------------------------------------------------
# Worker death: reclaim, re-ration, continue degraded
# ---------------------------------------------------------------------------


def test_worker_kill_mid_run_preserves_value_totals():
    # Acceptance scenario: kill 1 of 3 workers mid-run; the run must
    # complete with totals identical to the fault-free run and report
    # the death with its recovery events.
    clean = MultiprocessingBackend().run_op(work_op(), CFG)
    assert clean.value_total == EXPECTED
    assert clean.fault_report is not None and not clean.fault_report.any_fault

    # worker=-1 kills whichever worker receives the second global
    # dispatch: guaranteed to fire (a named worker might never be handed
    # a chunk when the others drain the queue first).
    tracer = Tracer()
    cfg = CFG.with_(
        fault_plan=FaultPlan.kill_worker(-1, at_chunk=1), tracer=tracer
    )
    result = MultiprocessingBackend().run_op(work_op(), cfg)
    assert result.value_total == EXPECTED == clean.value_total
    report = result.fault_report
    assert len(report.workers_died) == 1
    assert report.chunks_reassigned >= 1
    assert report.tasks_reassigned >= 1
    kinds = {event.kind for event in tracer.events}
    assert WORKER_DIED in kinds
    assert CHUNK_REASSIGN in kinds
    assert FAULT_INJECTED in kinds
    # How it died is on record: an injected kill exits 17.
    (died,) = tracer.by_kind(WORKER_DIED)
    assert died.attrs["exitcode"] == 17


def test_worker_kill_shutdown_does_not_hang():
    # Regression for the coordinator's finally block: it used to push
    # ("stop",) at every reply queue before checking liveness; a dead
    # worker's queue must be skipped so shutdown stays bounded.  The
    # conftest SIGALRM guard would catch a wedge; the explicit bound
    # keeps the failure mode obvious.
    cfg = CFG.with_(fault_plan=FaultPlan.kill_worker(-1, at_chunk=2))
    start = time.monotonic()
    result = MultiprocessingBackend().run_op(work_op(), cfg)
    assert time.monotonic() - start < 30.0
    assert result.value_total == EXPECTED
    assert len(result.fault_report.workers_died) == 1


def test_plain_run_respawns_killed_worker_with_sim_exact_totals():
    # A plain (unprepared) run heals like a prepared one: its ephemeral
    # pool respawns the dead slot under the default PoolConfig backoff.
    # Worker 1 stalls a second in its first chunk, so worker 0 is handed
    # every other chunk — its third kills it — and the run is still
    # going when the replacement reports ready.
    import repro.api as api

    def op():
        return RealOp(
            name="work",
            kernel=Kernel(fn=slow_identity_kernel),
            payloads=list(PAYLOADS),
            costs=[1.0] * len(PAYLOADS),
        )

    plan = FaultPlan(
        (parse_fault_spec("kill:0:2"), parse_fault_spec("slow:1:0:1.0"))
    )
    sim = api.run(op(), RunConfig(processors=2, backend="sim"))
    result = api.run(op(), CFG.with_(processors=2, fault_plan=plan))
    assert result.value_total == sim.value_total == EXPECTED
    assert result.tasks == sim.tasks == len(PAYLOADS)
    assert result.fault_report.workers_died == [0]
    assert result.fault_report.workers_respawned == 1


def test_sim_speculates_past_a_straggler():
    """Time passes on the simulator while a straggler runs: its overdue
    chunk is duplicated onto an idle worker and the copy wins."""
    import repro.api as api

    cfg = RunConfig(
        processors=4, fault_plan=FaultPlan.parse("slow:*:1:2000")
    )
    slow = api.run("reduction", cfg)
    fast = api.run("reduction", cfg.with_(speculation_factor=2.0))
    assert fast.fault_report.chunks_speculated == 1
    assert fast.makespan < slow.makespan - 500
    assert fast.value_total == slow.value_total


def test_worker_death_fails_fast_when_on_fault_fail():
    cfg = CFG.with_(
        fault_plan=FaultPlan.kill_worker(-1, at_chunk=0), on_fault="fail"
    )
    with pytest.raises(MpBackendError, match="died"):
        MultiprocessingBackend().run_op(work_op(), cfg)


# ---------------------------------------------------------------------------
# Kernel exceptions: retry with backoff, quarantine on exhaustion
# ---------------------------------------------------------------------------


def test_kernel_raise_retries_then_succeeds():
    tracer = Tracer()
    cfg = CFG.with_(
        fault_plan=FaultPlan.kernel_raise(at_chunk=2, times=1), tracer=tracer
    )
    result = MultiprocessingBackend().run_op(work_op(), cfg)
    assert result.value_total == EXPECTED
    report = result.fault_report
    assert report.retries >= 1
    assert report.ok  # nothing quarantined: all results recovered
    retried = [e for e in tracer.events if e.kind == CHUNK_RETRIED]
    assert retried and retried[0].attrs["attempt"] >= 1


def test_retry_budget_exhaustion_reports_instead_of_hanging():
    op = RealOp(name="bad", kernel=Kernel(fn=failing_kernel), payloads=[0.0] * 6)
    cfg = CFG.with_(max_retries=1)
    start = time.monotonic()
    result = MultiprocessingBackend().run_op(op, cfg)
    assert time.monotonic() - start < 30.0
    report = result.fault_report
    assert not report.ok
    assert len(report.quarantined) == 6
    assert all(label == "bad" for label, _ in report.quarantined)
    assert result.value_total == 0.0
    assert result.per_op["bad"].tasks == 0


def test_quarantine_only_poisons_failing_op():
    # A healthy op sharing the run must be unaffected by a poisoned one.
    ops = [
        RealOp(name="bad", kernel=Kernel(fn=failing_kernel), payloads=[0.0] * 4),
        RealOp(name="good", kernel=Kernel(fn=identity_kernel), payloads=[2.0] * 8),
    ]
    cfg = CFG.with_(max_retries=0)
    result = MultiprocessingBackend().run_ops(ops, cfg)
    assert result.per_op["good"].value_total == 16.0
    assert len(result.fault_report.quarantined) == 4


def test_delay_fault_injected_and_survived():
    cfg = CFG.with_(fault_plan=FaultPlan.delay_reply(0.1, worker=0))
    result = MultiprocessingBackend().run_op(work_op(), cfg)
    assert result.value_total == EXPECTED
    assert any(
        entry["fault"] == "delay" for entry in result.fault_report.injected
    )


# ---------------------------------------------------------------------------
# Deadlock paths (direct coverage; the watchdog's is test_mp_smoke's)
# ---------------------------------------------------------------------------


def test_dependency_cycle_detected_as_deadlock():
    """A cycle is refused as the session takes its deps, naming the ops,
    before any chunk goes out, on every backend."""
    for backend, cfg in (
        (SimBackend(), RunConfig(processors=2)),
        (MultiprocessingBackend(), CFG.with_(processors=2)),
    ):
        tracer = Tracer()
        with pytest.raises(
            ValueError,
            match=r"dependency cycle among operations \['A', 'B'\]",
        ):
            backend.run_ops(fig1_ops(), cfg.with_(tracer=tracer), [{1}, {0}])
        assert tracer.by_kind(CHUNK_ACQUIRE) == []


# ---------------------------------------------------------------------------
# Statistics hygiene and report plumbing
# ---------------------------------------------------------------------------


def test_fault_report_reaches_api_and_summary():
    import repro.api as api

    cfg = CFG.with_(fault_plan=FaultPlan.kill_worker(-1, at_chunk=0))
    result = api.run(work_op(), cfg)
    assert len(result.fault_report.workers_died) == 1
    assert "workers died" in result.summary()
    assert result.fault_report.to_dict()["ok"] is True


def test_fault_events_counted_in_metrics():
    from repro.obs import aggregate

    tracer = Tracer()
    cfg = CFG.with_(
        fault_plan=FaultPlan.kernel_raise(at_chunk=1, times=1), tracer=tracer
    )
    result = MultiprocessingBackend().run_op(work_op(), cfg)
    assert result.value_total == EXPECTED
    report = aggregate(tracer.events, processors=CFG.processors)
    assert report.chunk_retries >= 1
    assert report.faults_injected >= 1
    assert report.to_dict()["chunk_retries"] >= 1


def test_declared_stats_not_polluted_by_retries():
    # In declared-cost mode the coordinator observes each task's cost at
    # dispatch; a retried chunk must not observe the same tasks twice,
    # or the TAPER mean would double-count and the equivalence story
    # breaks.  sample count == op size proves one observation per task.
    declared = [4.0] * 30
    op = RealOp(
        name="declared",
        kernel=Kernel(fn=identity_kernel),
        payloads=[1.0] * 30,
        costs=declared,
    )
    from repro.runtime.backends.mp import WorkerPool, _MpSession

    cfg = CFG.with_(
        cost_source="declared",
        fault_plan=FaultPlan.kernel_raise(at_chunk=1, times=1),
    )
    pool = WorkerPool(cfg.processors)
    try:
        pool.start()
        session = _MpSession([op], [set()], cfg, pool)
        session.run()
    finally:
        pool.stop()
    state = session.ops[0]
    assert state.retried  # the fault really fired
    assert state.cost_fn.stats.count == 30
