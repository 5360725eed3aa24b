"""Elastic self-healing of the resident WorkerPool (exclusive mode).

The acceptance scenario from the robustness PR: kill pool workers
mid-run and the warm session must finish with totals identical to an
undisturbed run while the pool respawns its way back to full width; a
crash-looping slot trips the circuit breaker instead of burning respawn
attempts forever.  The breaker and doomed spawns are checked again on
the simulator's fleet, which heals by the same slot rules, at exact
instants.  Serve-side churn lives in ``tests/serve/test_churn.py``;
this file drives the pool through the exclusive warm-run path (one
session, no router).
"""

import time

import pytest

from repro.obs import Tracer
from repro.obs.events import POOL_QUARANTINE, POOL_RESPAWN, WORKER_DIED
from repro.runtime.backends import MpBackendError, MultiprocessingBackend
from repro.runtime.backends import mp as mp_mod
from repro.runtime.backends.sim import SimBackend
from repro.runtime.config import PoolConfig, RunConfig
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    parse_fault_spec,
)
from repro.runtime.kernel import Kernel
from repro.runtime.task import RealOp

P = 2

#: Enough ~3ms tasks that a worker killed at the second dispatch is
#: respawned (detected at its exit, backoff 0.05s) with most of the run
#: still ahead of it.
PAYLOADS = [float(i) for i in range(120)]
EXPECTED = sum(PAYLOADS)


def slow_identity_kernel(payload):
    time.sleep(0.003)
    return float(payload)


def work_op(name="work"):
    return RealOp(
        name=name, kernel=Kernel(fn=slow_identity_kernel), payloads=list(PAYLOADS)
    )


def warm_config(**overrides):
    overrides.setdefault("pool", PoolConfig(respawn_backoff=0.05))
    return RunConfig(
        processors=P,
        backend="mp",
        mp_timeout=60.0,
        retry_backoff=0.01,
        **overrides,
    )


# ---------------------------------------------------------------------------
# Config and fault-grammar plumbing (no processes)
# ---------------------------------------------------------------------------


def test_pool_config_validation():
    with pytest.raises(ValueError, match="min_workers"):
        PoolConfig(min_workers=0)
    with pytest.raises(ValueError, match="max_workers"):
        PoolConfig(min_workers=4, max_workers=2)
    with pytest.raises(ValueError, match="respawn_backoff"):
        PoolConfig(respawn_backoff=-1.0)
    with pytest.raises(ValueError, match="idle_timeout"):
        PoolConfig(idle_timeout=0.0)
    # The pool refuses widths the config cannot cover.
    with pytest.raises(ValueError, match="max_workers"):
        mp_mod.WorkerPool(4, pool_config=PoolConfig(max_workers=2))
    with pytest.raises(ValueError, match="min_workers"):
        mp_mod.WorkerPool(1, pool_config=PoolConfig(min_workers=2))


def test_parse_poolkill_and_spawnfail_specs():
    kill = parse_fault_spec("poolkill:*:2:2")
    assert kill.kind == "poolkill"
    assert (kill.worker, kill.at_chunk, kill.times) == (-1, 2, 2)
    fail = parse_fault_spec("spawnfail:*:0:3")
    assert fail.kind == "spawnfail"
    assert fail.times == 3


def test_injector_poolkill_kills_distinct_victims():
    # times=2 means two *victims*, not two kills of whoever dispatches:
    # worker 0 dispatching repeatedly is killed once, then spared until
    # a second distinct worker shows up.
    injector = FaultInjector(
        FaultPlan((FaultSpec("poolkill", times=2),))
    )
    assert injector.on_dispatch(0) == ("kill",)
    assert injector.on_dispatch(0) is None
    assert injector.on_dispatch(1) == ("kill",)
    assert injector.on_dispatch(2) is None  # budget spent


def test_injector_spawnfail_never_fires_on_dispatch():
    injector = FaultInjector(
        FaultPlan((FaultSpec("spawnfail", times=2),))
    )
    assert injector.spawn_failures() == 2
    for wid in range(4):
        assert injector.on_dispatch(wid) is None


# ---------------------------------------------------------------------------
# Respawn: the warm run heals back to full width mid-run
# ---------------------------------------------------------------------------


def test_warm_run_respawns_killed_worker_and_totals_match():
    cfg = warm_config()
    backend = MultiprocessingBackend().prepare(cfg)
    try:
        clean = backend.run_op(work_op(), cfg)
        assert clean.value_total == EXPECTED

        tracer = Tracer()
        churn = cfg.with_(
            fault_plan=FaultPlan.pool_kill(1, at_chunk=1), tracer=tracer
        )
        result = backend.run_op(work_op("churn"), churn)
        assert result.value_total == EXPECTED == clean.value_total
        report = result.fault_report
        assert len(report.workers_died) == 1
        assert report.workers_respawned >= 1
        kinds = {event.kind for event in tracer.events}
        assert WORKER_DIED in kinds
        assert POOL_RESPAWN in kinds
        # Full width restored: the session confirmed the replacement's
        # ready handshake and granted it back before finishing.
        assert len(backend.pool.live_workers()) == P
        assert backend.pool.respawns >= 1

        # The healed pool serves a fresh run exactly.
        again = backend.run_op(work_op("again"), cfg)
        assert again.value_total == EXPECTED
    finally:
        backend.release()


def test_respawn_backoff_defers_recovery_past_run_end():
    # A huge backoff approximates the seed's static pool: the dead
    # worker degrades the run, nothing comes back mid-run, and totals
    # still come out exact (the original reclaim path is untouched).
    static = warm_config(pool=PoolConfig(respawn_backoff=3600.0))
    backend = MultiprocessingBackend().prepare(static)
    try:
        churn = static.with_(fault_plan=FaultPlan.pool_kill(1, at_chunk=1))
        result = backend.run_op(work_op(), churn)
        assert result.value_total == EXPECTED
        assert result.fault_report.workers_respawned == 0
        assert len(backend.pool.live_workers()) == P - 1
    finally:
        backend.release()


# ---------------------------------------------------------------------------
# Crash loop: the circuit breaker retires the slot
# ---------------------------------------------------------------------------


def test_crash_looping_slot_is_quarantined():
    cfg = warm_config(
        pool=PoolConfig(respawn_backoff=0.02, max_respawns=1)
    )
    backend = MultiprocessingBackend().prepare(cfg)
    try:
        tracer = Tracer()
        # Worker 0 is killed at every dispatch it ever receives: death,
        # respawn, death again -> 2 deaths in the window > max_respawns.
        # One task per chunk (policy="self"): under TAPER the survivor's
        # single p=1 chunk can swallow every remaining task, and the
        # respawned slot never gets a second dispatch to die on.
        churn = cfg.with_(
            fault_plan=FaultPlan(
                (FaultSpec("kill", worker=0, times=10),)
            ),
            tracer=tracer,
            policy="self",
        )
        result = backend.run_op(work_op(), churn)
        assert result.value_total == EXPECTED
        report = result.fault_report
        assert report.pool_quarantined
        assert report.pool_quarantined[0]["slot"] == 0
        assert "crash loop" in report.pool_quarantined[0]["reason"]
        assert backend.pool.quarantined == {0}
        assert POOL_QUARANTINE in {e.kind for e in tracer.events}
        # The survivor keeps the pool serviceable.
        again = backend.run_op(work_op("again"), cfg)
        assert again.value_total == EXPECTED
    finally:
        backend.release()


def test_spawnfail_injection_delays_but_does_not_stop_recovery():
    cfg = warm_config(
        pool=PoolConfig(respawn_backoff=0.02, max_respawns=5)
    )
    backend = MultiprocessingBackend().prepare(cfg)
    try:
        plan = FaultPlan(
            FaultPlan.pool_kill(1, at_chunk=1).specs
            + FaultPlan.spawn_failures(2).specs
        )
        churn = cfg.with_(fault_plan=plan)
        result = backend.run_op(work_op(), churn)
        assert result.value_total == EXPECTED
        report = result.fault_report
        spawnfails = [
            entry
            for entry in report.injected
            if entry.get("fault") == "spawnfail"
        ]
        # At least one doomed attempt landed inside the run; any armed
        # remainder fires during the pump runs below.
        assert spawnfails
        # Once the spawnfail budget is spent, attempts succeed and the
        # width is restored.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if len(backend.pool.live_workers()) == P:
                break
            backend.run_op(work_op("pump"), cfg)
        assert backend.pool.fail_next_spawns == 0
        assert len(backend.pool.live_workers()) == P
    finally:
        backend.release()


# ---------------------------------------------------------------------------
# The same rules on the simulator's fleet, at exact instants
# ---------------------------------------------------------------------------


def sim_run(plan, tracer=None, **pool):
    """``PAYLOADS`` as one op on the simulator's fleet, whose slots heal
    by the pool's rules in work units (a task costs its payload)."""
    op = RealOp(name="work", kernel=Kernel(fn=float, cost_fn=float),
                payloads=list(PAYLOADS))
    cfg = RunConfig(processors=P, fault_plan=plan, tracer=tracer,
                    pool=PoolConfig(**pool))
    return SimBackend().run_op(op, cfg)


def test_crash_looping_slot_is_quarantined_on_the_simulator():
    tracer = Tracer()
    plan = FaultPlan((FaultSpec("kill", worker=0, times=10),))
    result = sim_run(plan, tracer, respawn_backoff=0.02, max_respawns=1)
    assert result.value_total == EXPECTED
    (record,) = result.fault_report.pool_quarantined
    assert record["slot"] == 0 and "crash loop" in record["reason"]
    assert result.fault_report.workers_died == [0, 0]
    (event,) = [e for e in tracer.events if e.kind == POOL_QUARANTINE]
    assert (event.proc, event.attrs["deaths"]) == (0, 2)


def test_spawnfail_delays_recovery_on_the_simulator():
    # Each doomed attempt counts as a death under the same backoff;
    # the third attempt brings the slot back.
    plan = FaultPlan(
        FaultPlan.pool_kill(1, at_chunk=1).specs
        + FaultPlan.spawn_failures(2).specs
    )
    result = sim_run(plan, respawn_backoff=0.02, max_respawns=5)
    assert result.value_total == EXPECTED
    report = result.fault_report
    assert [entry["fault"] for entry in report.injected] == [
        "kill", "spawnfail", "spawnfail",
    ]
    assert report.workers_respawned == 1 and not report.pool_quarantined


# ---------------------------------------------------------------------------
# Satellite: start() fails fast when a worker dies before its handshake
# ---------------------------------------------------------------------------


def test_start_fails_fast_when_worker_dies_before_ready(monkeypatch):
    import os

    from repro.runtime.backends import pool as pool_mod

    original = pool_mod._worker_main

    def dying_worker(wid, request_q, reply_q, t0):
        if wid == 0:
            os._exit(3)
        original(wid, request_q, reply_q, t0)

    monkeypatch.setattr(pool_mod, "_worker_main", dying_worker)
    pool = mp_mod.WorkerPool(P, start_method="fork")
    start = time.monotonic()
    with pytest.raises(MpBackendError, match="worker 0 died before"):
        pool.start()
    # Fail-fast, not a 30s timeout burn.
    assert time.monotonic() - start < 10.0
    assert not pool.running
