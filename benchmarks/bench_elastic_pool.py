"""Throughput cost of pool churn under the elastic self-healing pool.

The robustness PR's acceptance number: a warm run that loses half its
workers mid-flight (seeded ``poolkill``) must land within striking
distance of the undisturbed warm run, because the pool respawns the
dead slots under backoff and the session re-rations over the restored
width instead of limping along degraded.  The table also records the
measured recovery latency — first death to last respawn — which is the
respawn backoff by construction (a death is an event: detection is
free).

Wall-clock and noisy like the other backend benches; the assertion is
deliberately loose, the JSON artifact ``BENCH_elastic_pool.json``
carries the exact numbers.
"""

from __future__ import annotations

import os

from repro.apps.kernels import fig1_ops
from repro.obs import Tracer
from repro.obs.events import POOL_RESPAWN, WORKER_DIED
from repro.runtime.backends import MultiprocessingBackend
from repro.runtime.config import PoolConfig, RunConfig
from repro.runtime.faults import FaultPlan

from conftest import print_table

WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))
REPEATS = 3
KILLS = max(1, WORKERS // 2)
BACKOFF = 0.05


def build_ops():
    # factoring + per-task dispatch (below) turn this into ~22 chunks,
    # so a kill loses one chunk of in-flight work, not half the run —
    # the regime the elastic pool is built for.
    return fig1_ops(columns=256, elements=12000)


def heal(backend, cfg):
    """Drive sweeps until the pool is back at full width.

    Respawn runs inside a session's sweep when the pool announces the
    backoff due (clock-domain rule), so between benchmark repeats a
    cheap pump run restores the width a previous churn run may not have
    fully healed.
    """
    for _ in range(20):
        if len(backend.pool.live_workers()) == WORKERS:
            return
        backend.run_ops(fig1_ops(columns=8, elements=500), cfg)
    raise AssertionError(
        f"pool failed to heal back to {WORKERS} workers "
        f"({len(backend.pool.live_workers())} live)"
    )


def best_warm(backend, base_cfg, cfg):
    """Min-of-N warm makespan, healing the pool before each repeat."""
    best, best_tracer = None, None
    for _ in range(REPEATS):
        heal(backend, base_cfg)
        tracer = Tracer()
        result = backend.run_ops(build_ops(), cfg.with_(tracer=tracer))
        if best is None or result.makespan < best.makespan:
            best, best_tracer = result, tracer
    return best, best_tracer


def recovery_latency(tracer):
    """Seconds from the first observed death to the last respawn."""
    died = [e.time for e in tracer.events if e.kind == WORKER_DIED]
    respawned = [e.time for e in tracer.events if e.kind == POOL_RESPAWN]
    if not died or not respawned:
        return None
    return max(respawned) - min(died)


def test_churn_throughput_stays_near_static_pool():
    base = RunConfig(
        processors=WORKERS,
        backend="mp",
        mp_timeout=300.0,
        policy="factoring",
        batching="off",
        pool=PoolConfig(respawn_backoff=BACKOFF),
    )
    backend = MultiprocessingBackend().prepare(base)
    try:
        static, _ = best_warm(backend, base, base)
        churn_cfg = base.with_(
            fault_plan=FaultPlan.pool_kill(KILLS, at_chunk=2)
        )
        churn, tracer = best_warm(backend, base, churn_cfg)
    finally:
        backend.release()

    assert churn.value_total == static.value_total
    assert churn.fault_report is not None
    assert len(churn.fault_report.workers_died) == KILLS
    assert churn.fault_report.workers_respawned >= 1

    static_rate = (
        static.tasks / static.makespan if static.makespan else 0.0
    )
    churn_rate = (
        churn.tasks / churn.makespan if churn.makespan else 0.0
    )
    ratio = churn_rate / static_rate if static_rate else 0.0
    latency = recovery_latency(tracer)
    rows = [
        [
            "static (no faults)",
            WORKERS,
            static.tasks,
            f"{static.makespan:.3f}",
            f"{static_rate:.0f}",
            "1.00",
            "-",
        ],
        [
            f"churn ({KILLS} of {WORKERS} killed, respawned)",
            WORKERS,
            churn.tasks,
            f"{churn.makespan:.3f}",
            f"{churn_rate:.0f}",
            f"{ratio:.2f}",
            f"{latency:.3f}" if latency is not None else "-",
        ],
    ]
    print_table(
        f"Elastic pool churn throughput ({WORKERS} workers, "
        f"min of {REPEATS})",
        [
            "configuration",
            "workers",
            "tasks",
            "makespan_s",
            "tasks_per_s",
            "vs_static",
            "recovery_s",
        ],
        rows,
        name="elastic_pool",
    )
    # Acceptance: churn throughput within 25% of the static pool.  The
    # recovery cost is the backoff + one reclaimed chunk re-run, which this workload is sized to amortize; 0.75 holds
    # with margin on an idle box, and the JSON artifact carries the
    # exact ratio for the trajectory when CI noise eats into it.
    assert ratio >= 0.60, (
        f"churn throughput collapsed to {ratio:.2f}x of the static pool "
        f"(static {static_rate:.0f} tasks/s, churn {churn_rate:.0f})"
    )
    # Recovery is backoff-scale: a slot's backoff doubles per death in
    # the window (one per repeat at most), and nothing waits to detect.
    if latency is not None:
        bound = BACKOFF * 2 ** REPEATS + 0.5
        assert latency < bound, f"recovery took {latency:.2f}s"
