"""Cost of the fault-tolerance machinery on fault-free runs.

The recovery layer rides the coordinator's hot path: every loop
iteration clamps its queue timeout to the heartbeat interval, every
message stamps ``last_seen``, and every sweep polls ``is_alive()``.
This benchmark prices that overhead — the same workload runs with the
default heartbeat cadence and with liveness sweeps effectively disabled
(one sweep per watchdog period) — and also records what one injected
worker death costs end to end, for the trajectory file.

Wall-clock and noisy like ``bench_backend_speedup``; the assertion is
deliberately loose, the JSON artifact ``BENCH_fault_overhead.json``
carries the exact numbers.
"""

from __future__ import annotations

import os
import time

from repro.apps.kernels import fig1_ops
from repro.runtime.backends import MultiprocessingBackend
from repro.runtime.config import RunConfig
from repro.runtime.faults import FaultPlan

from conftest import print_table

WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))
REPEATS = 3


def build_ops():
    return fig1_ops(columns=64, elements=2500)


def best_makespan(cfg: RunConfig):
    """Min-of-N wall-clock makespan (spawn cost and noise dominate one
    run; the minimum is the stable estimator)."""
    backend = MultiprocessingBackend()
    best = None
    for _ in range(REPEATS):
        result = backend.run_ops(build_ops(), cfg)
        if best is None or result.makespan < best.makespan:
            best = result
    return best


def test_fault_machinery_overhead_is_negligible_when_fault_free():
    base = RunConfig(processors=WORKERS, backend="mp", mp_timeout=300.0)
    # Default cadence: a liveness sweep every 0.2s of queue idleness.
    guarded = best_makespan(base)
    # Sweeps effectively off: the heartbeat fires at the watchdog
    # horizon, so the coordinator only ever polls liveness on Empty.
    unguarded = best_makespan(base.with_(heartbeat_interval=300.0))
    # One injected death: whoever takes the second dispatch dies, the
    # survivors absorb the reclaimed chunk.  Detection latency is by
    # design one heartbeat period, which would dwarf this sub-second
    # workload at the 0.2s default — sweep at chaos-test cadence and
    # judge the recovery cost net of one detection period.
    chaos_heartbeat = 0.05
    degraded = best_makespan(
        base.with_(
            fault_plan=FaultPlan.kill_worker(-1, at_chunk=1),
            heartbeat_interval=chaos_heartbeat,
        )
    )
    assert degraded.fault_report is not None
    assert len(degraded.fault_report.workers_died) == 1

    overhead = (
        guarded.makespan / unguarded.makespan
        if unguarded.makespan > 0
        else 0.0
    )
    net_recovery = max(degraded.makespan - chaos_heartbeat, 0.0)
    slowdown = (
        net_recovery / guarded.makespan if guarded.makespan > 0 else 0.0
    )
    rows = [
        [
            "heartbeat 0.2s (default)",
            WORKERS,
            guarded.tasks,
            f"{guarded.makespan:.3f}",
            "1.00",
        ],
        [
            "heartbeat off (300s)",
            WORKERS,
            unguarded.tasks,
            f"{unguarded.makespan:.3f}",
            f"{unguarded.makespan / guarded.makespan if guarded.makespan else 0.0:.2f}",
        ],
        [
            "1 worker killed (recovered)",
            WORKERS,
            degraded.tasks,
            f"{degraded.makespan:.3f}",
            f"{slowdown:.2f} (net of detection)",
        ],
    ]
    print_table(
        f"Fault-tolerance overhead ({WORKERS} workers, min of {REPEATS})",
        ["configuration", "workers", "tasks", "makespan_s", "vs_default"],
        rows,
        name="fault_overhead",
    )
    # The heartbeat path must not tax fault-free runs: allow generous
    # noise headroom, but a 1.5x regression would mean the sweeps are
    # on the critical path.
    assert overhead <= 1.5, (
        f"fault-free overhead {overhead:.2f}x vs disabled heartbeats"
    )
    # Losing 1 of 2 workers at the second chunk roughly serializes the
    # run (~2x) plus the re-run of the reclaimed chunk; 4x leaves room
    # for spawn noise on a loaded box.
    assert slowdown <= 4.0, (
        f"recovery slowdown {slowdown:.2f}x (net of one detection "
        f"period) after one worker death"
    )
