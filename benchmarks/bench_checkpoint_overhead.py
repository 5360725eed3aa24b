"""Price of the chunk journal on fault-free runs.

Checkpointing rides the coordinator's report path: every completed
chunk is CRC-stamped, appended, flushed, and fsynced where the
durability contract (``repro.runtime.checkpoint``) asks.  This benchmark runs the same
workload with the journal off and on at the default interval, and once
more at a relaxed interval, so the trajectory file records what
durability costs — the ISSUE budget is < 10% at the default interval.

Wall-clock and noisy like ``bench_backend_speedup``; min-of-N is the
estimator and the JSON artifact ``BENCH_checkpoint_overhead.json``
carries the exact numbers.
"""

from __future__ import annotations

import os
import shutil
import tempfile

from repro.apps.kernels import fig1_ops
from repro.runtime.backends import MultiprocessingBackend
from repro.runtime.checkpoint import read_journal
from repro.runtime.config import RunConfig

from conftest import print_table

WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))
REPEATS = 3


def build_ops():
    return fig1_ops(columns=64, elements=2500)


def best_makespan(cfg: RunConfig, checkpoint: bool, interval: int = 1):
    """Min-of-N wall-clock makespan; a fresh journal directory per run
    so every repetition pays the full append+fsync sequence."""
    backend = MultiprocessingBackend()
    best = None
    journaled_tasks = 0
    for _ in range(REPEATS):
        directory = tempfile.mkdtemp(prefix="bench-ckpt-") if checkpoint else None
        try:
            run_cfg = cfg.with_(
                checkpoint_dir=directory, checkpoint_interval=interval
            )
            result = backend.run_ops(build_ops(), run_cfg)
            if checkpoint:
                journaled_tasks = read_journal(directory).tasks_restored
            if best is None or result.makespan < best.makespan:
                best = result
        finally:
            if directory is not None:
                shutil.rmtree(directory, ignore_errors=True)
    return best, journaled_tasks


def test_checkpoint_overhead_is_under_budget():
    base = RunConfig(processors=WORKERS, backend="mp", mp_timeout=300.0)
    plain, _ = best_makespan(base, checkpoint=False)
    synced, synced_tasks = best_makespan(base, checkpoint=True, interval=1)
    relaxed, relaxed_tasks = best_makespan(base, checkpoint=True, interval=8)

    assert synced_tasks == plain.tasks_total, (
        "journal must cover every completed task"
    )

    def ratio(result):
        return result.makespan / plain.makespan if plain.makespan else 0.0

    rows = [
        [
            "journal off",
            WORKERS,
            plain.tasks_total,
            f"{plain.makespan:.3f}",
            "1.00",
        ],
        [
            "journal on, checkpoint_interval=1",
            WORKERS,
            synced_tasks,
            f"{synced.makespan:.3f}",
            f"{ratio(synced):.2f}",
        ],
        [
            "journal on, checkpoint_interval=8",
            WORKERS,
            relaxed_tasks,
            f"{relaxed.makespan:.3f}",
            f"{ratio(relaxed):.2f}",
        ],
    ]
    print_table(
        f"Checkpoint overhead ({WORKERS} workers, min of {REPEATS})",
        ["configuration", "workers", "tasks", "makespan_s", "vs_off"],
        rows,
        name="checkpoint_overhead",
    )
    # The durability budget from the issue: journalling a fault-free
    # run at the default interval costs under 10%.
    assert ratio(synced) < 1.10, (
        f"checkpoint overhead {ratio(synced):.2f}x vs journal off"
    )
