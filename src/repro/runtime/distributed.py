"""The distributed TAPER algorithm (Section 4.1.1).

"In the distributed TAPER algorithm the p processors are logically
connected as a binary tree with p leaves. ...  All processors start in
epoch 0.  When a processor begins executing a chunk it sends its current
epoch value (called a token) to its parent ...  When the root receives p
tokens from the same epoch, it increments the global epoch value and
broadcasts a message through the tree ...  Processors compete for the p
chunks of each epoch.  If processor a can get two tokens of value i to the
root before processor b can send one token of value i, then the root will
re-assign processor b's chunk ... to processor a. ...  If most of the
actual task cost is on a few processors, this scheme will degenerate into
the centralized TAPER algorithm.  If task costs are independent then we
expect most tasks to remain on the processor owning them."

The simulation is event-driven: tasks start block-distributed by the
owner-computes rule; a processor that exhausts its local queue competes
for (steals) the next chunk of the most loaded processor, paying the data
transfer; every chunk acquisition carries an amortised share of the
epoch's tree round (p tokens + one broadcast per epoch).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..obs.events import (
    CHUNK_ACQUIRE,
    CHUNK_COMPLETE,
    CHUNK_REASSIGN,
    EPOCH_ADVANCE,
    TASK_DISPATCH,
    TOKEN_ROUND,
    Tracer,
)
from .cost_model import CostFunction
from .machine import MachineConfig, RunResult
from .schedulers import ChunkPolicy
from .taper import TaperPolicy


@dataclass
class DistributedRunResult(RunResult):
    """Adds locality accounting to the basic result."""

    tasks_total: int = 0
    #: Per-processor finish times (diagnostics; None when p is huge).
    finish_times: Optional[List[float]] = None

    @property
    def locality(self) -> float:
        """Fraction of tasks executed by their owning processor."""
        if self.tasks_total == 0:
            return 1.0
        return 1.0 - self.tasks_moved / self.tasks_total


def block_distribution(n: int, p: int) -> List[List[int]]:
    """Owner-computes initial decomposition: contiguous blocks."""
    queues: List[List[int]] = [[] for _ in range(p)]
    base = n // p
    extra = n % p
    position = 0
    for proc in range(p):
        count = base + (1 if proc < extra else 0)
        queues[proc] = list(range(position, position + count))
        position += count
    return queues


def run_distributed(
    costs: Sequence[float],
    p: int,
    policy: Optional[ChunkPolicy] = None,
    config: Optional[MachineConfig] = None,
    bytes_per_task: float = 256.0,
    initial_queues: Optional[List[List[int]]] = None,
    cost_guided: bool = True,
    tracer: Optional[Tracer] = None,
    op_label: str = "op",
    task_labels: Optional[Sequence[Tuple[str, int]]] = None,
    trace_proc_offset: int = 0,
) -> DistributedRunResult:
    """Simulate one parallel operation under distributed TAPER.

    ``initial_queues`` overrides the owner-computes block distribution —
    used by the orchestrator to seed the processor-allocation decision
    (e.g. tasks of two concurrent operations placed on disjoint processor
    groups, with stealing then smoothing the boundary).

    ``cost_guided`` enables the cost-function-driven decisions (run the
    predicted-expensive tasks first, pick victims by predicted remaining
    *work*, re-assign the predicted-expensive tail).  With it off, the
    scheduler is blind: FIFO local order, victims by task count, tail
    steals — the ablation baseline for "TAPER *with cost functions*".

    ``tracer`` records the full scheduling event stream (``repro.obs``);
    tracing is observational only and never changes the simulated result.
    ``op_label`` names the operation in emitted events; ``task_labels``
    optionally names each task index ``(op label, index within that
    op)``, for the work-conserving combined runs; and
    ``trace_proc_offset`` shifts the emitted processor ids so concurrent
    runs on disjoint processor groups get disjoint timeline lanes.
    """
    config = config or MachineConfig(processors=p)
    policy = policy or TaperPolicy()
    n = len(costs)
    if n == 0:
        return DistributedRunResult(
            makespan=0.0, total_work=0.0, processors=p, chunks=0, tasks_total=0
        )
    if initial_queues is not None:
        if len(initial_queues) != p:
            raise ValueError("initial_queues must have one queue per processor")
        queues = [list(q) for q in initial_queues]
    else:
        queues = block_distribution(n, p)
    # Estimated remaining work per processor, maintained incrementally.
    # The real runtime estimates this through its cost function (task cost
    # as a function of iteration number — accurate because irregularity is
    # spatially clustered); the simulation uses the true costs directly.
    work_left = [sum(costs[i] for i in q) for q in queues]
    # Cost-function-guided local ordering: run the tasks predicted most
    # expensive first (LPT), so stragglers start early rather than being
    # discovered at the end of the operation.
    if cost_guided:
        for queue in queues:
            queue.sort(key=lambda i: -costs[i])
    remaining_per_proc = [len(q) for q in queues]
    total_remaining = n
    cost_function = CostFunction(bucket_size=max(1, n // 16))
    # Amortised tree cost per chunk acquisition: one epoch = p tokens +
    # broadcast, i.e. one tree round per p chunks.
    epoch_share = config.tree_round_time(p) / max(p, 1)

    trace = tracer is not None
    if trace and hasattr(policy, "tracer"):
        policy.tracer = tracer
    # Per-processor open-chunk bookkeeping (tracing only).
    chunk_start = [0.0] * p if trace else None
    chunk_tasks = [0] * p if trace else None

    heap: List[tuple] = [(0.0, proc) for proc in range(p)]
    heapq.heapify(heap)
    finish = [0.0] * p
    # Tasks left in the processor's current chunk claim.  A claim is a
    # *promise* over the local queue, not an atomic grab: when another
    # processor out-races this one to the root, the tail of the claim is
    # re-assigned ("processor b is forced to re-interpret the chunk it is
    # currently executing as ... containing fewer tasks") — modelled by
    # thieves taking the unexecuted remainder straight from the queue.
    claim = [0] * p
    chunks = 0
    tasks_moved = 0
    comm_time = 0.0

    while total_remaining > 0:
        clock, proc = heapq.heappop(heap)
        overhead = 0.0
        if claim[proc] <= 0 or remaining_per_proc[proc] == 0:
            # Acquire a new chunk (one scheduling event).  Processors
            # compete for the epoch's chunks: a processor that is ahead of
            # the most loaded one takes the re-assigned tail of that
            # processor's work, not just when it is fully idle — this is
            # the root's continuous chunk re-assignment.
            if trace:
                tracer.now = clock
            size = policy.next_chunk(total_remaining, p, cost_function)
            size = max(1, min(size, total_remaining))
            if cost_guided:
                victim = max(range(p), key=lambda q: work_left[q])
            else:
                victim = max(range(p), key=lambda q: remaining_per_proc[q])
            mean_chunk_work = cost_function.stats.mean * size or size
            should_steal = remaining_per_proc[proc] == 0 or (
                cost_guided
                and victim != proc
                and work_left[victim]
                > 1.5 * work_left[proc] + mean_chunk_work
            )
            if should_steal and remaining_per_proc[victim] > 0:
                if remaining_per_proc[proc] == 0:
                    # Fully idle: take at least half the backlog.
                    size = max(size, remaining_per_proc[victim] // 2)
                else:
                    # Rebalancing steal: close half the work gap.
                    target = (work_left[victim] - work_left[proc]) / 2.0
                    accumulated = 0.0
                    count = 0
                    for task_index in sorted(
                        queues[victim], key=lambda i: -costs[i]
                    ):
                        if accumulated >= target or count >= size * 4:
                            break
                        accumulated += costs[task_index]
                        count += 1
                    size = max(size, count)
                size = min(size, remaining_per_proc[victim])
                # Cost-function-guided re-assignment: take the tasks
                # predicted most expensive.  (A task being *executed* has
                # already been popped, so everything queued is movable —
                # the paper's claim re-interpretation.)  Blind mode takes
                # the queue tail.
                if cost_guided:
                    by_cost = sorted(queues[victim], key=lambda i: -costs[i])
                    stolen = by_cost[:size]
                else:
                    stolen = queues[victim][-size:]
                stolen_set = set(stolen)
                queues[victim] = [
                    i for i in queues[victim] if i not in stolen_set
                ]
                remaining_per_proc[victim] -= size
                stolen_work = sum(costs[i] for i in stolen)
                work_left[victim] -= stolen_work
                queues[proc].extend(stolen)
                # Keep the local LPT order so a re-assigned expensive task
                # runs immediately instead of bouncing between thieves.
                if cost_guided:
                    queues[proc].sort(key=lambda i: -costs[i])
                remaining_per_proc[proc] += size
                work_left[proc] += stolen_work
                claim[victim] = min(claim[victim], remaining_per_proc[victim])
                if trace:
                    tracer.emit(
                        CHUNK_REASSIGN,
                        clock,
                        proc=proc + trace_proc_offset,
                        op=op_label,
                        victim=victim + trace_proc_offset,
                        tasks=size,
                        bytes=size * bytes_per_task,
                    )
                    transfer = config.transfer(
                        size * bytes_per_task,
                        tracer,
                        time=clock,
                        src=victim + trace_proc_offset,
                        dst=proc + trace_proc_offset,
                        op=op_label,
                        tasks=size,
                    )
                else:
                    transfer = config.transfer_time(size * bytes_per_task)
                overhead += transfer
                comm_time += transfer
                tasks_moved += size
            elif remaining_per_proc[proc] == 0:
                break  # racing pops; nothing left anywhere
            claim[proc] = min(max(size, 1), remaining_per_proc[proc])
            overhead += config.sched_overhead + epoch_share
            if trace:
                if chunk_tasks[proc]:
                    tracer.emit(
                        CHUNK_COMPLETE,
                        chunk_start[proc],
                        dur=clock - chunk_start[proc],
                        proc=proc + trace_proc_offset,
                        op=op_label,
                        tasks=chunk_tasks[proc],
                    )
                chunk_start[proc] = clock
                chunk_tasks[proc] = 0
                # One epoch = p chunks; a new epoch costs one tree round.
                if chunks % p == 0:
                    epoch = chunks // p
                    tracer.emit(
                        EPOCH_ADVANCE, clock, op=op_label, epoch=epoch
                    )
                    tracer.emit(
                        TOKEN_ROUND,
                        clock,
                        dur=config.tree_round_time(p),
                        op=op_label,
                        epoch=epoch,
                    )
                tracer.emit(
                    CHUNK_ACQUIRE,
                    clock,
                    dur=config.sched_overhead + epoch_share,
                    proc=proc + trace_proc_offset,
                    op=op_label,
                    size=claim[proc],
                    remaining=total_remaining,
                    epoch=chunks // p,
                )
            chunks += 1
        # Execute one task of the current claim; re-enter the event loop
        # so faster processors can re-assign the claim's tail.
        index = queues[proc].pop(0)
        remaining_per_proc[proc] -= 1
        total_remaining -= 1
        claim[proc] -= 1
        cost = costs[index]
        work_left[proc] -= cost
        cost_function.observe(index, cost)
        clock += overhead + cost + config.task_overhead
        if trace:
            label, task = (
                task_labels[index] if task_labels else (op_label, index)
            )
            tracer.emit(
                TASK_DISPATCH,
                clock - cost - config.task_overhead,
                dur=cost,
                proc=proc + trace_proc_offset,
                op=label,
                task=task,
                overhead=config.task_overhead,
            )
            chunk_tasks[proc] += 1
        finish[proc] = clock
        heapq.heappush(heap, (clock, proc))

    if trace:
        for proc in range(p):
            if chunk_tasks[proc]:
                tracer.emit(
                    CHUNK_COMPLETE,
                    chunk_start[proc],
                    dur=finish[proc] - chunk_start[proc],
                    proc=proc + trace_proc_offset,
                    op=op_label,
                    tasks=chunk_tasks[proc],
                )

    return DistributedRunResult(
        makespan=max(finish),
        total_work=float(sum(costs)),
        processors=p,
        chunks=chunks,
        tasks_moved=tasks_moved,
        comm_time=comm_time,
        tasks_total=n,
        finish_times=list(finish),
    )
