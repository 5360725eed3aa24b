"""Concurrent operations on the simulated machine (Section 4).

Two layers, used by the Section 5 app models, the examples and the
benchmark harness:

* :func:`run_concurrent_ops` — a set of simultaneously-ready parallel
  operations: ration processors with the Eq. 1 balancer, execute each
  share under distributed TAPER, report the combined result.  This is the
  paper's core scenario ("A and B1 executing simultaneously").
* :func:`run_pipelined` — a pipelined loop (A_I / A_D / A_M stages per
  iteration): iteration i's independent stage overlaps iteration i-1's
  dependent work, with the processor split re-balanced each iteration.

A graph of operations on any backend, the simulator's included, is the
one session's (``mp.py``): it re-rations whenever the running set
changes mid-flight, which these fixed-split models do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..obs.events import OP_BEGIN, OP_END, PIPELINE_STAGE, Tracer
from .allocation import allocate_pair, ration
from .distributed import run_distributed
from .estimates import FinishingTimeEstimator, OpProfile
from .machine import MachineConfig, RunResult
from .schedulers import make_policy
from .task import ParallelOp


def profile_of(op: ParallelOp) -> OpProfile:
    """The runtime's sampled view of an operation (its first
    :data:`~repro.runtime.sampling.DEFAULT_SAMPLE` tasks, as the real
    system samples during startup).

    Thin wrapper over :func:`repro.runtime.sampling.profile_from_costs`,
    the shared sampling helper every backend uses.
    """
    from .sampling import profile_from_costs

    return profile_from_costs(
        op.costs,
        tasks=op.size,
        setup_bytes=op.bytes_per_task * op.size,
    )


@dataclass
class ConcurrentRunResult:
    """Outcome of running several operations side by side."""

    makespan: float
    per_op: List[RunResult]
    shares: List[int]

    @property
    def total_work(self) -> float:
        return sum(r.total_work for r in self.per_op)

    @property
    def efficiency(self) -> float:
        p = sum(self.shares)
        if p == 0 or self.makespan == 0:
            return 1.0
        return self.total_work / (p * self.makespan)


def run_concurrent_ops(
    ops: Sequence[ParallelOp],
    p: int,
    config: Optional[MachineConfig] = None,
    policy: str = "taper",
    allocator: str = "balance",
    work_conserving: bool = True,
    tracer: Optional[Tracer] = None,
) -> ConcurrentRunResult:
    """Run concurrent operations, sharing ``p`` processors.

    ``allocator`` chooses the *initial* processor split: ``"balance"``
    (the paper's Eq. 1 equaliser), ``"even"``, or ``"proportional"``.

    With ``work_conserving`` (the paper's behaviour) the allocation seeds
    the data decomposition and the distributed scheduler's chunk
    re-assignment then lets idle processors flow across operation
    boundaries — "the runtime system uses the extra parallelism from the
    more regular loop nest to smooth the load balance of the computation
    as a whole".  Without it each operation is pinned to its share (a
    strictly partitioned baseline for the ablation benches).
    """
    config = config or MachineConfig(processors=p)
    if not ops:
        return ConcurrentRunResult(makespan=0.0, per_op=[], shares=[])
    shares = ration(
        p,
        [FinishingTimeEstimator(profile_of(op), config).finish for op in ops],
        allocator=allocator,
        works=[op.total_work for op in ops],
        tracer=tracer,
        labels=[op.name for op in ops],
    )

    if work_conserving and len(ops) > 1:
        return _run_work_conserving(ops, p, shares, config, policy, tracer)

    results: List[RunResult] = []
    lane_offset = 0
    for op, share in zip(ops, shares):
        share = max(share, 1)
        result = run_distributed(
            op.costs,
            share,
            policy=make_policy(policy),
            config=config,
            bytes_per_task=op.bytes_per_task,
            tracer=tracer,
            op_label=op.name,
            trace_proc_offset=lane_offset,
        )
        if tracer is not None:
            tracer.emit(
                OP_BEGIN, 0.0, op=op.name, share=share, tasks=op.size
            )
            tracer.emit(
                OP_END, result.makespan, op=op.name, share=share
            )
        lane_offset += share
        results.append(result)
    makespan = max(r.makespan for r in results)
    return ConcurrentRunResult(makespan=makespan, per_op=results, shares=shares)


def _run_work_conserving(
    ops: Sequence[ParallelOp],
    p: int,
    shares: Sequence[int],
    config: MachineConfig,
    policy: str,
    tracer: Optional[Tracer] = None,
) -> ConcurrentRunResult:
    """One combined distributed run.

    Every operation's data is block-decomposed over the *whole* machine
    (each array lives on all p processors, owner-computes); the allocation
    decides the initial execution priority — processors in an operation's
    share start on that operation's local tasks, the rest start on their
    other-op tasks — and chunk re-assignment smooths from there.
    """
    from .distributed import block_distribution

    combined: List[float] = []
    queues: List[List[int]] = [[] for _ in range(p)]
    offset = 0
    mean_bytes = sum(op.bytes_per_task * op.size for op in ops) / max(
        sum(op.size for op in ops), 1
    )
    task_labels: Optional[List[Tuple[str, int]]] = (
        [] if tracer is not None else None
    )
    for op in ops:
        local = block_distribution(op.size, p)
        for proc, indices in enumerate(local):
            queues[proc].extend(offset + i for i in indices)
        combined.extend(op.costs)
        offset += op.size
        if task_labels is not None:
            task_labels.extend((op.name, i) for i in range(op.size))
    result = run_distributed(
        combined,
        p,
        policy=make_policy(policy),
        config=config,
        bytes_per_task=mean_bytes,
        initial_queues=queues,
        tracer=tracer,
        op_label="+".join(op.name for op in ops),
        task_labels=task_labels,
    )
    if tracer is not None:
        for op, share in zip(ops, shares):
            tracer.emit(
                OP_BEGIN, 0.0, op=op.name, share=share, tasks=op.size
            )
            tracer.emit(OP_END, result.makespan, op=op.name, share=share)
    return ConcurrentRunResult(
        makespan=result.makespan, per_op=[result], shares=list(shares)
    )


# ---------------------------------------------------------------------------
# Pipelined loops
# ---------------------------------------------------------------------------


@dataclass
class PipelineIteration:
    """Task costs of one iteration's three stages."""

    independent: ParallelOp
    dependent: ParallelOp
    merge: ParallelOp


@dataclass
class PipelineRunResult:
    makespan: float
    total_work: float
    iterations: int
    splits: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def efficiency_on(self) -> Callable[[int], float]:
        return lambda p: self.total_work / (p * self.makespan) if self.makespan else 1.0


def run_pipelined(
    iterations: Sequence[PipelineIteration],
    p: int,
    config: Optional[MachineConfig] = None,
    policy: str = "taper",
    overlap: bool = True,
    tracer: Optional[Tracer] = None,
) -> PipelineRunResult:
    """Execute a pipelined loop.

    With ``overlap`` the runtime overlaps iteration i's A_I with iteration
    i-1's A_D/A_M, splitting processors via the Eq. 1 balancer; without it
    (the non-pipelined baseline) the three stages of each iteration run in
    sequence on all ``p`` processors.
    """
    config = config or MachineConfig(processors=p)
    total_work = sum(
        it.independent.total_work + it.dependent.total_work + it.merge.total_work
        for it in iterations
    )
    if not iterations:
        return PipelineRunResult(makespan=0.0, total_work=0.0, iterations=0)

    def stage_time(op: ParallelOp, share: int) -> float:
        if op.size == 0 or share <= 0:
            return 0.0
        return run_distributed(
            op.costs,
            max(share, 1),
            policy=make_policy(policy),
            config=config,
            bytes_per_task=op.bytes_per_task,
        ).makespan

    def emit_stage(
        start: float, dur: float, stage: str, iteration: int, share: int
    ) -> None:
        if tracer is not None and dur > 0:
            tracer.emit(
                PIPELINE_STAGE,
                start,
                dur=dur,
                op="%s[%d]" % (stage, iteration),
                stage=stage,
                iteration=iteration,
                share=share,
            )

    if not overlap:
        makespan = 0.0
        for index, it in enumerate(iterations):
            for stage_name, op in (
                ("independent", it.independent),
                ("dependent", it.dependent),
                ("merge", it.merge),
            ):
                duration = stage_time(op, p)
                emit_stage(makespan, duration, stage_name, index, p)
                makespan += duration
        return PipelineRunResult(
            makespan=makespan,
            total_work=total_work,
            iterations=len(iterations),
        )

    # Overlapped: in the steady state, iteration i+1's A_I runs alongside
    # iteration i's A_D + A_M.
    splits: List[Tuple[int, int]] = []
    makespan = stage_time(iterations[0].independent, p)  # pipeline fill
    emit_stage(0.0, makespan, "independent", 0, p)
    for index, iteration in enumerate(iterations):
        next_independent = (
            iterations[index + 1].independent
            if index + 1 < len(iterations)
            else None
        )
        dep_work = iteration.dependent.total_work + iteration.merge.total_work
        if next_independent is None or next_independent.size == 0:
            tail_dep = stage_time(iteration.dependent, p)
            emit_stage(makespan, tail_dep, "dependent", index, p)
            tail_merge = stage_time(iteration.merge, p)
            emit_stage(makespan + tail_dep, tail_merge, "merge", index, p)
            makespan += tail_dep + tail_merge
            continue
        estimator_next = FinishingTimeEstimator(
            profile_of(next_independent), config
        )
        dep_profile = OpProfile(
            tasks=iteration.dependent.size + iteration.merge.size,
            mean=(
                dep_work / max(iteration.dependent.size + iteration.merge.size, 1)
            ),
            stddev=iteration.dependent.stddev,
            setup_bytes=0.0,
        )
        estimator_dep = FinishingTimeEstimator(dep_profile, config)
        if tracer is not None:
            tracer.now = makespan
        allocation = allocate_pair(
            p,
            estimator_next.finish,
            estimator_dep.finish,
            tracer=tracer,
            labels=("independent[%d]" % (index + 1), "dependent[%d]" % index),
        )
        splits.append((allocation.p1, allocation.p2))
        t_next = stage_time(next_independent, allocation.p1)
        t_dep = stage_time(iteration.dependent, allocation.p2) + stage_time(
            iteration.merge, allocation.p2
        )
        emit_stage(makespan, t_next, "independent", index + 1, allocation.p1)
        emit_stage(
            makespan, t_dep, "dependent+merge", index, allocation.p2
        )
        makespan += max(t_next, t_dep)
    return PipelineRunResult(
        makespan=makespan,
        total_work=total_work,
        iterations=len(iterations),
        splits=splits,
    )
