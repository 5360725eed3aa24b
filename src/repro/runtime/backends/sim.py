"""The discrete-event simulator behind the Backend protocol.

``run_ops`` lays the operations out in dependency waves: every wave is
the set of ops whose prerequisites have all finished, run side by side
by the Section 4 simulation code (:func:`run_concurrent_ops`: Eq. 1
ration + distributed TAPER; a wave of one op is :func:`run_distributed`),
and the next wave starts when the slowest op of this one ends.  Real
kernels are evaluated serially so result totals are comparable with the
mp backend.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ...obs.events import RUN_END
from ..config import RunConfig
from ..distributed import run_distributed
from ..executor import run_concurrent_ops
from ..schedulers import make_policy
from ..task import ParallelOp, RealOp
from .base import (
    AnyOp,
    BackendRunResult,
    OpOutcome,
    as_parallel_op,
    name_deps,
    register_backend,
)


def _op_values(op: AnyOp) -> float:
    """Ground-truth kernel value total for one operation.

    Real kernels are evaluated serially (they are deterministic pure
    functions of their payloads); simulated ops count 1.0 per task — the
    same convention as the mp backend's spin kernel.
    """
    if isinstance(op, RealOp):
        return sum(float(op.kernel(payload)) for payload in op.payloads)
    return float(op.size)


def _waves(deps: Sequence[Set[int]]) -> Iterator[List[int]]:
    """Op indices level by level: wave k holds the ops whose
    prerequisites all lie in earlier waves."""
    done: Set[int] = set()
    pending = list(range(len(deps)))
    while pending:
        wave = [index for index in pending if set(deps[index]) <= done]
        if not wave:
            raise ValueError(
                "dependency cycle among operations "
                f"{sorted(pending)}: none of them can start"
            )
        yield wave
        done.update(wave)
        pending = [index for index in pending if index not in done]


class SimBackend:
    """Simulated execution (abstract work units, no real parallelism)."""

    name = "sim"

    def prepare(self, cfg: RunConfig) -> "SimBackend":
        """No resident state: simulation has no startup cost to skip."""
        return self

    def release(self) -> None:
        return None

    def run_op(self, op: AnyOp, cfg: RunConfig) -> BackendRunResult:
        return self.run_ops([op], cfg)

    def run_ops(
        self,
        ops: Sequence[AnyOp],
        cfg: RunConfig,
        deps: Optional[Sequence[Set[int]]] = None,
    ) -> BackendRunResult:
        sim_ops = [as_parallel_op(op, cfg) for op in ops]
        if deps is None:
            deps = name_deps(ops)
        tracer = cfg.tracer
        origin = tracer.origin if tracer is not None else 0.0
        per_op: Dict[str, OpOutcome] = {}
        clock = 0.0
        chunks = 0
        for wave in _waves(deps):
            live = [sim_ops[index] for index in wave if sim_ops[index].size]
            span = wave_chunks = 0
            if live:
                if tracer is not None:
                    tracer.origin = origin + clock
                span, wave_chunks = self._wave(live, cfg)
                chunks += wave_chunks
            for index in wave:
                op = sim_ops[index]
                per_op[op.name] = OpOutcome(
                    name=op.name,
                    tasks=op.size,
                    # Several ops at once are one combined work-conserving
                    # run, whose chunks belong to no single op.
                    chunks=wave_chunks if len(live) == 1 and op.size else 0,
                    work=op.total_work,
                    value_total=_op_values(ops[index]),
                    finish=clock + span if op.size else clock,
                )
            clock += span
        tasks = sum(op.size for op in sim_ops)
        if tracer is not None:
            # Events sit after the origin the caller handed us, like
            # every other run's; laying runs end to end is the caller's.
            tracer.origin = origin
            tracer.emit(RUN_END, clock, tasks=tasks)
        return BackendRunResult(
            backend=self.name,
            makespan=clock,
            total_work=sum(op.total_work for op in sim_ops),
            processors=cfg.processors,
            tasks=tasks,
            chunks=chunks,
            time_unit="work-units",
            value_total=sum(o.value_total for o in per_op.values()),
            per_op=per_op,
        )

    def _wave(
        self, ops: Sequence[ParallelOp], cfg: RunConfig
    ) -> Tuple[float, int]:
        """Simultaneously-ready ``ops`` on the whole machine: the wave's
        makespan and chunk count."""
        config = cfg.machine_config()
        if len(ops) > 1:
            result = run_concurrent_ops(
                ops,
                cfg.processors,
                config,
                policy=cfg.policy,
                allocator=cfg.allocator,
                tracer=cfg.tracer,
            )
            return result.makespan, sum(r.chunks for r in result.per_op)
        (op,) = ops
        policy = make_policy(cfg.policy, min_chunk=cfg.min_chunk)
        result = run_distributed(
            op.costs,
            cfg.processors,
            policy=policy,
            config=config,
            bytes_per_task=op.bytes_per_task,
            tracer=cfg.tracer,
            op_label=op.name,
        )
        return result.makespan, result.chunks


register_backend("sim", SimBackend)
