"""The discrete-event simulator behind the Backend protocol.

Zero behaviour change: every method delegates to the existing Section 4
simulation code (:func:`run_distributed`, :func:`run_concurrent_ops`,
:func:`run_pipelined`, :class:`GraphExecutor`) with the knobs unpacked
from the :class:`RunConfig`.  What this module adds is only the adapter
to the unified :class:`BackendRunResult` shape — plus serial evaluation
of real kernels so result totals are comparable with the mp backend.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import RunConfig
from ..distributed import run_distributed
from ..executor import GraphExecutor, run_concurrent_ops, run_pipelined
from ..schedulers import make_policy, run_central
from ..task import ParallelOp, RealOp
from .base import (
    AnyOp,
    BackendRunResult,
    OpOutcome,
    as_parallel_op,
    check_graph_attachment,
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


class SimBackend:
    """Simulated execution (abstract work units, no real parallelism)."""

    name = "sim"

    # -- warm-state protocol (nothing to keep warm here) ---------------------

    def prepare(self, cfg: RunConfig) -> "SimBackend":
        """No resident state: simulation has no startup cost to skip."""
        return self

    def release(self) -> None:
        return None

    # -- single operation ---------------------------------------------------

    def run_op(self, op: AnyOp, cfg: RunConfig) -> BackendRunResult:
        sim_op = as_parallel_op(op, cfg)
        config = cfg.machine_config()
        p = cfg.processors
        if cfg.sim_model == "central":
            result = run_central(
                sim_op.costs,
                p,
                make_policy(cfg.policy, min_chunk=cfg.min_chunk),
                config,
                tracer=cfg.tracer,
                op_label=sim_op.name,
            )
            tasks_moved = 0
        else:
            result = run_distributed(
                sim_op.costs,
                p,
                policy=make_policy(cfg.policy, min_chunk=cfg.min_chunk),
                config=config,
                bytes_per_task=sim_op.bytes_per_task,
                tracer=cfg.tracer,
                op_label=sim_op.name,
            )
            tasks_moved = result.tasks_moved
        value = _op_values(op)
        outcome = OpOutcome(
            name=sim_op.name,
            tasks=sim_op.size,
            chunks=result.chunks,
            work=result.total_work,
            value_total=value,
            finish=result.makespan,
        )
        return BackendRunResult(
            backend=self.name,
            makespan=result.makespan,
            total_work=result.total_work,
            processors=p,
            tasks_total=sim_op.size,
            chunks=result.chunks,
            time_unit="work-units",
            value_total=value,
            per_op={sim_op.name: outcome},
            shares=[p],
        )

    # -- concurrent operations ----------------------------------------------

    def run_ops(
        self, ops: Sequence[AnyOp], cfg: RunConfig
    ) -> BackendRunResult:
        if len(ops) == 1:
            return self.run_op(ops[0], cfg)
        sim_ops = [as_parallel_op(op, cfg) for op in ops]
        result = run_concurrent_ops(
            sim_ops,
            cfg.processors,
            cfg.machine_config(),
            policy=cfg.policy,
            allocator=cfg.allocator,
            tracer=cfg.tracer,
        )
        per_op: Dict[str, OpOutcome] = {}
        aligned = len(result.per_op) == len(sim_ops)
        for index, (op, sim_op) in enumerate(zip(ops, sim_ops)):
            sub = result.per_op[index] if aligned else None
            per_op[sim_op.name] = OpOutcome(
                name=sim_op.name,
                tasks=sim_op.size,
                chunks=sub.chunks if sub is not None else 0,
                work=sim_op.total_work,
                value_total=_op_values(op),
                finish=sub.makespan if sub is not None else result.makespan,
            )
        return BackendRunResult(
            backend=self.name,
            makespan=result.makespan,
            total_work=result.total_work,
            processors=cfg.processors,
            tasks_total=sum(op.size for op in sim_ops),
            chunks=sum(r.chunks for r in result.per_op),
            time_unit="work-units",
            value_total=sum(o.value_total for o in per_op.values()),
            per_op=per_op,
            shares=list(result.shares),
        )

    # -- pipelined loops -----------------------------------------------------

    def run_pipeline(
        self, iterations: Sequence, cfg: RunConfig
    ) -> BackendRunResult:
        result = run_pipelined(
            iterations,
            cfg.processors,
            cfg.machine_config(),
            policy=cfg.policy,
            overlap=True,
            tracer=cfg.tracer,
        )
        tasks = sum(
            it.independent.size + it.dependent.size + it.merge.size
            for it in iterations
        )
        return BackendRunResult(
            backend=self.name,
            makespan=result.makespan,
            total_work=result.total_work,
            processors=cfg.processors,
            tasks_total=tasks,
            chunks=0,
            time_unit="work-units",
            value_total=float(tasks),
        )

    # -- whole graphs --------------------------------------------------------

    def run_graph(
        self,
        graph,
        op_tasks: Dict[int, AnyOp],
        cfg: RunConfig,
        allow_placeholder: bool = False,
    ) -> BackendRunResult:
        check_graph_attachment(graph, op_tasks, allow_placeholder)
        sim_tasks = {
            node_id: as_parallel_op(op, cfg)
            for node_id, op in op_tasks.items()
        }
        executor = GraphExecutor(
            graph,
            sim_tasks,
            p=cfg.processors,
            config=cfg.machine_config(),
            allocator=cfg.allocator,
            tracer=cfg.tracer,
        )
        result = executor.run()
        per_op: Dict[str, OpOutcome] = {}
        for node_id, op in op_tasks.items():
            sim_op = sim_tasks[node_id]
            per_op[sim_op.name] = OpOutcome(
                name=sim_op.name,
                tasks=sim_op.size,
                work=sim_op.total_work,
                value_total=_op_values(op),
                finish=result.op_finish.get(node_id, 0.0),
            )
        return BackendRunResult(
            backend=self.name,
            makespan=result.makespan,
            total_work=result.total_work,
            processors=cfg.processors,
            tasks_total=sum(op.size for op in sim_tasks.values()),
            chunks=0,
            time_unit="work-units",
            value_total=sum(o.value_total for o in per_op.values()),
            per_op=per_op,
        )


register_backend("sim", SimBackend)
