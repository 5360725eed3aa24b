"""repro.api — the single documented entry point.

Three verbs cover the whole toolchain::

    import repro.api as api

    program = api.compile(open("examples/fig1.f").read())
    result = api.run(program, api.RunConfig(processors=8))
    result, report = api.trace("psirrfan", api.RunConfig(processors=64))

* :func:`compile` — MiniF source to a :class:`CompiledProgram` (split,
  pipelining, Delirium graph);
* :func:`run` — execute a compiled program, a named workload, or
  explicit operations on the backend named by the :class:`RunConfig`
  (``"sim"`` — the discrete-event simulator; ``"mp"`` — real
  ``multiprocessing`` workers);
* :func:`trace` — :func:`run` with a Tracer attached, returning a
  :class:`TraceReport` that exports Chrome traces / metrics JSON.

Examples, ``python -m repro``, and the benchmark harness all route
through these instead of importing ``run_concurrent_ops`` /
``run_pipelined`` / ``GraphExecutor`` / ``run_distributed`` directly
(those live only in their home submodules now — ``repro.runtime``
no longer re-exports them).

Accepted ``run`` targets:

* a :class:`CompiledProgram` — graph execution with real kernels
  attached per operator (:func:`repro.apps.kernels.graph_real_ops`);
* a path to a ``.f`` source file — compiled (once per distinct text:
  the file is read each time, its program is kept), then as above;
* a name in :data:`repro.apps.kernels.REAL_WORKLOADS` (``fig1``,
  ``reduction``, ``psirrfan``) — real-kernel operations;
* a name in :data:`repro.apps.ALL_WORKLOADS` — the Section 5 synthetic
  workloads (``mode``/``steps`` via keyword overrides);
* a name in :data:`repro.apps.streams.STREAM_WORKLOADS` (``stream``) —
  streaming ingestion on the mp backend, with pages admitted under the
  bounded in-flight window (``stream_records``/``records_per_task``/
  ``page_records`` via keyword overrides); pass ``stream=True`` to read
  a JSON-lines file path as a paged record stream instead of compiling
  it (``page_tasks`` sets the page size);
* a :class:`ParallelOp` / :class:`RealOp` / :class:`StreamOp` or a
  sequence of them.
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .compiler import CompiledProgram, compile_source
from .obs import (
    MetricsReport,
    Tracer,
    aggregate,
    metrics_summary,
    render_timeline,
    write_chrome_trace,
    write_metrics_json,
)
from .runtime.backends import BackendRunResult, backend_for
from .runtime.backends.base import (
    graph_ops_and_deps,
    name_deps,
    prepare_backend,
    release_backend,
)
from .runtime.checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
    load_manifest,
)
from .runtime.config import RunConfig
from .runtime.faults import FaultPlan, FaultReport
from .runtime.kernel import Kernel, as_kernel
from .runtime.task import (
    PageResult,
    ParallelOp,
    RealOp,
    StreamOp,
    StreamPage,
)

__all__ = [
    "CheckpointError",
    "CheckpointMismatchError",
    "FaultPlan",
    "FaultReport",
    "Kernel",
    "PageResult",
    "StreamOp",
    "StreamPage",
    "as_kernel",
    "RunConfig",
    "RunResult",
    "TraceReport",
    "compile",
    "prepared",
    "resolve_ops",
    "resume",
    "resume_config",
    "run",
    "trace",
]

RunTarget = Union[
    str,
    CompiledProgram,
    ParallelOp,
    RealOp,
    Sequence[Union[ParallelOp, RealOp]],
]


def compile(  # noqa: A001 - the facade verb is worth the shadow
    source: str,
    apply_splits: bool = True,
    apply_pipelining: bool = True,
) -> CompiledProgram:
    """Compile one MiniF program unit end to end.

    Multi-unit sources compile fine; the first unit's program is
    returned (use :func:`repro.compiler.compile_source` directly for all
    of them).
    """
    programs = compile_source(
        source,
        apply_splits=apply_splits,
        apply_pipelining=apply_pipelining,
    )
    if not programs:
        raise ValueError("source contains no program units")
    return programs[0]


@functools.lru_cache(maxsize=16)
def _compiled_text(
    source: str, apply_splits: bool = True, apply_pipelining: bool = True
) -> CompiledProgram:
    """:func:`compile`, once per distinct source text (and flags).

    The split is a compile-time transformation; a daemon that is handed
    the same source at every submit should pay for it once.  The program
    returned is shared between callers and must be treated as read-only:
    :func:`_attach_kernels`, ``graph_ops_and_deps`` and every backend's
    ``run_graph`` only read the graph.  :func:`compile` itself stays
    uncached because its callers own (and may mutate) what it returns.
    Concurrent first sights of one source may each compile it.
    """
    return compile(source, apply_splits, apply_pipelining)


def _compiled_file(path: str) -> CompiledProgram:
    """The program of the source file at ``path``.  The file is read on
    every call and the text is the cache key, so an edited file is a new
    program and no entry is ever stale."""
    with open(path) as handle:
        return _compiled_text(handle.read())


@dataclass
class RunResult:
    """What :func:`run` reports, whatever the target or backend."""

    backend: str
    target: str
    makespan: float
    total_work: float
    processors: int
    tasks: int
    chunks: int
    time_unit: str
    value_total: float
    speedup: float
    efficiency: float
    per_op: Dict[str, object] = field(default_factory=dict)
    #: Fault-recovery account of the run (mp backend; ``None`` on sim).
    fault_report: Optional[FaultReport] = None
    #: The run stopped early but cleanly (Ctrl-C / wall-clock limit);
    #: the totals above cover the completed prefix.
    cancelled: bool = False
    cancel_reason: str = ""
    #: Checkpoint directory this run can be resumed from (``None`` when
    #: checkpointing was off).
    resume_dir: Optional[str] = None
    #: Tasks restored from a replayed journal rather than executed.
    tasks_resumed: int = 0
    #: Per-op payload plane actually used (mp backend): op label ->
    #: ``"shm"`` or ``"pickle"``.  Empty on the simulator.
    data_plane: Dict[str, str] = field(default_factory=dict)
    #: Estimated payload bytes serialized at worker startup.
    bytes_shipped: int = 0
    #: Shared-memory bytes mapped (0 when the shm plane was unused).
    shm_bytes: int = 0
    #: Payload bytes served from a warm pool's segment cache instead of
    #: being laid out again (0 on cold runs).
    shm_reused_bytes: int = 0
    #: Per-stream-op ingestion summary (mp backend, :class:`StreamOp`
    #: targets only): op label -> dict with ``pages``, ``tasks``,
    #: ``backpressure_events``, ``plane``, ``page_latency_p50``,
    #: ``page_latency_p99``.  Empty when the run had no streams.
    stream: Dict[str, dict] = field(default_factory=dict)
    #: Chunks executed as one vectorized ``Kernel.batch_fn`` call, and
    #: the fresh task results they delivered (mp backend with
    #: ``RunConfig.batching`` enabled; 0 elsewhere).
    batched_chunks: int = 0
    batched_tasks: int = 0

    def summary(self) -> str:
        """One human-readable block: headline totals plus a line per
        engaged subsystem (resume, data plane, streams, batching,
        cancellation, faults) — what ``python -m repro run`` prints."""
        unit = "s" if self.time_unit == "seconds" else " work units"
        text = (
            f"{self.target}: backend={self.backend} p={self.processors} "
            f"tasks={self.tasks} chunks={self.chunks} "
            f"makespan={self.makespan:.4g}{unit} "
            f"speedup={self.speedup:.2f}x eff={self.efficiency:.2f} "
            f"value_total={self.value_total:.0f}"
        )
        if self.tasks_resumed:
            text += (
                f"\nresumed: {self.tasks_resumed} tasks restored from "
                "the journal (not re-executed)"
            )
        shm_ops = sum(
            1 for plane in self.data_plane.values() if plane == "shm"
        )
        if shm_ops:
            text += (
                f"\ndata plane: {shm_ops}/{len(self.data_plane)} ops in "
                f"shared memory ({self.shm_bytes} bytes mapped, "
                f"~{self.bytes_shipped} payload bytes shipped)"
            )
            if self.shm_reused_bytes:
                text += (
                    f"\nwarm pool: {self.shm_reused_bytes} payload bytes "
                    "reused from the segment cache"
                )
        for label, info in sorted(self.stream.items()):
            rate = (
                info["tasks"] / self.makespan if self.makespan > 0 else 0.0
            )
            text += (
                f"\nstream {label}: {info['pages']} pages, "
                f"{info['tasks']} tasks ({rate:.0f} tasks/s sustained), "
                f"plane={info['plane']}, "
                f"p99 page latency {info['page_latency_p99']:.3f}s, "
                f"backpressure events={info['backpressure_events']}"
            )
        if self.batched_chunks:
            per_call = self.batched_tasks / self.batched_chunks
            text += (
                f"\nbatched: {self.batched_chunks} chunks in one "
                f"vectorized call each ({self.batched_tasks} tasks, "
                f"~{per_call:.1f} tasks/call)"
            )
        if self.cancelled:
            text += f"\ncancelled: {self.cancel_reason}"
            if self.resume_dir:
                text += (
                    f"; resume with `python -m repro run --backend "
                    f"{self.backend} --resume {self.resume_dir}`"
                )
        if self.fault_report is not None and self.fault_report.any_fault:
            text += f"\nfaults: {self.fault_report.summary()}"
        return text


@dataclass
class TraceReport:
    """The observability side of a traced run."""

    tracer: Tracer
    processors: int
    metrics: MetricsReport
    #: ``"work-units"`` (sim clock) or ``"seconds"`` (mp wall clock).
    time_unit: str = "work-units"

    @property
    def events(self):
        """The traced event stream (chronological after :func:`trace`)."""
        return self.tracer.events

    def write_chrome_trace(self, path: str) -> str:
        """Export the event stream as Chrome ``trace_event`` JSON (load
        in ``chrome://tracing`` or https://ui.perfetto.dev); returns
        ``path``."""
        # Map one wall-clock second to one viewer second; one simulated
        # work unit to one viewer millisecond (the sim default).
        seconds = self.time_unit == "seconds"
        write_chrome_trace(
            self.events,
            path,
            processors=self.processors,
            time_scale=1e6 if seconds else 1000.0,
            time_unit="seconds" if seconds else "work units",
        )
        return path

    def write_metrics(self, path: str) -> str:
        """Write the aggregated :class:`MetricsReport` as JSON; returns
        ``path``."""
        write_metrics_json(self.metrics, path)
        return path

    def summary(self) -> str:
        """The metrics report rendered as text: per-processor
        utilization, overhead breakdown, load imbalance."""
        unit = "seconds" if self.time_unit == "seconds" else "work units"
        return metrics_summary(self.metrics, time_unit=unit)

    def timeline(self, width: int = 72) -> str:
        """An ASCII per-processor timeline of the traced run."""
        return render_timeline(
            self.events, processors=self.processors, width=width
        )


def _from_backend(
    raw: BackendRunResult, target: str
) -> RunResult:
    return RunResult(
        backend=raw.backend,
        target=target,
        makespan=raw.makespan,
        total_work=raw.total_work,
        processors=raw.processors,
        tasks=raw.tasks_total,
        chunks=raw.chunks,
        time_unit=raw.time_unit,
        value_total=raw.value_total,
        speedup=raw.speedup,
        efficiency=raw.efficiency,
        per_op=dict(raw.per_op),
        fault_report=raw.fault_report,
        cancelled=raw.cancelled,
        cancel_reason=raw.cancel_reason,
        resume_dir=raw.resume_dir,
        tasks_resumed=raw.tasks_resumed,
        data_plane=dict(raw.data_plane),
        bytes_shipped=raw.bytes_shipped,
        shm_bytes=raw.shm_bytes,
        shm_reused_bytes=raw.shm_reused_bytes,
        stream={
            label: dict(info)
            for label, info in getattr(raw, "stream", {}).items()
        },
        batched_chunks=raw.batched_chunks,
        batched_tasks=raw.batched_tasks,
    )


def _run_app_workload(
    name: str,
    cfg: RunConfig,
    overrides: dict,
    executor=None,
) -> RunResult:
    """A Section 5 synthetic workload (sim modes, or spun-up on mp)."""
    from .apps import ALL_WORKLOADS

    if cfg.checkpoint_dir:
        raise ValueError(
            f"workload {name!r} executes as many independent backend "
            "sessions; the chunk journal covers exactly one session — "
            "checkpoint a real-kernel workload (fig1, reduction, "
            "psirrfan), explicit operations, or a compiled program"
        )
    mode = overrides.pop("mode", "split")
    steps = overrides.pop("steps", 2)
    workload = ALL_WORKLOADS[name](steps=steps)
    if cfg.backend == "sim":
        raw = workload.run(
            cfg.processors, mode, cfg.machine_config(), tracer=cfg.tracer
        )
        return RunResult(
            backend="sim",
            target=f"{name} ({mode})",
            makespan=raw.makespan,
            total_work=raw.total_work,
            processors=cfg.processors,
            tasks=0,
            chunks=0,
            time_unit="work-units",
            value_total=0.0,
            speedup=raw.speedup,
            efficiency=raw.efficiency,
        )
    # mp: execute each step's concurrent groups as real spin work, laying
    # the steps end to end on the shared tracer timeline.
    import random as random_module

    backend = executor if executor is not None else backend_for(cfg)
    rng = random_module.Random(workload.seed)
    makespan = 0.0
    total_work = 0.0
    tasks = chunks = 0
    value_total = 0.0
    per_op: Dict[str, object] = {}
    fault_report = FaultReport()
    for step in range(workload.steps):
        phases = workload.phases_for_step(rng, step, mode)
        groups: Dict[int, List[ParallelOp]] = {}
        order: List[int] = []
        for phase in phases:
            if phase.op.size == 0:
                continue
            if phase.concurrent_group not in groups:
                groups[phase.concurrent_group] = []
                order.append(phase.concurrent_group)
            groups[phase.concurrent_group].append(phase.op)
        for group_id in order:
            raw = backend.run_ops(groups[group_id], cfg)
            makespan += raw.makespan
            total_work += raw.total_work
            tasks += raw.tasks_total
            chunks += raw.chunks
            value_total += raw.value_total
            per_op.update(raw.per_op)
            if raw.fault_report is not None:
                fault_report.merge(raw.fault_report)
            if cfg.tracer is not None:
                cfg.tracer.advance(raw.makespan)
    return RunResult(
        backend=cfg.backend,
        target=f"{name} ({mode})",
        makespan=makespan,
        total_work=total_work,
        processors=cfg.processors,
        tasks=tasks,
        chunks=chunks,
        time_unit="seconds",
        value_total=value_total,
        speedup=total_work / makespan if makespan > 0 else 0.0,
        efficiency=(
            total_work / (makespan * cfg.processors) if makespan > 0 else 0.0
        ),
        per_op=per_op,
        fault_report=fault_report,
    )


def run(
    target: RunTarget,
    config: Optional[RunConfig] = None,
    executor=None,
    **overrides,
) -> RunResult:
    """Execute ``target`` under ``config`` (see module docstring for the
    accepted targets).

    Keyword ``overrides`` are applied to the config
    (``run(x, processors=4, backend="mp")``); workload targets also
    accept ``mode=``/``steps=``, graph targets ``tasks=``/``elements=``,
    and streaming targets ``stream=``/``stream_records=``/
    ``records_per_task=``/``page_records=``/``page_tasks=``.

    ``executor`` optionally supplies a backend *instance* instead of the
    fresh one ``cfg.backend`` would name — the warm-pool hook: a
    :func:`prepared` backend passed here reuses its resident worker pool
    across calls.  Direct callers can keep ignoring it.
    """
    cfg = config or RunConfig()
    # Target-specific overrides are popped before RunConfig.with_.
    workload_overrides = {
        key: overrides.pop(key)
        for key in (
            "mode",
            "steps",
            "tasks",
            "elements",
            "stream",
            "stream_records",
            "records_per_task",
            "page_records",
            "page_tasks",
        )
        if key in overrides
    }
    if overrides:
        cfg = cfg.with_(**overrides)
    backend = executor if executor is not None else backend_for(cfg)
    if isinstance(target, str) and cfg.checkpoint_dir and not cfg.resume:
        # The CLI-reconstructible target rides to the journal's header
        # so `python -m repro run --resume DIR` needs no target argument.
        cfg = cfg.with_(
            run_target={"target": target, "overrides": workload_overrides}
        )

    from .apps.kernels import REAL_WORKLOADS

    if isinstance(target, str):
        from .apps import ALL_WORKLOADS
        from .apps.streams import STREAM_WORKLOADS, resolve_stream_ops

        if target in STREAM_WORKLOADS or workload_overrides.get("stream"):
            ops = resolve_stream_ops(
                target, workload_overrides, seed=cfg.seed
            )
            raw = backend.run_ops(ops, cfg)
            return _from_backend(raw, target)
        if target in REAL_WORKLOADS:
            ops = REAL_WORKLOADS[target](seed=cfg.seed)
            raw = backend.run_ops(ops, cfg)
            return _from_backend(raw, target)
        if target in ALL_WORKLOADS:
            return _run_app_workload(
                target, cfg, workload_overrides, executor=executor
            )
        if os.path.exists(target):
            return _run_program(
                _compiled_file(target),
                cfg,
                backend,
                os.path.basename(target),
                workload_overrides,
            )
        raise ValueError(
            f"unknown run target {target!r}: not a real-kernel workload "
            f"({', '.join(sorted(REAL_WORKLOADS))}), an app workload "
            f"({', '.join(sorted(ALL_WORKLOADS))}), a streaming workload "
            f"({', '.join(sorted(STREAM_WORKLOADS))}), or a source file"
        )
    if isinstance(target, CompiledProgram):
        return _run_program(
            target, cfg, backend, target.unit.name, workload_overrides
        )
    if isinstance(target, (ParallelOp, RealOp)):
        return _from_backend(backend.run_op(target, cfg), target.name)
    ops = list(target)
    if not ops:
        raise ValueError("empty operation list")
    label = "+".join(op.name for op in ops)
    return _from_backend(backend.run_ops(ops, cfg), label)


@contextlib.contextmanager
def prepared(config: Optional[RunConfig] = None, **overrides):
    """A backend with its warm state held for the block's duration::

        with api.prepared(cfg) as backend:
            api.run("fig1", cfg, executor=backend)   # pays spawn cost
            api.run("fig1", cfg, executor=backend)   # reuses the pool

    For the mp backend this keeps one resident worker pool (and shm
    segment cache) alive across runs; the sim backend — and any backend
    without the prepare/release split — passes through unaffected.
    """
    cfg = config or RunConfig()
    if overrides:
        cfg = cfg.with_(**overrides)
    backend = backend_for(cfg)
    prepare_backend(backend, cfg)
    try:
        yield backend
    finally:
        release_backend(backend)


def resolve_ops(
    target: RunTarget,
    cfg: RunConfig,
    overrides: Optional[dict] = None,
) -> Tuple[List[RealOp], List[Set[int]], str]:
    """Flatten any single-session :func:`run` target to
    ``(ops, dependency_sets, label)``.

    The serve daemon's submit path: jobs are validated and shaped at
    admission (bad targets are rejected at the socket, not inside a
    running session), then executed as one backend session against the
    shared pool.  Multi-session targets (the Section 5 app workloads)
    are refused — the chunk journal and the cross-job ration both cover
    exactly one session per job.
    """
    overrides = dict(overrides or {})
    from .apps.kernels import REAL_WORKLOADS

    if isinstance(target, str):
        if target in REAL_WORKLOADS:
            ops = REAL_WORKLOADS[target](seed=cfg.seed)
            return list(ops), name_deps(ops), target
        from .apps import ALL_WORKLOADS
        from .apps.streams import STREAM_WORKLOADS

        if target in STREAM_WORKLOADS:
            raise ValueError(
                f"streaming workload {target!r} paces its own admission "
                "against the coordinator loop and cannot share the serve "
                "pool as a job; run it directly with `python -m repro "
                "run stream --backend mp`"
            )

        if target in ALL_WORKLOADS:
            raise ValueError(
                f"workload {target!r} executes as many independent "
                "backend sessions and cannot run as a single job; "
                "submit a real-kernel workload (fig1, reduction, "
                "psirrfan), a source file, or explicit operations"
            )
        if os.path.exists(target):
            program = _compiled_file(target)
            op_map = _attach_kernels(program, cfg, overrides)
            ops, deps = graph_ops_and_deps(program.graph, op_map)
            return ops, deps, os.path.basename(target)
        raise ValueError(
            f"unknown run target {target!r}: not a real-kernel workload "
            f"({', '.join(sorted(REAL_WORKLOADS))}) or a source file"
        )
    if isinstance(target, CompiledProgram):
        op_map = _attach_kernels(target, cfg, overrides)
        ops, deps = graph_ops_and_deps(target.graph, op_map)
        return ops, deps, target.unit.name
    if isinstance(target, (ParallelOp, RealOp)):
        ops = [target]
    else:
        ops = list(target)
        if not ops:
            raise ValueError("empty operation list")
    label = "+".join(op.name for op in ops)
    return ops, name_deps(ops), label


def _run_program(
    program: CompiledProgram,
    cfg: RunConfig,
    backend,
    label: str,
    overrides: dict,
) -> RunResult:
    op_map = _attach_kernels(program, cfg, overrides)
    raw = backend.run_graph(program.graph, op_map, cfg)
    return _from_backend(raw, label)


def _attach_kernels(
    program: CompiledProgram, cfg: RunConfig, overrides: dict
) -> Dict[int, RealOp]:
    """Fresh real-kernel ops for ``program``'s operators, shaped by the
    ``tasks``/``elements`` overrides and ``cfg.seed``."""
    from .apps.kernels import graph_real_ops

    return graph_real_ops(
        program.graph,
        tasks=overrides.get("tasks", 64),
        elements=overrides.get("elements", 400),
        seed=cfg.seed,
    )


def resume_config(
    checkpoint_dir: str, base: Optional[RunConfig] = None
) -> RunConfig:
    """A config that resumes the run checkpointed in ``checkpoint_dir``.

    The manifest's scheduling-relevant fields (processors, policy,
    cost source, ...) are applied over ``base`` — they *must* match the
    original run for the journal to replay, so restating them on resume
    is both error-prone and pointless.  Operational knobs from ``base``
    (timeouts, tracer, fault plan, speculation) are kept as given, and
    ``run_target`` is the target the header remembers (or ``None``).
    """
    manifest = load_manifest(checkpoint_dir)
    cfg = base or RunConfig()
    stored = {
        key: value
        for key, value in manifest.config.items()
        if hasattr(cfg, key)
    }
    return cfg.with_(
        checkpoint_dir=checkpoint_dir,
        resume=True,
        run_target=manifest.target,
        **stored,
    )


def resume(
    checkpoint_dir: str,
    target: Optional[RunTarget] = None,
    config: Optional[RunConfig] = None,
    executor=None,
    **overrides,
) -> RunResult:
    """Resume a checkpointed run: replay the journal, run the remainder.

    ``target`` defaults to the one recorded in the checkpoint's header
    (string targets only — explicit operation objects cannot be
    reconstructed and must be passed again, built from the same seed).
    """
    cfg = resume_config(checkpoint_dir, config)
    if target is None:
        stored = cfg.run_target
        if not stored:
            raise ValueError(
                f"no stored run target in {checkpoint_dir}; pass the "
                "original target explicitly to resume()"
            )
        target = stored["target"]
        for key, value in stored["overrides"].items():
            overrides.setdefault(key, value)
    return run(target, cfg, executor=executor, **overrides)


def trace(
    target: RunTarget,
    config: Optional[RunConfig] = None,
    executor=None,
    **overrides,
) -> Tuple[RunResult, TraceReport]:
    """:func:`run` with a fresh Tracer attached; returns the run result
    plus a :class:`TraceReport` (Chrome trace / metrics export)."""
    cfg = (config or RunConfig()).with_(tracer=Tracer())
    # Preserve explicit tracer if the caller provided one.
    if config is not None and config.tracer is not None:
        cfg = cfg.with_(tracer=config.tracer)
    result = run(target, cfg, executor=executor, **overrides)
    tracer = cfg.tracer
    # Wall-clock worker reports can interleave: keep the exported stream
    # chronological for the timeline renderer.
    tracer.events.sort(key=lambda event: (event.time, event.proc))
    report = TraceReport(
        tracer=tracer,
        processors=cfg.processors,
        metrics=aggregate(tracer.events, processors=cfg.processors),
        time_unit=result.time_unit,
    )
    return result, report
