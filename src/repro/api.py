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

Examples, ``python -m repro``, the serve daemon and the benchmark
harness all take the same path: :func:`resolve_ops` turns any target
into ``(ops, deps, label)``, ``Backend.run_ops(ops, cfg, deps)`` runs
it, and the backend's :class:`BackendRunResult` comes back as is.

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
from dataclasses import dataclass
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
from .runtime.backends.base import graph_ops_and_deps, name_deps
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
    "BackendRunResult",
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
    "TraceReport",
    "WORKLOAD_OVERRIDES",
    "compile",
    "configure",
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
    :func:`_program_ops` (``graph_real_ops``, ``graph_ops_and_deps``)
    only reads the graph.  :func:`compile` itself stays
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


#: Keyword overrides that shape the workload, not the ``RunConfig``:
#: the one list :func:`run`, ``python -m repro run``'s flags and a serve
#: submission's overrides are split by.
WORKLOAD_OVERRIDES = (
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


def configure(
    target: Optional[RunTarget], cfg: RunConfig, overrides: dict
) -> Tuple[RunTarget, RunConfig, dict]:
    """Split ``overrides`` into the workload-shaping ones
    (:data:`WORKLOAD_OVERRIDES`) and ``RunConfig`` fields, apply the
    latter, and return ``(target, cfg, workload_overrides)``.

    A string target rides on the config (``run_target``) to the journal
    header, so ``run --resume DIR`` needs no target argument; resuming
    with ``target=None`` reads it back from there.
    """
    overrides = dict(overrides)
    workload = {
        key: overrides.pop(key)
        for key in WORKLOAD_OVERRIDES
        if key in overrides
    }
    if target is None:
        stored = cfg.run_target if cfg.resume else None
        if not stored:
            raise ValueError(
                f"no stored run target in {cfg.checkpoint_dir}; pass the "
                "original target as well"
                if cfg.resume
                else "a run target is required (only a resumed "
                "checkpoint can supply its own)"
            )
        target = stored["target"]
        workload = {**stored["overrides"], **workload}
    elif isinstance(target, str) and not cfg.resume:
        overrides["run_target"] = {"target": target, "overrides": workload}
    if overrides:
        cfg = cfg.with_(**overrides)
    return target, cfg, workload


def _program_ops(
    program: CompiledProgram, cfg: RunConfig, overrides: dict
) -> Tuple[List[RealOp], List[Set[int]]]:
    """``program``'s graph flattened to ops and dependence sets, with
    fresh real kernels per operator shaped by the ``tasks``/``elements``
    overrides and ``cfg.seed``."""
    from .apps.kernels import graph_real_ops

    op_map = graph_real_ops(
        program.graph,
        tasks=overrides.get("tasks", 64),
        elements=overrides.get("elements", 400),
        seed=cfg.seed,
    )
    return graph_ops_and_deps(program.graph, op_map)


def _resolve(target: RunTarget, cfg: RunConfig, overrides: dict):
    """The one ladder from a run target to ``(ops, deps, label)``.

    ``ops`` is ``None`` for a Section 5 app workload: it executes as
    many backend sessions and has no flat form (:func:`run` loops over
    them, :func:`resolve_ops` refuses).  Everything else is one session.
    """
    if isinstance(target, CompiledProgram):
        return (*_program_ops(target, cfg, overrides), target.unit.name)
    if isinstance(target, (ParallelOp, RealOp)):
        target = [target]
    if not isinstance(target, str):
        ops = list(target)
        if not ops:
            raise ValueError("empty operation list")
        return ops, name_deps(ops), "+".join(op.name for op in ops)
    from .apps import ALL_WORKLOADS
    from .apps.kernels import REAL_WORKLOADS
    from .apps.streams import STREAM_WORKLOADS, resolve_stream_ops

    if target in STREAM_WORKLOADS or overrides.get("stream"):
        ops = resolve_stream_ops(target, overrides, seed=cfg.seed)
    elif target in REAL_WORKLOADS:
        ops = list(REAL_WORKLOADS[target](seed=cfg.seed))
    elif target in ALL_WORKLOADS:
        return None, [], target
    elif os.path.exists(target):
        program = _compiled_file(target)
        return (
            *_program_ops(program, cfg, overrides),
            os.path.basename(target),
        )
    else:
        raise ValueError(
            f"unknown run target {target!r}: not a real-kernel workload "
            f"({', '.join(sorted(REAL_WORKLOADS))}), an app workload "
            f"({', '.join(sorted(ALL_WORKLOADS))}), a streaming workload "
            f"({', '.join(sorted(STREAM_WORKLOADS))}), or a source file"
        )
    return ops, name_deps(ops), target


def resolve_ops(
    target: RunTarget,
    cfg: RunConfig,
    overrides: Optional[dict] = None,
) -> Tuple[List[RealOp], List[Set[int]], str]:
    """Flatten any single-session :func:`run` target to
    ``(ops, dependency_sets, label)``: what ``Backend.run_ops`` takes.

    :func:`run` executes exactly this, and the serve daemon resolves
    here at admission, so a bad target is rejected at the socket, not
    inside a running session.  What a caller will not run (the daemon: a
    stream) is its own policy on the ops it gets back.
    """
    ops, deps, label = _resolve(target, cfg, dict(overrides or {}))
    if ops is None:
        raise ValueError(
            f"workload {label!r} executes as many independent "
            "backend sessions and cannot run as a single job; "
            "submit a real-kernel workload (fig1, reduction, "
            "psirrfan), a source file, or explicit operations"
        )
    return ops, deps, label


def _run_app_workload(
    name: str, cfg: RunConfig, overrides: dict, backend
) -> BackendRunResult:
    """A Section 5 synthetic workload: the simulator's per-mode model,
    or its steps' concurrent groups one backend session each."""
    from .apps import ALL_WORKLOADS

    if cfg.checkpoint_dir:
        raise ValueError(
            f"workload {name!r} executes as many independent backend "
            "sessions; the chunk journal covers exactly one session — "
            "checkpoint a real-kernel workload (fig1, reduction, "
            "psirrfan), explicit operations, or a compiled program"
        )
    mode = overrides.get("mode", "split")
    workload = ALL_WORKLOADS[name](steps=overrides.get("steps", 2))
    total = BackendRunResult(
        backend=cfg.backend,
        makespan=0.0,
        total_work=0.0,
        processors=cfg.processors,
        tasks=0,
        chunks=0,
        time_unit="work-units" if cfg.backend == "sim" else "seconds",
        target=f"{name} ({mode})",
    )
    if cfg.backend == "sim":
        raw = workload.run(
            cfg.processors, mode, cfg.machine_config(), tracer=cfg.tracer
        )
        total.makespan, total.total_work = raw.makespan, raw.total_work
        return total
    # Real workers: each step's concurrent groups as spin work, laid end
    # to end on the shared tracer timeline.
    import random as random_module

    total.fault_report = FaultReport()
    rng = random_module.Random(workload.seed)
    for step in range(workload.steps):
        groups: Dict[int, List[ParallelOp]] = {}
        for phase in workload.phases_for_step(rng, step, mode):
            if phase.op.size:
                groups.setdefault(phase.concurrent_group, []).append(
                    phase.op
                )
        for ops in groups.values():
            raw = backend.run_ops(ops, cfg)
            total.makespan += raw.makespan
            total.total_work += raw.total_work
            total.tasks += raw.tasks
            total.chunks += raw.chunks
            total.value_total += raw.value_total
            total.per_op.update(raw.per_op)
            if raw.fault_report is not None:
                total.fault_report.merge(raw.fault_report)
            if cfg.tracer is not None:
                cfg.tracer.advance(raw.makespan)
    return total


def run(
    target: Optional[RunTarget],
    config: Optional[RunConfig] = None,
    executor=None,
    **overrides,
) -> BackendRunResult:
    """Execute ``target`` under ``config`` (see module docstring for the
    accepted targets).

    Keyword ``overrides`` are applied to the config
    (``run(x, processors=4, backend="mp")``) except the
    :data:`WORKLOAD_OVERRIDES`, which shape the target: ``mode=``/
    ``steps=`` an app workload, ``tasks=``/``elements=`` a graph,
    ``stream=``/``stream_records=``/``records_per_task=``/
    ``page_records=``/``page_tasks=`` a stream.

    ``executor`` optionally supplies a backend *instance* instead of the
    fresh one ``cfg.backend`` would name — the warm-pool hook: a
    :func:`prepared` backend passed here reuses its resident worker pool
    across calls.  Direct callers can keep ignoring it.
    """
    target, cfg, workload = configure(
        target, config or RunConfig(), overrides
    )
    backend = executor if executor is not None else backend_for(cfg)
    ops, deps, label = _resolve(target, cfg, workload)
    if ops is None:
        return _run_app_workload(label, cfg, workload, backend)
    result = backend.run_ops(ops, cfg, deps)
    result.target = label
    return result


@contextlib.contextmanager
def prepared(config: Optional[RunConfig] = None, **overrides):
    """A backend with its warm state held for the block's duration::

        with api.prepared(cfg) as backend:
            api.run("fig1", cfg, executor=backend)   # pays spawn cost
            api.run("fig1", cfg, executor=backend)   # reuses the pool

    For the mp backend this keeps one resident worker pool (and shm
    segment cache) alive across runs; the sim backend has nothing to
    keep warm and passes through unaffected.
    """
    cfg = config or RunConfig()
    if overrides:
        cfg = cfg.with_(**overrides)
    backend = backend_for(cfg).prepare(cfg)
    try:
        yield backend
    finally:
        backend.release()


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
) -> BackendRunResult:
    """Resume a checkpointed run: replay the journal, run the remainder.

    ``target`` defaults to the one recorded in the checkpoint's header
    (string targets only — explicit operation objects cannot be
    reconstructed and must be passed again, built from the same seed).
    """
    cfg = resume_config(checkpoint_dir, config)
    return run(target, cfg, executor=executor, **overrides)


def trace(
    target: Optional[RunTarget],
    config: Optional[RunConfig] = None,
    executor=None,
    **overrides,
) -> Tuple[BackendRunResult, TraceReport]:
    """:func:`run` with a Tracer attached (``config.tracer``, or a fresh
    one); returns the run result plus a :class:`TraceReport` (Chrome
    trace / metrics export)."""
    cfg = config or RunConfig()
    if cfg.tracer is None:
        cfg = cfg.with_(tracer=Tracer())
    result = run(target, cfg, executor=executor, **overrides)
    tracer = cfg.tracer
    # Wall-clock worker reports can interleave: keep the exported stream
    # chronological for the timeline renderer.
    tracer.events.sort(key=lambda event: (event.time, event.proc))
    report = TraceReport(
        tracer=tracer,
        processors=result.processors,
        metrics=aggregate(tracer.events, processors=result.processors),
        time_unit=result.time_unit,
    )
    return result, report
