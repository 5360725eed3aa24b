"""repro.obs — structured tracing, metrics, and timeline observability.

The simulated runtime (``repro.runtime``) takes an optional
:class:`Tracer`; when one is supplied every scheduling decision becomes a
typed :class:`Event`:

* chunk acquired / completed / re-assigned (distributed TAPER),
* per-task dispatch,
* message send / receive (steal transfers),
* TAPER epoch advance + token rounds, chunk-size decisions,
* Eq. 1 allocation decisions with their finishing-time estimates,
* pipeline stage spans and granularity choices,
* operation begin / end.

The stream aggregates into :class:`MetricsReport` (:func:`aggregate`),
exports to Chrome ``trace_event`` JSON (:func:`write_chrome_trace`, load
in ``chrome://tracing`` or Perfetto), and renders as an ASCII timeline
(:func:`render_timeline`); ``python -m repro run`` drives all three.

Tracing is strictly observational — the same run with and without a
tracer produces identical simulated results — and costs nothing when
disabled (instrumented paths take ``tracer=None`` by default).
"""

from .events import (
    ALLOC_DECIDE,
    ALL_KINDS,
    CHUNK_ACQUIRE,
    CHUNK_COMPLETE,
    CHUNK_REASSIGN,
    CHUNK_RETRIED,
    EPOCH_ADVANCE,
    Event,
    FAULT_INJECTED,
    GRANULARITY_DECIDE,
    MSG_RECV,
    MSG_SEND,
    OP_BEGIN,
    OP_END,
    PIPELINE_STAGE,
    STREAM_BACKPRESSURE,
    STREAM_PAGE,
    TAPER_DECISION,
    TASK_DISPATCH,
    TOKEN_ROUND,
    Tracer,
    WORKER_DIED,
    events_from_jsonl,
    events_to_jsonl,
)
from .export import (
    metrics_summary,
    to_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from .metrics import MetricsReport, OpMetrics, ProcMetrics, aggregate
from .timeline import render_timeline

__all__ = [
    "Tracer",
    "Event",
    "ALL_KINDS",
    "CHUNK_ACQUIRE",
    "CHUNK_COMPLETE",
    "CHUNK_REASSIGN",
    "TASK_DISPATCH",
    "MSG_SEND",
    "MSG_RECV",
    "EPOCH_ADVANCE",
    "TOKEN_ROUND",
    "TAPER_DECISION",
    "ALLOC_DECIDE",
    "PIPELINE_STAGE",
    "GRANULARITY_DECIDE",
    "OP_BEGIN",
    "OP_END",
    "WORKER_DIED",
    "CHUNK_RETRIED",
    "FAULT_INJECTED",
    "STREAM_PAGE",
    "STREAM_BACKPRESSURE",
    "events_to_jsonl",
    "events_from_jsonl",
    "aggregate",
    "MetricsReport",
    "ProcMetrics",
    "OpMetrics",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_metrics_json",
    "metrics_summary",
    "render_timeline",
]
