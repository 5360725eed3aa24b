"""Streaming workload builders for the mp backend's ingestion path.

Two paged sources, each wrapped as a :class:`repro.runtime.task.StreamOp`
whose pages the mp backend admits under the bounded window of
unsettled pages (``RunConfig.stream_window``, see
``docs/ARCHITECTURE.md``):

* :func:`stream_ops` — the **synthetic** source: ``records`` float
  records ``value(i) = float(i % 977)``, packed ``records_per_task`` per
  task and ``page_records`` per page.  Fully deterministic with a
  closed-form total (:func:`synthetic_total`), so an interrupted-and-
  resumed run can be checked for *exact* equality against an
  uninterrupted one;
* :func:`stream_json_ops` — the **paged-JSON-records** source: a
  JSON-lines file (one record per line, each a JSON array of numbers or
  an object with a ``"values"`` array), read incrementally and paged
  ``page_tasks`` tasks at a time.  The file is never materialised in
  memory — only the pages inside the in-flight window are.

Both use :data:`STREAM_SUM`: sum one payload row, returning an integral
float so value totals are exact under any summation order (the same
convention as :mod:`repro.apps.kernels`).  Pages carry declared per-task
costs derived from the kernel's ``cost_fn``, so ``cost_source="declared"``
runs work unchanged.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterator, List, Optional

from ..runtime.kernel import Kernel
from ..runtime.task import StreamOp, StreamPage

try:  # numpy is optional: the synthetic source falls back to lists
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less hosts
    _np = None

#: Record-value modulus: ``value(i) = float(i % SYNTH_MOD)``.  Prime and
#: small enough that float64 sums of billions of records stay exact.
SYNTH_MOD = 977

#: Defaults for the synthetic stream (the ``"stream"`` run target).
DEFAULT_RECORDS = 200_000
DEFAULT_RECORDS_PER_TASK = 200
DEFAULT_PAGE_RECORDS = 20_000
#: Default tasks per page for the JSON-lines source.
DEFAULT_PAGE_TASKS = 256


def stream_sum_kernel(payload) -> float:
    """Sum one payload row (list or 1-D array of integral floats)."""
    if _np is None or not hasattr(payload, "sum"):
        return float(sum(payload))
    return float(_np.asarray(payload).sum())


def stream_row_cost(payload) -> float:
    """Declared cost of one row: proportional to its record count."""
    return len(payload) / 50.0


#: The streaming kernel declaration.  It declares no ``batch_fn``, so its
#: chunks run per task; a stream kernel that declares one batches like
#: any op's (a chunk never spans two pages).
STREAM_SUM = Kernel(fn=stream_sum_kernel, cost_fn=stream_row_cost)


def synthetic_record(index: int) -> float:
    """The value of global record ``index``."""
    return float(index % SYNTH_MOD)


def synthetic_total(records: int) -> float:
    """Closed-form sum of the first ``records`` synthetic record values.

    The ground truth an interrupted-and-resumed streaming run is checked
    against: ``sum(float(i % 977) for i in range(records))`` without
    iterating.
    """
    full_cycles, rem = divmod(records, SYNTH_MOD)
    cycle_sum = SYNTH_MOD * (SYNTH_MOD - 1) // 2
    return float(full_cycles * cycle_sum + rem * (rem - 1) // 2)


def synthetic_pages(
    records: int,
    records_per_task: int = DEFAULT_RECORDS_PER_TASK,
    page_records: int = DEFAULT_PAGE_RECORDS,
) -> Iterator[StreamPage]:
    """Yield the synthetic stream as :class:`StreamPage` batches.

    Pages are numpy float64 rows when numpy is available and the page
    divides evenly into ``records_per_task`` rows (shm-eligible); ragged
    tails and numpy-less hosts fall back to lists (pickle plane).
    """
    produced = 0
    while produced < records:
        count = min(page_records, records - produced)
        stop = produced + count
        if _np is not None and count % records_per_task == 0:
            flat = (
                _np.arange(produced, stop, dtype=_np.int64) % SYNTH_MOD
            ).astype(_np.float64)
            payloads: List[Any] = list(flat.reshape(-1, records_per_task))
        else:
            payloads = [
                [
                    synthetic_record(index)
                    for index in range(start, min(start + records_per_task, stop))
                ]
                for start in range(produced, stop, records_per_task)
            ]
        yield StreamPage(
            payloads=payloads,
            costs=[stream_row_cost(row) for row in payloads],
        )
        produced = stop


def stream_ops(
    records: int = DEFAULT_RECORDS,
    records_per_task: int = DEFAULT_RECORDS_PER_TASK,
    page_records: int = DEFAULT_PAGE_RECORDS,
    seed: int = 0,
    sink=None,
) -> List[StreamOp]:
    """The synthetic streaming workload: one :class:`StreamOp`.

    ``seed`` is accepted for builder-signature uniformity; the source is
    deterministic regardless, which is what makes checkpoint resume
    reconstruct the identical stream.
    """
    if records < 0:
        raise ValueError(f"records must be >= 0, got {records}")
    if records_per_task <= 0 or page_records <= 0:
        raise ValueError(
            "records_per_task and page_records must be positive "
            f"(got {records_per_task}, {page_records})"
        )

    def source() -> Iterator[StreamPage]:
        return synthetic_pages(records, records_per_task, page_records)

    return [
        StreamOp(
            name="stream",
            kernel=STREAM_SUM,
            source=source,
            sink=sink,
            bytes_per_task=8.0 * records_per_task,
        )
    ]


def _record_values(record: Any, path: str, line_number: int) -> List[float]:
    """One JSON-lines record to a payload row, or a clear ValueError."""
    if isinstance(record, dict):
        record = record.get("values")
    if not isinstance(record, list) or not record:
        raise ValueError(
            f"{path}:{line_number}: expected a non-empty JSON array of "
            "numbers (or an object with a 'values' array)"
        )
    return [float(value) for value in record]


def json_record_pages(
    path: str, page_tasks: int = DEFAULT_PAGE_TASKS
) -> Iterator[StreamPage]:
    """Read a JSON-lines file incrementally as stream pages.

    One record (line) becomes one task; every ``page_tasks`` records
    become one page.  Blank lines are skipped; a malformed line raises
    with its line number.
    """
    with open(path) as handle:
        payloads: List[Any] = []
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSON: {error}"
                ) from None
            payloads.append(_record_values(record, path, line_number))
            if len(payloads) >= page_tasks:
                yield StreamPage(
                    payloads=payloads,
                    costs=[stream_row_cost(row) for row in payloads],
                )
                payloads = []
        if payloads:
            yield StreamPage(
                payloads=payloads,
                costs=[stream_row_cost(row) for row in payloads],
            )


def stream_json_ops(
    path: str,
    page_tasks: int = DEFAULT_PAGE_TASKS,
    sink=None,
) -> List[StreamOp]:
    """The paged-JSON-records streaming workload: one :class:`StreamOp`
    over a JSON-lines file (see :func:`json_record_pages`)."""
    if page_tasks <= 0:
        raise ValueError(f"page_tasks must be positive, got {page_tasks}")

    def source() -> Iterator[StreamPage]:
        return json_record_pages(path, page_tasks)

    return [
        StreamOp(
            name=os.path.basename(path),
            kernel=STREAM_SUM,
            source=source,
            sink=sink,
        )
    ]


def write_json_records(
    path: str, records: int, records_per_task: int = DEFAULT_RECORDS_PER_TASK
) -> float:
    """Write the synthetic stream as a JSON-lines file; returns the
    expected value total (test/demo helper for :func:`stream_json_ops`)."""
    with open(path, "w") as handle:
        for start in range(0, records, records_per_task):
            row = [
                synthetic_record(index)
                for index in range(start, min(start + records_per_task, records))
            ]
            handle.write(json.dumps(row))
            handle.write("\n")
    return synthetic_total(records)


#: Streaming workloads runnable by name on the mp backend
#: (``python -m repro run stream --backend mp``).
STREAM_WORKLOADS = {
    "stream": stream_ops,
}


def resolve_stream_ops(
    target: str,
    overrides: Optional[dict] = None,
    seed: int = 0,
    sink=None,
) -> List[StreamOp]:
    """Resolve a string run target to streaming operations.

    Named workloads (:data:`STREAM_WORKLOADS`) take the synthetic knobs
    (``stream_records``, ``records_per_task``, ``page_records``); an
    existing file path is read as JSON-lines records (``page_tasks``).
    """
    overrides = dict(overrides or {})
    if target in STREAM_WORKLOADS:
        return STREAM_WORKLOADS[target](
            records=overrides.get("stream_records", DEFAULT_RECORDS),
            records_per_task=overrides.get(
                "records_per_task", DEFAULT_RECORDS_PER_TASK
            ),
            page_records=overrides.get("page_records", DEFAULT_PAGE_RECORDS),
            seed=seed,
            sink=sink,
        )
    if os.path.exists(target):
        return stream_json_ops(
            target,
            page_tasks=overrides.get("page_tasks", DEFAULT_PAGE_TASKS),
            sink=sink,
        )
    raise ValueError(
        f"unknown stream target {target!r}: not a streaming workload "
        f"({', '.join(sorted(STREAM_WORKLOADS))}) or a JSON-lines file"
    )
