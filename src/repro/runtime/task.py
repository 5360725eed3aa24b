"""Tasks and parallel operations (Section 4).

"The set of non-re-entrant operators determines the minimum units of
scheduling.  Henceforth, we'll call these indivisible scheduling units
*tasks*."  A :class:`ParallelOp` is one data-parallel Delirium operator:
an ordered sequence of task costs (work units) plus the data each task
carries (for communication estimates).

:class:`RealOp` is the executable counterpart: the same scheduling shape,
but each task is a real Python callable invocation ``kernel(payload)``
that the multiprocessing backend dispatches to worker processes (and the
simulator can evaluate serially for result checking).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ClassVar,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .kernel import Kernel, as_kernel


@dataclass
class ParallelOp:
    """A parallel operation: ``costs[k]`` is task ``k``'s execution time.

    ``bytes_per_task`` sizes the data that moves when a task is
    transferred to a non-owner processor.  ``name`` is for reporting.
    """

    name: str
    costs: List[float]
    bytes_per_task: float = 256.0

    def __post_init__(self):
        if any(c < 0 for c in self.costs):
            raise ValueError("task costs must be non-negative")

    @property
    def size(self) -> int:
        return len(self.costs)

    @property
    def total_work(self) -> float:
        return sum(self.costs)

    @property
    def mean(self) -> float:
        if not self.costs:
            return 0.0
        return self.total_work / len(self.costs)

    @property
    def variance(self) -> float:
        if len(self.costs) < 2:
            return 0.0
        mu = self.mean
        return sum((c - mu) ** 2 for c in self.costs) / (len(self.costs) - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def cv(self) -> float:
        """Coefficient of variation — the irregularity measure."""
        mu = self.mean
        if mu == 0:
            return 0.0
        return self.stddev / mu

    def prefix_means(self, buckets: int = 8) -> List[float]:
        """Bucketed means along the iteration axis — the runtime's *cost
        function* estimating task cost as a function of iteration number."""
        if not self.costs:
            return []
        size = max(1, len(self.costs) // buckets)
        means: List[float] = []
        for start in range(0, len(self.costs), size):
            piece = self.costs[start : start + size]
            means.append(sum(piece) / len(piece))
        return means


@dataclass
class RealOp:
    """A parallel operation whose tasks are real Python calls.

    Task ``k`` executes ``kernel(payloads[k])`` and yields a numeric
    value; the runtime treats the call as the indivisible scheduling unit.
    ``kernel`` is a :class:`~repro.runtime.kernel.Kernel` declaration —
    per-task fn, optional vectorized ``batch_fn`` over a whole chunk,
    optional ``cost_fn`` — and nothing else (a bare callable is the
    :func:`~repro.runtime.kernel.as_kernel` ``TypeError``).  For
    ``multiprocessing`` dispatch every declared callable must be
    *module-level* and each payload picklable.

    ``costs`` optionally declares per-task cost estimates (work units) so
    the simulator — and the mp backend in ``cost_source="declared"`` mode
    — can schedule the operation without timing it first.  When omitted,
    they are derived from the kernel's ``cost_fn`` over the payloads, so
    cost declarations live on the :class:`Kernel` once instead of being
    re-threaded through every builder.
    """

    name: str
    kernel: Kernel
    payloads: List[Any]
    bytes_per_task: float = 256.0
    costs: Optional[List[float]] = None
    #: Op names this operation depends on (graph/pipeline execution).
    deps: Tuple[str, ...] = ()
    #: Fixed task list; :class:`StreamOp` flips this to ``True``.
    is_stream: ClassVar[bool] = False

    def __post_init__(self):
        as_kernel(self.kernel)
        if self.costs is None:
            self.costs = self.kernel.costs_for(self.payloads)
        if self.costs is not None and len(self.costs) != len(self.payloads):
            raise ValueError(
                f"RealOp {self.name!r}: {len(self.costs)} declared costs "
                f"for {len(self.payloads)} payloads"
            )

    @property
    def size(self) -> int:
        """Task count (0 for a stream: its tasks are the run's)."""
        return len(self.payloads)

    def run_serial(self) -> Tuple[List[float], float]:
        """Execute every task in-process, in index order.

        Returns ``(measured_costs_seconds, value_total)`` — the serial
        baseline the mp backend's speedup is measured against, and the
        ground-truth result total for equivalence checks.
        """
        measured: List[float] = []
        total = 0.0
        kernel = self.kernel
        for payload in self.payloads:
            start = time.perf_counter()
            value = kernel(payload)
            measured.append(time.perf_counter() - start)
            total += float(value)
        return measured, total


@dataclass
class StreamPage:
    """One paginated batch of stream tasks.

    ``payloads[k]`` is the argument of the page's ``k``-th task;
    ``costs`` optionally declares the matching per-task cost estimates
    (required when the run uses ``cost_source="declared"``).
    """

    payloads: List[Any]
    costs: Optional[List[float]] = None

    def __post_init__(self):
        if self.costs is not None and len(self.costs) != len(self.payloads):
            raise ValueError(
                f"StreamPage: {len(self.costs)} declared costs for "
                f"{len(self.payloads)} payloads"
            )

    @property
    def size(self) -> int:
        """Task count of this page."""
        return len(self.payloads)


def as_stream_page(obj: Any) -> StreamPage:
    """Normalise a source item to a :class:`StreamPage`.

    Sources may yield :class:`StreamPage` objects directly or bare
    payload sequences (lists, tuples, numpy arrays); anything else is a
    :class:`TypeError`.
    """
    if isinstance(obj, StreamPage):
        return obj
    if isinstance(obj, (list, tuple)):
        return StreamPage(payloads=list(obj))
    if hasattr(obj, "__len__") and hasattr(obj, "__getitem__"):
        # numpy arrays and other sequence-likes: one payload per row.
        return StreamPage(payloads=list(obj))
    raise TypeError(
        f"stream source yielded {type(obj).__name__}; expected a "
        "StreamPage or a payload sequence"
    )


@dataclass(frozen=True)
class PageResult:
    """One settled page, delivered to a :class:`StreamOp` sink in order.

    ``seq`` is the page's arrival number (0-based), ``base`` its first
    global task index, ``tasks`` its task count, and ``value`` the sum
    of its task results (quarantined tasks contribute nothing).
    """

    seq: int
    base: int
    tasks: int
    value: float


@dataclass
class StreamOp(RealOp):
    """A parallel operation whose tasks arrive in paginated batches.

    Instead of materialising ``payloads`` up front, a ``StreamOp``
    carries a coordinator-side ``source``: a zero-argument callable
    returning an iterator of pages (:class:`StreamPage` objects or bare
    payload sequences).  The mp backend admits pages under a bounded
    window of unsettled pages (``RunConfig.stream_window``), re-chunks
    each page with the cost statistics observed so far in the stream,
    and re-rations workers as the remaining-cost estimate evolves; see
    ``docs/ARCHITECTURE.md``.

    ``source`` runs only in the coordinator process and need not be
    picklable (the kernel and payloads still must be, exactly as for
    :class:`RealOp`).  An optional ``sink`` receives one
    :class:`PageResult` per fully-settled page, in page order; a slow
    sink exerts backpressure on admission.  A run never changes the op:
    the pages it admits are the run's, held only while they are in the
    window, so the same ``StreamOp`` can run again from its source.

    The mp and dist backends execute streams; the simulator refuses them.
    """

    payloads: List[Any] = field(default_factory=list)
    #: Coordinator-side page fetcher: ``source()`` -> iterator of pages.
    source: Optional[Callable[[], Iterable[Any]]] = None
    #: Optional per-page result consumer, called in page order.
    sink: Optional[Callable[[PageResult], None]] = None
    is_stream: ClassVar[bool] = True

    def __post_init__(self):
        super().__post_init__()
        if self.source is None:
            raise ValueError(
                f"StreamOp {self.name!r} requires a source callable"
            )

    def open_source(self) -> Iterator[Any]:
        """Start the page iterator (coordinator side only)."""
        return iter(self.source())


def spin_task(seconds: float) -> float:
    """Busy-spin for ``seconds`` of real CPU time; returns 1.0.

    The bridge from simulated to real execution: any :class:`ParallelOp`
    becomes executable by mapping each declared task cost to a calibrated
    burn (``RunConfig.time_scale`` seconds per work unit).  Module-level
    so it pickles under every multiprocessing start method.
    """
    deadline = time.perf_counter() + seconds
    x = 1.0
    while time.perf_counter() < deadline:
        # Keep the ALU busy so the burn measures compute, not sleep.
        x = x * 1.0000001 + 1e-9
    return 1.0


#: The calibrated-burn kernel of wrapped simulated ops.  No ``batch_fn``:
#: a burn is pure per-task wall time, there is nothing to vectorize.
SPIN_KERNEL = Kernel(fn=spin_task, name="spin")


def real_op_from_parallel(op: ParallelOp, time_scale: float) -> RealOp:
    """Wrap a simulated operation as real busy-work (see :func:`spin_task`)."""
    return RealOp(
        name=op.name,
        kernel=SPIN_KERNEL,
        payloads=[cost * time_scale for cost in op.costs],
        bytes_per_task=op.bytes_per_task,
        costs=list(op.costs),
    )
