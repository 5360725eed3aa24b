"""The unified kernel declaration consumed by every backend.

Before this module, the three facets of "what one task does" were
scattered across call sites: the per-task callable rode on
``RealOp.kernel``, per-task cost estimates were re-derived at every
builder as a ``costs=[...]`` kwarg, and there was no way at all to say
"this kernel can also execute a whole chunk in one call".  A
:class:`Kernel` carries all three in one picklable declaration::

    KERNEL = Kernel(
        fn=column_sum_kernel,          # per-task: fn(payload) -> float
        batch_fn=column_sum_batch,     # optional: batch_fn(payloads, out)
        cost_fn=pair_elements_cost,    # optional: cost_fn(payload) -> units
    )
    op = RealOp(name="A", kernel=KERNEL, payloads=payloads)
    # op.costs is derived from cost_fn — no per-call-site costs kwarg.

``fn`` is the indivisible per-task call the paper's runtime schedules.
``batch_fn`` is the Split-Annotations move (Palkar & Zaharia): one
vectorized call over an entire TAPER chunk.  It receives the chunk's
payloads — a zero-copy numpy view of the op's shared-memory payload
slice when the data plane is shm, a plain payload list under pickle —
plus a writable ``out`` buffer of ``len(payloads)`` float64 slots (a
slice of the shared per-op result buffer on the shm plane, so results
land in place without crossing the queue).  It must produce exactly the
values ``fn`` would: ``out[i] == fn(payloads[i])`` for every ``i``.
The runtime falls back to ``fn`` automatically when ``batch_fn`` is
absent, when ``RunConfig.batching`` disables it, and when a chunk is a
*retry* — a raising batch is re-dispatched per task so retry and
quarantine stay per-task (one poisoned payload quarantines one task,
not its whole chunk).

``cost_fn`` maps one payload to its declared cost in work units, so the
declared-cost schedule (``cost_source="declared"``, the simulator, the
equivalence suite) comes from the same declaration the executors use.

All three callables must be module-level (picklable) for the mp backend
under ``spawn``/``forkserver``.  A bare callable is not a kernel:
declare ``Kernel(fn=...)`` (:func:`as_kernel` is the ``TypeError``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

__all__ = ["Kernel", "as_kernel", "BATCH_AUTO_MIN_TASKS"]

#: Under ``RunConfig.batching="auto"`` a chunk is executed batched only
#: at or above this many tasks — a one-task "batch" is a per-task call
#: with extra view plumbing.
BATCH_AUTO_MIN_TASKS = 2


@dataclass(frozen=True)
class Kernel:
    """One kernel declaration: per-task fn, optional batch fn, cost.

    Frozen and field-wise picklable (given module-level callables), so
    a ``Kernel`` ships to worker processes as is.
    Calling the instance invokes the per-task path: ``Kernel(fn)(p)``
    is ``fn(p)``.
    """

    #: The per-task call: ``fn(payload) -> float`` (the indivisible
    #: scheduling unit, and the retry/quarantine path).
    fn: Callable[[Any], float]
    #: Optional whole-chunk call: ``batch_fn(payloads, out) -> None``
    #: writing ``out[i] = fn(payloads[i])`` for every chunk task.
    batch_fn: Optional[Callable[[Any, Any], None]] = None
    #: Optional declared-cost function: ``cost_fn(payload) -> work units``.
    cost_fn: Optional[Callable[[Any], float]] = None
    #: Reporting name; defaults to ``fn.__name__``.
    name: str = ""

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise TypeError(
                f"Kernel.fn must be callable, got {type(self.fn).__name__}"
            )
        if self.batch_fn is not None and not callable(self.batch_fn):
            raise TypeError("Kernel.batch_fn must be callable or None")
        if self.cost_fn is not None and not callable(self.cost_fn):
            raise TypeError("Kernel.cost_fn must be callable or None")
        if not self.name:
            object.__setattr__(
                self, "name", getattr(self.fn, "__name__", "kernel")
            )

    # -- execution -----------------------------------------------------------

    def __call__(self, payload: Any) -> float:
        return self.fn(payload)

    @property
    def batchable(self) -> bool:
        """Whether a vectorized ``batch_fn`` was declared."""
        return self.batch_fn is not None

    # -- cost declaration ----------------------------------------------------

    def costs_for(self, payloads: Sequence[Any]) -> Optional[List[float]]:
        """Declared per-task costs for ``payloads`` (``None`` without a
        ``cost_fn``)."""
        if self.cost_fn is None:
            return None
        return [float(self.cost_fn(payload)) for payload in payloads]


def as_kernel(obj: Any) -> Kernel:
    """``obj`` if it is a :class:`Kernel`, else ``TypeError``."""
    if isinstance(obj, Kernel):
        return obj
    raise TypeError(
        f"a kernel must be a repro.Kernel (declare Kernel(fn=...)), "
        f"got {type(obj).__name__}"
    )
