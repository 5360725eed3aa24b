"""Real, executable kernels for the multiprocessing backend.

The simulator abstracts a task to a cost; the mp backend needs the task
itself.  This module provides deterministic, pure-Python kernels with the
*shape* of the paper's computations — Figure 1's masked column
reconstruction and post-processing pass, a parallel reduction, and the
Psirrfan tomography sweep — each declared once as a
:class:`repro.Kernel`: the module-level per-task callable (picklable
under every ``multiprocessing`` start method), a vectorized ``batch_fn``
that executes a whole TAPER chunk in one numpy pass (gated on numpy),
and a ``cost_fn`` from which the builders' declared per-task costs are
derived — no more re-threading ``costs=[...]`` through every call site.

Every kernel returns an *integral* float, so value totals are exact
under any summation order: a sim run, an mp run, and a *batched* mp run
of the same workload report identical task and value totals, which the
equivalence suites rely on.  The batch variants reproduce the per-task
integer arithmetic exactly (same moduli, same order) — they are the
same function evaluated ``chunk`` tasks at a time, not an
approximation.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..runtime.kernel import Kernel
from ..runtime.task import RealOp

try:  # numpy is optional: array workloads and batch fns are gated on it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less hosts
    _np = None

#: Inner-loop elements per declared work unit: chosen so a "10 unit"
#: task is a few hundred microseconds of real compute — large enough to
#: dwarf dispatch overhead, small enough for quick smoke runs.
ELEMENTS_PER_UNIT = 50


def units_of(elements: int) -> float:
    """Declared cost (work units) of a kernel with ``elements`` inner steps."""
    return elements / ELEMENTS_PER_UNIT


def pair_elements_cost(payload: Tuple[int, int]) -> float:
    """Declared cost of a ``(id, elements)`` payload: its inner-loop depth."""
    return units_of(payload[1])


# ---------------------------------------------------------------------------
# Kernels (module-level, deterministic, integral-valued)
# ---------------------------------------------------------------------------


def column_sum_kernel(payload: Tuple[int, int]) -> float:
    """Figure 1's reconstruction: ``result(i) = sum_k q(k, i)``.

    ``payload = (col, elements)``; the synthetic matrix entry
    ``q(k, col)`` is the deterministic integer ``(k * 31 + col * 7) % 97``.
    """
    col, elements = payload
    acc = 0
    base = col * 7
    for k in range(elements):
        acc += (k * 31 + base) % 97
    return float(acc % 1_000_003)


def post_process_kernel(payload: Tuple[int, int]) -> float:
    """Figure 1's regular pass: ``output(j, i) = f(q(j, i))``.

    ``payload = (i, elements)``; ``f`` is a cheap integer polynomial.
    """
    i, elements = payload
    acc = 0
    base = i * 13
    for j in range(elements):
        q = (j * 17 + base) % 89
        acc += (q * q + 3 * q + 7) % 101
    return float(acc % 1_000_003)


def range_sum_kernel(payload: Tuple[int, int]) -> float:
    """One reduction leaf: sum a strided slice of the virtual input."""
    start, length = payload
    acc = 0
    for index in range(start, start + length):
        acc += (index * index + 1) % 9973
    return float(acc % 10_000_019)


def array_sum_kernel(payload) -> float:
    """Sum one payload row (a 1-D float64 array of small integers).

    The payload-heavy kernel: per-task compute is one vectorized pass
    over the row, so run time is dominated by how the rows *got to* the
    worker — exactly what the data-plane benchmark measures.  Rows hold
    integral values, so the sum is exact and backend-independent.
    """
    if _np is None:  # pragma: no cover - numpy-less hosts skip this workload
        return float(sum(payload))
    return float(_np.asarray(payload).sum())


def psirrfan_reconstruct_kernel(payload: Tuple[int, int]) -> float:
    """One active tomography column: back-project ``elements`` rays."""
    col, elements = payload
    acc = 0
    angle = col * 29
    for ray in range(elements):
        # Integer stand-in for the projection geometry.
        acc += ((ray * angle + ray * ray) % 193) + 1
    return float(acc % 1_000_033)


# ---------------------------------------------------------------------------
# Batch variants: one vectorized call per TAPER chunk
# ---------------------------------------------------------------------------
#
# Each ``*_batch(payloads, out)`` receives a whole chunk — under the shm
# data plane a zero-copy 2-D int64 view of the payload region, under
# pickle a list of payload tuples — and writes ``out[k] =
# kernel(payloads[k])`` for every row.  ``elements`` varies per task, so
# the inner loop is vectorized per row over one shared ``arange``
# scratch; the per-chunk win is trading ``elements`` interpreted
# iterations per task for one numpy pass.  All arithmetic stays in
# int64: the largest intermediate (reduction's ``index * index``) is
# ~6e11 for the default workloads, far below the 9.2e18 overflow line.


def column_sum_batch(payloads, out) -> None:
    """Vectorized :func:`column_sum_kernel` over a whole chunk."""
    block = _np.asarray(payloads)
    if len(block) == 0:
        return
    k31 = _np.arange(int(block[:, 1].max()), dtype=_np.int64) * 31
    for row in range(len(block)):
        col, elements = int(block[row, 0]), int(block[row, 1])
        acc = int(((k31[:elements] + col * 7) % 97).sum())
        out[row] = float(acc % 1_000_003)


def post_process_batch(payloads, out) -> None:
    """Vectorized :func:`post_process_kernel` over a whole chunk."""
    block = _np.asarray(payloads)
    if len(block) == 0:
        return
    j17 = _np.arange(int(block[:, 1].max()), dtype=_np.int64) * 17
    for row in range(len(block)):
        i, elements = int(block[row, 0]), int(block[row, 1])
        q = (j17[:elements] + i * 13) % 89
        acc = int(((q * q + 3 * q + 7) % 101).sum())
        out[row] = float(acc % 1_000_003)


def range_sum_batch(payloads, out) -> None:
    """Vectorized :func:`range_sum_kernel` over a whole chunk."""
    block = _np.asarray(payloads)
    if len(block) == 0:
        return
    offsets = _np.arange(int(block[:, 1].max()), dtype=_np.int64)
    for row in range(len(block)):
        start, length = int(block[row, 0]), int(block[row, 1])
        index = offsets[:length] + start
        acc = int(((index * index + 1) % 9973).sum())
        out[row] = float(acc % 10_000_019)


def psirrfan_reconstruct_batch(payloads, out) -> None:
    """Vectorized :func:`psirrfan_reconstruct_kernel` over a whole chunk."""
    block = _np.asarray(payloads)
    if len(block) == 0:
        return
    rays = _np.arange(int(block[:, 1].max()), dtype=_np.int64)
    for row in range(len(block)):
        col, elements = int(block[row, 0]), int(block[row, 1])
        angle = col * 29
        ray = rays[:elements]
        acc = int(((ray * angle + ray * ray) % 193).sum()) + elements
        out[row] = float(acc % 1_000_033)


def array_sum_batch(payloads, out) -> None:
    """Vectorized :func:`array_sum_kernel`: one ``sum(axis=1)`` per chunk."""
    out[:] = _np.asarray(payloads).sum(axis=1)


def array_row_cost(payload) -> float:
    """Declared cost of one array row (vectorized: ~memory-bound)."""
    return units_of(len(payload)) / 256


# ---------------------------------------------------------------------------
# Unified kernel declarations
# ---------------------------------------------------------------------------
#
# One :class:`repro.Kernel` per computation: the per-task fn, its batch
# variant (absent on numpy-less hosts — the runtime falls back to
# per-task dispatch), and the cost declaration the builders derive their
# ``RealOp.costs`` from.

COLUMN_SUM = Kernel(
    fn=column_sum_kernel,
    batch_fn=column_sum_batch if _np is not None else None,
    cost_fn=pair_elements_cost,
)

POST_PROCESS = Kernel(
    fn=post_process_kernel,
    batch_fn=post_process_batch if _np is not None else None,
    cost_fn=pair_elements_cost,
)

RANGE_SUM = Kernel(
    fn=range_sum_kernel,
    batch_fn=range_sum_batch if _np is not None else None,
    cost_fn=pair_elements_cost,
)

PSIRRFAN_RECONSTRUCT = Kernel(
    fn=psirrfan_reconstruct_kernel,
    batch_fn=psirrfan_reconstruct_batch if _np is not None else None,
    cost_fn=pair_elements_cost,
)

ARRAY_SUM = Kernel(
    fn=array_sum_kernel,
    batch_fn=array_sum_batch if _np is not None else None,
    cost_fn=array_row_cost,
)


# ---------------------------------------------------------------------------
# Workload builders (RealOps; costs derived from each Kernel's cost_fn)
# ---------------------------------------------------------------------------


def fig1_ops(
    columns: int = 96,
    elements: int = 600,
    active_fraction: float = 0.5,
    seed: int = 0,
) -> List[RealOp]:
    """Figure 1 as two real operations: the irregular masked column loop
    ``A`` beside the regular post-processing pass ``B`` (split's ``B_I``
    portion is what makes them concurrent; here the whole of ``B`` is
    independent for simplicity of the standalone workload)."""
    rng = random.Random(seed)
    active = [c for c in range(columns) if rng.random() < active_fraction]
    # Irregular: each active column reconstructs 1x-3x the base elements.
    a_payloads = [
        (col, elements * rng.randrange(1, 4)) for col in active
    ]
    b_payloads = [(i, elements) for i in range(columns)]
    return [
        RealOp(
            name="A",
            kernel=COLUMN_SUM,
            payloads=a_payloads,
            bytes_per_task=8.0 * 64,
        ),
        RealOp(
            name="B",
            kernel=POST_PROCESS,
            payloads=b_payloads,
            bytes_per_task=8.0 * 32,
        ),
    ]


def reduction_ops(
    leaves: int = 256, length: int = 700, seed: int = 0
) -> List[RealOp]:
    """A flat data-parallel reduction: one regular operation whose tasks
    sum disjoint slices (Figure 4's reduction pattern)."""
    payloads = [(leaf * length, length) for leaf in range(leaves)]
    return [
        RealOp(
            name="reduce",
            kernel=RANGE_SUM,
            payloads=payloads,
            bytes_per_task=8.0 * 16,
        )
    ]


def psirrfan_ops(
    columns: int = 128,
    elements: int = 500,
    active_fraction: float = 0.35,
    post_elements: int = 180,
    seed: int = 42,
) -> List[RealOp]:
    """One Psirrfan sweep with the split structure: the irregular
    reconstruction ``A`` runs beside the independent post-processing
    ``B_I``; the dependent remainder ``B_D`` (declared ``deps=("A",)``)
    is dispatched only once ``A`` completes — the mp backend's
    dependency-aware scheduling at work."""
    rng = random.Random(seed)
    active = [c for c in range(columns) if rng.random() < active_fraction]
    inactive = [c for c in range(columns) if c not in set(active)]
    a_payloads = [
        (col, elements + rng.randrange(0, 2 * elements)) for col in active
    ]
    bi_payloads = [(col, post_elements) for col in inactive]
    bd_payloads = [(col, post_elements) for col in active]
    return [
        RealOp(
            name="A",
            kernel=PSIRRFAN_RECONSTRUCT,
            payloads=a_payloads,
            bytes_per_task=8.0 * 64,
        ),
        RealOp(
            name="BI",
            kernel=POST_PROCESS,
            payloads=bi_payloads,
            bytes_per_task=8.0 * 32,
        ),
        RealOp(
            name="BD",
            kernel=POST_PROCESS,
            payloads=bd_payloads,
            bytes_per_task=8.0 * 32,
            deps=("A",),
        ),
    ]


def array_ops(
    tasks: int = 48,
    row_elements: int = 65_536,
    seed: int = 0,
) -> List[RealOp]:
    """A payload-heavy data-parallel operation over numpy rows.

    ``tasks`` rows of ``row_elements`` float64 values — integral, seeded,
    deterministic — summed per task.  The natural subject for the shm
    data plane: the payload dwarfs the compute, so pickling it into
    every worker is the dominant cost.  Requires numpy.
    """
    if _np is None:
        raise RuntimeError(
            "the 'array' workload needs numpy; install it or pick a "
            "tuple-payload workload (fig1, reduction, psirrfan)"
        )
    rng = _np.random.default_rng(seed)
    payloads = [
        rng.integers(0, 100, size=row_elements).astype(_np.float64)
        for _ in range(tasks)
    ]
    return [
        RealOp(
            name="array",
            kernel=ARRAY_SUM,
            payloads=payloads,
            bytes_per_task=8.0 * row_elements,
        )
    ]


#: Real-kernel workloads runnable on either backend by name
#: (``python -m repro run <name> --backend mp``).
REAL_WORKLOADS = {
    "fig1": fig1_ops,
    "reduction": reduction_ops,
    "psirrfan": psirrfan_ops,
}
if _np is not None:
    REAL_WORKLOADS["array"] = array_ops


def graph_real_ops(
    graph,
    tasks: int = 64,
    elements: int = 400,
    seed: int = 0,
) -> Dict[int, RealOp]:
    """Attach real kernels to a compiled Delirium graph's operators.

    Masked (``where``-guarded) operators get irregular per-task work,
    everything else regular, and each task is an actual kernel call, so
    every backend executes/accounts the identical operation set.
    Pipeline-mirror stages carry no work of their own and are skipped.
    """
    rng = random.Random(seed)
    op_map: Dict[int, RealOp] = {}
    for node in graph.nodes:
        if node.pipeline_role is not None:
            continue
        n_tasks = tasks if node.is_parallel else 8
        if node.where is not None:
            payloads = [
                (index, elements * rng.randrange(1, 5))
                for index in range(n_tasks)
            ]
            kernel = COLUMN_SUM
        else:
            payloads = [(index, elements) for index in range(n_tasks)]
            kernel = POST_PROCESS
        op_map[node.id] = RealOp(
            name=node.name,
            kernel=kernel,
            payloads=payloads,
        )
    return op_map
