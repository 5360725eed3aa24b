"""Batched chunk execution: the Kernel API, batch planning, equivalence.

Coverage layers:

* **Kernel declaration units** — validation, cost derivation, the
  ``as_kernel`` adapter's type errors;
* **batch planning units** — ``contiguous_span``, zero-copy vs gathered
  ``batch_views``, and the coordinator's ``_batch_chunk`` decision
  (off / batch-less / retried / auto-threshold);
* **end-to-end equivalence** — identical value totals across
  sim / mp per-task / mp batched, on both data planes (payload size
  picks the plane);
* **fault + durability** — a raising batch degrades to per-task retry
  (quarantine stays task-granular) and speculation keeps exact-once
  accounting for batched chunks (a coordinator kill under batching is
  the smoke table's torn-tail row, ``tests/integration/test_smoke.py``);
* **observability** — ``CHUNK_BATCHED`` events, metrics counters, and
  the api summary line.

The suite-wide SIGALRM guard in ``tests/conftest.py`` bounds every run.
"""

import time
from types import SimpleNamespace

import pytest

from repro import Kernel, api, as_kernel
from repro.apps.kernels import (
    COLUMN_SUM,
    RANGE_SUM,
    fig1_ops,
    pair_elements_cost,
    range_sum_kernel,
    reduction_ops,
    units_of,
)
from repro.obs import Tracer, aggregate
from repro.obs.events import CHUNK_BATCHED
from repro.runtime.backends import MultiprocessingBackend
from repro.runtime.backends import shm
from repro.runtime.backends.mp import _MpSession
from repro.runtime.checkpoint import RunManifest
from repro.runtime.config import RunConfig
from repro.runtime.faults import FaultPlan
from repro.runtime.kernel import BATCH_AUTO_MIN_TASKS
from repro.runtime.task import RealOp

np = pytest.importorskip("numpy")

MP_CFG = RunConfig(
    processors=2, backend="mp", cost_source="declared", mp_timeout=90.0
)
SIM_CFG = RunConfig(processors=2, backend="sim", cost_source="declared")
FAULT_CFG = RunConfig(
    processors=3,
    backend="mp",
    mp_timeout=60.0,
    retry_backoff=0.01,
)


# -- module-level kernels (picklable under every start method) ---------------


def value_kernel(payload):
    if payload < 0:
        raise ValueError("poisoned payload")
    return float(payload)


def value_batch(payloads, out):
    block = np.asarray(payloads)
    if (block < 0).any():
        raise ValueError("poisoned payload in batch")
    out[:] = block


VALUE = Kernel(fn=value_kernel, batch_fn=value_batch)

#: Scalar payloads per plane: laid out as float64, this many reach
#: ``shm.AUTO_MIN_BYTES`` (shm) or stay far below it (pickle).
SCALARS = {"shm": shm.AUTO_MIN_BYTES // 8, "pickle": 24}

#: Workload ops per plane: 4096 two-int tuples lay out to 64 KiB, so
#: the wide variants land on shm and the defaults on pickle.
SIZED = {
    ("fig1", "pickle"): fig1_ops,
    ("fig1", "shm"): lambda: fig1_ops(columns=10_000, elements=4),
    ("reduction", "pickle"): reduction_ops,
    ("reduction", "shm"): lambda: reduction_ops(leaves=4096, length=16),
}


def slow_pair_kernel(payload):
    time.sleep(0.002)
    return float(payload[0] + payload[1])


def slow_pair_batch(payloads, out):
    block = np.asarray(payloads)
    time.sleep(0.002 * len(block))
    out[:] = block[:, 0] + block[:, 1]


SLOW_PAIR = Kernel(fn=slow_pair_kernel, batch_fn=slow_pair_batch)


# ---------------------------------------------------------------------------
# Kernel declaration units
# ---------------------------------------------------------------------------


def test_kernel_validation():
    with pytest.raises(TypeError):
        Kernel(fn=42)
    with pytest.raises(TypeError):
        Kernel(fn=value_kernel, batch_fn="nope")
    with pytest.raises(TypeError):
        Kernel(fn=value_kernel, cost_fn="nope")
    with pytest.raises(TypeError):
        as_kernel(3.14)
    # A bare callable is not a kernel (the adapter that wrapped one,
    # with a DeprecationWarning, is gone).
    with pytest.raises(TypeError, match="Kernel\\(fn="):
        as_kernel(value_kernel)
    with pytest.raises(TypeError, match="Kernel\\(fn="):
        RealOp(name="bare", kernel=value_kernel, payloads=[1])


def test_kernel_defaults_and_costs():
    k = Kernel(fn=range_sum_kernel)
    assert k.name == "range_sum_kernel"
    assert not k.batchable
    assert k.costs_for([(0, 10)]) is None  # no cost_fn declared
    assert RANGE_SUM.batchable
    assert RANGE_SUM.costs_for([(0, 500), (500, 700)]) == [
        units_of(500),
        units_of(700),
    ]
    assert pair_elements_cost((3, 250)) == units_of(250)


def test_as_kernel_passthrough_is_identity():
    assert as_kernel(COLUMN_SUM) is COLUMN_SUM


def test_realop_derives_costs_from_cost_fn():
    op = RealOp(name="r", kernel=RANGE_SUM, payloads=[(0, 100), (100, 300)])
    assert op.costs == [units_of(100), units_of(300)]


# ---------------------------------------------------------------------------
# Batch planning units
# ---------------------------------------------------------------------------


def test_contiguous_span():
    assert shm.contiguous_span([3, 4, 5]) == (3, 6)
    assert shm.contiguous_span([7]) == (7, 8)
    assert shm.contiguous_span([3, 5]) is None
    assert shm.contiguous_span([4, 3]) is None
    assert shm.contiguous_span([]) is None


def _attachment(payloads):
    plane = shm.ShmDataPlane()
    mode, stacked = shm.plan_payloads(payloads)
    plane.add_op(0, mode, stacked)
    return plane, shm.attach_op(plane.descriptor(0))


def test_batch_views_contiguous_is_zero_copy():
    plane, att = _attachment(list(range(10)))
    try:
        payloads, out, writeback, zero_copy = att.batch_views([2, 3, 4])
        assert zero_copy and writeback is None
        assert list(payloads) == [2, 3, 4]
        out[:] = [20.0, 30.0, 40.0]
        # Writes landed directly in the shared result buffer.
        assert plane.result_value(0, 3) == 30.0
    finally:
        att.close()
        plane.close(unlink=True)


def test_batch_views_gapped_gathers_and_writes_back():
    plane, att = _attachment(list(range(10)))
    try:
        payloads, out, writeback, zero_copy = att.batch_views([1, 4, 8])
        assert not zero_copy and writeback is not None
        assert list(payloads) == [1, 4, 8]
        out[:] = [10.0, 40.0, 80.0]
        assert plane.result_value(0, 4) == 0.0  # not yet scattered
        writeback()
        assert plane.result_value(0, 4) == 40.0
        assert plane.result_value(0, 8) == 80.0
    finally:
        att.close()
        plane.close(unlink=True)


def _decide(batching, kernel, indices, retried=frozenset()):
    session = SimpleNamespace(cfg=MP_CFG.with_(batching=batching))
    state = SimpleNamespace(
        op=SimpleNamespace(kernel=kernel), retried=set(retried)
    )
    return _MpSession._batch_chunk(session, state, indices)


def test_batch_chunk_decision():
    assert _decide("auto", VALUE, [0, 1, 2])
    # off and batch-less kernels never batch
    assert not _decide("off", VALUE, [0, 1, 2])
    assert not _decide("auto", Kernel(fn=value_kernel), [0, 1, 2])
    # retried chunks re-run per task
    assert not _decide("auto", VALUE, [0, 1, 2], retried={1})
    # auto skips sub-threshold chunks
    assert not _decide("auto", VALUE, list(range(BATCH_AUTO_MIN_TASKS - 1)))


def test_batching_config_validation():
    with pytest.raises(ValueError):
        RunConfig(batching="sometimes")
    with pytest.raises(ValueError):
        RunConfig(batching="on")
    for value in ("auto", "off"):
        assert RunConfig(batching=value).batching == value


def test_batching_is_fingerprinted():
    op = RealOp(name="r", kernel=RANGE_SUM, payloads=[(0, 100)])
    auto = RunManifest.build(MP_CFG.with_(batching="auto"), [op])
    off = RunManifest.build(MP_CFG.with_(batching="off"), [op])
    assert auto.fingerprint != off.fingerprint


# ---------------------------------------------------------------------------
# End-to-end equivalence: sim == per-task mp == batched mp, both planes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plane", ["shm", "pickle"])
@pytest.mark.parametrize("workload", ["fig1", "reduction"])
def test_batched_totals_match_per_task_and_sim(plane, workload):
    sim = api.run(SIZED[workload, plane](), SIM_CFG)
    per_task = api.run(SIZED[workload, plane](), MP_CFG.with_(batching="off"))
    batched = api.run(SIZED[workload, plane](), MP_CFG)
    for run in (per_task, batched):
        assert set(run.data_plane.values()) == {plane}
    assert per_task.batched_chunks == 0
    assert batched.batched_chunks > 0
    assert batched.batched_tasks <= batched.tasks
    assert batched.value_total == per_task.value_total == sim.value_total
    assert batched.tasks == per_task.tasks == sim.tasks


def test_auto_batches_batchable_kernels_by_default():
    result = api.run("reduction", MP_CFG)  # batching defaults to "auto"
    assert result.batched_chunks > 0


def test_batchless_kernel_runs_per_task():
    op = RealOp(
        name="plain",
        kernel=Kernel(fn=value_kernel),
        payloads=[float(i) for i in range(16)],
        costs=[1.0] * 16,
    )
    result = MultiprocessingBackend().run_op(op, MP_CFG)
    assert result.batched_chunks == 0
    assert result.value_total == sum(range(16))


# ---------------------------------------------------------------------------
# Faults, speculation, durability
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plane", ["shm", "pickle"])
def test_raising_batch_retries_per_task(plane):
    tasks = SCALARS[plane]
    payloads = [float(i) for i in range(tasks)]
    op = RealOp(name="v", kernel=VALUE, payloads=payloads)
    cfg = FAULT_CFG.with_(
        fault_plan=FaultPlan.kernel_raise(at_chunk=1, times=1),
    )
    result = MultiprocessingBackend().run_op(op, cfg)
    assert result.data_plane == {"v": plane}
    assert result.value_total == sum(range(tasks))
    assert result.fault_report.retries >= 1
    assert result.fault_report.ok


@pytest.mark.parametrize("plane", ["shm", "pickle"])
def test_poisoned_payload_quarantines_one_task_not_the_chunk(plane):
    # The batch raises on the poisoned chunk; the per-task retry path
    # isolates the single bad payload and recovers every other value.
    payloads = [float(i) for i in range(SCALARS[plane])]
    payloads[7] = -1.0
    op = RealOp(name="v", kernel=VALUE, payloads=payloads)
    cfg = FAULT_CFG.with_(max_retries=1)
    result = MultiprocessingBackend().run_op(op, cfg)
    assert result.data_plane == {"v": plane}
    assert [pair for pair in result.fault_report.quarantined] == [("v", 7)]
    assert result.value_total == sum(p for p in payloads if p >= 0)


def test_speculation_exact_once_with_batched_chunks():
    payloads = [(i, i + 1) for i in range(40)]
    expected = sum(i + i + 1 for i in range(40))
    op = RealOp(name="sp", kernel=SLOW_PAIR, payloads=payloads)
    cfg = FAULT_CFG.with_(
        speculation_factor=2.0,
        fault_plan=FaultPlan.slow_chunk(1.0, at_chunk=1),
    )
    result = MultiprocessingBackend().run_op(op, cfg)
    assert result.fault_report.chunks_speculated >= 1
    assert result.value_total == expected
    assert result.tasks == 40
    # First-result-wins dedup: batched counters only count fresh tasks.
    assert result.batched_tasks <= result.tasks


def test_chunk_batched_events_and_metrics():
    tracer = Tracer()
    result = api.run("reduction", MP_CFG.with_(tracer=tracer))
    batched = [e for e in tracer.events if e.kind == CHUNK_BATCHED]
    assert len(batched) == result.batched_chunks > 0
    assert all(e.attrs["tasks_per_call"] >= 1 for e in batched)
    assert all(isinstance(e.attrs["zero_copy"], bool) for e in batched)
    report = aggregate(tracer.events, processors=MP_CFG.processors)
    assert report.batched_chunks == result.batched_chunks
    assert report.batched_tasks == result.batched_tasks


def test_api_summary_mentions_batching():
    batched = api.run("reduction", MP_CFG)
    assert "batched" in batched.summary()
    off = api.run("reduction", MP_CFG.with_(batching="off"))
    assert "batched" not in off.summary()
