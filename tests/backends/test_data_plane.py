"""The shared-memory data plane: planning, equivalence, crash hygiene.

Three layers of coverage:

* **planning units** — which payload shapes are shm-eligible, the
  size floor that decides the plane, and the pickle fallback (including
  a simulated numpy-less host);
* **end-to-end equivalence** — identical value totals across
  sim / mp+pickle / mp+shm, and across fork/spawn;
* **crash hygiene** — worker kills under both planes must preserve
  totals and leave zero ``/dev/shm`` segments behind (the leak scan
  keys on the distinctive ``repro_`` prefix); a killed and resumed
  shm-page stream is ``test_streaming.py``'s and the smoke table's.

The suite-wide SIGALRM guard in ``tests/conftest.py`` bounds every run.
"""

import contextlib
import errno
import itertools
import os
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.obs import Tracer, aggregate, audit
from repro.obs.events import SHM_ATTACH, SHM_MAP
from repro.runtime.backends import MultiprocessingBackend, get_backend
from repro.runtime.backends import MpBackendError, shm
from repro.runtime.backends.dist import _HostFleet, parse_hosts
from repro.runtime.backends.pool import WorkerPool
from repro.runtime.config import PoolConfig, RunConfig
from repro.runtime.faults import FaultPlan
from repro.runtime.kernel import Kernel
from repro.runtime.task import RealOp

from ..procs import repro_segments
from .test_dist import _start_agents

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


def identity_kernel(payload):
    return float(payload)


def tuple_sum_kernel(payload):
    return float(sum(payload))


def slow_tuple_sum_kernel(payload):
    time.sleep(0.001)
    return float(sum(payload))


@pytest.fixture(autouse=True)
def no_segment_leaks():
    before = repro_segments()
    yield
    leaked = sorted(repro_segments() - before)
    assert not leaked, f"leaked /dev/shm segments: {leaked}"


# ---------------------------------------------------------------------------
# Payload planning
# ---------------------------------------------------------------------------


def test_plan_array_payloads():
    payloads = [np.ones(8) * i for i in range(4)]
    mode, stacked = shm.plan_payloads(payloads)
    assert mode == "array"
    assert stacked.shape == (4, 8)
    assert stacked[2][0] == 2.0


def test_few_large_rows_plan_in_place():
    """Rows from ``INPLACE_ROW_BYTES`` up are the caller's own arrays, not
    a stacked copy of them; a byte less a row and they are stacked."""
    size = shm.INPLACE_ROW_BYTES
    large = [np.full(size, i, dtype=np.uint8) for i in range(3)]
    mode, layout = shm.plan_payloads(large)
    assert mode == "array" and isinstance(layout, shm.RowLayout)
    assert (layout.shape, layout.nbytes) == ((3, size), 3 * size)
    assert all(row is payload for row, payload in zip(layout.rows, large))
    mode, stacked = shm.plan_payloads([row[1:] for row in large])
    assert mode == "array" and isinstance(stacked, np.ndarray)
    assert stacked.shape == (3, size - 1)


def test_plan_scalar_payloads_preserve_python_types():
    mode, stacked = shm.plan_payloads([1, 2, 3])
    assert mode == "scalar"
    assert stacked.dtype == np.int64
    mode, stacked = shm.plan_payloads([1.0, 2.0])
    assert stacked.dtype == np.float64


def test_plan_tuple_payloads():
    mode, stacked = shm.plan_payloads([(0, 700), (700, 700)])
    assert mode == "tuple"
    assert stacked.shape == (2, 2)


@pytest.mark.parametrize(
    "payloads",
    [
        [],  # empty
        [1, 2.0],  # mixed scalar types
        [(1, 2), (1, 2, 3)],  # ragged tuples
        [(1, 2.0)],  # mixed types inside a tuple
        [True, False],  # bool is not int for kernels
        ["a", "b"],  # strings
        [2**80],  # beyond int64
        [np.ones(3), np.ones(4)],  # ragged arrays
        [np.array([], dtype=np.float64)],  # zero-byte arrays
        [np.array([object()], dtype=object)],  # object dtype
    ],
)
def test_ineligible_payloads_stay_on_pickle(payloads):
    assert shm.plan_payloads(payloads) is None


def test_plan_returns_none_without_numpy(monkeypatch):
    monkeypatch.setattr(shm, "_np", None)
    assert not shm.shm_available()
    assert shm.plan_payloads([1, 2, 3]) is None


def test_estimate_payload_nbytes():
    assert shm.estimate_payload_nbytes(np.zeros(10)) == 80
    assert shm.estimate_payload_nbytes((1, 2.0)) == 16
    assert shm.estimate_payload_nbytes([(1, 2)] * 3) == 48
    assert shm.estimate_payload_nbytes(b"abcd") == 4
    assert shm.estimate_payload_nbytes(object()) == 64


_SCALARS = st.one_of(
    st.integers(-(2**63), 2**63 - 1), st.floats(allow_nan=True)
)


@settings(max_examples=60, deadline=None)
@given(
    payloads=st.one_of(
        st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=20),
        st.lists(st.floats(), min_size=1, max_size=20),
        st.integers(1, 4).flatmap(
            lambda width: st.lists(
                st.tuples(*[_SCALARS] * width), min_size=1, max_size=12
            )
        ),
        st.tuples(
            st.sampled_from(["u1", "<i2", ">f8", "<c16", "S3"]),
            st.lists(st.integers(0, 5), min_size=1, max_size=3),
            st.integers(1, 6),
        ).map(
            lambda spec: [
                np.zeros(spec[1], dtype=spec[0]) for _ in range(spec[2])
            ]
        ),
    )
)
def test_a_plan_is_sized_as_the_estimate_sizes_it(payloads):
    """The pickle plane sizes a declined plan by its ``nbytes``: that
    must be what the recursive estimate would have said."""
    planned = shm.plan_payloads(payloads)
    if planned is not None:
        assert planned[1].nbytes == shm.estimate_payload_nbytes(payloads)


@pytest.mark.parametrize(
    "payloads",
    [[(1, 2)] * 3, [1.5] * 4, [np.ones(3)] * 2, [True, False], ["ab"]],
)
def test_a_declined_list_is_sized_once(payloads, monkeypatch):
    """``auto`` declines a small plan and ships it pickled, sized by the
    plan; only a list that does not plan is walked by the estimate."""
    expected = shm.estimate_payload_nbytes(payloads)
    plans = shm.plan_payloads(payloads) is not None
    walked = []
    real = shm.estimate_payload_nbytes

    def estimate(payload):
        walked.append(payload is payloads)
        return real(payload)

    monkeypatch.setattr(shm, "estimate_payload_nbytes", estimate)
    plane = shm.ShmDataPlane()
    try:
        descriptor, nbytes = shm.place(plane, payloads, 0)
    finally:
        plane.close(unlink=True)
    assert descriptor is None and nbytes == expected
    assert walked.count(True) == (0 if plans else 1)


def test_plane_roundtrip_and_idempotent_close():
    plane = shm.ShmDataPlane()
    mode, stacked = shm.plan_payloads([(i, i * 2) for i in range(6)])
    descriptor = plane.add_op(0, mode, stacked)
    attachment = shm.attach_op(descriptor)
    assert attachment.get_payload(3) == (3, 6)
    attachment.result[3] = 9.0
    assert plane.result_value(0, 3) == 9.0
    attachment.close()
    plane.close(unlink=True)
    plane.close(unlink=True)  # idempotent


# ---------------------------------------------------------------------------
# Plane selection: the payloads' size decides, fallback
# ---------------------------------------------------------------------------


def tuple_op(plane="pickle", kernel=Kernel(fn=tuple_sum_kernel)):
    """An op ``"tup"`` of int tuples whose layout alone lands it on
    ``plane``: 40 pairs lay out to 640 B, 64 rows of 128 ints to
    64 KiB, which is ``shm.AUTO_MIN_BYTES``."""
    tasks, width = (64, 128) if plane == "shm" else (40, 2)
    payloads = [tuple(range(i, i + width)) for i in range(tasks)]
    return RealOp(
        name="tup",
        kernel=kernel,
        payloads=payloads,
        costs=[1.0] * len(payloads),
    )


def serial_total(op):
    return sum(map(sum, op.payloads))


def test_payload_size_picks_the_plane():
    op = tuple_op("shm")
    assert shm.plan_payloads(op.payloads)[1].nbytes == shm.AUTO_MIN_BYTES
    below = shm.plan_payloads(op.payloads[:-1])[1].nbytes
    assert below < shm.AUTO_MIN_BYTES
    result = MultiprocessingBackend().run_op(op, MP_CFG)
    assert result.data_plane == {"tup": "shm"}
    assert result.shm_bytes > 0
    assert result.value_total == serial_total(op)


def array_first_kernel(payload):
    return float(payload[0])


def test_auto_maps_large_arrays():
    rows = [np.full(16_384, float(i)) for i in range(8)]  # 128 KiB stacked
    op = RealOp(
        name="big",
        kernel=Kernel(fn=array_first_kernel),
        payloads=rows,
        costs=[1.0] * len(rows),
    )
    result = MultiprocessingBackend().run_op(op, MP_CFG)
    assert result.data_plane == {"big": "shm"}
    assert result.value_total == sum(range(8))


def test_pickle_plane_never_maps():
    op = tuple_op("pickle")  # 640 B laid out: below the floor
    result = MultiprocessingBackend().run_op(op, MP_CFG)
    assert result.data_plane == {"tup": "pickle"}
    assert result.shm_bytes == 0
    assert result.value_total == serial_total(op)


def test_numpy_absent_falls_back_to_pickle(monkeypatch):
    monkeypatch.setattr(shm, "_np", None)
    op = tuple_op("shm")
    result = MultiprocessingBackend().run_op(op, MP_CFG)
    assert result.data_plane == {"tup": "pickle"}
    assert result.value_total == serial_total(op)


# ---------------------------------------------------------------------------
# A full /dev/shm: ENOSPC from the layout's write, then pickle
# ---------------------------------------------------------------------------

linux_only = pytest.mark.skipif(
    sys.platform != "linux", reason="pwritev layout is the Linux path"
)


def fill_shm_after(monkeypatch, writes):
    """Let ``writes`` segment writes through, then report a full tmpfs."""
    real = os.pwritev
    left = [writes]

    def pwritev(fd, buffers, offset):
        if left[0] <= 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        left[0] -= 1
        return real(fd, buffers, offset)

    monkeypatch.setattr(shm.os, "pwritev", pwritev)


@linux_only
def test_full_dev_shm_run_finishes_on_pickle(monkeypatch):
    # The autouse fixture holds the other half: /dev/shm gains no name.
    fill_shm_after(monkeypatch, 0)
    op = tuple_op("shm")
    result = MultiprocessingBackend().run_op(op, MP_CFG)
    assert result.data_plane == {"tup": "pickle"}
    assert result.shm_bytes == 0
    assert result.value_total == serial_total(op)


@linux_only
def test_full_dev_shm_stream_pages_ride_pickle(monkeypatch):
    from repro.apps.streams import stream_ops, synthetic_total

    fill_shm_after(monkeypatch, 0)
    # Pages of 100 rows of 100 floats: 80 KB each, shm-sized.
    (op,) = stream_ops(
        records=40_000, records_per_task=100, page_records=10_000
    )
    result = api.run(op, MP_CFG)
    assert result.value_total == synthetic_total(40_000)
    assert result.stream["stream"]["plane"] == "pickle"


@linux_only
@pytest.mark.parametrize("writes", [0, 1])  # payload fill, result fill
def test_failed_layout_unlinks_what_it_created(monkeypatch, writes):
    before = repro_segments()
    mode, stacked = shm.plan_payloads([(i, i * 2) for i in range(6)])
    plane = shm.ShmDataPlane(cache=shm.SegmentCache())
    fill_shm_after(monkeypatch, writes)
    with pytest.raises(OSError, match="No space"):
        plane.add_op(0, mode, stacked)
    # Before close(): the failed calls cleaned up after themselves.
    assert repro_segments() == before
    assert len(plane) == 0 and plane.shm_bytes == 0
    plane.close(unlink=True)


@linux_only
def test_failed_layout_unpins_the_borrowed_entry(monkeypatch):
    mode, stacked = shm.plan_payloads([(i, i * 2) for i in range(6)])
    cache = shm.SegmentCache()
    try:
        first = shm.ShmDataPlane(cache=cache)
        first.add_op(0, mode, stacked)
        first.close(unlink=True)
        fill_shm_after(monkeypatch, 0)  # the hit writes only the result
        second = shm.ShmDataPlane(cache=cache)
        with pytest.raises(OSError, match="No space"):
            second.add_op(0, mode, stacked)
        assert cache.stats()["hits"] == 1 and second.reused_bytes == 0
        # Unpinned: a put under the same key may take the entry's place.
        key = cache.fingerprint(mode, stacked)
        stub = shm._shared_memory.SharedMemory(create=True, size=8)
        assert cache.put(key, stub, 8)
        second.close(unlink=True)
    finally:
        cache.close()


@linux_only
def test_layout_survives_short_writes(monkeypatch):
    """``pwritev`` may write less than it was given: partial counts that
    stop inside a row or many rows on, over more rows than one call may
    take, must still leave exactly the stacked bytes in the segment."""
    monkeypatch.setattr(shm, "INPLACE_ROW_BYTES", 1)  # every row in place
    rows = [np.arange(i, i + 13).astype(np.uint8) for i in range(1030)]
    budgets = itertools.cycle([1, 13, 7, 4096 + 3, 26, 1 << 20])
    calls = []

    def short(fd, buffers, offset):
        calls.append(len(buffers))
        head = b"".join(bytes(buffer) for buffer in buffers)
        return os.pwrite(fd, head[: next(budgets)], offset)

    monkeypatch.setattr(shm.os, "pwritev", short)
    plane = shm.ShmDataPlane()
    try:
        descriptor = plane.add_op(0, *shm.plan_payloads(rows))
        segment = shm._attach_segment(descriptor.payload_name)
        try:
            held = bytes(segment.buf[: 1030 * 13])
        finally:
            segment.close()
    finally:
        plane.close(unlink=True)
    assert held == np.stack(rows).tobytes()
    assert max(calls) <= os.sysconf("SC_IOV_MAX") < len(rows)
    assert len(calls) > 2


@pytest.mark.parametrize("arm", ["miss", "hit"])
def test_layout_never_copies_the_payloads(arm):
    """Placing 16 MiB of rows allocates no stacked copy: the rows are
    hashed, compared and written where they lie."""
    rows = [np.full(65_536, float(i)) for i in range(32)]  # 32 x 512 KiB
    cache = shm.SegmentCache(0)
    planes = [shm.ShmDataPlane(cache=cache) for _ in range(2)]
    try:
        if arm == "hit":
            assert shm.place(planes[0], rows, 0)[0] is not None
        tracemalloc.start()
        try:
            assert shm.place(planes[1], rows, 0)[0] is not None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert planes[1].reused_bytes == (16 << 20 if arm == "hit" else 0)
    finally:
        for plane in planes:
            plane.close(unlink=True)
        cache.close()
    assert peak < 1 << 20, f"{peak / (1 << 20):.2f} MiB allocated"


# ---------------------------------------------------------------------------
# The one ladder: eligibility x size x room -> plane
# ---------------------------------------------------------------------------

LADDER_PAYLOADS = {
    "ineligible": lambda: [("a", i) for i in range(40)],
    "small": lambda: [(i, i + 1) for i in range(40)],  # 640 B stacked
    "big": lambda: [np.full(2_048, float(i)) for i in range(8)],  # 128 KiB
}


def ladder_says(payload, full):
    return "shm" if payload == "big" and not full else "pickle"


@contextlib.contextmanager
def one_worker_fleet(route):
    """A started one-worker pool, directly or behind a host agent; its
    cache keeps nothing unpinned, so an unload shows in ``/dev/shm``."""
    if route == "pool":
        fleet = stopper = WorkerPool(
            1, pool_config=PoolConfig(shm_cache_bytes=1)
        )
    else:
        (stopper,), hosts = _start_agents([1], shm_cache_bytes=1)
        fleet = _HostFleet(parse_hosts(hosts))
    try:
        fleet.start()
        yield fleet
    finally:
        fleet.stop()
        stopper.stop()  # (the pool's second stop is a no-op)


@linux_only
@pytest.mark.parametrize("full", [False, True], ids=["room", "full"])
@pytest.mark.parametrize("route", ["pool", "hosts"])
def test_one_ladder_places_every_load(monkeypatch, route, full):
    """Every payload lands on the plane the ladder names, through
    ``WorkerPool.load`` and through a host agent alike, and a layout
    declined or failed leaves no segment behind."""
    with one_worker_fleet(route) as fleet:
        before = repro_segments()
        if full:
            fill_shm_after(monkeypatch, 0)
        for key, payload in enumerate(LADDER_PAYLOADS):
            case = payload
            facts = fleet.load(
                0, key, tuple_sum_kernel, LADDER_PAYLOADS[payload]()
            )
            plane = ladder_says(payload, full)
            assert facts["plane"] == plane, case
            assert (facts["shm_bytes"] > 0) == (plane == "shm"), case
            assert (facts["segment"] is None) == (plane == "pickle"), case
            assert (repro_segments() == before) == (plane == "pickle"), case
            fleet.unload(key)
            deadline = time.monotonic() + 10.0  # an agent unloads on a frame
            while repro_segments() != before and time.monotonic() < deadline:
                time.sleep(0.01)
            assert repro_segments() == before, case


def test_bytes_shipped_scales_with_workers_only_on_pickle():
    pickle_run = MultiprocessingBackend().run_op(tuple_op("pickle"), MP_CFG)
    shm_run = MultiprocessingBackend().run_op(tuple_op("shm"), MP_CFG)
    # Pickle ships the payload estimate per worker; shm lays it out once.
    assert pickle_run.bytes_shipped == 2 * 40 * 16
    assert shm_run.bytes_shipped == shm.AUTO_MIN_BYTES


# ---------------------------------------------------------------------------
# Equivalence: sim == mp+pickle == mp+shm, fork and spawn
# ---------------------------------------------------------------------------

#: Reductions whose leaves lay out below and at ``shm.AUTO_MIN_BYTES``.
REDUCTIONS = {"pickle": {}, "shm": {"leaves": 4096, "length": 16}}


@pytest.mark.parametrize("plane", ["shm", "pickle"])
def test_reduction_totals_match_sim(plane):
    from repro.apps.kernels import reduction_ops

    sim = api.run(reduction_ops(**REDUCTIONS[plane]), SIM_CFG)
    mp = api.run(reduction_ops(**REDUCTIONS[plane]), MP_CFG)
    assert mp.data_plane == {"reduce": plane}
    assert mp.tasks == sim.tasks
    assert mp.value_total == sim.value_total


def test_fig1_shm_equals_pickle(monkeypatch):
    # Wide enough that both ops lay out above the floor; a numpy-less
    # coordinator runs the same ops on pickle.
    from repro.apps.kernels import fig1_ops

    shm_run = api.run(fig1_ops(columns=10_000, elements=4), MP_CFG)
    monkeypatch.setattr(shm, "_np", None)
    pickle_run = api.run(fig1_ops(columns=10_000, elements=4), MP_CFG)
    assert set(shm_run.data_plane.values()) == {"shm"}
    assert set(pickle_run.data_plane.values()) == {"pickle"}
    assert shm_run.value_total == pickle_run.value_total
    assert shm_run.tasks == pickle_run.tasks


def test_array_workload_matches_under_spawn():
    # spawn is where the plane pays: Process args are re-pickled, so
    # rows that lay out above the floor ship once (shm), and rows below
    # it ship to each of the P workers (pickle) — both exact.
    from repro.apps.kernels import array_ops

    cfg = MP_CFG.with_(mp_start_method="spawn", mp_timeout=120.0)
    for plane, row_elements, copies in (("shm", 4096, 1), ("pickle", 512, 2)):
        (op,) = array_ops(tasks=8, row_elements=row_elements)
        result = MultiprocessingBackend().run_op(op, cfg)
        assert result.data_plane == {"array": plane}
        serial = sum(float(row.sum()) for row in op.payloads)
        assert result.value_total == serial
        assert result.bytes_shipped == copies * 8 * row_elements * 8


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def test_shm_events_and_metrics():
    tracer = Tracer()
    result = MultiprocessingBackend().run_op(
        tuple_op("shm"), MP_CFG.with_(tracer=tracer)
    )
    maps = [e for e in tracer.events if e.kind == SHM_MAP]
    attaches = [e for e in tracer.events if e.kind == SHM_ATTACH]
    assert len(maps) == 1 and maps[0].attrs["mode"] == "tuple"
    assert 1 <= len(attaches) <= MP_CFG.processors
    report = aggregate(tracer.events, processors=MP_CFG.processors)
    assert report.shm_ops_mapped == 1
    assert report.shm_attaches == len(attaches)
    assert report.shm_bytes == result.shm_bytes
    from repro.obs import metrics_summary

    assert "data plane" in metrics_summary(report)


def test_api_summary_mentions_data_plane():
    result = api.run(tuple_op("shm"), MP_CFG)
    assert "shared memory" in result.summary()
    pickle_result = api.run(tuple_op("pickle"), MP_CFG)
    assert "shared memory" not in pickle_result.summary()


# ---------------------------------------------------------------------------
# Fault tolerance under both planes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plane", ["shm", "pickle"])
def test_worker_kill_mid_chunk_preserves_totals(plane):
    op = tuple_op(plane, kernel=Kernel(fn=slow_tuple_sum_kernel))
    cfg = FAULT_CFG.with_(fault_plan=FaultPlan.kill_worker(-1, at_chunk=1))
    result = MultiprocessingBackend().run_op(op, cfg)
    assert result.value_total == serial_total(op)
    assert len(result.fault_report.workers_died) == 1
    assert result.data_plane == {"tup": plane}


@pytest.mark.parametrize("plane", ["shm", "pickle"])
def test_speculation_exact_once_under_plane(plane):
    op = tuple_op(plane, kernel=Kernel(fn=slow_tuple_sum_kernel))
    tracer = Tracer()
    cfg = FAULT_CFG.with_(
        speculation_factor=2.0,
        fault_plan=FaultPlan.slow_chunk(1.0, at_chunk=1),
        tracer=tracer,
    )
    result = MultiprocessingBackend().run_op(op, cfg)
    assert result.data_plane == {"tup": plane}
    assert result.fault_report.chunks_speculated >= 1
    assert result.value_total == serial_total(op)
    assert result.tasks == op.size
    audit.check(audit.Run(tracer.events))


def test_key_whose_only_loader_died_is_still_unloaded():
    """The hard exit: the one worker that loaded the op dies and cannot
    come back, so the run fails with nobody left to send an unload to.
    The session still unloads the key: its segments are gone and every
    cache pin is given back, on a pool that lives on."""
    cfg = FAULT_CFG.with_(
        processors=1,
        pool=PoolConfig(max_respawns=0, shm_cache_bytes=1),
        fault_plan=FaultPlan.kill_worker(-1, at_chunk=0),
    )
    before = repro_segments()
    backend = MultiprocessingBackend().prepare(cfg)
    try:
        pool = backend.pool
        with pytest.raises(MpBackendError, match="every worker process died"):
            backend.run_op(
                tuple_op("shm", kernel=Kernel(fn=slow_tuple_sum_kernel)), cfg
            )
        assert pool.running and pool.quarantined == {0}
        assert pool._resident == {}
        assert pool.segment_cache._pins == {}
        # Unpinned past a one-byte budget: evicted, so nothing is left.
        assert pool.segment_cache.stats()["misses"] == 1
        assert repro_segments() == before
    finally:
        backend.release()
