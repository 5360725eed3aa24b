"""The warm-pool protocol: prepare()/release(), reuse, segment cache.

Satellite guarantees of the serve PR, testable without a daemon:

* a prepared mp backend runs identical results to a cold one;
* worker processes are spawned once per prepare, not once per run;
* identical-shape shm payloads are served from the pool's segment
  cache on repeat runs (no re-creation, no re-copy);
* callers that ignore the protocol entirely (plain ``run()``) and
  configs the pool cannot serve (or a pool another run holds) fall back
  to an ephemeral pool for that call — no errors, no deprecation;
* a ``StreamOp`` runs again with the same totals, and its pages occupy
  ``/dev/shm`` only while they are in the admission window.
"""

import multiprocessing

import pytest

import repro.api as api
from repro.apps.streams import stream_ops, synthetic_total
from repro.runtime.backends import backend_for
from repro.runtime.backends.mp import MultiprocessingBackend, WorkerPool
from repro.runtime.config import PoolConfig, RunConfig

from ..procs import repro_segments

P = 2


def mp_config(**overrides):
    return api.RunConfig(backend="mp", processors=P, **overrides)


def test_prepared_totals_match_cold_run():
    cfg = mp_config()
    cold = api.run("fig1", cfg)
    with api.prepared(cfg) as backend:
        warm1 = api.run("fig1", cfg, executor=backend)
        warm2 = api.run("fig1", cfg, executor=backend)
    for warm in (warm1, warm2):
        assert warm.value_total == cold.value_total
        assert warm.tasks == cold.tasks
        assert warm.backend == "mp"


def test_pool_spawns_once_across_runs():
    cfg = mp_config()
    with api.prepared(cfg) as backend:
        pool = backend.pool
        assert isinstance(pool, WorkerPool)
        api.run("fig1", cfg, executor=backend)
        api.run("reduction", cfg, executor=backend)
        api.run("fig1", cfg, executor=backend)
        assert pool.total_spawns == P  # one spawn per worker, ever
        assert pool.running
    assert not pool.running  # release() stopped it


def test_release_is_idempotent_and_reentrant():
    backend = MultiprocessingBackend()
    backend.release()  # nothing prepared: no-op
    cfg = mp_config()
    backend.prepare(cfg)
    first = backend.pool
    backend.prepare(cfg)  # second prepare keeps the same pool
    assert backend.pool is first
    backend.release()
    assert backend.pool is None
    backend.release()  # double release: no-op


def test_segment_cache_reuses_identical_payloads():
    pytest.importorskip("numpy")
    from repro.apps.kernels import fig1_ops

    cfg = mp_config()
    wide = dict(columns=10_000, elements=4)  # both ops lay out past 64 KiB
    with api.prepared(cfg) as backend:
        first = api.run(fig1_ops(**wide), cfg, executor=backend)
        second = api.run(fig1_ops(**wide), cfg, executor=backend)
        cache = backend.pool.segment_cache
        assert cache is not None
        assert cache.misses > 0  # first run populated it
        assert cache.hits > 0  # second run hit it
    assert first.shm_reused_bytes == 0
    assert second.shm_reused_bytes > 0
    assert second.value_total == first.value_total


def test_mismatched_config_falls_back_to_cold():
    cfg = mp_config()
    with api.prepared(cfg) as backend:
        pool = backend.pool
        other = api.RunConfig(backend="mp", processors=P + 1)
        result = api.run("fig1", other, executor=backend)
        assert result.value_total > 0
        assert result.processors == P + 1
        # The resident pool was not consumed nor resized by the
        # mismatched run.
        assert pool.total_spawns == P
        assert backend.pool is pool


def test_busy_pool_falls_back_to_an_ephemeral_one():
    cfg = mp_config()
    with api.prepared(cfg) as backend:
        pool = backend.pool
        children = set(multiprocessing.active_children())
        assert pool.try_acquire()  # another run holds the pool
        try:
            result = api.run("fig1", cfg, executor=backend)
        finally:
            pool.release_use()
        assert result.value_total == api.run("fig1", cfg).value_total
        # The claimed pool was left alone: the run built (and stopped)
        # its own workers, none of which survive it.
        assert pool.total_spawns == P
        assert set(multiprocessing.active_children()) == children


def test_plain_run_needs_no_protocol():
    """Direct callers that never heard of prepare()/release() keep
    working — the protocol is opt-in, not a new requirement."""
    backend = MultiprocessingBackend()
    raw = backend.run_ops(
        api.resolve_ops("fig1", mp_config())[0], mp_config()
    )
    assert raw.value_total > 0


def test_sim_backend_protocol_is_a_no_op():
    cfg = RunConfig(backend="sim", processors=4)
    backend = backend_for(cfg)
    assert backend.prepare(cfg) is backend
    backend.release()
    with api.prepared(cfg) as prepared_backend:
        result = api.run("fig1", cfg, executor=prepared_backend)
    assert result.backend == "sim"


def test_prepared_context_releases_on_error():
    cfg = mp_config()
    with pytest.raises(RuntimeError, match="boom"):
        with api.prepared(cfg) as backend:
            pool = backend.pool
            assert pool.running
            raise RuntimeError("boom")
    assert not pool.running


# ---------------------------------------------------------------------------
# Streams on a resident pool: the op is never the run's scratch space
# ---------------------------------------------------------------------------


def test_a_stream_op_runs_twice_with_the_same_totals():
    """A run admits pages into its own books, never into the
    ``StreamOp``: the second run starts from the source with none of
    the first run's tasks pending."""
    (op,) = stream_ops(records=4_000, records_per_task=100, page_records=1_000)
    cfg = mp_config(mp_timeout=60.0)
    with api.prepared(cfg) as backend:
        runs = [api.run(op, cfg, executor=backend) for _ in range(2)]
    for result in runs:
        assert result.value_total == synthetic_total(4_000)
        assert result.tasks == 40
        assert result.fault_report.quarantined == []
        assert result.fault_report.retries == 0
    assert op.payloads == []


def test_stream_pages_map_no_more_than_the_window():
    """Each page is a key, placed and unlinked like an op's: with the
    segment cache keeping nothing unpinned, what ``/dev/shm`` holds
    while the stream runs is the window's pages, and nothing after
    ``release()``."""
    pytest.importorskip("numpy")
    window = 2
    cfg = mp_config(
        stream_window=window,
        mp_timeout=60.0,
        pool=PoolConfig(shm_cache_bytes=1),
    )
    backend = MultiprocessingBackend().prepare(cfg)
    before = repro_segments()
    mapped = []

    def sink(page):
        # ``repro_<token>_<key>p`` / ``..._<key>r``: one key per page.
        gained = repro_segments() - before
        mapped.append({name.rsplit("_", 1)[1][:-1] for name in gained})

    try:
        # Pages of 100 rows of 100 floats: 80 KB each, shm-sized.
        (op,) = stream_ops(
            records=100_000, records_per_task=100, page_records=10_000,
            sink=sink,
        )
        result = api.run(op, cfg, executor=backend)
    finally:
        backend.release()
    assert result.value_total == synthetic_total(100_000)
    assert result.stream["stream"]["plane"] == "shm"
    assert len(mapped) == 10
    assert max(len(keys) for keys in mapped) <= window
    assert repro_segments() <= before
