"""The Fleet seam: the real ``_MpSession`` on a fleet with no child
process and no socket.

``SimFleet`` (the simulator's) runs each ``run`` command's kernel
inline and files the report in simulated time; the session on top of
it is the production scheduling core, unmodified.  It must survive a
worker vanishing mid-chunk with exact totals, run a stream whose pages
are keys like any op's, and every fleet the session can run on must
answer the whole ``Fleet`` protocol, its data-plane contract included:
the session knows none of it.
"""

import collections
import contextlib
import inspect
import math
import multiprocessing.connection
import os
import pathlib
import queue
import re
import signal
import sys
import threading
import time
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro import api
from repro.obs import Tracer, audit
from repro.apps.kernels import RANGE_SUM, REAL_WORKLOADS
from repro.apps.streams import stream_ops, synthetic_total
from repro.runtime.backends.base import LOAD_SUMS, Fleet, load_facts
from repro.runtime.backends.dist import HostAgent, _HostFleet
from repro.runtime.backends import mp
from repro.runtime.backends import pool as pool_module
from repro.runtime.backends.mp import WorkerPool, _MpSession
from repro.runtime.backends.sim import SimFleet
from repro.runtime.checkpoint import (
    ChunkJournal,
    ChunkRecord,
    PageMark,
    RunManifest,
    read_journal,
    restorable,
)
from repro.runtime.config import PoolConfig, RunConfig
from repro.runtime.faults import FaultPlan
from repro.runtime.kernel import Kernel
from repro.runtime.machine import MachineConfig
from repro.runtime.task import StreamOp
from repro.serve import server as serve_server
from repro.serve.server import _TenantFleet

from ..dst import TIER1


class RecordingFleet(SimFleet):
    """A :class:`SimFleet` that keeps every ``run`` as ``(key,
    indices)`` and every unloaded key."""

    def __init__(self, workers):
        super().__init__(workers)
        self.commands = []
        self.unloaded = []

    def send(self, wid, message):
        self.commands.append((message[1], list(message[2])))
        super().send(wid, message)

    def unload(self, key):
        self.unloaded.append(key)
        super().unload(key)


class InterruptedAtLoad(SimFleet):
    """SIGINT at this very process from inside the ``at``-th ``load``:
    the session's handlers turn it into a drain, with no sleep."""

    name = "mp"  # the resume hint names the backend to resume on

    def __init__(self, workers, at=1):
        super().__init__(workers)
        self.at = at
        self.loads = 0

    def load(self, wid, key, kernel, payloads):
        self.loads += 1
        if self.loads == self.at:
            os.kill(os.getpid(), signal.SIGINT)
        return super().load(wid, key, kernel, payloads)


def _cfg(p, **overrides):
    return RunConfig(
        processors=p,
        backend="mp",
        cost_source="declared",
        **overrides,
    )


def _serial_total(ops):
    return sum(
        float(op.kernel(payload)) for op in ops for payload in op.payloads
    )


UNITS = st.floats(0.001, 1000.0)


@TIER1
@given(
    costs=st.lists(UNITS, min_size=1, max_size=12),
    overheads=st.tuples(UNITS, UNITS),
    stall=UNITS,
)
def test_sim_records_end_by_their_report(costs, overheads, stall):
    """``send`` sums a chunk's finish in another order than its record
    times; no record may end after the report arrives."""
    sched, task = overheads
    fleet = SimFleet(1, MachineConfig(processors=1, sched_overhead=sched,
                                      task_overhead=task))
    fleet.load(0, 7, Kernel(float, cost_fn=float), costs)
    fleet.send(0, ("run", 7, list(range(len(costs))), ("slow", stall), 0))
    kind, _wid, (_key, records, _tb) = fleet.recv(math.inf)
    assert kind == "done" and len(records) == len(costs)
    assert all(start + d <= fleet.now() for _i, start, d, _v in records)


@pytest.mark.parametrize("factor", [1.5, 2.0, 3.0])
def test_speculating_sim_run_counts_each_first_result(factor):
    tracer = Tracer()
    result = api.run(
        "reduction", backend="sim", processors=4, cost_source="declared",
        speculation_factor=factor, tracer=tracer,
        fault_plan=FaultPlan.parse(["slow:*:1:2000.0"]),
    )
    assert result.fault_report.chunks_speculated >= 1
    audit.first_result_wins(audit.Run(tracer.events, {}))


def test_loopback_stream_pages_are_keys_like_any_op():
    """A stream runs inline: every page is loaded as its own key, every
    ``run`` names indices inside one key's payloads, the sink sees the
    pages in order and every key is unloaded by the end."""
    delivered = []
    (op,) = stream_ops(
        records=4_000, records_per_task=100, page_records=600,
        sink=delivered.append,
    )
    fleet = RecordingFleet(2)
    result = _MpSession(
        [op], [set()], _cfg(2, stream_window=2), fleet
    ).run()
    assert result.value_total == synthetic_total(4_000)
    assert result.tasks == 40 and result.stream["stream"]["pages"] == 7
    assert [page.seq for page in delivered] == list(range(7))
    assert [page.base for page in delivered] == list(range(0, 40, 6))
    assert fleet._ops == {} and sorted(fleet.unloaded) == list(range(7))
    for key, indices in fleet.commands:
        assert indices and all(0 <= i < 6 for i in indices), (key, indices)
    assert op.payloads == []


def test_a_key_not_in_the_table_is_stale():
    """A settled page's key leaves the table: a late copy of its tasks
    is dropped but frees the worker that ran it; a key this session
    never held (another tenant's) frees nothing."""
    (op,) = stream_ops(records=400, records_per_task=100, page_records=200)
    fleet = RecordingFleet(2)
    session = _MpSession([op], [set()], _cfg(2), fleet)
    session._advance_streams()  # no worker yet: admission only
    page = session.ops[0].feed.pages[0]
    assert page.key in session._keys and (page.base, page.tasks) == (0, 2)
    records = [(0, 0.0, 0.0, 1.0), (1, 0.0, 0.0, 2.0)]
    session.in_flight[1] = mp._Flight(0, [0, 1], 0.0, speculative=True)
    assert session._on_message("done", 0, (page.key, records, None))
    assert page.done and fleet.unloaded == [page.key]
    assert page.key not in session._keys
    assert session._on_message("done", 1, (page.key, records, None))
    assert 1 not in session.in_flight and session.ops[0].value_total == 3.0
    session.in_flight[1] = mp._Flight(0, [2], 0.0)
    assert not session._on_message("done", 1, (10**6, records, None))
    assert 1 in session.in_flight


def test_loopback_worker_vanishing_midrun_keeps_totals_exact():
    ops = REAL_WORKLOADS["reduction"]()
    # Worker 1 dies as it is handed its second chunk.
    cfg = _cfg(2, fault_plan=FaultPlan.parse("kill:1:1"))
    result = _MpSession(ops, [set()], cfg, SimFleet(2)).run()
    assert result.value_total == _serial_total(ops)
    assert result.tasks == sum(op.size for op in ops)
    report = result.fault_report
    assert report.workers_died == [1]
    assert report.tasks_reassigned > 0


# ---------------------------------------------------------------------------
# Membership: one set-valued event
# ---------------------------------------------------------------------------


def _held(session, *wids):
    """Make ``wids`` the session's workers, parked idle, as a claim
    followed by dispatches that found nothing to do would leave them."""
    for wid in wids:
        session.alive[wid] = True
        session.live_count += 1
        session.idle.add(wid)


def test_a_swap_in_one_ration_rations_once_and_never_at_width_zero(
    monkeypatch,
):
    ops = REAL_WORKLOADS["reduction"]()
    fleet = RecordingFleet(2)
    session = _MpSession(ops, [set()], _cfg(2), fleet)
    _held(session, 0)
    widths = []
    reallocate = session._reallocate
    monkeypatch.setattr(
        session, "_reallocate",
        lambda: widths.append(session.live_count) or reallocate(),
    )
    monkeypatch.setattr(
        fleet, "release",
        lambda handed: widths.append((dict(handed), session.live_count)),
    )
    assert session._on_message("ration", None, ([1], [0])) is False
    # The idle worker went back while the new one was already counted,
    # then Eq. 1 ran once over the final set, then the joiner started.
    assert widths == [({0: "free"}, 1), 1]
    assert session.alive == [False, True]
    assert list(session.in_flight) == [1] and len(fleet.commands) == 1


def test_a_busy_revoked_worker_goes_back_after_its_chunk_reports(
    monkeypatch,
):
    ops = REAL_WORKLOADS["reduction"]()
    fleet, released = SimFleet(2), []
    monkeypatch.setattr(fleet, "release", released.append)
    session = _MpSession(ops, [set()], _cfg(2, policy="self"), fleet)
    _held(session, 0)
    session._reallocate()
    session._wake_idle()
    assert list(session.in_flight) == [0]
    session._on_message("ration", None, ([1], [0]))
    assert session.revoked == {0} and released == []
    assert session.alive == [True, True]
    # Worker 0's report is next in line: it settles, then 0 leaves.
    assert fleet._events[0][1] == 0
    session.on_event(*fleet.recv(float("inf")))
    assert released == [{0: "free"}]
    assert session.alive == [False, True] and session.revoked == set()


def test_no_per_worker_membership_event_is_left():
    for module in (mp, serve_server):
        source = inspect.getsource(module)
        assert '"grant"' not in source and '"revoke"' not in source
    assert inspect.getsource(_MpSession._on_message).count('"ration"') == 1
    for word in ("ration", "claim"):
        assert word in Fleet.__doc__


# ---------------------------------------------------------------------------
# Cancellation covers the first dispatch
# ---------------------------------------------------------------------------


def test_sigint_during_the_first_load_still_drains_gracefully(
    tmp_path, monkeypatch, capsys
):
    """The first dispatch is where payloads are laid out and shipped,
    and it used to run before the SIGINT/SIGTERM handlers went in: a
    Ctrl-C landing there was a ``KeyboardInterrupt`` traceback and exit
    status -2.  The journal survived even then (the session's
    ``finally`` closes it): what broke was the exit contract — graceful
    drain, the ``--resume`` hint, exit 130 — not the data.  No sleep:
    the fleet raises the signal at its own process inside ``load``."""
    from repro.__main__ import main

    @contextlib.contextmanager
    def interrupted_fleet(backend, cfg):
        yield InterruptedAtLoad(cfg.processors), cfg

    monkeypatch.setattr(mp.MultiprocessingBackend, "_fleet", interrupted_fleet)
    before = signal.getsignal(signal.SIGINT)
    ckpt = str(tmp_path / "ckpt")
    status = main(
        ["run", "fig1", "--backend", "mp", "--procs", "2",
         "--cost-source", "declared", "--checkpoint", ckpt]
    )
    out = capsys.readouterr().out
    assert status == 130, out
    assert f"--resume {ckpt}" in out
    assert signal.getsignal(signal.SIGINT) is before
    # Dispatch stopped at the signal; what was in flight was harvested
    # and journalled before the hint was printed.
    replay = read_journal(ckpt)
    assert 0 < len(replay.records) <= 2


def test_declared_stream_interrupted_at_a_load_resumes_inline(tmp_path):
    """Restored stream tasks settle when their page is re-admitted, after
    its declared costs are in (at session start they used to index an
    empty cost list: ``IndexError``).  The resume runs no restored task
    and hands the sink every page the interrupted run did not, once and
    in order."""
    delivered = []

    def ops():
        return stream_ops(
            records=4_000, records_per_task=100, page_records=600,
            sink=lambda page: delivered.append(page.seq),
        )

    cfg = _cfg(2, stream_window=2, checkpoint_dir=str(tmp_path / "ckpt"))
    cut = _MpSession(ops(), [set()], cfg, InterruptedAtLoad(2, at=3)).run()
    assert cut.cancelled and cut.cancel_reason == "signal:SIGINT"
    (pages,) = restorable(read_journal(cfg.checkpoint_dir)).values()
    restored = {
        task[0] for _mark, chunks in pages for chunk in chunks
        for task in chunk.tasks
    }
    assert restored
    fleet = RecordingFleet(2)
    session = _MpSession(ops(), [set()], cfg.with_(resume=True), fleet)
    resumed = session.run()
    assert resumed.value_total == synthetic_total(4_000)
    assert (resumed.tasks, resumed.tasks_resumed) == (40, len(restored))
    assert delivered == list(range(7))
    bases = {page.key: page.base for page in session.ops[0].feed.pages}
    ran = [bases[key] + i for key, indices in fleet.commands for i in indices]
    assert sorted(ran) == sorted(set(range(40)) - restored)


def test_resume_delivers_a_whole_page_behind_a_partial_one(tmp_path):
    """Pages reach the sink in order, so the dead run delivered only its
    leading run of whole pages.  Page 2, journalled whole behind a
    partial page 1, never reached the sink: the resume delivers it (and
    every page after page 0) once, in order."""
    delivered = []
    (op,) = stream_ops(
        records=4_000, records_per_task=100, page_records=600,
        sink=lambda page: delivered.append(page.seq),
    )
    cfg = _cfg(2, checkpoint_dir=str(tmp_path / "ckpt"))
    journal = ChunkJournal(
        cfg.checkpoint_dir, header=RunManifest.build(cfg, [op])
    )
    base = 0
    for seq, page in enumerate(list(op.open_source())[:3]):
        journal.append_mark(PageMark(0, seq, base, page.size))
        done = page.size - (seq == 1)  # page 1's last task was in flight
        tasks = [
            (base + i, 0.0, float(op.kernel(page.payloads[i])), 0)
            for i in range(done)
        ]
        journal.append(ChunkRecord(0, op.name, 0, 0.0, tasks))
        base += page.size
    journal.close()
    result = _MpSession(
        [op], [set()], cfg.with_(resume=True), SimFleet(2)
    ).run()
    assert result.value_total == synthetic_total(4_000)
    assert result.tasks_resumed == 17
    assert delivered == list(range(1, 7))


# ---------------------------------------------------------------------------
# A death is an event
# ---------------------------------------------------------------------------


def test_pool_tells_a_death_once_after_its_reports_then_its_due_respawn():
    """No sleep: the report is in the pipe and the worker reaped before
    ``recv`` is asked.  The report comes first, the death next, once;
    the respawn deadline its release arms is announced once, and the
    sweep it asks for heals the slot."""
    pool = WorkerPool(2, pool_config=PoolConfig(respawn_backoff=0.0))
    pool.start()
    try:
        victim = pool.processes[1]
        pool.load(1, 0, RANGE_SUM, [(i, 8) for i in range(4)])
        pool.send(1, ("run", 0, [0, 1], None, False))
        assert pool.request_q._reader.poll(10)  # its report is written,
        # and its writer let go of the shared pipe's lock (a SIGKILL
        # inside that window would wedge every other writer).
        assert pool.request_q._wlock.acquire(timeout=10)
        pool.request_q._wlock.release()
        os.kill(victim.pid, signal.SIGKILL)
        assert multiprocessing.connection.wait([victim.sentinel], 10)
        kind, wid, _payload = pool.recv(10)
        assert (kind, wid) == ("done", 1)
        start = time.monotonic()
        assert pool.recv(10) == ("dead", 1, -signal.SIGKILL)
        assert time.monotonic() - start < 1.0
        with pytest.raises(queue.Empty):
            pool.recv(0.05)  # told once
        pool.release({1: "dead"})  # arms the respawn backoff (0 s)
        assert pool.recv(10) == ("sweep", None, None)
        with pytest.raises(queue.Empty):
            pool.recv(0.05)  # announced once, until the next sweep
        (respawn,) = pool.sweep()
        assert (respawn["kind"], respawn["slot"]) == ("respawn", 1)
        assert pool.recv(10) == ("ration", None, ([1], []))
        assert pool.live_workers() == [0, 1]
    finally:
        pool.stop()


# ---------------------------------------------------------------------------
# Conformance: every fleet answers the whole protocol
# ---------------------------------------------------------------------------


def _tenant(pool):
    """A serve tenant's view of ``pool`` with the server's books stubbed."""
    handed_back = []
    server = types.SimpleNamespace(
        pool=pool,
        _lock=threading.RLock(),
        _released=lambda job, handed: handed_back.append(dict(handed)),
    )
    job = types.SimpleNamespace(granted=set())
    return _TenantFleet(server, job), handed_back


@pytest.fixture(params=["pool", "tenant", "hosts", "loopback"])
def fleet(request):
    if request.param == "pool":
        yield WorkerPool(2)  # unstarted: the surface is all we look at
    elif request.param == "tenant":
        yield _tenant(WorkerPool(2))[0]
    elif request.param == "loopback":  # the in-process fleet
        yield SimFleet(2)
    else:
        pytest.importorskip("numpy")
        agent = HostAgent(1, die_hard=False)
        agent.start()
        threading.Thread(target=agent.serve_forever, daemon=True).start()
        hosts = _HostFleet([("127.0.0.1", agent.port)])
        try:
            hosts.start()
            assert hosts.claim() == [0]
            yield hosts
        finally:
            hosts.stop()
            agent.stop()


def test_fleet_answers_every_protocol_member(fleet):
    """Every member is there with the declared parameters leading;
    ``load`` and ``unload`` take exactly the declared ones: a page is a
    key, so no fleet has a second data dialect to accept.  A tenant
    answers all but ``recv``: the router reads its session's events."""
    assert sorted(Fleet.__annotations__) == ["name", "p", "running", "slots"]
    for name in Fleet.__annotations__:
        assert hasattr(fleet, name), name
    methods = [
        name
        for name, member in vars(Fleet).items()
        if inspect.isfunction(member) and not name.startswith("_")
    ]
    assert len(methods) == 13
    if isinstance(fleet, _TenantFleet):
        assert not hasattr(fleet, "recv")
        methods.remove("recv")
    assert "now" in methods  # the fleet's clock; a session has none
    assert "is_alive" not in methods  # a death is an event, not a state
    for name in methods:
        declared = list(inspect.signature(getattr(Fleet, name)).parameters)
        actual = inspect.signature(getattr(fleet, name)).parameters
        # Declared parameters lead, in order (``self`` is bound away on
        # the instance); anything a fleet adds must be optional.
        assert list(actual)[: len(declared) - 1] == declared[1:], name
        if name in ("load", "unload"):
            assert list(actual) == declared[1:], name
        for extra in list(actual)[len(declared) - 1 :]:
            assert actual[extra].default is not inspect.Parameter.empty, (
                name,
                extra,
            )


def test_every_fleet_takes_its_workers_back_as_a_set(fleet):
    """``release`` is ``wid -> status`` in one call on every fleet (the
    way in is the one ``ration`` event, or ``claim``); handing nothing
    back is a no-op, not an error."""
    assert list(inspect.signature(fleet.release).parameters) == ["handed"]
    assert fleet.release({}) is None
    assert isinstance(fleet.claim(), list)


def test_every_fleet_load_returns_facts(fleet):
    """The session only sums what ``load`` says; every fleet says it in
    the same words, on a first load, a further one and a second key (a
    stream page is one) alike."""
    payloads = [(index, 8) for index in range(4)]
    wanted = set(load_facts(None))
    assert set(LOAD_SUMS) < wanted
    loads = [
        fleet.load(0, 5, RANGE_SUM, payloads),
        fleet.load(0, 5, RANGE_SUM, payloads),
        fleet.load(0, 6, RANGE_SUM, payloads[:2]),
    ]
    for facts in loads:
        assert set(facts) >= wanted
        assert all(isinstance(facts[name], int) for name in LOAD_SUMS)
        assert (facts["shm_bytes"], facts["segment"]) == (0, None)
    first, further, page = (facts["plane"] for facts in loads)
    assert (first, page) == ("pickle", "pickle")
    assert further in ("pickle", None)  # a host that has it places none
    for key in (5, 6, 6, 7):  # again, or never loaded: idempotent
        fleet.unload(key)


def test_session_and_seam_name_no_data_plane_mechanism():
    """One owner: the scheduling core cannot say where bytes live, and
    the shm-or-pickle ladder exists once.  One dialect: stream pages
    ride ``load`` / ``unload`` like ops, so the page dialect's names are
    gone, the worker reads only ``load``, ``unload``, ``run`` and
    ``stop``, and batching asks nothing about streams."""
    session = inspect.getsource(_MpSession)
    for word in ("shm", "ShmDataPlane", "segment_cache"):
        assert word not in session, word
    assert "segment_cache" not in inspect.getsource(Fleet)
    assert not hasattr(Fleet, "plane_of")
    gone = (
        "page_drop", "_PageTable", "ShmPageDescriptor", "PageAttachment",
        "attach_page", "add_stream_page", "drop_stream_page",
        "_page_segments", "key_base", '("stream",', 'plane == "stream"',
        '"stream", kernel',
    )
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        source = path.read_text()
        if "AUTO_MIN_BYTES" in source or "ShmDataPlane(" in source:
            assert path.name in ("shm.py", "pool.py"), path
        for name in gone:
            assert name not in source, (path, name)
    worker = inspect.getsource(pool_module._worker_main)
    kinds = set(re.findall(r'message\[0\] == "(\w+)"', worker))
    assert kinds == {"stop", "load", "unload"}  # anything else is a run
    assert "feed" not in inspect.getsource(_MpSession._batch_chunk)
    assert not hasattr(StreamOp, "admit")


def test_report_racing_its_keys_unload_is_stale_never_an_error():
    """The serve race: a job thread unloads its keys while the router
    thread reads result slots for a straggler's late report.  Whatever
    the interleaving the router gets a report back: with every value a
    number, or without records."""
    pytest.importorskip("numpy")
    payloads = [(index, 8) for index in range(4096)]  # 64 KiB: shm
    late = [(index, 0.0, 0.0, None) for index in range(40)]
    pool = WorkerPool(1)
    pool.start()
    try:
        # The window itself, held open: the router looked the key up
        # just before the job's unload closed what it found.
        assert pool.load(0, 0, RANGE_SUM, payloads)["plane"] == "shm"
        found = pool._resident[0]
        pool.unload(0)
        pool._resident[0] = found
        assert pool._with_values(("done", 0, (0, late, None))) == (
            "done", 0, (0, [], None)
        )
        del pool._resident[0]

        stop = threading.Event()
        seen = collections.Counter()
        errors = []

        def job(key):
            try:
                while not stop.is_set():
                    pool.load(0, key, RANGE_SUM, payloads)
                    pool.unload(key)
            except Exception as error:  # surfaced below
                errors.append(error)

        def router():
            try:
                while not stop.is_set():
                    for key in (1, 2, 3):
                        for kind, payload in (
                            ("done", (key, late, None)),
                            ("error", (key, [], "tb", late)),
                        ):
                            back = pool._with_values((kind, 0, payload))
                            records = back[2][1 if kind == "done" else 3]
                            values = {type(r[3]) for r in records}
                            assert values <= {float} or back[2] is payload
                            seen[len(records)] += 1
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=job, args=(k,)) for k in (1, 2, 3)]
        threads.append(threading.Thread(target=router))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(1.5)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert seen[40] > 0  # resident keys were read, not only absent ones
    finally:
        pool.stop()
    assert pool._resident == {}


def test_tenant_hands_its_deaths_to_the_server_and_nothing_else_of_the_pool():
    pool = WorkerPool(2, pool_config=PoolConfig(max_respawns=0))
    tenant, handed_back = _tenant(pool)
    assert tenant.claim() == [] and tenant.sweep() == []
    # A death goes to the server's books whole: the server marks the
    # worker (and reports a tripped breaker on the daemon's trace), so
    # the job's own sweep has nothing to tell.
    pool.alive[0] = True  # as a started pool's books hold it
    tenant.release({0: "dead"})
    assert handed_back == [{0: "dead"}]
    assert pool.alive[0] and not pool.quarantined
    assert tenant.sweep() == []
    # Only Fleet members are reachable through the view.
    assert tenant.weight(1) == 1.0
    for name in ("mark_dead", "start", "request_q", "grow", "is_alive"):
        with pytest.raises(AttributeError):
            getattr(tenant, name)
