"""The dist backend: TCP host agents under the mp coordinator loop.

Agents run in-process (``die_hard=False``) with real worker child
processes, on ephemeral loopback ports — the full wire protocol is
exercised, only the ``os._exit`` host-kill is replaced by a cooperative
self-destruct so an injected host loss cannot take the test runner down.

Covered here:

* **handshake** — worker discovery, HOST_JOIN events, protocol refusal,
  an agent whose worker dies pre-handshake failing fast with no child,
  and the per-connection key namespace's limit;
* **equivalence** — fig1/reduction value totals exactly match the
  simulator, across one and two agents, twice back-to-back on the same
  resident agents (segment-cache reuse path);
* **host loss** — an injected ``hostloss`` mid-run still produces exact
  totals, reports the victim, emits HOST_LOST with the healed width,
  and a journalled run that loses its *last* host resumes on a fresh
  (differently-sized) fleet;
* **data plane** — the payloads' size decides on the agents, and what
  they mapped or reused comes back in the result;
* **streams** — pages ride ``load`` / ``unload`` like ops: closed-form
  totals, in-order sink, an agent never holds a whole stream, and a
  coordinator kill resumes exactly;
* **guard rails** — missing --hosts rejected, a dead address fails with
  a useful error.

The suite-wide SIGALRM guard in ``tests/conftest.py`` bounds every run.
"""

import threading

import pytest

from repro import api
from repro.apps.kernels import REAL_WORKLOADS, array_ops
from repro.apps.streams import stream_ops, synthetic_total
from repro.obs import Tracer
from repro.obs.events import HOST_JOIN, HOST_LOST, WORKER_DIED
from repro.runtime.backends import MpBackendError, get_backend
from repro.runtime.backends import pool as pool_mod
from repro.runtime.backends.dist import (
    _KEY_MASK,
    PROTO_VERSION,
    HostAgent,
    _HostFleet,
    parse_hosts,
)
from repro.runtime.config import RunConfig
from repro.runtime.faults import COORDINATOR_KILL_EXIT, FaultPlan
from repro.runtime.kernel import Kernel
from repro.runtime.task import RealOp
from repro.serve.protocol import MessageStream

from .. import procs
from ..procs import repro_segments

pytest.importorskip("numpy")


def _start_agents(counts, **agent_options):
    """In-process agents (one per entry, entry = worker count)."""
    agents = []
    for workers in counts:
        agent = HostAgent(workers, die_hard=False, **agent_options)
        agent.start()
        threading.Thread(target=agent.serve_forever, daemon=True).start()
        agents.append(agent)
    hosts = ",".join(f"127.0.0.1:{agent.port}" for agent in agents)
    return agents, hosts


@pytest.fixture
def two_agents():
    agents, hosts = _start_agents([2, 2])
    try:
        yield agents, hosts
    finally:
        for agent in agents:
            agent.stop()


def _dist_cfg(hosts, **overrides):
    overrides.setdefault("mp_timeout", 60.0)
    return RunConfig(
        backend="dist", processors=1, hosts=hosts, **overrides
    )


def _sim_totals(workload):
    result = get_backend("sim").run_ops(
        REAL_WORKLOADS[workload](), RunConfig(backend="sim", processors=4)
    )
    return {k: v.value_total for k, v in result.per_op.items()}


def _totals(result):
    return {k: v.value_total for k, v in result.per_op.items()}


def _nothing_left_loaded(agents):
    """The fleet's ``stop`` waits for each agent to hang up, and an
    agent hangs up after unloading: true the moment a run returns."""
    return all(agent.pool._resident == {} for agent in agents)


# ---------------------------------------------------------------------------
# Handshake
# ---------------------------------------------------------------------------


def test_handshake_discovers_workers_and_emits_host_join(two_agents):
    _agents, hosts = two_agents
    tracer = Tracer()
    result = get_backend("dist").run_ops(
        REAL_WORKLOADS["fig1"](), _dist_cfg(hosts, tracer=tracer)
    )
    assert result.backend == "dist"
    assert result.processors == 4  # union of the two agents' workers
    joins = tracer.by_kind(HOST_JOIN)
    assert [event.attrs["host"] for event in joins] == [0, 1]
    assert [event.attrs["workers"] for event in joins] == [2, 2]
    assert joins[-1].attrs["width"] == 4
    # Worker lanes partition by host: host 0 owns wids 0-1, host 1 2-3.
    assert joins[0].proc == 0 and joins[1].proc == 2


def test_agent_start_fails_fast_and_leaves_no_child(monkeypatch):
    # The agent's lifecycle is its WorkerPool's: a worker that dies
    # before its ready handshake fails start() at once, naming the wid,
    # with every sibling already reaped (no 30 s READY_TIMEOUT burn, no
    # leaked process) — mirrors test_elastic_pool's pool-level case.
    import multiprocessing
    import os
    import time

    from repro.runtime.backends import pool as pool_mod

    original = pool_mod._worker_main

    def dying_worker(wid, request_q, reply_q, t0):
        if wid == 1:
            os._exit(3)
        original(wid, request_q, reply_q, t0)

    monkeypatch.setattr(pool_mod, "_worker_main", dying_worker)
    children = set(multiprocessing.active_children())
    agent = HostAgent(2, start_method="fork", die_hard=False)
    start = time.monotonic()
    with pytest.raises(MpBackendError, match="worker 1 died before"):
        agent.start()
    assert time.monotonic() - start < 10.0
    assert agent.listener is None  # the port never opened
    assert set(multiprocessing.active_children()) == children


def test_pool_stopped_under_the_pump_ends_it_quietly(monkeypatch):
    # The pool stops between the pump's poll and its read, as when it
    # is torn down under a pumping agent: the read raises ValueError on
    # the closed queue, and the pump takes it for shutdown.
    errors = []
    monkeypatch.setattr(
        threading, "excepthook", lambda args: errors.append(args.exc_value)
    )
    agent = HostAgent(1, die_hard=False)
    agent.start()
    reports = agent.pool.request_q
    read = reports.get

    def stopped_then_read(*args, **kwargs):
        agent.pool.stop()
        return read(*args, **kwargs)

    monkeypatch.setattr(reports, "get", stopped_then_read)
    reports.put(("attached", 0, None))
    agent._pump_thread.join(10.0)
    pumping = agent._pump_thread.is_alive()
    agent.stop()
    assert not pumping and errors == []


def test_agent_refuses_an_older_wire_protocol(two_agents):
    """Version 4 ``load`` frames name a key and nothing else (the agent
    places the payloads by their size); an agent refuses a coordinator
    speaking any other version."""
    import socket

    agents, _hosts = two_agents
    assert PROTO_VERSION == 4
    stream = MessageStream(
        socket.create_connection(("127.0.0.1", agents[0].port), timeout=10)
    )
    try:
        stream.send({"op": "hello", "proto": PROTO_VERSION - 1})
        reply, _blob = stream.recv()
    finally:
        stream.close()
    assert reply == {"ok": False, "error": "protocol mismatch", "code": "proto"}


def test_page_keys_stop_short_of_the_agents_epoch_bits():
    """Each admitted page takes a key of the connection's namespace; a
    key past ``_KEY_MASK`` would collide with the agent's epoch bits,
    so the fleet refuses it, naming the limit."""
    fleet = _HostFleet([("127.0.0.1", 9)])  # never connected
    assert fleet.allocate_keys(3) == 0
    assert fleet.allocate_keys(1) == 3
    assert fleet.allocate_keys(_KEY_MASK - 4) == 4
    assert fleet.allocate_keys(1) == _KEY_MASK
    with pytest.raises(MpBackendError, match=str(_KEY_MASK + 1)):
        fleet.allocate_keys(1)


def test_parse_hosts():
    assert parse_hosts("a:1, b:2 ,") == [("a", 1), ("b", 2)]
    assert parse_hosts("h:65535") == [("h", 65535)]
    for bad in ("  ,  ", "h:0", "h:65536", "h:73616", "h:-1", ":80", "h"):
        with pytest.raises(ValueError, match="hosts"):
            parse_hosts(bad)
        with pytest.raises(ValueError, match="hosts"):
            RunConfig(backend="dist", hosts=bad)


def test_missing_hosts_rejected():
    with pytest.raises(MpBackendError, match="--hosts"):
        get_backend("dist").run_ops(
            REAL_WORKLOADS["fig1"](),
            RunConfig(backend="dist", processors=1),
        )


def test_unreachable_agent_fails_with_address():
    with pytest.raises(MpBackendError, match="127.0.0.1:9"):
        get_backend("dist").run_ops(
            REAL_WORKLOADS["fig1"](), _dist_cfg("127.0.0.1:9")
        )


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["fig1", "reduction"])
def test_totals_match_sim_exactly(two_agents, workload):
    _agents, hosts = two_agents
    result = get_backend("dist").run_ops(
        REAL_WORKLOADS[workload](), _dist_cfg(hosts)
    )
    assert _totals(result) == _sim_totals(workload)


def test_single_agent_and_repeat_runs(two_agents):
    agents, _ = two_agents
    hosts = f"127.0.0.1:{agents[0].port}"
    expected = _sim_totals("fig1")
    backend = get_backend("dist")
    first = backend.run_ops(REAL_WORKLOADS["fig1"](), _dist_cfg(hosts))
    second = backend.run_ops(REAL_WORKLOADS["fig1"](), _dist_cfg(hosts))
    assert _totals(first) == expected
    assert _totals(second) == expected
    assert first.processors == 2


def test_cli_workload_through_api(two_agents):
    _agents, hosts = two_agents
    result = api.run("fig1", _dist_cfg(hosts))
    assert result.backend == "dist"
    assert _totals(result) == _sim_totals("fig1")


# ---------------------------------------------------------------------------
# Data plane: the agents place by size, the facts ride ``loaded``
# ---------------------------------------------------------------------------


@pytest.fixture
def segments_after_each_load(monkeypatch):
    """``repro_*`` names gained by the time each agent-side
    ``WorkerPool.load`` returns, i.e. while the run is live."""
    before = repro_segments()
    gained = []
    real_load = pool_mod.WorkerPool.load

    def load(self, *args):
        facts = real_load(self, *args)
        gained.append(repro_segments() - before)
        return facts

    monkeypatch.setattr(pool_mod.WorkerPool, "load", load)
    return gained


def test_small_payloads_map_nothing_on_the_agents(
    two_agents, segments_after_each_load
):
    _agents, hosts = two_agents
    ops = array_ops(tasks=16, row_elements=256)  # 32 KiB: below the floor
    result = get_backend("dist").run_ops(ops, _dist_cfg(hosts))
    assert result.value_total == sum(float(row.sum()) for row in ops[0].payloads)
    assert set(result.data_plane.values()) == {"pickle"}
    assert (result.shm_bytes, result.shm_reused_bytes) == (0, 0)
    assert segments_after_each_load and not any(segments_after_each_load)
    assert "data plane:" not in result.summary()


def test_agents_report_the_bytes_they_mapped_and_reused(two_agents):
    agents, hosts = two_agents
    nbytes = 16 * 8192 * 8
    runs = [
        get_backend("dist").run_ops(
            array_ops(tasks=16, row_elements=8192), _dist_cfg(hosts)
        )
        for _ in range(2)
    ]
    assert [set(run.data_plane.values()) for run in runs] == [{"shm"}] * 2
    hosts_used = runs[0].shm_bytes // (nbytes + 16 * 8)
    assert hosts_used in (1, 2)
    assert runs[0].shm_bytes == hosts_used * (nbytes + 16 * 8)
    assert runs[0].shm_reused_bytes == 0
    # The resident agents kept the layout: whoever maps again, reuses.
    assert runs[1].shm_reused_bytes >= nbytes
    assert runs[1].shm_reused_bytes % nbytes == 0
    # The wire is what the coordinator ships: one blob per host.
    assert runs[0].bytes_shipped >= hosts_used * nbytes
    assert _nothing_left_loaded(agents)


# ---------------------------------------------------------------------------
# Streams: pages are loaded and unloaded like ops
# ---------------------------------------------------------------------------


#: Pages of 20 or 100 rows of 100 floats: 16 KB lands on pickle, 80 KB
#: on shm.
PAGE_RECORDS = {"shm": 10_000, "pickle": 2_000}


@pytest.mark.parametrize("plane", ["shm", "pickle"])
def test_stream_totals_over_two_agents(two_agents, plane):
    agents, hosts = two_agents
    delivered, held = [], []

    def sink(page):
        delivered.append(page)
        # Keys (one per page) held by an agent right now: never more
        # than the admission window, however long the stream.
        held.append(max(len(agent.pool._resident) for agent in agents))

    records = 10 * PAGE_RECORDS[plane]
    (op,) = stream_ops(
        records=records,
        records_per_task=100,
        page_records=PAGE_RECORDS[plane],
        sink=sink,
    )
    result = api.run(op, _dist_cfg(hosts, stream_window=2))
    assert result.backend == "dist" and result.processors == 4
    assert result.value_total == synthetic_total(records)
    assert result.tasks == records // 100
    assert [page.seq for page in delivered] == list(range(10))
    assert sum(page.value for page in delivered) == synthetic_total(records)
    assert result.stream["stream"]["pages"] == 10
    assert result.stream["stream"]["plane"] == plane
    assert max(held) <= 2
    assert _nothing_left_loaded(agents)


def test_stream_coordkill_resumes_exactly_over_two_agents(two_agents, tmp_path):
    """The streaming acceptance scenario on ``dist``: the coordinator is
    a subprocess (``coordkill`` exits it for real), the agents live in
    this process and serve both of its lives."""
    _agents, hosts = two_agents
    ckpt = str(tmp_path / "ckpt")
    expected = synthetic_total(200_000)
    rc, stdout, stderr = procs.repro(
        "run", "stream", "--backend", "dist", "--hosts", hosts,
        "--stream-records", "200000", "--records-per-task", "500",
        "--page-records", "20000", "--window", "2",
        "--checkpoint", ckpt, "--inject-fault", "coordkill:*:12",
    )
    assert rc == COORDINATOR_KILL_EXIT, stderr
    rc, stdout, stderr = procs.repro(
        "run", "--backend", "dist", "--hosts", hosts, "--resume", ckpt
    )
    assert rc == 0, stderr
    assert f"value_total={expected:.0f}" in stdout
    assert "resumed:" in stdout
    assert "tasks=400" in stdout


# ---------------------------------------------------------------------------
# Host loss
# ---------------------------------------------------------------------------


def test_host_loss_midrun_exact_totals_and_healed_width(two_agents):
    _agents, hosts = two_agents
    tracer = Tracer()
    plan = FaultPlan.host_loss(host=1, at_chunk=2)
    result = get_backend("dist").run_ops(
        REAL_WORKLOADS["fig1"](),
        _dist_cfg(hosts, fault_plan=plan, tracer=tracer),
    )
    assert _totals(result) == _sim_totals("fig1")
    assert result.fault_report.hosts_lost == [1]
    assert any(
        f.get("fault") == "hostloss" for f in result.fault_report.injected
    )
    lost = tracer.by_kind(HOST_LOST)
    assert len(lost) == 1
    assert lost[0].attrs["host"] == 1
    assert lost[0].attrs["workers"] == 2
    assert lost[0].attrs["width"] == 2  # the survivor's two workers
    # The victim's in-flight chunks were reclaimed and re-run.
    assert result.fault_report.tasks_reassigned > 0


def test_sigkilled_agent_worker_is_one_death_with_its_exit_code():
    """SIGKILL one agent worker mid-run, just before its first chunk is
    forwarded (it is idle, so it holds no shared queue lock): the agent
    tells the coordinator in a ``worker_died`` frame with the exit code,
    the chunk is reclaimed, and the run is exact."""
    import os
    import signal

    agents, hosts = _start_agents([2])
    pool = agents[0].pool
    forward = pool.send
    runs = []

    def send(wid, message):
        if message[0] == "run":
            runs.append(wid)
            if len(runs) == 2:
                os.kill(pool.processes[wid].pid, signal.SIGKILL)
        forward(wid, message)

    pool.send = send
    tracer = Tracer()
    try:
        result = get_backend("dist").run_ops(
            REAL_WORKLOADS["fig1"](),
            _dist_cfg(hosts, tracer=tracer),
        )
    finally:
        for agent in agents:
            agent.stop()
    assert _totals(result) == _sim_totals("fig1")
    (died,) = tracer.by_kind(WORKER_DIED)
    assert (died.proc, died.attrs["exitcode"]) == (runs[1], -signal.SIGKILL)
    assert result.fault_report.workers_died == [runs[1]]
    assert result.fault_report.tasks_reassigned > 0


def test_journalled_run_resumes_on_a_smaller_fleet(tmp_path):
    """Kill the *only* host mid-run; resume the journal on a fresh,
    smaller agent — the width-free manifest fingerprint allows it."""
    checkpoint = str(tmp_path / "journal")

    payloads = [(i, i + 40) for i in range(64)]

    def payload_ops():
        return [
            RealOp(
                name="sum",
                kernel=Kernel(fn=_range_sum),
                payloads=list(payloads),
            )
        ]

    expected = {"sum": float(sum(sum(range(lo, hi)) for lo, hi in payloads))}

    agents, hosts = _start_agents([2])
    try:
        plan = FaultPlan.host_loss(host=0, at_chunk=2)
        with pytest.raises(MpBackendError):
            get_backend("dist").run_ops(
                payload_ops(),
                _dist_cfg(
                    hosts,
                    fault_plan=plan,
                    checkpoint_dir=checkpoint,
                    mp_timeout=10.0,
                ),
            )
    finally:
        for agent in agents:
            agent.stop()

    agents, hosts = _start_agents([1])  # narrower fleet than the first
    try:
        result = get_backend("dist").run_ops(
            payload_ops(),
            _dist_cfg(hosts, checkpoint_dir=checkpoint, resume=True),
        )
    finally:
        for agent in agents:
            agent.stop()
    assert _totals(result) == expected
    assert result.tasks_resumed > 0  # the journal genuinely replayed


def _range_sum(payload):
    lo, hi = payload
    return float(sum(range(lo, hi)))
