"""Multi-host execution: TCP host agents under the mp coordinator loop.

The paper's Section 4 orchestration finally leaves the single host: a
``repro hostagent`` daemon runs on each machine and exposes N local
workers; the coordinator (``--backend dist``) discovers the agents from
``RunConfig.hosts`` (``"host:port,host:port,..."``), ships each op's
``Kernel`` + payloads over the wire exactly once per host, and then runs
the *same* TAPER chunk self-scheduling and Eq. 1 rationing loop as the
mp backend over the union of remote workers — :class:`_DistSession` is
an :class:`~repro.runtime.backends.mp._MpSession` borrowing from a
:class:`_HostFleet` in place of a local ``WorkerPool``.

Layering follows Split Annotations' pluggable-data-plane argument:

* **pickle crosses the wire** — one ``load`` frame per (host, op), at
  the op's first dispatch there, carries the pickled ``(kernel,
  payloads)`` blob; dispatch frames are index-only.
* **shm stays on the host** — each agent lays eligible payloads into
  *its own* ``multiprocessing.shared_memory`` segments (with an
  agent-resident :class:`~repro.runtime.backends.shm.SegmentCache`, so
  repeated runs against a resident agent reuse the layout) and its
  workers attach zero-copy; the agent reads result slots back out of
  shared memory before forwarding reports, because the coordinator
  cannot map a remote host's segments.

**Heterogeneity.**  Eq. 1's finishing-time estimates assume uniform
processors; real fleets are not.  The coordinator keeps a per-host EWMA
of observed task throughput and (a) orders workers fastest-host-first
when turning Eq. 1 shares into worker subsets, (b) weights
:meth:`_share_width` — the ``p`` that parameterizes the TAPER chunk
recurrence — by host speed, echoing Bone et al.'s overlap estimation.

**Host loss is a planned fault.**  A dropped connection or an expired
heartbeat marks every worker of that host dead at once; the inherited
sweep reclaims their in-flight chunks, the Eq. 1 ration re-runs over
the survivors, and the run completes with exact totals.  The
``hostloss`` :class:`~repro.runtime.faults.FaultSpec` injects exactly
this: after the victim host's ``at_chunk``-th dispatched chunk the
coordinator sends it ``{"op": "die"}`` and the agent exits abruptly.
With ``checkpoint_dir`` set, the journal makes a killed multi-host run
resumable — the manifest fingerprint is pinned *width-free* (see
:meth:`_DistSession._setup_checkpoint`) because a resumed fleet may be
smaller than the one that crashed.

**Clock domains** (the rule of :mod:`.mp`, extended): each agent's
workers stamp records against the agent's own ``perf_counter`` epoch;
the coordinator estimates per-host skew at handshake time from a
half-RTT ping and rebases record *start* times into its session domain.
Durations are never rebased.  Streams are not supported on this backend
(pages would have to fan out over the wire against backpressure gates
tuned for queue latencies); ``repro serve`` composes with dist the
other way around — a host agent is itself a long-lived daemon.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import queue as queue_module
import signal
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ...obs.events import FAULT_INJECTED, HOST_JOIN, HOST_LOST
from ...serve.protocol import MessageStream, ProtocolError
from ..config import PoolConfig, RunConfig
from .base import AnyOp, BackendRunResult, as_real_op, register_backend
from . import shm
from .mp import (
    MpBackendError,
    MultiprocessingBackend,
    WorkerPool,
    _MpSession,
)

#: Wire protocol version; the hello handshake refuses a mismatch.
PROTO_VERSION = 1

#: Agent-side op keys carry the connection epoch in the high bits so a
#: straggler report from a previous coordinator session can never alias
#: a current key (the coordinator always numbers ops from zero).
_EPOCH_SHIFT = 20
_KEY_MASK = (1 << _EPOCH_SHIFT) - 1

#: Exit status of an agent killed by an injected ``hostloss`` fault.
HOST_KILL_EXIT = 43


def parse_hosts(spec: str) -> List[Tuple[str, int]]:
    """``"h1:p1,h2:p2"`` -> ``[("h1", p1), ("h2", p2)]``."""
    pairs: List[Tuple[str, int]] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        host, _, port = entry.rpartition(":")
        pairs.append((host, int(port)))
    if not pairs:
        raise MpBackendError(
            "backend 'dist' needs at least one host agent in --hosts"
        )
    return pairs


# ---------------------------------------------------------------------------
# Host agent (the `repro hostagent` daemon)
# ---------------------------------------------------------------------------


class HostAgent:
    """One host's :class:`~repro.runtime.backends.mp.WorkerPool` behind
    a TCP socket.

    The pool owns the worker processes; the agent serves coordinator
    connections one at a time: ``load`` frames install ops (laid into
    host-local shared memory when eligible), ``run`` frames forward
    chunks, and a pump thread streams worker reports back — resolving
    shm result slots into values first, since only this host can map
    its segments.  Between connections every loaded op is unloaded and
    the connection's data plane unlinked; the pool's segment cache
    (byte-budget LRU, ``--shm-cache-bytes``) persists so back-to-back
    runs reuse payload segments.  A worker that dies is reported
    (``worker_died``) and stays dead.

    ``die_hard=False`` turns an injected ``{"op": "die"}`` into a
    cooperative self-destruct (workers terminated, listener closed)
    instead of ``os._exit`` — in-process test agents must not take the
    test runner down with them.
    """

    def __init__(
        self,
        workers: int,
        port: int = 0,
        bind: str = "127.0.0.1",
        start_method: Optional[str] = None,
        shm_cache_bytes: Optional[int] = None,
        die_hard: bool = True,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.pool = WorkerPool(
            workers,
            start_method=start_method,
            pool_config=PoolConfig(shm_cache_bytes=shm_cache_bytes),
        )
        self.n = workers
        self.bind = bind
        self.port = port
        self.die_hard = die_hard
        self.listener: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._stream: Optional[MessageStream] = None
        self._plane: Optional[shm.ShmDataPlane] = None
        self._epoch = 0
        self._shutdown = False
        self._pump_thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self.pool.t0

    def start(self, ready_timeout: float = 30.0) -> None:
        """Start the pool (fails fast, leaving no child, when a worker
        cannot come up), then open the port."""
        self.pool.start(ready_timeout)
        try:
            self.listener = socket.create_server(
                (self.bind, self.port), reuse_port=False
            )
        except OSError:
            self.pool.stop()  # a busy port must not strand the workers
            raise
        self.port = self.listener.getsockname()[1]
        self._pump_thread = threading.Thread(
            target=self._pump, name="hostagent-pump", daemon=True
        )
        self._pump_thread.start()
        # The ready line is the agent's startup contract: CI (and any
        # script) waits for it before pointing a coordinator here.
        print(
            f"repro hostagent ready bind={self.bind} port={self.port} "
            f"workers={self.n} pid={os.getpid()}",
            flush=True,
        )

    def serve_forever(self) -> None:
        """Accept coordinator connections until :meth:`stop`."""
        while not self._shutdown:
            try:
                conn, _addr = self.listener.accept()
            except OSError:
                return  # listener closed by stop()
            try:
                self._serve_connection(conn)
            except Exception:
                # One broken coordinator must not kill the agent.
                try:
                    conn.close()
                except OSError:
                    pass

    def stop(self) -> None:
        """Tear everything down; idempotent."""
        if self._shutdown:
            return
        self._shutdown = True
        if self.listener is not None:
            try:
                self.listener.close()
            except OSError:
                pass
        with self._lock:
            stream, self._stream = self._stream, None
            plane, self._plane = self._plane, None
        if stream is not None:
            stream.close()
        if plane is not None:
            plane.close(unlink=True)
        self.pool.stop()

    def _die(self) -> None:
        """An injected host loss: vanish abruptly, workers and all.

        A real host loss takes the workers down with the machine, so
        the hard kill must SIGKILL them before exiting — ``os._exit``
        alone would orphan them as leaked processes on the test box.
        """
        live = [
            self.pool.processes[wid]
            for wid in range(self.n)
            if self.pool.is_alive(wid)
        ]
        if self.die_hard:
            for process in live:
                try:
                    os.kill(process.pid, signal.SIGKILL)
                except OSError:
                    pass
            os._exit(HOST_KILL_EXIT)
        # In-process (test) agents self-destruct cooperatively instead:
        # the coordinator still sees an abrupt EOF and dead workers.
        for process in live:
            process.terminate()
        self.stop()

    # -- the coordinator connection ------------------------------------------

    def _wrap(self, key: int) -> int:
        return (self._epoch << _EPOCH_SHIFT) | key

    def _serve_connection(self, conn: socket.socket) -> None:
        stream = MessageStream(conn)
        frame = stream.recv()
        if frame is None:
            stream.close()
            return
        hello, _blob = frame
        if hello.get("op") != "hello" or hello.get("proto") != PROTO_VERSION:
            stream.send(
                {"ok": False, "error": "protocol mismatch", "code": "proto"}
            )
            stream.close()
            return
        with self._lock:
            self._epoch += 1
            epoch = self._epoch
            self._plane = (
                shm.ShmDataPlane(cache=self.pool.segment_cache)
                if shm.shm_available()
                else None
            )
            self._stream = stream
        stream.send(
            {
                "ok": True,
                "proto": PROTO_VERSION,
                "workers": self.n,
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "now": self._now(),
            }
        )
        loaded: List[int] = []
        try:
            while not self._shutdown:
                frame = stream.recv()
                if frame is None:
                    break
                header, blob = frame
                op = header.get("op")
                if op == "run":
                    wid = header["wid"]
                    fault = header.get("fault")
                    self.pool.send(
                        wid,
                        (
                            "run",
                            self._wrap(header["key"]),
                            list(header["indices"]),
                            tuple(fault) if fault else None,
                            bool(header.get("batch")),
                        ),
                    )
                elif op == "load":
                    key = header["key"]
                    self._load_op(stream, key, blob)
                    loaded.append(key)
                elif op == "ping":
                    stream.send({"event": "pong", "now": self._now()})
                elif op == "die":
                    self._die()
                    return
                elif op == "bye":
                    break
        except (ProtocolError, OSError):
            pass  # coordinator went away mid-frame; clean up below
        finally:
            with self._lock:
                self._stream = None
                plane, self._plane = self._plane, None
            for key in loaded:
                wrapped = (epoch << _EPOCH_SHIFT) | key
                for wid in self.pool.live_workers():
                    try:
                        self.pool.send(wid, ("unload", wrapped))
                    except Exception:  # pragma: no cover - best effort
                        pass
            if plane is not None:
                plane.close(unlink=True)
            stream.close()

    def _load_op(
        self, stream: MessageStream, key: int, blob: Optional[bytes]
    ) -> None:
        """Install one op on every worker, shm-planned when eligible."""
        try:
            kernel, payloads = pickle.loads(blob)
        except Exception as error:
            stream.send(
                {"event": "load_error", "key": key, "error": str(error)}
            )
            return
        wrapped = self._wrap(key)
        entry = None
        plane_name = "pickle"
        nbytes = len(blob)
        with self._lock:
            plane = self._plane
        if plane is not None:
            planned = shm.plan_payloads(payloads)
            if planned is not None:
                mode, stacked = planned
                if stacked.nbytes >= shm.AUTO_MIN_BYTES:
                    try:
                        descriptor = plane.add_op(wrapped, mode, stacked)
                    except OSError:
                        descriptor = None  # /dev/shm full: stay on pickle
                    if descriptor is not None:
                        entry = ("shm", kernel, descriptor)
                        plane_name = "shm"
                        nbytes = descriptor.nbytes
        if entry is None:
            entry = ("pickle", kernel, payloads)
        for wid in self.pool.live_workers():
            self.pool.send(wid, ("load", wrapped, entry))
        stream.send(
            {
                "event": "loaded",
                "key": key,
                "plane": plane_name,
                "nbytes": int(nbytes),
            }
        )

    # -- worker report pump ---------------------------------------------------

    def _resolve_records(self, plane, wrapped_key: int, records):
        """Fill shm ``None`` values in: the wire carries real numbers."""
        if plane is None or not plane.has_op(wrapped_key):
            return records
        return [
            (
                index,
                start,
                duration,
                plane.result_value(wrapped_key, index)
                if value is None
                else value,
            )
            for index, start, duration, value in records
        ]

    def _pump(self) -> None:
        """Forward worker reports to the current coordinator stream."""
        while not self._shutdown:
            try:
                kind, wid, payload = self.pool.recv(0.25)
            except (queue_module.Empty, OSError, EOFError):
                self._sweep_dead_workers()
                continue
            with self._lock:
                stream = self._stream
                epoch = self._epoch
                plane = self._plane
            if stream is None:
                continue  # no coordinator attached: drop stale traffic
            try:
                if kind == "done":
                    wrapped, records, batch_meta = payload
                    if (wrapped >> _EPOCH_SHIFT) != epoch:
                        continue
                    stream.send(
                        {
                            "event": "done",
                            "wid": wid,
                            "key": wrapped & _KEY_MASK,
                            "records": self._resolve_records(
                                plane, wrapped, records
                            ),
                            "batch": list(batch_meta) if batch_meta else None,
                        }
                    )
                elif kind == "error":
                    wrapped, failed, tb = payload[0], payload[1], payload[2]
                    if (wrapped >> _EPOCH_SHIFT) != epoch:
                        continue
                    completed = payload[3] if len(payload) > 3 else []
                    stream.send(
                        {
                            "event": "error",
                            "wid": wid,
                            "key": wrapped & _KEY_MASK,
                            "failed": list(failed),
                            "tb": tb,
                            "records": self._resolve_records(
                                plane, wrapped, completed
                            ),
                        }
                    )
                elif kind == "attached":
                    wrapped, nbytes = payload
                    if (wrapped >> _EPOCH_SHIFT) != epoch:
                        continue
                    stream.send(
                        {
                            "event": "attached",
                            "wid": wid,
                            "key": wrapped & _KEY_MASK,
                            "bytes": int(nbytes),
                        }
                    )
            except (ProtocolError, OSError):
                continue  # connection died; the serve loop cleans up

    def _sweep_dead_workers(self) -> None:
        for wid in range(self.n):
            if not self.pool.alive[wid] or self.pool.is_alive(wid):
                continue
            self.pool.mark_dead(wid)
            with self._lock:
                stream = self._stream
            if stream is not None:
                try:
                    stream.send({"event": "worker_died", "wid": wid})
                except (ProtocolError, OSError):
                    pass


def run_hostagent(
    workers: int,
    port: int = 0,
    bind: str = "127.0.0.1",
    start_method: Optional[str] = None,
    shm_cache_bytes: Optional[int] = None,
) -> None:
    """CLI entry: start an agent and serve until SIGINT/SIGTERM."""
    agent = HostAgent(
        workers,
        port=port,
        bind=bind,
        start_method=start_method,
        shm_cache_bytes=shm_cache_bytes,
    )
    agent.start()

    def _interrupt(signum, frame):
        # Dying of SIGTERM by default would orphan the workers; take
        # the Ctrl-C path instead so the finally below reaps them.
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _interrupt)
    try:
        agent.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        agent.stop()


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class _HostLink:
    """One connected host agent: socket, clock skew, throughput EWMA."""

    def __init__(self, index: int, host: str, port: int):
        self.index = index
        self.host = host
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.stream: Optional[MessageStream] = None
        self.workers = 0
        #: Global wid of this host's first worker.
        self.base = 0
        self.alive = True
        self.dead_reason = ""
        #: Local wids the agent reported dead (killed workers).
        self.dead_workers: Set[int] = set()
        #: Agent-epoch minus session-epoch, estimated at handshake.
        self.skew = 0.0
        #: Session time of the last frame seen from this host.
        self.last_seen = 0.0
        #: EWMA of per-worker task throughput (tasks/sec); ``None``
        #: until the first report.
        self.rate: Optional[float] = None

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

    def connect(self, timeout: float = 10.0) -> None:
        try:
            self.sock = socket.create_connection(
                (self.host, self.port), timeout=timeout
            )
        except OSError as error:
            raise MpBackendError(
                f"could not connect to host agent {self.addr}: {error}"
            ) from error
        self.stream = MessageStream(self.sock)
        try:
            self.stream.send({"op": "hello", "proto": PROTO_VERSION})
            frame = self.stream.recv()
        except (ProtocolError, OSError) as error:
            raise MpBackendError(
                f"handshake with host agent {self.addr} failed: {error}"
            ) from error
        if frame is None or not frame[0].get("ok"):
            detail = "" if frame is None else frame[0].get("error", "")
            raise MpBackendError(
                f"host agent {self.addr} refused the handshake: {detail}"
            )
        self.workers = int(frame[0]["workers"])
        self.sock.settimeout(None)

    def send(self, message: Dict[str, Any], blob: Optional[bytes] = None):
        self.stream.send(message, blob)

    def close(self) -> None:
        if self.stream is not None:
            self.stream.close()


class _HostFleet:
    """Connected host agents, answering the calls :class:`_MpSession`
    makes of a ``WorkerPool``.

    Global wids number the agents' workers host by host; :meth:`send`
    forwards chunk dispatches over the owning host's socket and one
    reader thread per host feeds :meth:`recv`.  The fleet cannot heal:
    remote processes are their agent's to reap, so a dead worker or
    host stays dead and the run continues degraded.
    """

    #: The agents own the segments; the coordinator maps none.
    segment_cache = None
    #: ``spawnfail`` arms nothing here: no slot ever respawns.
    fail_next_spawns = 0

    def __init__(self, hosts: Sequence[Tuple[str, int]]):
        self.links = [
            _HostLink(index, host, port)
            for index, (host, port) in enumerate(hosts)
        ]
        #: wid -> its host link.
        self.wid_link: List[_HostLink] = []
        self.p = self.slots = 0
        self.t0 = 0.0
        self.running = False
        self._events: "queue_module.Queue" = queue_module.Queue()
        self._readers: List[threading.Thread] = []

    def now(self) -> float:
        return time.perf_counter() - self.t0

    def start(self) -> None:
        """Connect and handshake every agent, estimate each host's clock
        skew from a half-RTT ping, then hand the sockets to the readers."""
        for link in self.links:
            link.connect()
            link.base = len(self.wid_link)
            self.wid_link.extend([link] * link.workers)
        self.p = self.slots = len(self.wid_link)
        self.t0 = time.perf_counter()
        for link in self.links:
            sent = self.now()
            link.send({"op": "ping"})
            frame = link.stream.recv()
            received = self.now()
            if frame is None or frame[0].get("event") != "pong":
                raise MpBackendError(
                    f"host agent {link.addr} dropped out during clock "
                    "sync"
                )
            link.skew = frame[0]["now"] - (sent + received) / 2.0
            link.last_seen = received
        for link in self.links:
            thread = threading.Thread(
                target=self._reader,
                args=(link,),
                name=f"dist-reader-{link.index}",
                daemon=True,
            )
            thread.start()
            self._readers.append(thread)
        self.running = True

    def stop(self) -> None:
        """Say goodbye to the live agents and close every socket."""
        self.running = False
        for link in self.links:
            if link.alive and link.stream is not None:
                try:
                    link.send({"op": "bye"})
                except (ProtocolError, OSError):
                    pass
            link.close()
        for thread in self._readers:
            thread.join(timeout=1.0)

    # -- the fleet interface ---------------------------------------------------

    def post(
        self,
        link: _HostLink,
        header: Dict[str, Any],
        blob: Optional[bytes] = None,
    ) -> None:
        """One frame to one host; a dead host swallows it (reclaim owns
        its tasks already)."""
        if not link.alive:
            return
        try:
            link.send(header, blob)
        except (ProtocolError, OSError):
            # The link died under us; surface it as an EOF event so the
            # main loop reclaims its flights at its next iteration.
            self._events.put(("host_eof", link.base, link.index))

    def send(self, wid: int, message: tuple) -> None:
        if message[0] != "run":
            return  # ops load per host; agents unload at disconnect
        _, key, indices, fault, batch = message
        link = self.wid_link[wid]
        self.post(
            link,
            {
                "op": "run",
                "wid": wid - link.base,
                "key": key,
                "indices": list(indices),
                "fault": list(fault) if fault else None,
                "batch": bool(batch),
            },
        )

    def recv(self, timeout: float):
        return self._events.get(timeout=timeout)

    def is_alive(self, wid: int) -> bool:
        link = self.wid_link[wid]
        return link.alive and wid - link.base not in link.dead_workers

    def live_workers(self) -> List[int]:
        return [wid for wid in range(self.p) if self.is_alive(wid)]

    def allocate_keys(self, count: int) -> int:
        return 0  # one session per connection; agents wrap by epoch

    def mark_dead(self, wid: int) -> None:
        return None

    def maybe_respawn(self) -> List[Dict[str, Any]]:
        return []

    def can_recover(self) -> bool:
        return False

    def stale_hosts(self, quiet: float, timeout: float):
        """Ping hosts silent for ``quiet`` seconds; yield ``(link,
        reason)`` for each one silent past ``timeout`` or unreachable."""
        now = self.now()
        for link in self.links:
            if not link.alive:
                continue
            stale = now - link.last_seen
            if stale > timeout:
                yield link, "heartbeat timeout"
            elif stale > quiet:
                try:
                    link.send({"op": "ping"})
                except (ProtocolError, OSError):
                    yield link, "send failed"

    def _reader(self, link: _HostLink) -> None:
        """Per-host reader: frames -> fleet events (rebased clocks)."""
        while True:
            try:
                frame = link.stream.recv()
            except (ProtocolError, OSError):
                frame = None
            if frame is None:
                self._events.put(("host_eof", link.base, link.index))
                return
            header, _blob = frame
            link.last_seen = self.now()
            event = header.get("event")
            wid = link.base + int(header.get("wid", 0))
            if event == "done":
                records = self._rebase(link, header["records"])
                batch = header.get("batch")
                self._events.put(
                    (
                        "done",
                        wid,
                        (
                            header["key"],
                            records,
                            tuple(batch) if batch else None,
                        ),
                    )
                )
            elif event == "error":
                records = self._rebase(link, header.get("records") or [])
                self._events.put(
                    (
                        "error",
                        wid,
                        (
                            header["key"],
                            list(header["failed"]),
                            header.get("tb", ""),
                            records,
                        ),
                    )
                )
            elif event == "attached":
                self._events.put(
                    ("attached", wid, (header["key"], header["bytes"]))
                )
            elif event == "worker_died":
                self._events.put(("worker_died", wid, None))
            elif event == "loaded":
                self._events.put(("loaded", link.index, header))
            elif event == "load_error":
                self._events.put(("load_error", link.index, header))
            # pong: last_seen above is the whole point

    @staticmethod
    def _rebase(link: _HostLink, records) -> List[tuple]:
        """Agent-domain record starts -> fleet domain (skew), with
        durations untouched (they are domain-free intervals)."""
        return [
            (index, start - link.skew, duration, value)
            for index, start, duration, value in records
        ]


class _DistSession(_MpSession):
    """The mp coordinator loop over a :class:`_HostFleet`.

    Scheduling, retry, quarantine, speculation, journaling and the
    drain path are all inherited; this class adds the liveness model
    (hosts, not processes), the data plane (payloads pickled to each
    agent once, shm kept host-local) and host-speed weighting.
    """

    backend_name = "dist"

    def __init__(self, real_ops, deps, cfg: RunConfig, fleet: _HostFleet):
        for op in real_ops:
            if getattr(op, "is_stream", False):
                raise MpBackendError(
                    "streams are not supported on the dist backend; "
                    "run streaming ops on --backend mp"
                )
        super().__init__(real_ops, deps, cfg, fleet)
        self.links = fleet.links
        #: (host, op) -> plane the agent chose; feeds the result's
        #: data_plane map (the coordinator itself never maps segments).
        self._host_plane: Dict[Tuple[int, int], str] = {}
        self._host_timeout = max(4.0 * cfg.heartbeat_interval, 5.0)
        if self.tracer is not None:
            # Hosts joined before the session clock started.
            for link in self.links:
                self.tracer.emit(
                    HOST_JOIN,
                    0.0,
                    proc=link.base,
                    host=link.index,
                    addr=link.addr,
                    workers=link.workers,
                    width=link.base + link.workers,
                )

    # -- heterogeneous width -------------------------------------------------

    def _host_weight(self, link: _HostLink) -> float:
        rates = [
            peer.rate
            for peer in self.links
            if peer.alive and peer.rate is not None and peer.rate > 0
        ]
        if not rates or link.rate is None or link.rate <= 0:
            return 1.0
        mean = sum(rates) / len(rates)
        return link.rate / mean if mean > 0 else 1.0

    def _live_workers(self) -> List[int]:
        """Live wids fastest-host-first, so Eq. 1 shares assign the
        quick hosts before the slow ones."""
        wids = [wid for wid in range(self.p) if self.alive[wid]]
        return sorted(
            wids,
            key=lambda wid: (
                -self._host_weight(self.pool.wid_link[wid]),
                wid,
            ),
        )

    def _share_width(self, state) -> int:
        """TAPER's ``p`` for one op, in host-speed capacity units."""
        width = sum(
            self._host_weight(self.pool.wid_link[wid])
            for wid, assigned in enumerate(self.assignment)
            if assigned == state.index and self.alive[wid]
        )
        return max(int(round(width)), 1)

    # -- transport -----------------------------------------------------------

    def _send(self, wid: int, message: tuple) -> None:
        """Forward to the fleet, then fire a due ``hostloss`` fault."""
        super()._send(wid, message)
        link = self.pool.wid_link[wid]
        if (
            message[0] != "run"
            or not link.alive
            or self.injector is None
            or not self.injector.on_host_dispatch(link.index)
        ):
            return
        self.fault_report.injected.append(
            {"fault": "hostloss", "host": link.index, "addr": link.addr}
        )
        if self.tracer is not None:
            self.tracer.emit(
                FAULT_INJECTED,
                self._now(),
                proc=wid,
                fault="hostloss",
                host=link.index,
            )
        self.pool.post(link, {"op": "die"})

    def _on_message(self, kind: str, wid: int, payload) -> bool:
        if kind == "host_eof":
            link = self.links[payload]
            self._host_lost(link, "connection lost")
            self._check_liveness()
            return False
        if kind == "worker_died":
            link = self.pool.wid_link[wid]
            link.dead_workers.add(wid - link.base)
            self._check_liveness()
            return False
        if kind == "loaded":
            host = wid  # reader threads pass the host index here
            self._host_plane[(host, payload["key"])] = payload["plane"]
            self.bytes_shipped += int(payload.get("nbytes", 0))
            return False
        if kind == "load_error":
            raise MpBackendError(
                f"host agent {self.links[wid].addr} could not load op "
                f"{payload.get('key')}: {payload.get('error')}"
            )
        return super()._on_message(kind, wid, payload)

    # -- host liveness -------------------------------------------------------

    def _host_lost(self, link: _HostLink, reason: str) -> None:
        """Mark a whole host dead; the inherited sweep reclaims its
        workers' flights one by one right after."""
        if not link.alive:
            return
        link.alive = False
        link.dead_reason = reason
        reclaimed = 0
        for wid, flight in self.in_flight.items():
            if self.pool.wid_link[wid] is not link or flight.speculative:
                continue
            state = self.ops[flight.op_index]
            reclaimed += sum(
                1
                for index in flight.indices
                if index not in state.completed
                and index not in state.quarantined
            )
        survivors = sum(
            peer.workers - len(peer.dead_workers)
            for peer in self.links
            if peer.alive
        )
        self.fault_report.hosts_lost.append(link.index)
        if self.tracer is not None:
            self.tracer.emit(
                HOST_LOST,
                self._now(),
                proc=link.base,
                host=link.index,
                addr=link.addr,
                workers=link.workers,
                reclaimed=reclaimed,
                width=survivors,
                reason=reason,
            )
        link.close()

    def _check_liveness(self) -> None:
        for link, reason in self.pool.stale_hosts(
            self.cfg.heartbeat_interval, self._host_timeout
        ):
            self._host_lost(link, reason)
        super()._check_liveness()

    # -- throughput EWMA -----------------------------------------------------

    def _handle_report(self, wid, report, flight=None, batch_meta=None):
        records = report[1]
        if records:
            total = sum(record[2] for record in records)
            if total > 0:
                rate = len(records) / total
                link = self.pool.wid_link[wid]
                link.rate = (
                    rate
                    if link.rate is None
                    else 0.7 * link.rate + 0.3 * rate
                )
        super()._handle_report(wid, report, flight, batch_meta)

    # -- durability ----------------------------------------------------------

    def _setup_checkpoint(self) -> None:
        """Width-free manifest fingerprint.

        A dist run's processor count is discovered from the agents, not
        configured, and the whole point of the journal is resuming after
        a *host loss* — on a narrower fleet.  Pinning ``processors``
        would refuse exactly the resume the feature exists for, so the
        fingerprint is taken at a fixed width of 1.
        """
        original = self.cfg
        self.cfg = original.with_(processors=1)
        try:
            super()._setup_checkpoint()
        finally:
            self.cfg = original

    # -- data plane (remote) -------------------------------------------------

    def _load_op(self, wid: int, op_index: int) -> None:
        """Pickle one op to ``wid``'s host — once per (host, op): the
        agent installs it on every worker it has and answers
        ``loaded`` with the plane it chose."""
        link = self.pool.wid_link[wid]
        self._loaded.update(
            (link.base + lwid, op_index) for lwid in range(link.workers)
        )
        blob = self._entries.get(op_index)
        if blob is None:
            op = self.ops[op_index].op
            blob = pickle.dumps((op.kernel, op.payloads))
            self._entries[op_index] = blob  # pickled once, sent per host
        self.pool.post(
            link, {"op": "load", "key": self.key_base + op_index}, blob
        )
        if all(
            (peer.base, op_index) in self._loaded
            for peer in self.links
            if peer.alive
        ):
            del self._entries[op_index]  # every live host has it

    def _result(self, makespan: float) -> BackendRunResult:
        result = super()._result(makespan)
        # The agents own the segments; report the plane each op's
        # payloads actually rode (shm iff every surviving host mapped
        # it — agents decide identically, so disagreement means loss).
        data_plane = dict(result.data_plane)
        for state in self.ops:
            planes = {
                plane
                for (host, key), plane in self._host_plane.items()
                if key == state.index
            }
            if planes:
                data_plane[state.label] = (
                    "shm" if planes == {"shm"} else "pickle"
                )
        return dataclasses.replace(result, data_plane=data_plane)


# ---------------------------------------------------------------------------
# Backend facade
# ---------------------------------------------------------------------------


class DistBackend(MultiprocessingBackend):
    """TAPER + Eq. 1 over TCP host agents (``--backend dist``).

    ``RunConfig.hosts`` names the agents; ``RunConfig.processors`` is
    ignored — the width is the union of what the agents expose.  The
    ``run_*`` surface is inherited from the mp facade; only the fleet
    differs (connected agents instead of a local pool).
    """

    name = "dist"

    def prepare(self, cfg: RunConfig) -> "DistBackend":
        return self  # no local pool to warm

    def release(self) -> None:
        pass

    def _session(
        self,
        ops: Sequence[AnyOp],
        deps: Sequence[Set[int]],
        cfg: RunConfig,
    ) -> BackendRunResult:
        if not cfg.hosts:
            raise MpBackendError(
                "backend 'dist' needs --hosts host:port[,host:port...] "
                "naming at least one `repro hostagent`"
            )
        real_ops = [as_real_op(op, cfg) for op in ops]
        fleet = _HostFleet(parse_hosts(cfg.hosts))
        try:
            fleet.start()
            # The coordinator's own plane is the wire: it maps no
            # segments, each agent lays out its own.
            cfg = cfg.with_(processors=fleet.p, data_plane="pickle")
            return _DistSession(real_ops, deps, cfg, fleet).run()
        finally:
            fleet.stop()


register_backend("dist", DistBackend)
