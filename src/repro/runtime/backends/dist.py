"""Multi-host execution: TCP host agents under the mp coordinator loop.

The paper's Section 4 orchestration finally leaves the single host: a
``repro hostagent`` daemon runs on each machine and exposes N local
workers; the coordinator (``--backend dist``) discovers the agents from
``RunConfig.hosts`` (``"host:port,host:port,..."``), ships each op's
``Kernel`` + payloads over the wire exactly once per host, and then runs
the *same* TAPER chunk self-scheduling and Eq. 1 rationing loop as the
mp backend over the union of remote workers — the very same
:class:`~repro.runtime.backends.mp._MpSession`, on a :class:`_HostFleet`
(a :class:`~repro.runtime.backends.base.Fleet`) in place of a local
``WorkerPool``.

Layering follows Split Annotations' pluggable-data-plane argument, and
the :class:`~repro.runtime.backends.base.Fleet` data-plane contract on
both sides of the wire:

* **pickle crosses the wire** — one ``load`` frame per (host, op
  key), at its first dispatch there, carries the pickled ``(kernel,
  payloads)`` blob; dispatch frames are index-only, and an ``unload``
  frame drops a key.  A stream page is a key like any other, unloaded
  as it settles, so an agent never holds a whole stream.
* **placement stays on the host** — a ``load`` frame is the agent's
  ``WorkerPool.load`` on each of its workers, so the same single ladder
  decides shm or pickle there (the pool's resident
  :class:`~repro.runtime.backends.shm.SegmentCache` lets repeated runs
  against a resident agent reuse the layout); the ``loaded`` reply
  carries the facts back, and reports leave the agent's pool with
  their values already read out of shared memory.

**Heterogeneity.**  Eq. 1's finishing-time estimates assume uniform
processors; real fleets are not, so the fleet reports each host's
measured speed (:meth:`_HostFleet.weight`), echoing Bone et al.'s
overlap estimation.

**Host loss is a planned fault.**  A dropped connection (or a host
silent past :data:`_SILENT`) is one ``dead`` event per worker of that
host; the session reclaims their in-flight chunks, the Eq. 1 ration
re-runs over the survivors, and the run completes with exact totals.
The ``hostloss`` :class:`~repro.runtime.faults.FaultSpec` injects
exactly this: after the victim host's ``at_chunk``-th dispatched chunk
the fleet sends it ``{"op": "die"}`` and the agent exits abruptly.
With ``checkpoint_dir`` set, the journal makes a killed multi-host run
resumable — the manifest fingerprint is *width-free* (see
:func:`~repro.runtime.checkpoint.config_fingerprint_fields`) because a
resumed fleet may be smaller than the one that crashed.

**Clock domains**: each agent's workers stamp records against the
agent's own ``perf_counter`` epoch and the fleet rebases them
(:meth:`_HostFleet._rebase`).  ``repro serve`` composes with dist the
other way around — a host agent is itself a long-lived daemon.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import queue as queue_module
import signal
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ...obs.events import HOST_JOIN
from ...serve.protocol import MessageStream, ProtocolError
from ..config import PoolConfig, RunConfig, check_port, parse_hosts
from .base import load_facts, register_backend
from .mp import MpBackendError, SessionBackend, WorkerPool

#: Wire protocol version; the hello handshake refuses a mismatch.
PROTO_VERSION = 4

#: Agent-side op keys carry the connection epoch in the high bits so a
#: straggler report from a previous coordinator session can never alias
#: a current key (each connection numbers its keys from zero, so one
#: connection can name at most ``_KEY_MASK + 1`` of them).
_EPOCH_SHIFT = 20
_KEY_MASK = (1 << _EPOCH_SHIFT) - 1

#: Exit status of an agent killed by an injected ``hostloss`` fault.
HOST_KILL_EXIT = 43

#: Seconds of silence before the fleet pings a host, and before it
#: loses one (EOF is the usual news; this catches a hung host).
_QUIET, _SILENT = 0.2, 5.0


# ---------------------------------------------------------------------------
# Host agent (the `repro hostagent` daemon)
# ---------------------------------------------------------------------------


class HostAgent:
    """One host's :class:`~repro.runtime.backends.pool.WorkerPool` behind
    a TCP socket.

    The pool owns the worker processes and the data plane; the agent
    serves coordinator connections one at a time: ``load`` / ``unload``
    frames are the pool's ``load`` / ``unload``, ``run`` frames forward
    chunks, and a pump thread streams back what ``pool.recv`` returns.
    Between connections everything the coordinator loaded is unloaded;
    the pool's segment cache (byte-budget LRU, ``--shm-cache-bytes``)
    persists so back-to-back runs reuse payload segments.  A worker
    that dies is reported (``worker_died``) and stays dead.

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
        self.port = check_port(port, 0, "HostAgent")
        self.pool = WorkerPool(
            workers,
            start_method=start_method,
            pool_config=PoolConfig(shm_cache_bytes=shm_cache_bytes),
        )
        self.n = workers
        self.bind = bind
        self.die_hard = die_hard
        self.listener: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._stream: Optional[MessageStream] = None
        self._epoch = 0
        self._shutdown = False
        self._pump_thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the pool (fails fast, leaving no child, when a worker
        cannot come up), then open the port."""
        self.pool.start()
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
        if stream is not None:
            stream.close()
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
            self._stream = stream
        stream.send(
            {
                "ok": True,
                "proto": PROTO_VERSION,
                "workers": self.n,
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "now": self.pool.now(),
            }
        )
        loaded: Set[int] = set()
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
                    loaded.add(header["key"])
                    stream.send(self._load(header, blob))
                elif op == "unload":
                    loaded.discard(header["key"])
                    self.pool.unload(self._wrap(header["key"]))
                elif op == "ping":
                    stream.send({"event": "pong", "now": self.pool.now()})
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
            for key in loaded:
                self.pool.unload((epoch << _EPOCH_SHIFT) | key)
            stream.close()

    def _load(
        self, header: Dict[str, Any], blob: Optional[bytes]
    ) -> Dict[str, Any]:
        """One ``load`` frame: the pool's ``load`` on every live worker.
        The reply is the facts of the first, the one that placed the
        payloads (bytes shipped are the coordinator's to count)."""
        key = header["key"]
        reply = {"event": "loaded", "key": key}
        try:
            kernel, payloads = pickle.loads(blob)
        except Exception as error:
            return dict(reply, error=str(error))
        facts = [
            self.pool.load(wid, self._wrap(key), kernel, payloads)
            for wid in self.pool.live_workers()
        ]
        return dict(facts[0] if facts else load_facts(None), **reply)

    # -- worker report pump ---------------------------------------------------

    def _pump(self) -> None:
        """Forward worker reports and deaths to the current coordinator
        stream.  A dead worker stays dead: the agent never heals it."""
        while not self._shutdown:
            try:
                kind, wid, payload = self.pool.recv(0.25)
            except (queue_module.Empty, OSError, EOFError):
                continue
            except ValueError:  # the queue of a pool stopped under us
                if self.pool.stopped:
                    return
                raise
            with self._lock:
                stream = self._stream
                epoch = self._epoch
            if stream is None:
                continue  # no coordinator attached: drop stale traffic
            frame = {"event": kind, "wid": wid}
            if kind == "dead":
                # ``exitcode`` is optional on the wire: None = unknown.
                frame.update(event="worker_died", exitcode=payload)
            elif kind not in ("done", "error", "attached"):
                continue
            elif (payload[0] >> _EPOCH_SHIFT) != epoch:
                continue  # a straggler of a previous coordinator
            else:
                frame["key"] = payload[0] & _KEY_MASK
            if kind == "done":
                frame["records"] = payload[1]
                frame["batch"] = list(payload[2]) if payload[2] else None
            elif kind == "error":
                frame["failed"], frame["tb"] = list(payload[1]), payload[2]
                frame["records"] = payload[3] if len(payload) > 3 else []
            elif kind == "attached":
                frame["bytes"] = int(payload[1])
            try:
                stream.send(frame)
            except (ProtocolError, OSError):
                continue  # connection died; the serve loop cleans up


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
        #: Local wids the agent reported dead (killed workers).
        self.dead_workers: Set[int] = set()
        #: Op keys shipped to this host.
        self.loaded: Set[int] = set()
        #: The agent's ``loaded`` replies (``None``: the host was lost).
        self.replies: "queue_module.Queue" = queue_module.Queue()
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

    def close(self) -> None:
        if self.stream is not None:
            self.stream.close()


class _HostFleet:
    """Connected host agents as a
    :class:`~repro.runtime.backends.base.Fleet` (see there).  Global
    wids number the agents' workers host by host; one reader thread per
    host turns frames into events.  It cannot heal: remote processes
    are their agent's to reap, so a dead worker or host stays dead.
    """

    name = "dist"

    def __init__(self, hosts: Sequence[Tuple[str, int]]):
        self.links = [
            _HostLink(index, host, port)
            for index, (host, port) in enumerate(hosts)
        ]
        #: wid -> its host link.
        self.wid_link: List[_HostLink] = []
        self.p = self.slots = 0
        self._t0 = 0.0
        self.running = False
        self._events: "queue_module.Queue" = queue_module.Queue()
        self._readers: List[threading.Thread] = []
        #: Fleet time of the next look for silent hosts.
        self._next_check = 0.0
        #: Guards link loss (reader threads vs. the session's thread).
        self._lock = threading.Lock()
        self._happened: List[Dict[str, Any]] = []
        self._injector = None
        #: Op key -> pickled (kernel, payloads), until every host has it.
        self._blobs: Dict[int, bytes] = {}
        self._next_key = 0

    def now(self) -> float:
        return time.perf_counter() - self._t0

    def start(self) -> None:
        """Connect and handshake every agent, estimate each host's clock
        skew from a half-RTT ping, then hand the sockets to the readers."""
        for link in self.links:
            link.connect()
            link.base = len(self.wid_link)
            self.wid_link.extend([link] * link.workers)
        self.p = self.slots = len(self.wid_link)
        self._t0 = time.perf_counter()
        for link in self.links:
            sent = self.now()
            link.stream.send({"op": "ping"})
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
        """Say goodbye to the live agents, wait for each to hang up (by
        then it has unloaded everything), and close every socket."""
        self.running = False
        for link in self.links:
            if link.alive and link.stream is not None:
                try:
                    link.stream.send({"op": "bye"})
                except (ProtocolError, OSError):
                    pass
        for thread in self._readers:
            thread.join(timeout=1.0)
        for link in self.links:
            link.close()

    # -- the fleet interface ---------------------------------------------------

    def _post(
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
            link.stream.send(header, blob)
        except (ProtocolError, OSError):
            self._lose(link, "connection lost")

    def _lose(self, link: _HostLink, reason: str) -> None:
        """Mark a whole host dead: one ``dead`` event per worker of it
        not already reported dead."""
        with self._lock:
            if not link.alive:
                return
            link.alive = False
            self._happened.append(
                {
                    "kind": "host_lost",
                    "slot": link.base,
                    "host": link.index,
                    "addr": link.addr,
                    "workers": link.workers,
                    "wids": range(link.base, link.base + link.workers),
                    "width": sum(
                        peer.workers - len(peer.dead_workers)
                        for peer in self.links
                        if peer.alive
                    ),
                    "reason": reason,
                }
            )
            for local in range(link.workers):
                if local not in link.dead_workers:
                    self._events.put(("dead", link.base + local, None))
        link.close()
        link.replies.put(None)  # a load waiting on this host is over

    def arm(self, injector) -> None:
        self._injector = injector

    def claim(self) -> List[int]:
        return list(range(self.p))  # a death since start is an event

    def release(self, handed: Dict[int, str]) -> None:
        pass  # nothing to hand back to: the agents own their workers

    def send(self, wid: int, message: tuple) -> None:
        """Forward a chunk dispatch, then fire a due ``hostloss``."""
        _, key, indices, fault, batch = message
        link = self.wid_link[wid]
        self._post(
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
        if (
            self._injector is not None
            and link.alive
            and self._injector.on_host_dispatch(link.index)
        ):
            self._happened.append(
                {
                    "kind": "hostloss",
                    "slot": wid,
                    "host": link.index,
                    "addr": link.addr,
                }
            )
            self._post(link, {"op": "die"})

    def load(self, wid: int, key: int, kernel, payloads) -> Dict[str, Any]:
        """Pickle one op key to ``wid``'s host — once per host: the
        agent installs it on every worker it has and answers ``loaded``
        with the facts of its placement, which this waits for (a load
        is rare and a run frame must not overtake a failed one)."""
        link = self.wid_link[wid]
        if key in link.loaded or not link.alive:
            return load_facts(None)
        blob = self._blobs.get(key)
        if blob is None:
            blob = self._blobs[key] = pickle.dumps((kernel, payloads))
        link.loaded.add(key)
        self._post(link, {"op": "load", "key": key}, blob)
        if all(key in peer.loaded for peer in self.links if peer.alive):
            del self._blobs[key]  # every live host has it
        try:
            reply = link.replies.get(timeout=_SILENT)
        except queue_module.Empty:
            self._lose(link, "load timeout")
            reply = None
        if reply is None:
            return load_facts(None, len(blob))
        if "error" in reply:
            raise MpBackendError(
                f"host agent {link.addr} could not load op {key}: "
                f"{reply['error']}"
            )
        return dict(reply, bytes_shipped=len(blob))

    def unload(self, key: int) -> None:
        self._blobs.pop(key, None)
        for link in self.links:
            if key in link.loaded:
                link.loaded.remove(key)
                self._post(link, {"op": "unload", "key": key})

    def recv(self, timeout: float):
        """The next event; every :data:`_QUIET` s meanwhile, ping quiet
        hosts and lose those silent past :data:`_SILENT`."""
        end = self.now() + timeout
        while True:
            now = self.now()
            if now >= self._next_check:
                self._next_check = now + _QUIET
                for link in self.links:  # (both skip a lost host)
                    if now - link.last_seen > _SILENT:
                        self._lose(link, "silent too long")
                    elif now - link.last_seen > _QUIET:
                        self._post(link, {"op": "ping"})
            try:
                return self._events.get(
                    timeout=max(0.0, min(end, self._next_check) - now)
                )
            except queue_module.Empty:
                if self.now() >= end:
                    raise

    def weight(self, wid: int) -> float:
        """The host's task-throughput EWMA over the live hosts' mean."""
        rate = self.wid_link[wid].rate
        rates = [peer.rate for peer in self.links if peer.alive and peer.rate]
        if not rate or not rates:
            return 1.0
        return rate * len(rates) / sum(rates)

    def allocate_keys(self, count: int) -> int:
        """Consecutive keys of this connection's namespace (agents wrap
        them with their connection epoch, which takes the bits above
        ``_KEY_MASK``)."""
        base = self._next_key
        if base + count > _KEY_MASK + 1:
            raise MpBackendError(
                f"dist: a run on one connection can name at most "
                f"{_KEY_MASK + 1} op keys (a fixed op takes one, a stream "
                f"page one more); {base + count} were asked for"
            )
        self._next_key = base + count
        return base

    def can_recover(self) -> bool:
        return False

    def sweep(self) -> List[Dict[str, Any]]:
        with self._lock:
            happened, self._happened = self._happened, []
        return happened

    def _reader(self, link: _HostLink) -> None:
        """Per-host reader: frames -> fleet events (rebased clocks)."""
        while True:
            try:
                frame = link.stream.recv()
            except (ProtocolError, OSError):
                frame = None
            if frame is None:
                if self.running:  # else: the agent's answer to our bye
                    self._lose(link, "connection lost")
                return
            header, _blob = frame
            link.last_seen = self.now()
            event = header.get("event")
            wid = link.base + int(header.get("wid", 0))
            if event == "done":
                records = self._rebase(link, header["records"])
                total = sum(record[2] for record in records)
                if total > 0:
                    rate = len(records) / total
                    link.rate = (
                        rate
                        if link.rate is None
                        else 0.7 * link.rate + 0.3 * rate
                    )
                batch = header.get("batch")
                payload = (records, tuple(batch) if batch else None)
            elif event == "error":
                records = self._rebase(link, header.get("records") or [])
                payload = (header["failed"], header.get("tb", ""), records)
            elif event == "attached":
                payload = (header["bytes"],)
            if event in ("done", "error", "attached"):
                self._events.put((event, wid, (header["key"],) + payload))
            elif event == "worker_died":
                with self._lock:  # a host lost meanwhile told already
                    if link.alive:
                        link.dead_workers.add(wid - link.base)
                        self._events.put(("dead", wid, header.get("exitcode")))
            elif event == "loaded":
                link.replies.put(header)
            # pong: last_seen above is the whole point

    @staticmethod
    def _rebase(link: _HostLink, records) -> List[tuple]:
        """Agent-domain record starts -> fleet domain (skew), with
        durations untouched (they are domain-free intervals)."""
        return [
            (index, start - link.skew, duration, value)
            for index, start, duration, value in records
        ]


# ---------------------------------------------------------------------------
# Backend facade
# ---------------------------------------------------------------------------


class DistBackend(SessionBackend):
    """TAPER + Eq. 1 over TCP host agents (``--backend dist``).

    ``RunConfig.hosts`` names the agents; ``RunConfig.processors`` is
    ignored — the width is the union of what the agents expose.  Only
    the fleet differs from mp's (connected agents instead of a local
    pool), and it is connected per run: nothing to warm.
    """

    name = "dist"

    @contextlib.contextmanager
    def _fleet(self, cfg: RunConfig):
        if not cfg.hosts:
            raise MpBackendError(
                "backend 'dist' needs --hosts host:port[,host:port...] "
                "naming at least one `repro hostagent`"
            )
        fleet = _HostFleet(parse_hosts(cfg.hosts))
        try:
            fleet.start()
            if cfg.tracer is not None:
                # Hosts joined before the session clock started.
                for link in fleet.links:
                    cfg.tracer.emit(
                        HOST_JOIN,
                        0.0,
                        proc=link.base,
                        host=link.index,
                        addr=link.addr,
                        workers=link.workers,
                        width=link.base + link.workers,
                    )
            yield fleet, cfg.with_(processors=fleet.p)
        finally:
            fleet.stop()


register_backend("dist", DistBackend)
