"""The Backend protocol: one interface, simulated or real execution.

A backend executes parallel operations and their dependences — one
entry, ``run_ops(ops, cfg, deps)``, whether the caller had one op, a
concurrent set, or a whole Delirium graph (:func:`graph_ops_and_deps`
flattens one) — and reports a :class:`BackendRunResult`.  Every backend
runs the one scheduling session on a :class:`Fleet`: the simulator's,
a local worker pool, or remote host agents.

Time units follow the fleet — the simulator reports abstract *work
units*, the real fleets wall-clock *seconds* (``time_unit`` says which)
— but the schedulable quantities (task counts, chunk counts, kernel
value totals) are directly comparable, which is what the sim-vs-mp
equivalence suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Union,
)

from ..config import RunConfig
from ..faults import FaultReport
from ..kernel import Kernel
from ..task import ParallelOp, RealOp, real_op_from_parallel

#: What backends accept: simulated ops, real-kernel ops, or a mix.
AnyOp = Union[ParallelOp, RealOp]


@dataclass
class OpOutcome:
    """Per-operation accounting within one backend run."""

    name: str
    tasks: int = 0
    chunks: int = 0
    #: Sum of measured (mp) or declared (sim) task costs.
    work: float = 0.0
    #: Sum of kernel return values (tasks for spin kernels).
    value_total: float = 0.0
    finish: float = 0.0


@dataclass
class BackendRunResult:
    """The unified outcome every backend reports."""

    backend: str
    makespan: float
    total_work: float
    processors: int
    tasks: int
    chunks: int
    #: ``"work-units"`` (sim) or ``"seconds"`` (mp).
    time_unit: str
    #: Sum of kernel return values across all operations.
    value_total: float = 0.0
    per_op: Dict[str, OpOutcome] = field(default_factory=dict)
    #: What was run, as :func:`repro.api.resolve_ops` labels it (empty
    #: for a direct ``Backend.run_ops`` call).
    target: str = ""
    #: Fault-recovery accounting (empty on clean runs; ``None`` only on
    #: a Section 5 app model, which runs no session).
    fault_report: Optional[FaultReport] = None
    #: The run stopped early but cleanly (SIGINT/SIGTERM or
    #: ``wall_clock_limit``); totals above cover the completed prefix.
    cancelled: bool = False
    #: Why the run was cancelled (``"signal:SIGINT"``,
    #: ``"wall_clock_limit"``, ...); empty when not cancelled.
    cancel_reason: str = ""
    #: The checkpoint directory a cancelled/checkpointed run can be
    #: resumed from (``None`` when checkpointing was off).
    resume_dir: Optional[str] = None
    #: Tasks restored from a replayed journal rather than executed
    #: (included in ``tasks``).
    tasks_resumed: int = 0
    #: Per-op data plane actually used: op label -> ``"shm"`` or
    #: ``"pickle"`` (always, on the simulator: kernels run in process).
    data_plane: Dict[str, str] = field(default_factory=dict)
    #: Payload bytes moved to where workers run (``base.load_facts``):
    #: pickle-plane ops cost their estimated payload bytes *per worker*;
    #: shm-plane ops cost their stacked payload bytes exactly once.
    bytes_shipped: int = 0
    #: Total shared-memory segment bytes mapped (payloads + result
    #: buffers); 0 when the shm plane was not used.
    shm_bytes: int = 0
    #: Payload bytes served from a resident pool's segment cache instead
    #: of being laid out again (warm runs with identical payloads).
    shm_reused_bytes: int = 0
    #: Per-stream-op ingestion summary (mp backend, StreamOp only): op
    #: label -> dict with ``pages``, ``tasks``, ``backpressure_events``,
    #: ``plane``, ``page_latency_p50``, ``page_latency_p99``.  Empty
    #: when the run had no streaming ops.
    stream: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Chunks executed as one vectorized ``Kernel.batch_fn`` call (mp
    #: backend with ``RunConfig.batching`` enabled); 0 on the simulator,
    #: on ``batching="off"`` runs, and for kernels without a batch fn.
    batched_chunks: int = 0
    #: Fresh (deduplicated) task results those batched calls delivered.
    batched_tasks: int = 0
    #: What this run's chunk journal cost (with ``checkpoint_dir``):
    #: records appended, bytes written, fsyncs.
    journal_records: int = 0
    journal_bytes: int = 0
    journal_syncs: int = 0

    @property
    def speedup(self) -> float:
        """Total work over makespan (``processors`` for an empty run)."""
        if self.makespan <= 0:
            return float(self.processors)
        return self.total_work / self.makespan

    @property
    def efficiency(self) -> float:
        """:attr:`speedup` per processor."""
        if self.processors <= 0:
            return 1.0
        return self.speedup / self.processors

    def summary(self) -> str:
        """One human-readable block: headline totals plus a line per
        engaged subsystem (resume, data plane, streams, batching,
        cancellation, faults) — what ``python -m repro run`` prints."""
        unit = "s" if self.time_unit == "seconds" else " work units"
        text = (
            f"{self.target}: backend={self.backend} p={self.processors} "
            f"tasks={self.tasks} chunks={self.chunks} "
            f"makespan={self.makespan:.4g}{unit} "
            f"speedup={self.speedup:.2f}x eff={self.efficiency:.2f} "
            f"value_total={self.value_total:.0f}"
        )
        if self.tasks_resumed:
            text += (
                f"\nresumed: {self.tasks_resumed} tasks restored from "
                "the journal (not re-executed)"
            )
        shm_ops = sum(
            1 for plane in self.data_plane.values() if plane == "shm"
        )
        if shm_ops:
            text += (
                f"\ndata plane: {shm_ops}/{len(self.data_plane)} ops in "
                f"shared memory ({self.shm_bytes} bytes mapped, "
                f"~{self.bytes_shipped} payload bytes shipped)"
            )
            if self.shm_reused_bytes:
                text += (
                    f"\nwarm pool: {self.shm_reused_bytes} payload bytes "
                    "reused from the segment cache"
                )
        for label, info in sorted(self.stream.items()):
            rate = (
                info["tasks"] / self.makespan if self.makespan > 0 else 0.0
            )
            text += (
                f"\nstream {label}: {info['pages']} pages, "
                f"{info['tasks']} tasks ({rate:.0f} tasks/s sustained), "
                f"plane={info['plane']}, "
                f"p99 page latency {info['page_latency_p99']:.3f}s, "
                f"backpressure events={info['backpressure_events']}"
            )
        if self.batched_chunks:
            per_call = self.batched_tasks / self.batched_chunks
            text += (
                f"\nbatched: {self.batched_chunks} chunks in one "
                f"vectorized call each ({self.batched_tasks} tasks, "
                f"~{per_call:.1f} tasks/call)"
            )
        if self.cancelled:
            text += f"\ncancelled: {self.cancel_reason}"
            if self.resume_dir:
                text += (
                    f"; resume with `python -m repro run --backend "
                    f"{self.backend} --resume {self.resume_dir}`"
                )
        if self.fault_report is not None and self.fault_report.any_fault:
            text += f"\nfaults: {self.fault_report.summary()}"
        return text


class Backend(Protocol):
    """Anything that can execute parallel operations under a RunConfig.

    ``prepare``/``release`` bracket *warm* state (the mp backend's
    resident worker pool; a no-op pair elsewhere).  ``run_*`` callers
    never need to call either: an unprepared backend is simply cold.
    """

    name: str

    def prepare(self, cfg: RunConfig) -> "Backend":
        """Acquire reusable execution state (e.g. spawn a resident
        worker pool) so subsequent runs skip per-run startup."""
        ...

    def release(self) -> None:
        """Drop state acquired by :meth:`prepare`; idempotent."""
        ...

    def run_ops(
        self,
        ops: Sequence[AnyOp],
        cfg: RunConfig,
        deps: Optional[Sequence[Set[int]]] = None,
    ) -> BackendRunResult:
        """Execute ``ops`` as one session.  ``deps[i]`` holds the
        indices op ``i`` waits for (default: :func:`name_deps`, the
        ops' declared ``RealOp.deps``); whatever is ready at once shares
        the processors under the Eq. 1 ration, re-rationed when the
        running set changes (the paper's core scenario)."""
        ...

    def run_op(self, op: AnyOp, cfg: RunConfig) -> BackendRunResult:
        """``run_ops([op], cfg)``: one operation on the whole machine."""
        ...


class Fleet(Protocol):
    """The seam between the one scheduling core and whatever runs tasks.

    :class:`~repro.runtime.backends.mp._MpSession` (TAPER chunk pick,
    Eq. 1 re-ration, reclaim) knows nothing of processes, sockets or
    tenancy: it sends commands to numbered workers (``wid`` in
    ``range(slots)``) and reads events back, through this interface
    only.  Four fleets answer it: ``SimFleet`` (simulated time),
    ``WorkerPool`` (local processes), the serve daemon's per-job tenant
    view of either, and the dist backend's ``_HostFleet`` (TCP hosts).
    The first two heal alike: they share one slot lifecycle
    (``pool.SlotPool``) and differ in how a worker starts and stops.

    **Who calls what.**  A session calls every member and nothing else
    of its fleet, :meth:`recv` from its one loop (``_MpSession.run``).
    The fleet's owner (a backend facade, or the ``JobServer`` it is
    handed to started) stops it and is the only other caller of
    :meth:`sweep` (on a pool its jobs share).  A serve tenant's session
    runs no loop of its own: the daemon's router reads the shared pool
    and calls the session's steps, so a tenant's view of the pool has
    no ``recv``.

    **Commands out, events in.**  Events are ``(kind, wid, payload)``:
    the worker reports ``pool._worker_main`` documents, and three the
    fleet makes.  **A death is an event**: ``("dead", wid, exitcode)``,
    once per lost worker, after any report it sent before it died
    (``exitcode`` is the process's status, negative for a signal;
    ``None`` when only its host's loss tells).  **Healing deadlines are
    the fleet's**: when one comes due (a respawn backoff, a handshake
    timeout) it is announced once as ``("sweep", None, None)``, and the
    driver calls :meth:`sweep`.  Nobody asks a fleet whether a worker
    lives.  The one membership event is ``("ration", None, (granted,
    revoked))``: the session's worker set changes by both lists at
    once (a healed or grown slot joins as a one-element ``granted``;
    the serve balancer hands the session the same pair directly).  The
    session applies it whole — the granted join, an idle revoked worker
    goes back at once and a busy one after its chunk reports, then Eq.
    1 runs once — so TAPER always sizes chunks from the real width.  The
    first set is not an event: it is what :meth:`claim` returns.
    Handshakes, pings and load acknowledgements are consumed inside the
    fleet.

    **Data plane: one rule per key.**  A key is a kernel over a fixed
    payload list: a whole op, or one admitted page of a stream op (each
    page gets its own key, and task indices in ``run`` commands and
    reports are local to the key).  The session says *what to run* —
    the kernel and the payloads — never how it is stored.  The fleet
    *places* a key's payloads once, at its first :meth:`load`
    (``shm.place`` decides from the payloads: shared memory its workers
    attach, else pickled to each worker), so
    layout happens at the key's first dispatch, inside the makespan.
    ``load`` returns :func:`load_facts` and the session only sums them.
    Every task value in a ``done`` / ``error`` report :meth:`recv`
    returns is a number: result slots are read out inside the fleet.
    Whoever laid a segment out is its only unlinker: at :meth:`unload`
    of the key, which the session calls the moment a page settles and
    for every key it still holds on every exit path — completion,
    error, cancel, injected coordinator kill — whether or not a worker
    that loaded it still lives, and at :meth:`stop` for anything left.
    A segment cache may keep an unloaded key's payload segment, within
    its byte budget, so ``/dev/shm`` holds at most the keys loaded now
    plus ``PoolConfig.shm_cache_bytes``; for a stream, that is its
    admission window plus the budget.  A report that races its key's
    unload is stale and may arrive without records.

    **Clock domains.**  :meth:`now` and the record starts in events are
    the fleet's clock on its epoch (remote clocks are rebased before
    :meth:`recv` returns); the session subtracts its reading at start.
    Healing deadlines (backoff, handshake, host silence) are the
    fleet's private clock: :meth:`sweep` returns facts without
    timestamps (``respawn``, ``spawnfail``, ``quarantine``, ``evict``,
    ``host_lost``, ``hostloss``, each a dict with its ``kind``) and the
    caller stamps them: ``mp.report_fleet_events`` is the one place
    they, and the ``load`` facts, become tracer events and
    ``FaultReport`` entries.
    """

    #: Stamped on results as ``BackendRunResult.backend``.
    name: str
    #: Base width (``RunConfig.processors`` must match) and the size of
    #: the ``wid`` space (``>= p`` where a pool can grow).
    p: int
    slots: int
    running: bool

    def now(self) -> float:
        """The fleet's clock on its epoch (seconds; the sim's work units)."""

    def claim(self) -> List[int]:
        """The session's first worker set, taken once as it starts
        (every live worker of an exclusive fleet; a tenant's first
        ration, possibly empty while other jobs hold the pool)."""

    def release(self, handed: Dict[int, str]) -> None:
        """Hand workers back, ``wid -> status``, in one step: ``"free"``
        (idle), ``"busy"`` (our last chunk still runs on it; its report
        will be stale) or ``"dead"`` (after its ``dead`` event: arms
        its healing)."""

    def send(self, wid: int, message: tuple) -> None:
        """One ``run`` command to ``wid``."""

    def recv(self, timeout: float) -> tuple:
        """The next event; raises ``queue.Empty`` after ``timeout``."""

    def weight(self, wid: int) -> float:
        """Relative speed of ``wid`` (mean 1.0): orders the Eq. 1
        worker subsets and scales TAPER's ``p``."""

    def allocate_keys(self, count: int) -> int:
        """Reserve ``count`` fleet-unique op keys; returns the base."""

    def load(self, wid: int, key: int, kernel, payloads) -> Dict[str, Any]:
        """Install ``key`` where ``wid`` runs, before its first chunk
        of it: ``kernel`` over ``payloads``.  Returns
        :func:`load_facts`."""

    def unload(self, key: int) -> None:
        """Forget ``key`` wherever it was loaded and unlink what was
        laid out for it; idempotent."""

    def arm(self, injector) -> None:
        """Take a session's fleet-level faults (``spawnfail``,
        ``hostloss``) from its ``FaultInjector``."""

    def sweep(self) -> List[Dict[str, Any]]:
        """Heal what is due now and return what happened since the
        last call."""

    def can_recover(self) -> bool:
        """Whether a worker the caller does not hold may still join it
        (alive elsewhere, mid-handshake or respawnable)."""

    def stop(self) -> None: ...


#: The :func:`load_facts` a session sums, under the
#: :class:`BackendRunResult` fields they total into.
LOAD_SUMS = ("bytes_shipped", "shm_bytes", "shm_reused_bytes")


def load_facts(
    plane: Optional[str],
    bytes_shipped: int = 0,
    shm_bytes: int = 0,
    shm_reused_bytes: int = 0,
    segment: Optional[str] = None,
    mode: Optional[str] = None,
) -> Dict[str, Any]:
    """What one :meth:`Fleet.load` did, as a fleet fact.

    ``plane`` is where the payloads live (``"shm"`` | ``"pickle"``;
    ``None`` when the call placed none: a lost host, a host that has
    them).  ``bytes_shipped`` is what this call moved:
    freshly laid-out bytes once per key on shm, the payload estimate
    per (worker, key) on pickle, the blob length per host on dist.  The
    call that placed the payloads also says what it mapped
    (``shm_bytes``), what a segment cache served instead
    (``shm_reused_bytes``), and names the payload ``segment`` and its
    ``mode``.
    """
    return {
        "kind": "load",
        "plane": plane,
        "bytes_shipped": bytes_shipped,
        "shm_bytes": shm_bytes,
        "shm_reused_bytes": shm_reused_bytes,
        "segment": segment,
        "mode": mode,
    }


def check_graph_attachment(
    graph, op_tasks: Dict[int, AnyOp], allow_placeholder: bool
) -> None:
    """Refuse to run a graph whose nodes silently compute nothing.

    Pipeline-mirror nodes (``pipeline_role`` set) are structural by
    design — their work is carried by the ops they mirror — and are
    always exempt.  Any other unattached node is a mis-wired graph:
    raise naming it, unless the caller explicitly asked for a
    structure-only run with ``allow_placeholder=True``.
    """
    if allow_placeholder:
        return
    for node in graph.nodes:
        if node.id in op_tasks:
            continue
        if getattr(node, "pipeline_role", None) is not None:
            continue
        raise ValueError(
            f"graph node {node.name!r} (id {node.id}) has no attached "
            "operation; it would run as a zero-task placeholder and "
            "compute nothing.  Attach an op in op_tasks, or pass "
            "allow_placeholder=True for a structure-only run."
        )


_REGISTRY: Dict[str, type] = {}


def register_backend(name: str, cls: type) -> None:
    _REGISTRY[name] = cls


def get_backend(name: str) -> Backend:
    """Instantiate a backend by RunConfig name (one of ``config.BACKENDS``)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    return cls()


def backend_for(cfg: RunConfig) -> Backend:
    return get_backend(cfg.backend)


def name_deps(ops: Sequence[AnyOp]) -> List[set]:
    """Dependency sets from declared op-name deps (list-of-ops runs).

    Names missing from the list are ignored — a graph fragment flattened
    to a list keeps only the dependences it can see.
    """
    name_to_index = {op.name: index for index, op in enumerate(ops)}
    deps: List[set] = []
    for op in ops:
        dep_names = getattr(op, "deps", ()) or ()
        deps.append(
            {
                name_to_index[name]
                for name in dep_names
                if name in name_to_index
            }
        )
    return deps


def _noop_fn(payload) -> float:  # pragma: no cover - placeholder ops
    return 0.0


_noop_kernel = Kernel(fn=_noop_fn, name="noop")


def graph_ops_and_deps(
    graph,
    op_tasks: Dict[int, AnyOp],
    allow_placeholder: bool = False,
):
    """Flatten a Delirium graph to ``(ops, dependency_sets)``.

    Every node becomes one op (unattached nodes become zero-task
    placeholders, subject to :func:`check_graph_attachment`); edges
    become index-dependences in node order.
    """
    check_graph_attachment(graph, op_tasks, allow_placeholder)
    nodes = list(graph.nodes)
    index_of = {node.id: index for index, node in enumerate(nodes)}
    ops: List[AnyOp] = []
    deps: List[set] = []
    for node in nodes:
        attached = op_tasks.get(node.id)
        if attached is None:
            ops.append(
                RealOp(name=node.name, kernel=_noop_kernel, payloads=[])
            )
        else:
            ops.append(attached)
        deps.append(
            {index_of[pred.id] for pred in graph.predecessors(node)}
        )
    return ops, deps


def as_real_op(op: AnyOp, cfg: RunConfig) -> RealOp:
    """Normalise to an executable op (simulated ops become spin burns)."""
    if isinstance(op, RealOp):
        return op
    return real_op_from_parallel(op, cfg.time_scale)
