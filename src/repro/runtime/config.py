"""The unified run configuration shared by every execution backend.

Before ``RunConfig`` existed, the machine shape, scheduler policy, taper
parameters, allocator choice and tracer were passed as overlapping
positional/keyword knobs duplicated across :func:`run_distributed`,
:func:`run_concurrent_ops`, :func:`run_pipelined` and
:class:`GraphExecutor`.  A single frozen dataclass now carries all of
them; backends (:mod:`repro.runtime.backends`) and the public facade
(:mod:`repro.api`) take one ``RunConfig`` instead of a knob soup, and the
old signatures survive one release as thin deprecation shims (see
``repro/runtime/__init__.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from .faults import FaultPlan
from .machine import MachineConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.events import Tracer

#: Names accepted by :func:`repro.runtime.schedulers.make_policy`.
POLICIES = ("taper", "taper-nocost", "self", "gss", "factoring", "static")
ALLOCATORS = ("balance", "even", "proportional")
BACKENDS = ("sim", "mp", "dist")
SIM_MODELS = ("distributed", "central")
COST_SOURCES = ("measured", "declared")
MP_START_METHODS = (None, "fork", "spawn", "forkserver")
ON_FAULT = ("retry", "fail")
DATA_PLANES = ("auto", "shm", "pickle")
BATCHINGS = ("auto", "on", "off")


@dataclass(frozen=True)
class PoolConfig:
    """Elasticity and self-healing knobs for a ``WorkerPool``.

    The pool's *base width* is the ``processors`` it was built with;
    these knobs govern how the width may move around that point:

    * dead workers are respawned under exponential backoff
      (``respawn_backoff * 2**(deaths_in_window - 1)`` seconds);
    * a slot that dies more than ``max_respawns`` times within a rolling
      ``respawn_window`` is quarantined (circuit breaker) and the pool
      narrows durably;
    * with ``idle_timeout`` set, serve-mode pools shrink workers that sat
      idle that long (down to ``min_workers``) and grow dormant slots up
      to ``max_workers`` when queued demand and TAPER cost samples say
      the load is compute-bound.
    """

    #: Shrink floor (serve mode); ``None`` = the pool's base width, i.e.
    #: idle shrink only ever releases *grown* workers.
    min_workers: Optional[int] = None
    #: Growth ceiling; ``None`` = the base width (no growth).
    max_workers: Optional[int] = None
    #: Base of the respawn backoff (seconds); the n-th death within the
    #: rolling window waits ``respawn_backoff * 2**(n-1)``.
    respawn_backoff: float = 0.1
    #: Deaths tolerated per slot within ``respawn_window`` before the
    #: slot is quarantined instead of respawned.
    max_respawns: int = 3
    #: Rolling window (seconds) for the crash-loop death count.
    respawn_window: float = 30.0
    #: Seconds a serve-mode worker may sit idle before the pool shrinks
    #: it (``None`` disables idle shrink).
    idle_timeout: Optional[float] = None
    #: Seconds a respawned/grown worker gets to complete its ready
    #: handshake before the attempt is counted as another death.
    ready_timeout: float = 30.0
    #: Byte budget of the pool's shared-memory segment cache
    #: (:class:`repro.runtime.backends.shm.SegmentCache`): least-recently
    #: used unpinned payload segments are evicted past this many bytes.
    #: ``0`` disables the bound (the pre-PR-10 unbounded behaviour);
    #: ``None`` uses :data:`~repro.runtime.backends.shm.DEFAULT_CACHE_BYTES`.
    shm_cache_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_workers is not None and self.min_workers < 1:
            raise ValueError("PoolConfig.min_workers must be >= 1")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("PoolConfig.max_workers must be >= 1")
        if (
            self.min_workers is not None
            and self.max_workers is not None
            and self.min_workers > self.max_workers
        ):
            raise ValueError(
                "PoolConfig.min_workers must not exceed max_workers"
            )
        if self.respawn_backoff < 0:
            raise ValueError("PoolConfig.respawn_backoff must be >= 0")
        if self.max_respawns < 0:
            raise ValueError("PoolConfig.max_respawns must be >= 0")
        if self.respawn_window <= 0:
            raise ValueError("PoolConfig.respawn_window must be > 0")
        if self.idle_timeout is not None and self.idle_timeout <= 0:
            raise ValueError(
                "PoolConfig.idle_timeout must be > 0 (or None to disable "
                "idle shrink)"
            )
        if self.ready_timeout <= 0:
            raise ValueError("PoolConfig.ready_timeout must be > 0")
        if self.shm_cache_bytes is not None and self.shm_cache_bytes < 0:
            raise ValueError(
                "PoolConfig.shm_cache_bytes must be >= 0 (0 = unbounded) "
                "or None for the default budget"
            )


@dataclass(frozen=True)
class RunConfig:
    """Everything a backend needs to execute parallel operations.

    The dataclass is frozen: a config can be shared between runs, used as
    a dict key, and handed to worker processes without aliasing surprises.
    Use :meth:`with_` to derive variants.

    Simulation-only fields (``machine``, ``sim_model``) are ignored by the
    mp backend except where noted; mp-only fields (``cost_source``,
    ``time_scale``, ``mp_*``) are ignored by the simulator.
    """

    #: Processors (sim) / worker processes (mp).
    processors: int = 8
    #: Which execution backend runs the operations: ``"sim"`` (the
    #: discrete-event simulator) or ``"mp"`` (real ``multiprocessing``).
    backend: str = "sim"
    #: Chunk-size policy name (see :func:`make_policy`).
    policy: str = "taper"
    #: Initial processor split among concurrent operations: ``"balance"``
    #: (Eq. 1), ``"even"``, or ``"proportional"``.
    allocator: str = "balance"
    #: Let idle processors flow across operation boundaries.
    work_conserving: bool = True
    #: Minimum grain fixed by the front end (TAPER's floor).
    min_chunk: int = 1
    #: Startup sampling depth (tasks observed before the first estimate).
    sample_tasks: int = 32
    #: Simulated machine cost parameters; defaults to
    #: ``MachineConfig(processors=processors)``.  Must agree with
    #: ``processors`` when given.
    machine: Optional[MachineConfig] = None
    #: Simulator task-queue model: ``"distributed"`` (per-processor queues
    #: with chunk re-assignment, the paper's Section 4.1.1 protocol) or
    #: ``"central"`` (one central queue — matches the mp coordinator's
    #: topology for equivalence testing).
    sim_model: str = "distributed"
    #: Where the mp backend's TAPER statistics come from: ``"measured"``
    #: (wall-clock task durations) or ``"declared"`` (the operation's
    #: declared per-task costs — deterministic, for equivalence tests).
    cost_source: str = "measured"
    #: Seconds of real busy-work per declared work unit when the mp
    #: backend executes a simulated :class:`ParallelOp`.
    time_scale: float = 2e-4
    #: How the mp backend moves payloads and results between the
    #: coordinator and its workers:
    #:
    #: * ``"auto"`` (default) — numpy-compatible payloads above a size
    #:   floor are laid out in ``multiprocessing.shared_memory`` segments
    #:   that workers attach zero-copy; everything else is pickled to
    #:   each worker that runs the op.
    #: * ``"shm"`` — shared memory for *every* eligible op regardless of
    #:   size (small ops too); ineligible payloads still fall back to
    #:   pickle per op, as does everything when numpy is absent.
    #: * ``"pickle"`` — never use shared memory.
    #:
    #: See :mod:`repro.runtime.backends.shm` for eligibility rules.
    data_plane: str = "auto"
    #: Whether mp workers execute a whole TAPER chunk in one vectorized
    #: ``Kernel.batch_fn`` call over its payload slice (zero-copy on the
    #: shm plane) instead of one Python call per task:
    #:
    #: * ``"auto"`` (default) — batch chunks of batch-declaring kernels
    #:   when the chunk has at least
    #:   :data:`~repro.runtime.kernel.BATCH_AUTO_MIN_TASKS` tasks;
    #: * ``"on"`` — batch every chunk of a batch-declaring kernel;
    #: * ``"off"`` — always per-task.
    #:
    #: Kernels without a ``batch_fn``, retried chunks, and quarantine
    #: always use the per-task path regardless of this setting.
    batching: str = "auto"
    #: ``multiprocessing`` start method; ``None`` picks the explicit
    #: platform default from
    #: :func:`repro.runtime.backends.mp.default_start_method`: ``fork``
    #: where the platform offers it, else ``spawn``.  ``fork`` is the
    #: deliberate choice on Linux — workers start in milliseconds, and
    #: the pool forks before the coordinator starts its tracer/queue
    #: threads so the classic fork+threads hazard does not apply.
    #: Python 3.14 flips the stdlib default away from ``fork``; pinning
    #: it here keeps runs reproducible across interpreter upgrades.
    #: Under every method kernels and pickle-plane payloads must pickle
    #: (validated per op at session setup).
    mp_start_method: Optional[str] = None
    #: Watchdog: seconds the mp coordinator waits for worker progress
    #: before terminating the pool and raising.
    mp_timeout: float = 120.0
    #: What the mp coordinator does when a worker dies or a kernel
    #: raises: ``"retry"`` (reclaim/re-enqueue chunks, continue degraded
    #: on the survivors) or ``"fail"`` (the pre-fault-tolerance
    #: behaviour: raise :class:`MpBackendError` immediately).
    on_fault: str = "retry"
    #: Per-task retry budget for failing kernels; a task that fails more
    #: than this many times is quarantined and reported in the
    #: :class:`~repro.runtime.faults.FaultReport` instead of retried
    #: forever.
    max_retries: int = 2
    #: Seconds between the coordinator's liveness sweeps
    #: (``Process.is_alive()`` + heartbeat timestamps over the pool).
    heartbeat_interval: float = 0.2
    #: Base of the exponential retry backoff: a chunk's n-th retry waits
    #: ``retry_backoff * 2**(n-1)`` seconds before re-dispatch.
    retry_backoff: float = 0.05
    #: Deterministic fault-injection plan (``None`` = no injection).
    fault_plan: Optional[FaultPlan] = None
    #: Directory for the durable chunk journal + run manifest (``None``
    #: = no checkpointing).  mp backend only; see
    #: :mod:`repro.runtime.checkpoint`.
    checkpoint_dir: Optional[str] = None
    #: Completed-chunk records between journal fsyncs (every append is
    #: still flushed, so a coordinator crash loses nothing; a *host*
    #: crash loses at most this many chunks).
    checkpoint_interval: int = 1
    #: Replay ``checkpoint_dir``'s journal before running: completed
    #: chunks are skipped, TAPER statistics re-seeded from journaled
    #: samples, and only the remaining work re-rationed.  Refused with
    #: :class:`~repro.runtime.checkpoint.CheckpointMismatchError` when
    #: the journal was written under a different scheduling config.
    resume: bool = False
    #: Straggler speculation: when a chunk's elapsed wall-clock time
    #: exceeds ``speculation_factor`` times its Kruskal–Weiss tail
    #: estimate, an idle worker is handed a duplicate; first result
    #: wins, the loser is dropped (never double-counted).  ``None``
    #: disables speculation (the default — duplicates cost real work).
    speculation_factor: Optional[float] = None
    #: Graceful wall-clock budget in seconds: when exceeded the mp
    #: coordinator drains in-flight chunks, flushes the journal, stops
    #: workers cleanly and returns a partial result flagged
    #: ``cancelled=True`` (unlike ``mp_timeout``, which raises).
    wall_clock_limit: Optional[float] = None
    #: Seconds a cancelled run waits for in-flight chunks to report
    #: before giving up on them (they are journaled if they make it; a
    #: hung worker cannot turn Ctrl-C — or a serve drain — into a hang).
    drain_grace: float = 5.0
    #: Streaming (``StreamOp``) admission window: at most this many
    #: *unsettled* pages may be admitted at once; admission of the next
    #: page blocks until the oldest outstanding page fully settles.
    stream_window: int = 4
    #: Streaming backpressure high watermark, in *tasks* waiting
    #: (pending + in flight) across all stream ops: admission pauses at
    #: or above this many and resumes at ``stream_low_watermark``.
    #: ``None`` derives it from the window (``8 ×`` the mean page size
    #: seen so far, recomputed per page).
    stream_high_watermark: Optional[int] = None
    #: Streaming backpressure low watermark (hysteresis release point);
    #: ``None`` derives ``stream_high_watermark // 2``.  Must be below
    #: the high watermark when both are given.
    stream_low_watermark: Optional[int] = None
    #: Exponential-decay factor for streaming TAPER cost statistics:
    #: each observation carries weight ``stream_decay`` against the
    #: running moments, so chunk sizing tracks cost drift across the
    #: stream instead of averaging over its whole history.  ``1.0``
    #: would weight every sample equally (plain online moments).
    stream_decay: float = 0.05
    #: Elasticity/self-healing knobs for the ``WorkerPool`` every mp run
    #: borrows — the one :meth:`MultiprocessingBackend.prepare` keeps,
    #: or the ephemeral one a plain run builds.  ``None`` means
    #: ``PoolConfig()``: a dead worker is respawned under backoff, up to
    #: ``max_respawns=3`` deaths per slot.  Ignored by the simulator and
    #: by ``dist`` (each host agent runs its own pool).
    pool: Optional[PoolConfig] = None
    #: Host agents for the ``dist`` backend, as a comma-separated
    #: ``host:port[,host:port...]`` list (each entry one running
    #: ``repro hostagent``).  Required by — and only meaningful to —
    #: ``backend="dist"``; the coordinator schedules over the union of
    #: every agent's workers, so ``processors`` is ignored there.
    hosts: Optional[str] = None
    #: Observability sink shared by both backends (``None`` = no tracing).
    tracer: Optional["Tracer"] = field(default=None, compare=False)
    #: Seed for synthetic-cost generation in drivers that need one.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.processors < 1:
            raise ValueError("RunConfig.processors must be >= 1")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; pick from {BACKENDS}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; pick from {POLICIES}"
            )
        if self.allocator not in ALLOCATORS:
            raise ValueError(
                f"unknown allocator {self.allocator!r}; pick from {ALLOCATORS}"
            )
        if self.sim_model not in SIM_MODELS:
            raise ValueError(
                f"unknown sim_model {self.sim_model!r}; pick from {SIM_MODELS}"
            )
        if self.cost_source not in COST_SOURCES:
            raise ValueError(
                f"unknown cost_source {self.cost_source!r}; "
                f"pick from {COST_SOURCES}"
            )
        if self.data_plane not in DATA_PLANES:
            raise ValueError(
                f"unknown data_plane {self.data_plane!r}; "
                f"pick from {DATA_PLANES}"
            )
        if self.batching not in BATCHINGS:
            raise ValueError(
                f"unknown batching {self.batching!r}; "
                f"pick from {BATCHINGS}"
            )
        if self.mp_start_method not in MP_START_METHODS:
            raise ValueError(
                f"unknown mp_start_method {self.mp_start_method!r}; "
                f"pick from {MP_START_METHODS[1:]} or None"
            )
        if self.min_chunk < 1:
            raise ValueError("RunConfig.min_chunk must be >= 1")
        if self.sample_tasks < 1:
            raise ValueError("RunConfig.sample_tasks must be >= 1")
        if self.time_scale <= 0:
            raise ValueError("RunConfig.time_scale must be > 0")
        if self.mp_timeout <= 0:
            raise ValueError("RunConfig.mp_timeout must be > 0")
        if self.on_fault not in ON_FAULT:
            raise ValueError(
                f"unknown on_fault {self.on_fault!r}; pick from {ON_FAULT}"
            )
        if self.max_retries < 0:
            raise ValueError("RunConfig.max_retries must be >= 0")
        if self.heartbeat_interval <= 0:
            raise ValueError("RunConfig.heartbeat_interval must be > 0")
        if self.retry_backoff < 0:
            raise ValueError("RunConfig.retry_backoff must be >= 0")
        if self.checkpoint_interval < 1:
            raise ValueError("RunConfig.checkpoint_interval must be >= 1")
        if self.resume and not self.checkpoint_dir:
            raise ValueError(
                "RunConfig.resume=True requires checkpoint_dir to name "
                "the journal to replay"
            )
        if self.speculation_factor is not None and self.speculation_factor <= 0:
            raise ValueError(
                "RunConfig.speculation_factor must be > 0 (or None to "
                "disable speculation)"
            )
        if self.wall_clock_limit is not None and self.wall_clock_limit <= 0:
            raise ValueError(
                "RunConfig.wall_clock_limit must be > 0 (or None for "
                "no graceful limit)"
            )
        if self.drain_grace <= 0:
            raise ValueError("RunConfig.drain_grace must be > 0")
        if self.stream_window < 1:
            raise ValueError("RunConfig.stream_window must be >= 1")
        if (
            self.stream_high_watermark is not None
            and self.stream_high_watermark < 1
        ):
            raise ValueError(
                "RunConfig.stream_high_watermark must be >= 1 (or None "
                "to derive it from the page size)"
            )
        if self.stream_low_watermark is not None:
            if self.stream_low_watermark < 0:
                raise ValueError(
                    "RunConfig.stream_low_watermark must be >= 0"
                )
            if (
                self.stream_high_watermark is not None
                and self.stream_low_watermark >= self.stream_high_watermark
            ):
                raise ValueError(
                    "RunConfig.stream_low_watermark must be below "
                    "stream_high_watermark (hysteresis needs a gap)"
                )
        if not 0 < self.stream_decay <= 1:
            raise ValueError(
                "RunConfig.stream_decay must be in (0, 1]"
            )
        if self.hosts is not None:
            entries = [h.strip() for h in self.hosts.split(",") if h.strip()]
            if not entries:
                raise ValueError(
                    "RunConfig.hosts must name at least one host:port "
                    "agent (or be None)"
                )
            for entry in entries:
                host, _, port = entry.rpartition(":")
                if not host or not port.isdigit():
                    raise ValueError(
                        f"RunConfig.hosts entry {entry!r} is not host:port"
                    )
        if self.pool is not None and not isinstance(self.pool, PoolConfig):
            raise ValueError(
                "RunConfig.pool must be a PoolConfig (or None for its "
                "defaults)"
            )
        if (
            self.machine is not None
            and self.machine.processors != self.processors
        ):
            raise ValueError(
                "RunConfig.machine.processors "
                f"({self.machine.processors}) disagrees with "
                f"RunConfig.processors ({self.processors})"
            )

    # -- derived views ------------------------------------------------------

    def machine_config(self) -> MachineConfig:
        """The simulated machine (defaulted to the configured width)."""
        if self.machine is not None:
            return self.machine
        return MachineConfig(processors=self.processors)

    def policy_instance(self):
        """A fresh chunk policy (policies carry per-operation state)."""
        from .schedulers import make_policy

        return make_policy(self.policy, min_chunk=self.min_chunk)

    def with_(self, **changes) -> "RunConfig":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)
